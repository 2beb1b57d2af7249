"""Timing helpers: the machine-speed probe, calibrated job timing and the
tail-percentile rule.

The machine this benchmark was written on changes speed by up to a
third within seconds (other tenants share the cores), and wall time
tracks CPU time, so neither clock alone is steady between runs.  Each
job is therefore bracketed by a short probe: a fixed piece of pure
Python work that shares no code with twistlab.  A job's time is
reported in reference seconds: its wall time scaled by
(PROBE_NOMINAL_S / probe time measured around it) ** SPEED_EXPONENT,
an estimate of the time the job would take while the probe takes
PROBE_NOMINAL_S.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Mean probe time on the reference machine (2-core x86-64 container,
# CPython 3.11).  Only a scale: it converts probe units back to seconds.
PROBE_NOMINAL_S = 0.0095
PROBES_PER_TICK = 2
# Job time grows as probe time to this power: the least-squares slope of
# log job time on log probe time over repeated classify jobs on the
# reference machine (0.71).  Scaling by the full ratio over-corrected
# runs made while the machine was fast.
SPEED_EXPONENT = 0.7

TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10


_PROBE_VALUES = [Fraction(i % 17 + 1, i % 23 + 2) for i in range(1500)]


def probe_work():
    """Fixed pure-Python work in the mix twistlab runs: rational
    products summed into a dict keyed by tuples, then sorted.  Its
    working set (a few hundred KB) is near a twistlab job's; a probe of
    a few KB tracked job times less closely (correlation 0.72 against
    0.77 over repeated classify jobs)."""
    xs = _PROBE_VALUES
    acc = {}
    for i, x in enumerate(xs):
        key = (i % 97, i % 5)
        acc[key] = acc.get(key, 0) + x * xs[(i * 7) % 1500]
    return sum(acc.values()), sorted(acc.items())[0]


def probe() -> float:
    """Wall time of one probe run, in seconds."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class Calibrator:
    """Probes taken between jobs, and the speed factor of each job.

    Call tick() before every job and once after the last one; the
    factor of job i is PROBE_NOMINAL_S over the mean probe time of the
    ticks before and after it: on the reference machine a job's time
    follows the mean of the probes around it more closely than their
    minimum."""

    def __init__(self):
        self.probes = []

    def tick(self):
        self.probes.append(sum(probe() for _ in range(PROBES_PER_TICK))
                           / PROBES_PER_TICK)

    def factor(self, i: int) -> float:
        pair = self.probes[i:i + 2]
        return (PROBE_NOMINAL_S / (sum(pair) / len(pair))) ** SPEED_EXPONENT

    def run_factor(self) -> float:
        return (PROBE_NOMINAL_S / statistics.mean(self.probes)) \
            ** SPEED_EXPONENT


def tail_index(n: int):
    """Index into the sorted samples of the reported tail: the highest
    sample with at least TAIL_BEYOND samples above it.  None when there
    are fewer than TAIL_MIN_SAMPLES samples, where no tail is reported."""
    if n < TAIL_MIN_SAMPLES:
        return None
    return n - TAIL_BEYOND - 1


def tail_percentile(n: int):
    """The percentile named by tail_index, as a number in (0, 100)."""
    k = tail_index(n)
    return None if k is None else 100.0 * (k + 1) / n


def tail_value(samples):
    k = tail_index(len(samples))
    return None if k is None else sorted(samples)[k]
