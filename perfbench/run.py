"""twistlab benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; twistlab is imported from its src/.
The run is a closed loop with one caller: a fixed job list made from
the seed and the run length, each job started when the previous one
has returned.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; progress and
problems go to standard error.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3

sys.path.insert(0, HERE)

import checks  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def load_twistlab():
    """Import twistlab afresh (dropping any earlier import) and return
    its modules as a namespace."""
    for name in list(sys.modules):
        if name == "twistlab" or name.startswith("twistlab."):
            del sys.modules[name]
    ns = types.SimpleNamespace(pkg=importlib.import_module("twistlab"))
    for m in tracer.MODULES:
        setattr(ns, m, importlib.import_module("twistlab." + m))
    return ns


def make_jobs(workload, tl, seed, seconds):
    rng = random.Random(seed)
    rounds = W.rounds_for(workload, seconds)
    if workload == "check_jobs":
        return W.check_inputs(rng, rounds)
    if workload == "twisted_ops":
        return W.ops_inputs(rng, rounds)
    return W.classify_inputs(rng, rounds, tl)


def run_job(workload, tl, job, workdir, tag):
    if workload == "check_jobs":
        return W.run_check_job(tl, job, workdir, tag)
    if workload == "twisted_ops":
        return W.run_ops_job(tl, job)
    return W.run_classify_job(tl, job)


def warm_up(workload, tl, workdir):
    """Fill twistlab's module-level caches on inputs outside the list."""
    if workload == "check_jobs":
        gram, sigma, trunc = W.CHECK_WARMUP
        W.run_check_job(tl, {"gram": gram, "sigma": sigma, "trunc": trunc,
                             "bound": 1}, workdir, "warmup")
    elif workload == "twisted_ops":
        for name, (gram, sigma), module, kind in W.OPS_WARMUP:
            W.run_ops_job(tl, {"lattice": name, "gram": gram,
                               "sigma": sigma, "module": module,
                               "kind": kind,
                               "arg": W.ops_candidates(gram, kind)[0]})
    else:
        for gram, sigma in W.CLASSIFY_WARMUP:
            W.run_classify_job(tl, {"gram": gram, "sigma": sigma})


def set_up(workload, seed, seconds, workdir):
    """Import, input generation and warm-up, SETUP_REPEATS times; the
    last repetition's modules and inputs are the ones used.  Returns
    (twistlab namespace, jobs, median set-up time in reference s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        cal = measure.Calibrator()
        cal.tick()
        t0 = time.perf_counter()
        tl = load_twistlab()
        jobs = make_jobs(workload, tl, seed, seconds)
        warm_up(workload, tl, workdir)
        elapsed = time.perf_counter() - t0
        cal.tick()
        times.append(elapsed * cal.factor(0))
    return tl, jobs, statistics.median(times)


def timed_list(workload, tl, jobs, workdir, tr=None):
    """Run every job once, a probe before each and after the last.
    Returns (outputs, reference seconds per job, wall seconds per job,
    calibrator); a job that raises has output None."""
    cal = measure.Calibrator()
    outputs, raw = [], []
    for k, job in enumerate(jobs):
        cal.tick()
        if tr is not None:
            tr.job_id = k
        t0 = time.perf_counter()
        try:
            out = run_job(workload, tl, job, workdir, f"job{k}")
        except Exception:  # a job that raises is a failed operation
            traceback.print_exc()
            out = None
        raw.append(time.perf_counter() - t0)
        outputs.append(out)
    cal.tick()
    return outputs, [t * cal.factor(i) for i, t in enumerate(raw)], raw, cal


def comparable(workload, output):
    if output is not None and workload == "classify_stream":
        return W.summarize_classify(output)
    return output


def identities(workload, outputs):
    """Exact verdicts the program returned within the list: pass lines
    (check_jobs), pass verdicts (twisted_ops), enumerated classes
    (classify_stream)."""
    done = [o for o in outputs if o is not None]
    if workload == "check_jobs":
        return sum(W.check_passes(o) for o in done)
    if workload == "twisted_ops":
        return sum(v.count("pass") for v in done)
    return sum(len(o.classes) for o in done)


def verify(workload, tl, jobs, outputs):
    """(failed, correct): jobs that raised or showed a known fault count
    as failed; any other wrong output makes the run incorrect."""
    t0 = time.perf_counter()
    raised = [k for k, o in enumerate(outputs) if o is None]
    kept = [k for k, o in enumerate(outputs) if o is not None]
    problems, faults = checks.CHECKERS[workload](
        tl, [jobs[k] for k in kept], [outputs[k] for k in kept])
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    for line in faults:
        print(f"known fault: {line}", file=sys.stderr)
    print(f"checks took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return len(raised) + len(faults), not problems


def layer_metrics(tr, factor):
    """Per-layer metrics from the traced list."""
    counts = tr.counts()
    own = tr.layer_self()

    def total(prefix, names=None):
        return sum(c for n, c in counts.items() if n.startswith(prefix)
                   and (names is None or n.split(".")[-1] in names))

    adds = total("scalar:CycScalar.", {"__add__", "__radd__"})
    muls = total("scalar:CycScalar.", {"__mul__", "__rmul__"})
    coeffs = counts.get("fdist:GenSeries.coeff", 0)
    applies = counts.get("fock:FockOp.apply", 0)
    values = {
        "scalar.add_calls": (adds, "count"),
        "scalar.mul_calls": (muls, "count"),
        "scalar.inverse_calls": (counts.get("scalar:CycScalar.inverse", 0),
                                 "count"),
        "scalar.rational_share": (tr.rational_ops / max(1, adds + muls),
                                  "ratio"),
        "linalg.calls": (total("linalg:"), "count"),
        "lattice.calls": (total("lattice:"), "count"),
        "cocycle.epsilon_calls": (counts.get("cocycle:TwistData.epsilon", 0),
                                  "count"),
        "cocycle.commutator_calls": (counts.get("cocycle:commutator_map", 0),
                                     "count"),
        "classify.algebras": (counts.get(
            "classify:PresentedAlgebraA.__init__", 0), "count"),
        "classify.tau_calls": (counts.get("classify:PresentedAlgebraA.tau",
                                          0), "count"),
        "classify.lift_calls": (counts.get("classify:FiniteQuotient.lift",
                                           0), "count"),
        "fdist.coeff_calls": (coeffs, "count"),
        "fdist.memo_hit_share": (tr.memo_hits / max(1, coeffs), "ratio"),
        "fdist.products": (counts.get("fdist:nth_product", 0)
                           + counts.get("fdist:nth_product_kernel", 0),
                           "count"),
        "fock.op_applies": (applies, "count"),
        "fock.mode_applies": (counts.get("fock:FockModule.mode_apply", 0),
                              "count"),
        "fock.vector_adds": (counts.get("fock:FockVector.__add__", 0),
                             "count"),
        "fock.untestable_s": (tr.untestable_s * factor, "s"),
        "fock.poisoned_share": (tr.poisoned / max(1, applies), "ratio"),
    }
    for layer in ("scalar", "linalg", "lattice", "cocycle", "classify",
                  "fdist", "fock", "cli"):
        values[f"{layer}.self_s"] = (own.get(layer, 0.0) * factor, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twistlab", "__init__.py")):
        print(f"no twistlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    wl = args.workload
    tl, jobs, setup_s = set_up(wl, args.seed, args.seconds, workdir)
    print(f"{wl}: {len(jobs)} jobs, set-up {setup_s:.3f} s",
          file=sys.stderr)

    if args.trace:
        tr = tracer.Tracer(tl)
        tr.install()
        try:
            outputs, times, _raw, cal = timed_list(wl, tl, jobs, workdir, tr)
        finally:
            tr.uninstall()
        plain, plain_times, _raw, _cal = timed_list(wl, tl, jobs, workdir)
        same = [comparable(wl, a) == comparable(wl, b)
                for a, b in zip(outputs, plain)]
        print(f"trace: {len(tr.start)} spans, overhead "
              f"{sum(times) / sum(plain_times):.2f}x, outputs equal to the "
              f"untraced list: {all(same)}", file=sys.stderr)
        # one dump per workload (about 130 MB at 30 s): the next traced
        # run of the workload replaces it
        tr.dump(os.path.join(OUT_DIR, f"spans-{wl}"), args.seed)
        metrics = layer_metrics(tr, cal.run_factor())
        failed, correct = verify(wl, tl, jobs, plain)
        correct = correct and all(same)
    else:
        outputs, times, raw, cal = timed_list(wl, tl, jobs, workdir)
        print(f"median probe {statistics.median(cal.probes) * 1e3:.3f} ms, "
              f"list wall {sum(raw):.1f} s", file=sys.stderr)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = verify(wl, tl, jobs, outputs)
        tail = measure.tail_value(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(jobs) / sum(times), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(times), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "identities_verified": {"value": identities(wl, outputs),
                                    "unit": "count"},
        }
        print(f"tail percentile p{measure.tail_percentile(len(times)):.1f} "
              f"of {len(times)} jobs", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
