"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import intmath  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


# -- the tail-percentile rule -----------------------------------------

def test_no_tail_under_forty_samples():
    for n in range(0, measure.TAIL_MIN_SAMPLES):
        assert measure.tail_index(n) is None
        assert measure.tail_value(list(range(n))) is None


def test_tail_has_ten_samples_beyond():
    for n in range(measure.TAIL_MIN_SAMPLES, 400):
        samples = [random.Random(n).random() for _ in range(n)]
        samples = [x * (1 + i) for i, x in enumerate(samples)]
        tail = measure.tail_value(samples)
        assert sum(1 for x in samples if x > tail) >= 10
        # and it is the highest such sample
        higher = sorted(samples)[measure.tail_index(n) + 1]
        assert sum(1 for x in samples if x > higher) < 10


def test_tail_percentile_names_the_sample():
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(39) is None


# -- self time ---------------------------------------------------------

def test_self_time_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9];
    # a has child c [2, 3]; b has children d [5, 7] and e [6, 8]
    # (overlapping, counted once) and f [8.5, 12] (clipped to b)
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 8.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, 3, 3, 3]
    own = tracer.self_times(start, end, parent)
    expect = [10 - 3 - 4, 3 - 1, 1, 4 - 3 - 0.5, 2, 2, 3.5]
    assert [round(x, 9) for x in own] == expect


def test_self_time_sums_to_root_duration():
    rng = random.Random(7)
    start, end, parent = [0.0], [100.0], [-1]

    def grow(i, depth):
        t = start[i]
        while depth < 4 and rng.random() < 0.7:
            s = t + rng.random()
            e = s + rng.random() * (end[i] - s) / 2
            if e <= s:
                break
            start.append(s)
            end.append(e)
            parent.append(i)
            grow(len(start) - 1, depth + 1)
            t = e

    grow(0, 0)
    own = tracer.self_times(start, end, parent)
    assert all(x >= -1e-9 for x in own)
    assert abs(sum(own) - 100.0) < 1e-6


def test_tracer_spans_and_self_time_on_twistlab():
    tl = run.load_twistlab()
    tr = tracer.Tracer(tl)
    tr.install()
    try:
        lat = tl.lattice.TwistedLattice([[2, 0], [0, 2]], [[0, -1], [1, 0]])
        res = tl.classify.enumerate_simple_twisted(tl.cocycle.TwistData(lat))
    finally:
        tr.uninstall()
    assert len(res.classes) == 2
    counts = tr.counts()
    assert counts["classify:enumerate_simple_twisted"] == 1
    assert counts["lattice:TwistedLattice.__init__"] == 1
    assert counts["scalar:CycScalar.__mul__"] > 0
    # top-level spans are the three calls made here; every other span
    # has a parent that started no later and ended no earlier
    roots = [i for i, p in enumerate(tr.parent) if p < 0]
    assert [tr.names[tr.name[i]] for i in roots] == [
        "lattice:TwistedLattice.__init__", "cocycle:TwistData.__init__",
        "classify:enumerate_simple_twisted"]
    for i, p in enumerate(tr.parent):
        if p >= 0:
            assert tr.start[p] <= tr.start[i] and tr.end[i] <= tr.end[p]
    own = tr.layer_self()
    total = sum(tr.end[i] - tr.start[i] for i in roots)
    assert abs(sum(own.values()) - total) < 1e-6
    # uninstall restored the originals
    assert not hasattr(tl.classify.enumerate_simple_twisted, "__wrapped__")


# -- the lattice generator --------------------------------------------

def test_generator_yields_sigma_invariant_lattices():
    tl = run.load_twistlab()
    rng = random.Random(3)
    orders = set()
    for _ in range(60):
        lat = W.random_twisted_lattice(rng, tl)
        assert isinstance(lat, tl.lattice.TwistedLattice)
        g = [list(r) for r in lat.gram]
        s = [list(r) for r in lat.sigma]
        assert intmath.mat_mul(intmath.transpose(s),
                               intmath.mat_mul(g, s)) == g
        assert intmath.det(g) != 0
        assert 1 <= lat.rank <= 4
        # a signed permutation
        for row in s:
            assert sorted(abs(x) for x in row) == [0] * (lat.rank - 1) + [1]
        orders.add(lat.p)
    assert {1, 2, 4} <= orders


def test_pool_and_stream_shape():
    tl = run.load_twistlab()
    pool = W.classify_pool(tl)
    orders = {len(intmath.powers(s)) for _g, s in pool}
    assert orders == set(W.POOL_QUOTA)
    jobs = W.classify_inputs(random.Random(1), 2, tl)
    assert len(jobs) == 2 * (len(W.CLASSIFY_FIXTURES) + len(W.KNOWN_FAULTS)
                             + len(pool))
    assert sum(j["fault"] for j in jobs) == 2 * len(W.KNOWN_FAULTS)
    for job in jobs:
        g, s = job["gram"], job["sigma"]
        assert intmath.mat_mul(intmath.transpose(s),
                               intmath.mat_mul(g, s)) == g


def test_check_specs_distinct_and_unobstructed():
    jobs = W.check_inputs(random.Random(5), 2)
    assert len(jobs) == 2 * len(W.CHECK_SPECS)
    for spec in jobs:
        assert intmath.obstruction_witness(spec["gram"],
                                           spec["sigma"]) is None


def test_commutator_exponent_matches_twistlab():
    tl = run.load_twistlab()
    rng = random.Random(9)
    for _ in range(20):
        lat = W.random_twisted_lattice(rng, tl, rank_max=3)
        g = [list(r) for r in lat.gram]
        pows = intmath.powers([list(r) for r in lat.sigma])
        p = len(pows)
        for _ in range(5):
            a = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
            b = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
            e = intmath.commutator_exponent(g, pows, a, b)
            assert tl.cocycle.commutator_map(lat, a, b) == \
                tl.scalar.root_of_unity(2 * p, e)
