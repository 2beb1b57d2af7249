"""The process-wide memo of enumerate_simple_twisted: a twist with the
content of an earlier one gets the earlier result, which is what a
fresh enumeration gives; different seeds get their own results, an
exception is not kept, and the kept results stay within MAX_WORK.

conftest.py empties the memo before each test."""
import dataclasses
import random

import pytest

from twistlab import classify
from twistlab.classify import (
    ClassifyError,
    conditions_status,
    enumerate_simple_twisted,
    enumeration_memo_counts,
    instantiate_class,
    twisted_conditions,
)
from twistlab.cocycle import TwistData, build_epsilon
from twistlab.lattice import TwistedLattice
from twistlab.scalar import RootPair, as_scalar, root_of_unity

from test_golden import TL, W
from test_classify import ROT, neg


SWAP_2 = ([[2, 0], [0, 2]], [[0, 1], [1, 0]])
# eps(e_0, e_0) = -1 on the swap, with every other seed the default
EPS_SEED = build_epsilon(TwistedLattice(*SWAP_2))
EPS_SEED[(0, 0)] = as_scalar(-1)


def _twist(gram, sigma, **seeds):
    return TwistData(TwistedLattice(gram, sigma), **seeds)


def _key(gram, sigma):
    return (tuple(map(tuple, gram)), tuple(map(tuple, sigma)))


def test_stream_hits_give_the_fresh_enumeration():
    # the seed-3 classify_stream list at 30 s: four rounds of the pool,
    # 47 distinct lattices (the two known faults among them)
    jobs = W.classify_inputs(random.Random(3),
                             W.rounds_for("classify_stream", 30), TL)
    assert len(jobs) == 208
    first = {}
    for job in jobs:
        res = W.run_classify_job(TL, job)
        first.setdefault(_key(job["gram"], job["sigma"]), res)
    assert len(first) == 47
    assert {_key(g, s) for g, s in W.KNOWN_FAULTS} <= set(first)
    assert enumeration_memo_counts() == {
        "hits": 161, "misses": 47, "results": 47,
        "entries": sum(len(r.entries) for r in first.values()),
        "classes": sum(len(r.classes) for r in first.values())}
    for (gram, sigma), res in first.items():
        # a second twist of the same content is a hit on the same
        # value, and it is what the memo-free body gives a third twist
        assert enumerate_simple_twisted(_twist(gram, sigma)) is res
        assert W.summarize_classify(res) == \
            W.summarize_classify(classify._enumerate(_twist(gram, sigma)))
    assert enumeration_memo_counts()["hits"] == 161 + 47


@pytest.mark.parametrize("gram, sigma, seeds", [
    # phi(e_0) = -1 moves the root of the one orbit from 1 to -1
    ([[2]], [[1]], {"phi_seed": {0: as_scalar(-1)}}),
    # eps(e_0, e_0) = -1 moves the swap's default phi, and its first
    # root from 1 to i
    (*SWAP_2, {"eps_seed": EPS_SEED}),
])
def test_each_seed_gets_its_own_result(gram, sigma, seeds):
    plain = enumerate_simple_twisted(_twist(gram, sigma))
    seeded = enumerate_simple_twisted(_twist(gram, sigma, **seeds))
    assert enumeration_memo_counts()["misses"] == 2
    assert W.summarize_classify(plain) != W.summarize_classify(seeded)
    assert W.summarize_classify(plain) == \
        W.summarize_classify(classify._enumerate(_twist(gram, sigma)))
    assert W.summarize_classify(seeded) == W.summarize_classify(
        classify._enumerate(_twist(gram, sigma, **seeds)))
    assert enumerate_simple_twisted(_twist(gram, sigma, **seeds)) is seeded
    assert enumerate_simple_twisted(_twist(gram, sigma)) is plain


def test_phi_seeds_on_different_grids_are_different_keys():
    # phi(e_0) = zeta_4 and phi(e_0) = zeta_8 on [[2]] with sigma = 1
    # have the same exponent on their own grids, 4 and 8: the key holds
    # the grid, so the second twist is a miss with roots of order 8
    gram, sigma = [[2]], [[1]]
    results = []
    for n in (4, 8):
        T = _twist(gram, sigma, phi_seed={0: root_of_unity(n)})
        results.append(enumerate_simple_twisted(T))
        assert W.summarize_classify(results[-1]) == W.summarize_classify(
            classify._enumerate(_twist(gram, sigma,
                                       phi_seed={0: root_of_unity(n)})))
    assert enumeration_memo_counts()["misses"] == 2
    assert W.summarize_classify(results[0]) != \
        W.summarize_classify(results[1])


def test_an_eps_seed_alone_is_its_own_key():
    # with phi seeded alike, eps(e_0, e_0) = -1 changes no class of the
    # swap (nor of any small lattice tried), yet the key holds the whole
    # cocycle: the two twists are two misses, each the fresh result
    plain = _twist(*SWAP_2)
    seeded = _twist(*SWAP_2, eps_seed=EPS_SEED, phi_seed=plain.phi_seed)
    assert seeded.phi_seed == plain.phi_seed
    for T in (plain, seeded):
        assert W.summarize_classify(enumerate_simple_twisted(T)) == \
            W.summarize_classify(classify._enumerate(T))
    assert enumeration_memo_counts()["misses"] == 2


def test_a_raising_enumeration_is_not_kept(monkeypatch):
    # the doubled lift of test_failed_block_certificate_raises: the
    # refusal is raised again by the next twist of the same content,
    # and once the lift is mended the enumeration runs and is kept
    real = classify._GroupScalars.psi

    def doubled(self, coords):
        g, s = real(self, coords)
        return g, s * RootPair(2, 0, 1)

    gram, sigma = [[2, 1], [1, 2]], neg(2)
    monkeypatch.setattr(classify._GroupScalars, "psi", doubled)
    for _ in range(2):
        with pytest.raises(ClassifyError, match="fails its certificate"):
            enumerate_simple_twisted(_twist(gram, sigma))
    monkeypatch.undo()
    assert enumeration_memo_counts()["results"] == 0
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert res.classes
    assert enumerate_simple_twisted(_twist(gram, sigma)) is res
    assert enumeration_memo_counts() == {
        "hits": 1, "misses": 3, "results": 1, "entries": 4, "classes": 1}


def test_the_memo_keys_on_max_work(monkeypatch):
    # 2 I_2 with sigma = 1 has 4 eta cosets: kept at the default cap,
    # refused at a cap of 3 as a fresh enumeration refuses it (the
    # refusal keeps nothing and evicts nothing), and a hit again at the
    # default
    gram, sigma = [[2, 0], [0, 2]], [[1, 0], [0, 1]]
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert len(res.classes) == 4
    default = classify.MAX_WORK
    monkeypatch.setattr(classify, "MAX_WORK", 3)
    with pytest.raises(classify.SizeCapExceeded, match="work cap 3$"):
        enumerate_simple_twisted(_twist(gram, sigma))
    monkeypatch.setattr(classify, "MAX_WORK", default)
    assert enumerate_simple_twisted(_twist(gram, sigma)) is res
    assert enumeration_memo_counts() == {
        "hits": 1, "misses": 2, "results": 1, "entries": 1, "classes": 4}


def test_least_recently_used_results_leave_first(monkeypatch):
    # with sigma = 1 on [n] a result weighs 1 + 1 entry + n classes:
    # [2] weighs 4, [3] 5 and [1] 3, against a budget of 10
    monkeypatch.setattr(classify, "MAX_WORK", 10)

    def enum(n):
        return enumerate_simple_twisted(_twist([[n]], [[1]]))

    two, three = enum(2), enum(3)
    assert enumeration_memo_counts()["results"] == 2
    assert enum(2) is two          # [2] is now the most recently used
    enum(1)                        # 12 > 10: [3] leaves, [2] stays
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["entries"], counts["classes"]) == \
        (2, 2, 3)
    assert enum(2) is two
    assert enum(3) is not three    # enumerated again
    assert enumeration_memo_counts()["misses"] == 4
    # [4] has 4 eta cosets, within the enumeration's cap of 5, but it
    # weighs 6 alone: it is returned and not kept, and the next miss
    # trims the kept results to the lowered budget, oldest first
    monkeypatch.setattr(classify, "MAX_WORK", 5)
    four = enum(4)
    assert len(four.classes) == 4
    assert enumeration_memo_counts() == {
        "hits": 2, "misses": 5, "results": 1, "entries": 1, "classes": 3}
    assert enum(4) is not four


def test_kept_results_are_frozen():
    res = enumerate_simple_twisted(_twist([[2, 0], [0, 2]], ROT))
    assert isinstance(res.classes, tuple) and isinstance(res.entries, tuple)
    assert isinstance(res.eta_reps, tuple)
    assert all(isinstance(e.classes, tuple) for e in res.entries)
    for obj in (res, res.entries[0], res.classes[0]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.order = 0


@pytest.mark.parametrize("gram,sigma", [
    ([[2]], [[1]]),
    ([[2]], [[-1]]),
    ([[2, 1], [1, 2]], neg(2)),
    ([[2, 0], [0, 2]], ROT),
])
def test_class_modules_after_a_memo_hit(gram, sigma):
    # the twisted_ops path: a second twist of equal content gets the
    # first twist's classes from the memo, and instantiate_class builds
    # each class's algebra afresh on the second twist; the modules are
    # those of a fresh enumeration and pass the twisted conditions
    res = enumerate_simple_twisted(_twist(gram, sigma))
    T2 = _twist(gram, sigma)
    assert enumerate_simple_twisted(T2) is res
    assert res.classes
    T3 = _twist(gram, sigma)
    fresh = classify._enumerate(T3).classes
    assert fresh == res.classes
    for cls, cls3 in zip(res.classes, fresh):
        M = instantiate_class(T2, cls, trunc=2)
        M3 = instantiate_class(T3, cls3, trunc=2)
        assert M.omega.lines == M3.omega.lines
        assert M.omega.weights == M3.omega.weights
        assert conditions_status(twisted_conditions(T2, M)) == "pass"
