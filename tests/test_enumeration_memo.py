"""The process-wide memo of enumerate_simple_twisted: a twist with the
content of an earlier one gets the earlier result, which is what a
fresh enumeration gives; different seeds get their own results, an
exception is not kept, and the kept results stay within MAX_WORK.

conftest.py empties the memo before each test."""
import dataclasses
import random
import sys
import threading

import pytest

from twistlab import classify, scalar
from twistlab.classify import (
    ClassOmega,
    ClassifyError,
    conditions_status,
    enumerate_simple_twisted,
    enumeration_memo_counts,
    instantiate_class,
    twisted_conditions,
)
from twistlab.cocycle import TwistData, build_epsilon
from twistlab.fock import FockModule
from twistlab.lattice import TwistedLattice
from twistlab.scalar import RootPair, as_scalar, root_of_unity

from test_golden import TL, W
from test_classify import ROT, neg


SWAP_2 = ([[2, 0], [0, 2]], [[0, 1], [1, 0]])
# eps(e_0, e_0) = -1 on the swap, with every other seed the default
EPS_SEED = build_epsilon(TwistedLattice(*SWAP_2))
EPS_SEED[(0, 0)] = as_scalar(-1)
# the vacuum-space counts of a run that instantiates no class
NO_VACUA = {"vacua": 0, "vacuum_hits": 0, "vacuum_misses": 0}


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
        "classes": sum(len(r.classes) for r in first.values()),
        **NO_VACUA}
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
        "hits": 1, "misses": 3, "results": 1, "entries": 4, "classes": 1,
        **NO_VACUA}


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
        "hits": 1, "misses": 2, "results": 1, "entries": 1, "classes": 4,
        **NO_VACUA}


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
        "hits": 2, "misses": 5, "results": 1, "entries": 1, "classes": 3,
        **NO_VACUA}
    assert enum(4) is not four


def test_kept_results_are_frozen():
    res = enumerate_simple_twisted(_twist([[2, 0], [0, 2]], ROT))
    assert isinstance(res.classes, tuple) and isinstance(res.entries, tuple)
    assert isinstance(res.eta_reps, tuple)
    assert all(isinstance(e.classes, tuple) for e in res.entries)
    for obj in (res, res.entries[0], res.classes[0]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.order = 0


# the lattices of the memo-hit test, and the benchmark's twisted_ops
# lattices (A2.rot3, A2.rot6, A1A1.rot4 and 2A2.rot3)
MEMO_LATTICES = [
    ([[2]], [[1]]),
    ([[2]], [[-1]]),
    ([[2, 1], [1, 2]], neg(2)),
    ([[2, 0], [0, 2]], ROT),
]
ROTATION_LATTICES = list(W.OPS_LATTICES.values())


@pytest.mark.parametrize("gram,sigma", MEMO_LATTICES)
def test_class_modules_after_a_memo_hit(gram, sigma):
    # the twisted_ops path: a second twist of equal content gets the
    # first twist's classes from the memo, and instantiate_class hands
    # every twist of that content the class's one kept vacuum space,
    # built on the twist that first asked for it; the modules are those
    # of a fresh enumeration and pass the twisted conditions
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
        assert M3.omega is M.omega and M3.basis is M.basis


def _vacuum_counts():
    counts = enumeration_memo_counts()
    return counts["vacua"], counts["vacuum_hits"], counts["vacuum_misses"]


def _memo_free_module(gram, sigma, cls, **seeds):
    """A class module on a fresh twist's own algebra, with no memo."""
    T = _twist(gram, sigma, **seeds)
    A = T.presentation.algebra(cls.mu_choice)
    omega = ClassOmega(A, cls.ideal_index, cls.base_weight, cls.eta)
    return T, FockModule(T, omega, 2)


@pytest.mark.parametrize("gram,sigma",
                         MEMO_LATTICES + [SWAP_2] + ROTATION_LATTICES)
def test_kept_vacuum_spaces_match_memo_free_ones(gram, sigma):
    # every class, instantiated on a memo hit, against the class built
    # on a fresh twist's own algebra: the same lines and weights, the
    # same e-action of every basis vector and its negative on every
    # line, and the same twisted-module reports
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert res.classes
    l = len(gram)
    units = [tuple(int(i == j) for i in range(l)) for j in range(l)]
    alphas = units + [tuple(-x for x in u) for u in units]
    for cls in res.classes:
        instantiate_class(_twist(gram, sigma), cls, trunc=2)
        T = _twist(gram, sigma)
        M = instantiate_class(T, cls, trunc=2)
        Tf, Mf = _memo_free_module(gram, sigma, cls)
        assert M.omega.A.twist is not T and Mf.omega.A.twist is Tf
        assert M.omega.lines == Mf.omega.lines
        assert M.omega.weights == Mf.omega.weights
        for alpha in alphas:
            for i in range(M.omega.size):
                assert M.omega.e_act(alpha, i) == Mf.omega.e_act(alpha, i)
        assert twisted_conditions(T, M) == twisted_conditions(Tf, Mf)
    n = len(res.classes)
    assert _vacuum_counts() == (n, n, n)


def test_clearing_the_memo_drops_its_vacuum_spaces():
    gram, sigma = [[2]], [[1]]
    cls = enumerate_simple_twisted(_twist(gram, sigma)).classes[0]
    kept = instantiate_class(_twist(gram, sigma), cls, trunc=2).omega
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is kept
    assert _vacuum_counts() == (1, 1, 1)
    classify.clear_enumeration_memo()
    assert _vacuum_counts() == (0, 0, 0)
    # with no entry for the content the vacuum space is built, not kept
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is not kept
    assert _vacuum_counts() == (0, 0, 1)
    enumerate_simple_twisted(_twist(gram, sigma))
    again = instantiate_class(_twist(gram, sigma), cls, 2).omega
    assert again is not kept
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is again
    assert _vacuum_counts() == (1, 1, 2)


def test_vacuum_spaces_leave_with_their_entry(monkeypatch):
    # with sigma = 1 on [n] a result weighs 1 + 1 entry + n classes, and
    # each kept vacuum space one more: [2] weighs 4, with a vacuum space
    # 5, and [3] 5, against a budget of 10
    monkeypatch.setattr(classify, "MAX_WORK", 10)

    def enum(n):
        return enumerate_simple_twisted(_twist([[n]], [[1]]))

    def omega(n, cls):
        return instantiate_class(_twist([[n]], [[1]]), cls, 2).omega

    two = enum(2)
    kept = omega(2, two.classes[0])
    enum(3)                        # 10: both kept, [3] the most recent
    assert _vacuum_counts() == (1, 0, 1)
    # a second vacuum space of [2] makes it the most recent and the
    # weight 11: [3] leaves, [2] stays with both its vacuum spaces
    other = omega(2, two.classes[1])
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["vacua"]) == (1, 2)
    assert omega(2, two.classes[0]) is kept
    assert omega(2, two.classes[1]) is other
    # [3] and then [1] are enumerated again: 6 + 5 + 3 > 10, so [2]
    # leaves, its vacuum spaces with it
    enum(3)
    enum(1)
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["vacua"]) == (2, 0)
    enum(2)
    assert omega(2, two.classes[0]) is not kept
    # an entry that a vacuum space pushes past the budget leaves at once,
    # the vacuum space with it, and the module is still built
    monkeypatch.setattr(classify, "MAX_WORK", 4)
    classify.clear_enumeration_memo()
    enum(2)
    assert enumeration_memo_counts()["results"] == 1
    T = _twist([[2]], [[1]])
    M = instantiate_class(T, two.classes[0], 2)
    assert enumeration_memo_counts()["results"] == 0
    assert _vacuum_counts() == (0, 0, 1)
    assert conditions_status(twisted_conditions(T, M)) == "pass"


def test_a_result_too_heavy_to_keep_still_instantiates(monkeypatch):
    # [4] with sigma = 1 weighs 6 alone: at a budget of 5 its result is
    # not kept, and neither are its vacuum spaces; its modules are those
    # of the default budget, memo-free
    gram, sigma = [[4]], [[1]]
    monkeypatch.setattr(classify, "MAX_WORK", 5)
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert len(res.classes) == 4
    modules = []
    for cls in res.classes:
        T = _twist(gram, sigma)
        M = instantiate_class(T, cls, trunc=2)
        assert instantiate_class(T, cls, 2).omega is not M.omega
        modules.append((T, M))
    assert enumeration_memo_counts()["results"] == 0
    assert _vacuum_counts() == (0, 0, 8)
    monkeypatch.undo()
    for cls, (T, M) in zip(res.classes, modules):
        Tf, Mf = _memo_free_module(gram, sigma, cls)
        assert M.omega.lines == Mf.omega.lines
        assert M.omega.weights == Mf.omega.weights
        assert twisted_conditions(T, M) == twisted_conditions(Tf, Mf)
        assert conditions_status(twisted_conditions(T, M)) == "pass"


def test_each_key_gets_its_own_vacuum_spaces(monkeypatch):
    # phi(e_0) = zeta_4 and zeta_8 on [[2]] with sigma = 1 (two grids),
    # and the default seeds, each under two conductor caps: six keys,
    # six vacuum spaces for the first class of each, each the memo-free
    # one
    gram, sigma = [[2]], [[1]]
    omegas = []
    for cap in (scalar.CONDUCTOR_CAP, scalar.CONDUCTOR_CAP // 2):
        monkeypatch.setattr(scalar, "CONDUCTOR_CAP", cap)
        for seeds in ({"phi_seed": {0: root_of_unity(4)}},
                      {"phi_seed": {0: root_of_unity(8)}}, {}):
            cls = enumerate_simple_twisted(
                _twist(gram, sigma, **seeds)).classes[0]
            T = _twist(gram, sigma, **seeds)
            M = instantiate_class(T, cls, trunc=2)
            Tf, Mf = _memo_free_module(gram, sigma, cls, **seeds)
            assert M.omega.weights == Mf.omega.weights
            assert twisted_conditions(T, M) == twisted_conditions(Tf, Mf)
            omegas.append(M.omega)
    assert len({id(omega) for omega in omegas}) == 6
    assert _vacuum_counts() == (6, 0, 6)
    # the grids move the class's weights, as they move its roots
    assert omegas[0].weights != omegas[1].weights


def test_a_class_of_another_content_is_built_on_its_own_twist():
    # the swap with eps(e_0, e_0) = -1 and the plain swap's phi has the
    # plain swap's classes under another key: a plain class instantiated
    # on the seeded twist is built on the seeded twist's algebra, kept
    # under the seeded key, and is not the plain key's vacuum space
    plain = _twist(*SWAP_2)
    seeded = _twist(*SWAP_2, eps_seed=EPS_SEED, phi_seed=plain.phi_seed)
    cls = enumerate_simple_twisted(plain).classes[0]
    kept = instantiate_class(plain, cls, trunc=2).omega
    assert kept.A is plain.presentation.algebra(cls.mu_choice)
    enumerate_simple_twisted(seeded)
    M = instantiate_class(seeded, cls, trunc=2)
    assert M.omega is not kept
    assert M.omega.A is seeded.presentation.algebra(cls.mu_choice)
    assert _vacuum_counts() == (2, 0, 2)
    assert conditions_status(twisted_conditions(seeded, M)) == "pass"


def test_vacuum_counts_against_a_counted_run(monkeypatch):
    # the modules of the seed-3 twisted_ops list at 30 s: each class job
    # is a vacuum hit or a miss, each miss builds one ClassOmega, and
    # the memo keeps one vacuum space per lattice and class
    jobs = W.ops_inputs(random.Random(3), W.rounds_for("twisted_ops", 30))
    built = []
    real = ClassOmega.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(ClassOmega, "__init__", counted)
    for job in jobs:
        W.build_ops_module(TL, job)
    monkeypatch.undo()
    classes = [job for job in jobs if job["module"] != "regular"]
    distinct = {(job["lattice"], job["module"]) for job in classes}
    assert len(classes) == 156 and len(distinct) == 9
    assert _vacuum_counts() == (9, 156 - 9, len(built))
    assert len(built) == 9


def test_concurrent_instantiation_keeps_the_counts(monkeypatch):
    # eight threads, switching often, enumerate and instantiate the
    # classes of [1], [2] and [3] with sigma = 1, which weigh 4, 6 and 8
    # with all their vacuum spaces, under a budget of 12 that evicts:
    # every call is counted once, the kept weight is the sum of the
    # kept entries' weights, and at most one vacuum space is kept per
    # class.  Without the lock around the vacuum lookups and stores,
    # 150 rounds per thread broke the weight sum in each of 4 runs.
    monkeypatch.setattr(classify, "MAX_WORK", 12)
    lattices = [([[n]], [[1]]) for n in (1, 2, 3)]
    calls, errors = [], []

    def work(k):
        try:
            for n in range(150):
                gram, sigma = lattices[(k + n) % len(lattices)]
                res = enumerate_simple_twisted(_twist(gram, sigma))
                for cls in res.classes:
                    T = _twist(gram, sigma)
                    M = instantiate_class(T, cls, trunc=1)
                    calls.append(M.omega.size)
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    counts = enumeration_memo_counts()
    assert counts["vacuum_hits"] + counts["vacuum_misses"] == len(calls)
    assert counts["hits"] + counts["misses"] == 8 * 150
    with classify._memo_lock:
        entries = list(classify._memo.values())
        held = classify._memo_held
    assert held == sum(classify._weight(e) for e in entries) <= 12
    assert all(set(e.vacua) <= set(e.result.classes) for e in entries)
