"""The process-wide memo of enumerate_simple_twisted: a twist with the
content of an earlier one gets the earlier result, which is what a
fresh enumeration gives; different seeds get their own results, an
exception is not kept, and the kept values stay within MAX_WORK.  The
memo also keeps the content's eigenbasis and vacuum spaces, each by its
key alone, a vacuum space keeps its own module tables, and a content
with a kept value keeps its twist's integer tables, which a later
lattice and twist of the same integer input read.

conftest.py empties the memo before each test."""
import dataclasses
import random
from fractions import Fraction
import sys
import threading

import pytest

from twistlab import _kept, classify, fock, scalar
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
from twistlab.fock import FockModule, GradedBasis, RegularOmega
from twistlab.lattice import TwistedLattice
from twistlab.scalar import RootPair, as_scalar, root_of_unity

from test_golden import TL, W
from test_classify import ROT, neg
from test_lattice import random_twisted_lattice


SWAP_2 = ([[2, 0], [0, 2]], [[0, 1], [1, 0]])
# eps(e_0, e_0) = -1 on the swap, with every other seed the default
EPS_SEED = build_epsilon(TwistedLattice(*SWAP_2))
EPS_SEED[(0, 0)] = as_scalar(-1)
# the counts of the kept values besides the results in a run that
# builds no vacuum space, no module and no twist
NO_VACUA = {name: 0 for kind, one in (("vacua", "vacuum"),
                                      ("regular", "regular"),
                                      ("bases", "basis"),
                                      ("twists", "twist"),
                                      ("creations", "creation"),
                                      ("annihilations", "annihilation"))
            for name in (kind, one + "_hits", one + "_misses")}


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
    # the lattices drawn for the pool are never enumerated: they keep
    # nothing, and each was a twist miss
    counts = enumeration_memo_counts()
    assert counts["twists"] == counts["twist_hits"] == 0
    assert counts["twist_misses"] > 47
    classify.clear_enumeration_memo()
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
        **NO_VACUA, "twists": 47, "twist_hits": 161, "twist_misses": 47}
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
        **NO_VACUA, "twists": 1, "twist_hits": 1, "twist_misses": 3}


def test_the_memo_keys_on_max_work(monkeypatch):
    # 2 I_2 with sigma = 1 has 4 eta cosets: kept at the default cap,
    # refused at a cap of 3 as a fresh enumeration refuses it (the
    # refusal keeps nothing and evicts nothing), and a hit again at the
    # default; the lattice's tables are found under the default cap
    # only, the cap of the content that keeps them
    gram, sigma = [[2, 0], [0, 2]], [[1, 0], [0, 1]]
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert len(res.classes) == 4
    default = _kept.MAX_WORK
    monkeypatch.setattr(_kept, "MAX_WORK", 3)
    with pytest.raises(classify.SizeCapExceeded, match="work cap 3$"):
        enumerate_simple_twisted(_twist(gram, sigma))
    monkeypatch.setattr(_kept, "MAX_WORK", default)
    assert enumerate_simple_twisted(_twist(gram, sigma)) is res
    assert enumeration_memo_counts() == {
        "hits": 1, "misses": 2, "results": 1, "entries": 1, "classes": 4,
        **NO_VACUA, "twists": 1, "twist_hits": 1, "twist_misses": 2}


def test_least_recently_used_results_leave_first(monkeypatch):
    # with sigma = 1 on [n] a result weighs 1 + 1 entry + n classes,
    # and its twist's tables one: [2] weighs 5, [3] 6 and [1] 4, against
    # a budget of 12
    monkeypatch.setattr(_kept, "MAX_WORK", 12)

    def enum(n):
        return enumerate_simple_twisted(_twist([[n]], [[1]]))

    two, three = enum(2), enum(3)
    assert enumeration_memo_counts()["results"] == 2
    assert enum(2) is two          # [2] is now the most recently used
    enum(1)                        # 15 > 12: [3] leaves, [2] stays
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["entries"], counts["classes"]) == \
        (2, 2, 3)
    assert enum(2) is two
    assert enum(3) is not three    # enumerated again
    assert enumeration_memo_counts()["misses"] == 4
    # [5] has 5 eta cosets, within the enumeration's cap of 6, but its
    # result weighs 7 alone: it is returned and not kept, and the next
    # miss trims the kept results to the lowered budget, oldest first
    monkeypatch.setattr(_kept, "MAX_WORK", 6)
    five = enum(5)
    assert len(five.classes) == 5
    assert enumeration_memo_counts() == {
        "hits": 2, "misses": 5, "results": 1, "entries": 1, "classes": 3,
        **NO_VACUA, "twists": 1, "twist_hits": 2, "twist_misses": 5}
    assert enum(5) is not five


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


def _vacuum_counts(kind="vacua", one="vacuum"):
    counts = enumeration_memo_counts()
    return counts[kind], counts[one + "_hits"], counts[one + "_misses"]


def _basis_fields(basis):
    return (basis.qs, basis.vecs, basis.pairing, basis.duals,
            basis.coord_rows)


def _module_tables(M):
    """Every table a module reads off its kept tables; the word count
    is held by the kept tables alone (`_kept_tables`)."""
    return (M.zero_weights, M.grid, M.mode_step, M.degree_k, M.floor_k,
            M._xi_k)


def _kept_tables(M):
    """The tables M's vacuum space keeps for M's creation cap."""
    return M.omega.tables[M.cap]


def _reads_kept_tables(M):
    """Whether M's tables are the very lists its vacuum space keeps."""
    kept = _kept_tables(M)
    return all(a is b for a, b in zip(
        (M.zero_weights, M.degree_k, M._xi_k),
        (kept.zero_weights, kept.degree_k, kept.xi_k)))


def _units(l):
    """The basis vectors of Z^l and their negatives."""
    units = [tuple(int(i == j) for i in range(l)) for j in range(l)]
    return units + [tuple(-x for x in u) for u in units]


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
    # on a fresh twist's own algebra, which is not kept and so keeps its
    # own tables, and reads the content's one eigenbasis: the same lines
    # and weights, the same e-action of every basis vector and its
    # negative on every line, an eigenbasis equal to one built with no
    # memo at all, the same module tables, and the same twisted-module
    # reports
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert res.classes
    alphas = _units(len(gram))
    for cls in res.classes:
        M1 = instantiate_class(_twist(gram, sigma), cls, trunc=2)
        T = _twist(gram, sigma)
        M = instantiate_class(T, cls, trunc=2)
        Tf, Mf = _memo_free_module(gram, sigma, cls)
        assert M.omega.A.twist is not T and Mf.omega.A.twist is Tf
        assert M.omega.lines == Mf.omega.lines
        assert M.omega.weights == Mf.omega.weights
        for alpha in alphas:
            for i in range(M.omega.size):
                assert M.omega.e_act(alpha, i) == Mf.omega.e_act(alpha, i)
        assert Mf.basis is M.basis
        assert _basis_fields(M.basis) == _basis_fields(GradedBasis(T.lattice))
        # two modules on one kept vacuum space and truncation read the
        # same tables; the memo-free vacuum space keeps its own
        assert _reads_kept_tables(M) and _reads_kept_tables(M1)
        assert _kept_tables(M) is _kept_tables(M1)
        assert list(M.omega.tables) == list(Mf.omega.tables) == [M.cap]
        assert _kept_tables(Mf) is not _kept_tables(M)
        assert _module_tables(M) == _module_tables(Mf)
        assert _kept_tables(M) == FockModule._tables(Mf)
        assert twisted_conditions(T, M) == twisted_conditions(Tf, Mf)
    n = len(res.classes)
    assert _vacuum_counts() == (n, n, n)
    # one eigenbasis for the content, read by the n kept vacuum spaces
    # and the n memo-free ones
    assert _vacuum_counts("bases", "basis") == (1, 2 * n - 1, 1)


def test_clearing_the_memo_drops_its_vacuum_spaces():
    gram, sigma = [[2]], [[1]]
    cls = enumerate_simple_twisted(_twist(gram, sigma)).classes[0]
    kept = instantiate_class(_twist(gram, sigma), cls, trunc=2).omega
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is kept
    assert _vacuum_counts() == (1, 1, 1)
    classify.clear_enumeration_memo()
    assert _vacuum_counts() == (0, 0, 0)
    # after the clear the vacuum space is built anew and kept by its key,
    # with no result beside it; the enumeration then joins it
    again = instantiate_class(_twist(gram, sigma), cls, 2).omega
    assert again is not kept
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is again
    assert _vacuum_counts() == (1, 1, 1)
    assert enumeration_memo_counts()["results"] == 0
    enumerate_simple_twisted(_twist(gram, sigma))
    assert instantiate_class(_twist(gram, sigma), cls, 2).omega is again
    assert enumeration_memo_counts()["results"] == 1
    assert len(_kept._memo) == 1


def test_vacuum_spaces_leave_with_their_entry(monkeypatch):
    # with sigma = 1 on [n] a result weighs 1 + 1 entry + n classes and
    # its twist's tables one, a class vacuum space its 5 lines and the
    # eigenbasis its module reads one: [2] weighs 5, with a vacuum space
    # and its module 11, and [3] 6, against a budget of 17
    monkeypatch.setattr(_kept, "MAX_WORK", 17)

    def enum(n):
        return enumerate_simple_twisted(_twist([[n]], [[1]]))

    def omega(n, cls):
        return instantiate_class(_twist([[n]], [[1]]), cls, 2).omega

    two = enum(2)
    kept = omega(2, two.classes[0])
    enum(3)                        # 17: both kept, [3] the most recent
    assert _vacuum_counts() == (1, 0, 1)
    # a second vacuum space of [2] makes it the most recent and the
    # weight 22: [3] leaves, [2] stays with both its vacuum spaces
    other = omega(2, two.classes[1])
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["vacua"]) == (1, 2)
    assert omega(2, two.classes[0]) is kept
    assert omega(2, two.classes[1]) is other
    assert _kept._memo_held == 16
    # [3] is enumerated again: 16 + 6 > 17, so [2] leaves, its vacuum
    # spaces and eigenbasis with it, and [1] joins [3]
    enum(3)
    enum(1)
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["vacua"], counts["bases"]) == (2, 0, 0)
    enum(2)
    assert omega(2, two.classes[0]) is not kept
    # an entry that a vacuum space pushes past the budget leaves at once,
    # the vacuum space with it, and the module is still built
    monkeypatch.setattr(_kept, "MAX_WORK", 8)
    classify.clear_enumeration_memo()
    enum(2)
    assert enumeration_memo_counts()["results"] == 1
    T = _twist([[2]], [[1]])
    M = instantiate_class(T, two.classes[0], 2)
    assert enumeration_memo_counts()["results"] == 0
    assert _vacuum_counts() == (0, 0, 1)
    assert conditions_status(twisted_conditions(T, M)) == "pass"


def test_a_vacuum_space_heavier_than_the_budget_is_not_kept(monkeypatch):
    # a vacuum space of more lines than MAX_WORK is built, not kept, and
    # evicts nothing: the regular one of [2] at bound 20 has 41 lines,
    # at bound 19 39, which with its twist's tables weigh 40, against a
    # budget of 40; a class vacuum space of I_2 has 25 lines, against a
    # budget of 5, at which I_2 is enumerated, its result, tables and
    # eigenbasis weighing 3, 1 and 1
    gram, sigma = [[2]], [[1]]
    monkeypatch.setattr(_kept, "MAX_WORK", 40)
    big = RegularOmega(_twist(gram, sigma), 20)
    assert big.size == 41
    assert RegularOmega(_twist(gram, sigma), 20) is not big
    small = RegularOmega(_twist(gram, sigma), 19)
    assert RegularOmega(_twist(gram, sigma), 19) is small
    assert _vacuum_counts("regular", "regular") == (1, 1, 3)
    assert _kept._memo_held == 40
    T = _twist(gram, sigma)
    M = FockModule(T, big, 1)
    assert len(M.basis_vectors(1)) == 2 * 41
    monkeypatch.setattr(_kept, "MAX_WORK", 5)
    classify.clear_enumeration_memo()
    unit = ([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    res = enumerate_simple_twisted(_twist(*unit))
    cls = res.classes[0]
    M = instantiate_class(_twist(*unit), cls, 2)
    assert M.omega.size == 25
    assert instantiate_class(_twist(*unit), cls, 2).omega is not M.omega
    assert _vacuum_counts() == (0, 0, 2)
    assert enumeration_memo_counts()["results"] == 1
    assert _kept._memo_held == _kept._weight(
        _kept._memo[_kept._content_key(_twist(*unit))]) == 5
    assert conditions_status(twisted_conditions(M.twist, M)) == "pass"


def test_distinct_large_bound_checks_stay_within_the_budget(monkeypatch,
                                                            tmp_path):
    # each check of [2n] with sigma = -1 at bound 30 keeps a regular
    # vacuum space of 61 lines: against a budget of 200, the kept weight
    # stays at most the budget after every check, and is the sum of the
    # kept contents' weights
    monkeypatch.setattr(_kept, "MAX_WORK", 200)
    for n in range(1, 9):
        spec = {"gram": [[2 * n]], "sigma": [[-1]], "trunc": 1, "bound": 30}
        out = W.run_check_job(TL, spec, str(tmp_path), f"spec{n}")
        assert out["code"] == 0
        with _kept._memo_lock:
            held = _kept._memo_held
            weights = [_kept._weight(v) for v in _kept._memo.values()]
        assert held == sum(weights) <= 200
    counts = enumeration_memo_counts()
    assert counts["regular_misses"] == 8
    assert counts["regular"] == len(_kept._memo) < 8


def test_a_result_too_heavy_to_keep_still_instantiates(monkeypatch):
    # [6] with sigma = 1 weighs 8 alone: at a budget of 7 its result is
    # not kept, while a class vacuum space of 5 lines and the eigenbasis
    # its module reads are kept by their keys, with the twist's tables;
    # its modules are those of the default budget, memo-free
    gram, sigma = [[6]], [[1]]
    monkeypatch.setattr(_kept, "MAX_WORK", 7)
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert len(res.classes) == 6
    first = instantiate_class(_twist(gram, sigma), res.classes[0], 2)
    assert instantiate_class(_twist(gram, sigma), res.classes[0], 2).omega \
        is first.omega
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["vacua"], counts["bases"]) == (0, 1, 1)
    assert _kept._memo_held == 7
    modules = []
    for cls in res.classes:
        T = _twist(gram, sigma)
        modules.append((T, instantiate_class(T, cls, trunc=2)))
        assert _kept._memo_held <= 7
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
    # and the eigenbases and module tables built
    bases, tables = [], []
    real_basis, real_tables = GradedBasis.__init__, FockModule._tables

    def counted_basis(self, lattice):
        bases.append(lattice)
        real_basis(self, lattice)

    def counted_tables(self):
        tables.append(self)
        return real_tables(self)

    monkeypatch.setattr(GradedBasis, "__init__", counted_basis)
    monkeypatch.setattr(FockModule, "_tables", counted_tables)
    for job in jobs:
        W.build_ops_module(TL, job)
    monkeypatch.undo()
    classes = [job for job in jobs if job["module"] != "regular"]
    distinct = {(job["lattice"], job["module"]) for job in classes}
    assert len(classes) == 156 and len(distinct) == 9
    assert _vacuum_counts() == (9, 156 - 9, len(built))
    assert len(built) == 9
    # 69 regular jobs on 4 lattices, one regular vacuum space each, and
    # 225 modules on 13 (vacuum space, truncation) pairs, whose 13 kept
    # vacuum spaces keep a table each; one eigenbasis per lattice, read
    # by its 13 vacuum spaces
    regular = {job["lattice"] for job in jobs if job["module"] == "regular"}
    assert len(jobs) - len(classes) == 69 and len(regular) == 4
    assert _vacuum_counts("regular", "regular") == (4, 65, 4)
    assert len({(job["lattice"], job["module"]) for job in jobs}) == 13
    assert len(tables) == 13
    assert sum(len(v.tables) for values in _kept._memo.values()
               for k, v in values.items() if k[0] in ("regular", "class")) \
        == 13
    assert _vacuum_counts("bases", "basis") == (4, 9, len(bases))
    assert len(bases) == 4
    assert enumeration_memo_counts()["results"] == 4


def test_concurrent_instantiation_keeps_the_counts(monkeypatch):
    # eight threads, switching often, enumerate and instantiate the
    # classes of [1], [2] and [3] with sigma = 1, and build a module on
    # each one's regular vacuum space of bound 1, under a budget of 12
    # that evicts: every call is counted once, and the kept weight is
    # the sum of the kept entries' weights, within the budget.  Without
    # the lock around the lookups and stores of `_kept.kept_value`, the
    # test fails (a thread raises while another changes the memo, or
    # the weight drifts from the kept values).
    monkeypatch.setattr(_kept, "MAX_WORK", 12)
    lattices = [([[n]], [[1]]) for n in (1, 2, 3)]
    calls, regular, errors = [], [], []

    def work(k):
        try:
            for n in range(150):
                gram, sigma = lattices[(k + n) % len(lattices)]
                res = enumerate_simple_twisted(_twist(gram, sigma))
                for cls in res.classes:
                    T = _twist(gram, sigma)
                    M = instantiate_class(T, cls, trunc=1)
                    calls.append(M.omega.size)
                T = _twist(gram, sigma)
                M = FockModule(T, RegularOmega(T, 1), 1)
                regular.append(M.omega.size)
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
    assert counts["regular_hits"] + counts["regular_misses"] == \
        len(regular) == 8 * 150
    assert counts["hits"] + counts["misses"] == 8 * 150
    with _kept._memo_lock:
        entries = list(_kept._memo.values())
        held = _kept._memo_held
    assert held == sum(_kept._weight(e) for e in entries) <= 12


def _random_lattices(seed, n, **kw):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lat = random_twisted_lattice(rng, **kw)
        out.append((lat.gram, lat.sigma))
    return out


# the tests' random draws, even and odd, beside the fixed lattices
RANDOM_LATTICES = (_random_lattices(4101, 5)
                   + _random_lattices(4102, 5, odd=True))
REGULAR_LATTICES = (MEMO_LATTICES + [SWAP_2] + ROTATION_LATTICES
                    + RANDOM_LATTICES)


@pytest.mark.parametrize("gram,sigma", REGULAR_LATTICES)
def test_kept_regular_vacuum_spaces_match_fresh_ones(gram, sigma):
    # a second twist of the same content gets the first twist's regular
    # vacuum space, eigenbasis and tables, the very lists the vacuum
    # space keeps; after a clear, a fresh twist builds them all anew,
    # and each kept value is the fresh one: the
    # lines, lookup and weights, the e-action of every basis vector and
    # its negative on every line, the eigenbasis (also against one built
    # with no memo at all), and the module tables, whose word count is
    # that of the listed basis vectors
    T1 = _twist(gram, sigma)
    omega = RegularOmega(T1, 1)
    M1 = FockModule(T1, omega, 2)
    T2 = _twist(gram, sigma)
    M = FockModule(T2, RegularOmega(T2, 1), 2)
    assert M.omega is omega and omega.twist is T1
    assert M.basis is M1.basis is omega.basis
    kept = _kept_tables(M)
    assert list(omega.tables) == [M.cap] and _kept_tables(M1) is kept
    assert _reads_kept_tables(M) and _reads_kept_tables(M1)
    acts = [[omega.e_act(a, i) for i in range(omega.size)]
            for a in _units(len(gram))]
    assert _vacuum_counts("regular", "regular") == (1, 1, 1)
    classify.clear_enumeration_memo()
    Tf = _twist(gram, sigma)
    Mf = FockModule(Tf, RegularOmega(Tf, 1), 2)
    fresh = Mf.omega
    assert fresh is not omega and Mf.basis is not M.basis
    assert (omega.lines, omega.lookup, omega.weights) == \
        (fresh.lines, fresh.lookup, fresh.weights)
    assert acts == [[fresh.e_act(a, i) for i in range(fresh.size)]
                    for a in _units(len(gram))]
    assert _basis_fields(M.basis) == _basis_fields(Mf.basis) == \
        _basis_fields(GradedBasis(Tf.lattice))
    assert _module_tables(M) == _module_tables(Mf)
    assert kept == FockModule._tables(Mf) == _kept_tables(Mf)
    assert kept.words * omega.size == len(M.basis_vectors(2))


def test_check_twice_in_one_process_gives_the_same_report(tmp_path,
                                                          capsys):
    # the second run of each spec reads the first run's regular vacuum
    # space, its e-action memo, eigenbasis and tables: every report,
    # exit code and standard-error line is the first run's; the specs
    # are the benchmark's 75 and three odd draws
    specs = [{"gram": g, "sigma": s, "trunc": t, "bound": 1}
             for g, s, t in W.CHECK_SPECS]
    specs += [{"gram": g, "sigma": s, "trunc": 1}
              for g, s in _random_lattices(4103, 3, odd=True)]
    runs = []
    for _ in range(2):
        outs = []
        for k, spec in enumerate(specs):
            out = W.run_check_job(TL, spec, str(tmp_path), f"spec{k}")
            outs.append((out["code"], out["report"], capsys.readouterr()))
        runs.append(outs)
    assert runs[0] == runs[1]
    # one regular vacuum space per lattice, read by every truncation of
    # it, and one table per spec
    lattices = {_key(spec["gram"], spec["sigma"]) for spec in specs}
    assert len(specs) == 78 and len(lattices) == 41
    assert _vacuum_counts("regular", "regular") == (41, 2 * 78 - 41, 41)
    assert sum(len(v.tables) for values in _kept._memo.values()
               for k, v in values.items() if k[0] == "regular") == 78


def test_regular_values_without_a_result():
    # a regular vacuum space makes its content's entry, which holds no
    # result: `results` does not count it; the enumeration then misses,
    # fills the result in beside the vacuum space, and hits
    gram, sigma = [[2, 1], [1, 2]], neg(2)
    T = _twist(gram, sigma)
    omega = RegularOmega(T, 1)
    FockModule(T, omega, 2)
    assert enumeration_memo_counts() == {
        "hits": 0, "misses": 0, "results": 0, "entries": 0, "classes": 0,
        **NO_VACUA, "regular": 1, "regular_misses": 1, "bases": 1,
        "basis_misses": 1, "twists": 1, "twist_misses": 1}
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert enumerate_simple_twisted(_twist(gram, sigma)) is res
    counts = enumeration_memo_counts()
    assert (counts["hits"], counts["misses"], counts["results"]) == (1, 1, 1)
    assert len(_kept._memo) == 1
    assert RegularOmega(_twist(gram, sigma), 1) is omega
    # the class vacuum spaces share the regular one's eigenbasis
    M = instantiate_class(_twist(gram, sigma), res.classes[0], 2)
    assert M.basis is omega.basis
    assert _vacuum_counts("bases", "basis") == (1, 1, 1)


def test_clearing_the_memo_drops_the_regular_values():
    gram, sigma = [[2]], [[1]]
    T = _twist(gram, sigma)
    M = FockModule(T, RegularOmega(T, 1), 2)
    counts = enumeration_memo_counts()
    assert (counts["regular"], counts["bases"]) == (1, 1)
    classify.clear_enumeration_memo()
    assert enumeration_memo_counts() == {
        "hits": 0, "misses": 0, "results": 0, "entries": 0, "classes": 0,
        **NO_VACUA}
    T2 = _twist(gram, sigma)
    M2 = FockModule(T2, RegularOmega(T2, 1), 2)
    assert M2.omega is not M.omega and M2.basis is not M.basis
    assert _kept_tables(M2) is not _kept_tables(M)
    assert M2.omega.twist is T2
    assert _vacuum_counts("regular", "regular") == (1, 0, 1)


def test_regular_values_leave_with_their_entry(monkeypatch):
    # a regular vacuum space of [n] with sigma = 1 at bound 1 weighs its
    # 3 lines, and with the eigenbasis its module reads and its twist's
    # tables 5, against a budget of 10: a third content pushes out the
    # least recently used, with its values
    monkeypatch.setattr(_kept, "MAX_WORK", 10)

    def module(n, bound=1, trunc=1):
        T = _twist([[n]], [[1]])
        return FockModule(T, RegularOmega(T, bound), trunc)

    two = module(2)
    three = module(3)
    assert module(2).omega is two.omega   # [2] is now the most recent
    module(1)                             # 15 > 10: [3] leaves
    counts = enumeration_memo_counts()
    assert (counts["regular"], counts["bases"]) == (2, 2)
    assert module(2).omega is two.omega
    again = module(3)
    assert again.omega is not three.omega and again.basis is not three.basis
    # a second bound of [2] weighs its 5 lines more: with 5 for [2]
    # itself that is 10, and [3] leaves; a second truncation weighs
    # nothing, its tables kept on the vacuum space
    assert module(2, bound=2).basis is two.basis
    assert module(2, trunc=2).omega is two.omega
    assert sorted(two.omega.tables) == [1, 2]
    counts = enumeration_memo_counts()
    assert (counts["regular"], counts["bases"]) == (2, 1)
    assert len(_kept._memo) == 1 and _kept._memo_held == 10


def test_a_result_too_heavy_to_keep_leaves_the_regular_values(monkeypatch):
    # [4] with sigma = 1 weighs 6 alone, against a budget of 5: its
    # result is not kept, and the entry its regular vacuum space made
    # keeps that vacuum space and its eigenbasis
    gram, sigma = [[4]], [[1]]
    monkeypatch.setattr(_kept, "MAX_WORK", 5)
    T = _twist(gram, sigma)
    omega = RegularOmega(T, 1)
    M = FockModule(T, omega, 2)
    res = enumerate_simple_twisted(_twist(gram, sigma))
    assert len(res.classes) == 4
    assert enumerate_simple_twisted(_twist(gram, sigma)) is not res
    counts = enumeration_memo_counts()
    assert (counts["results"], counts["misses"]) == (0, 2)
    assert (counts["regular"], counts["bases"]) == (1, 1)
    assert RegularOmega(_twist(gram, sigma), 1) is omega
    assert FockModule(_twist(gram, sigma), omega, 2).basis is M.basis


def test_each_key_gets_its_own_regular_values(monkeypatch):
    # phi(e_0) = zeta_4 and zeta_8 on [[2]] with sigma = 1 (two grids),
    # and the default seeds, each under two conductor caps: six keys,
    # six regular vacuum spaces, eigenbases and tables, each what a
    # fresh build on its own key gives
    gram, sigma = [[2]], [[1]]
    seen = []
    for cap in (scalar.CONDUCTOR_CAP, scalar.CONDUCTOR_CAP // 2):
        monkeypatch.setattr(scalar, "CONDUCTOR_CAP", cap)
        for seeds in ({"phi_seed": {0: root_of_unity(4)}},
                      {"phi_seed": {0: root_of_unity(8)}}, {}):
            T = _twist(gram, sigma, **seeds)
            M = FockModule(T, RegularOmega(T, 1), 2)
            T2 = _twist(gram, sigma, **seeds)
            assert RegularOmega(T2, 1) is M.omega
            Mf = FockModule(T2, M.omega, 2)
            assert _kept_tables(Mf) is _kept_tables(M)
            assert _reads_kept_tables(Mf) and _reads_kept_tables(M)
            assert _kept_tables(M) == FockModule._tables(M)
            seen.append((M.omega, M.basis, _kept_tables(M)))
    for k in range(3):
        assert len({id(row[k]) for row in seen}) == 6
    assert _vacuum_counts("regular", "regular") == (6, 6, 6)


def test_the_basis_cap_is_read_on_every_construction(monkeypatch):
    # rank 1 at trunc 3 has 1 + 1 + 2 + 3 words on each of 3 lines: a
    # cap of 20 refuses the module and keeps no table, on a miss and
    # on a hit alike, and a cap of 21 builds it
    built = []
    real = FockModule._tables

    def counted(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(FockModule, "_tables", counted)
    omega = RegularOmega(_twist([[2]], [[1]]), 1)

    def module():
        T = _twist([[2]], [[1]])
        return FockModule(T, RegularOmega(T, 1), 3)

    for cap, kept, misses in ((20, 0, 1), (20, 0, 2), (21, 1, 3)):
        monkeypatch.setattr(fock, "MAX_BASIS", cap)
        if cap == 20:
            with pytest.raises(classify.SizeCapExceeded,
                               match="more than 20 basis vectors"):
                module()
        else:
            M = module()
        assert (len(omega.tables), len(built)) == (kept, misses)
    # the kept count meets each later cap: refused at 20, built at 21
    monkeypatch.setattr(fock, "MAX_BASIS", 20)
    with pytest.raises(classify.SizeCapExceeded,
                       match="more than 20 basis vectors"):
        module()
    monkeypatch.setattr(fock, "MAX_BASIS", 21)
    assert module().omega is M.omega is omega
    assert (len(omega.tables), len(built)) == (1, 3)
    assert len(M.basis_vectors(3)) == 21


# ---------------------------------------------------------------------
# The exponential tables of a kept eigenbasis
# ---------------------------------------------------------------------

def _exp_tables(basis):
    """The creation and annihilation tables the eigenbasis keeps, by
    key."""
    return tuple(dict(basis.__dict__.get("_kept_" + name, {}))
                 for name in ("creation_terms", "annihilation_terms"))


def _vertex_work(M):
    """reconstruct_e of each basis vector on probes that hold creation
    words, which reads both tables of M's eigenbasis: the reports."""
    l = M.lattice.rank
    probes = [v for v in M.basis_vectors(1)
              if any(word for word, _i in v.terms)][:3]
    exps = [Fraction(k, M.p) for k in (-1, 0, 1)]
    return [fock.reconstruct_e(M, alpha, exps, probes)
            for alpha in _units(l)[:l]]


def _table_counts():
    counts = enumeration_memo_counts()
    return tuple(counts[one + end] for one in ("creation", "annihilation")
                 for end in ("s", "_hits", "_misses"))


@pytest.mark.parametrize("gram,sigma", [([[2, 1], [1, 2]], neg(2)),
                                        ([[2, 0], [0, 2]], ROT)])
def test_modules_of_one_content_read_one_set_of_tables(gram, sigma):
    # a regular module at trunc 2, then a class module at trunc 2 and at
    # trunc 3 of the same content: they read their one eigenbasis's
    # tables, so each table is built once, the later modules hit, and
    # every table the first module built is still the same object
    T = _twist(gram, sigma)
    M1 = FockModule(T, RegularOmega(T, 1), 2)
    _vertex_work(M1)
    first = _exp_tables(M1.basis)
    assert all(first)
    cls = enumerate_simple_twisted(_twist(gram, sigma)).classes[0]
    hits = [_table_counts()]
    for trunc in (2, 3):
        M = instantiate_class(_twist(gram, sigma), cls, trunc)
        assert M.basis is M1.basis and M.omega is not M1.omega
        _vertex_work(M)
        hits.append(_table_counts())
    for old, new in zip(first, _exp_tables(M1.basis)):
        assert all(new[key] is table for key, table in old.items())
    cre, cre_hits, cre_misses, ann, ann_hits, ann_misses = hits[-1]
    assert (cre, ann) == (cre_misses, ann_misses)
    assert hits[0][1] < hits[1][1] < hits[2][1]
    assert hits[0][4] < hits[1][4] < hits[2][4]


def test_memo_free_tables_equal_the_kept_ones(monkeypatch):
    # with MAX_WORK at zero nothing is kept: the module's vacuum space
    # and eigenbasis are its own, and so are the tables, equal to those
    # kept before, with the same reports
    gram, sigma = W.OPS_LATTICES["A2.rot3"]
    T = _twist(gram, sigma)
    M = FockModule(T, RegularOmega(T, 1), 2)
    reports = _vertex_work(M)
    kept = _exp_tables(M.basis)
    classify.clear_enumeration_memo()
    monkeypatch.setattr(_kept, "MAX_WORK", 0)
    Tf = _twist(gram, sigma)
    Mf = FockModule(Tf, RegularOmega(Tf, 1), 2)
    assert Mf.basis is not M.basis
    assert _vertex_work(Mf) == reports
    assert _exp_tables(Mf.basis) == kept
    cre, _h, cre_misses, ann, _h2, ann_misses = _table_counts()
    assert (cre, ann) == (0, 0)
    assert (cre_misses, ann_misses) == tuple(map(len, kept))


def test_tables_leave_on_eviction_and_on_a_clear(monkeypatch):
    # [n] with sigma = 1 at bound 1 weighs 5 against a budget of 10: a
    # third content pushes [2] out, with its eigenbasis and its tables,
    # and a later [2] module builds them again; a clear drops them all
    monkeypatch.setattr(_kept, "MAX_WORK", 10)

    def module(n):
        T = _twist([[n]], [[1]])
        return FockModule(T, RegularOmega(T, 1), 2)

    two = module(2)
    _vertex_work(two)
    cre, _h, _m, ann, _h2, _m2 = counts = _table_counts()
    assert cre and ann and counts[2] == cre
    module(3)
    module(1)
    assert _table_counts()[0::3] == (0, 0)
    again = module(2)
    assert again.basis is not two.basis and _exp_tables(again.basis) == ({}, {})
    _vertex_work(again)
    assert _exp_tables(again.basis) == _exp_tables(two.basis)
    assert _table_counts()[0::3] == (cre, ann)
    assert _table_counts()[2::3] == (2 * cre, 2 * ann)
    classify.clear_enumeration_memo()
    assert enumeration_memo_counts() == {
        "hits": 0, "misses": 0, "results": 0, "entries": 0, "classes": 0,
        **NO_VACUA}
    assert _exp_tables(module(2).basis) == ({}, {})


def test_table_counts_against_a_counted_run(monkeypatch):
    # the seed-3 twisted_ops list at 30 s: every read of a table is a
    # hit or a miss, each key of each eigenbasis misses once, and the 4
    # kept eigenbases keep every table built
    jobs = W.ops_inputs(random.Random(3), W.rounds_for("twisted_ops", 30))
    reads = {"creation": [], "annihilation": []}
    for one, seen in reads.items():
        real = getattr(GradedBasis, one + "_terms")

        def counted(self, *args, real=real, seen=seen):
            seen.append((self, args))
            return real(self, *args)

        monkeypatch.setattr(GradedBasis, one + "_terms", counted)
    for job in jobs:
        W.run_ops_job(TL, job)
    monkeypatch.undo()
    counts = enumeration_memo_counts()
    assert counts["bases"] == 4
    for one, seen in reads.items():
        built = len(set(seen))
        assert (counts[one + "s"], counts[one + "_hits"],
                counts[one + "_misses"]) == (built, len(seen) - built, built)
    assert _table_counts() == (108, 678, 108, 18, 36, 18)
