import copy
import itertools
import math
import random
from fractions import Fraction

import pytest

from twistlab.classify import (
    ClassifyError,
    FiniteQuotient,
    PresentedAlgebraA,
    UnsupportedScalar,
    admissible_base_weight,
    conditions_status,
    enumerate_simple_twisted,
    eta_cosets,
    instantiate_class,
    root_exponent,
    twisted_conditions,
)
from twistlab import classify, cocycle, linalg
from twistlab import lattice as lattice_module
from twistlab.cocycle import TwistData
from twistlab.fock import FockModule, RegularOmega, product_check
from twistlab.lattice import OrbitDecomposition, TwistedLattice
from twistlab.linalg import det_int, field_rank
from twistlab.oracle import oracle_bicharacter_blocks, oracle_dual_coset_count
from twistlab.scalar import (
    ONE,
    CycScalar,
    RootPair,
    as_scalar,
    root_of_unity,
)

from test_lattice import _random_unimodular, random_twisted_lattice


def twist(gram, sigma, phi=None):
    lat = TwistedLattice(gram, sigma)
    return TwistData(lat, phi_seed=phi)


def neg(l):
    return [[-1 if i == j else 0 for j in range(l)] for i in range(l)]


def first_algebra(T):
    """The twist's algebra A at the first root of each orbit."""
    orbits = T.lattice.reduce_generating_set().orbits
    return T.presentation.algebra(tuple(T.mu_roots(orb)[0] for orb in orbits))


ROT = [[0, -1], [1, 0]]


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------

def test_root_exponent():
    def exponent(x):
        return root_exponent(RootPair.of(x))

    assert exponent(as_scalar(1)) == 0
    assert exponent(as_scalar(-1)) == Fraction(1, 2)
    assert exponent(root_of_unity(3)) == Fraction(1, 3)
    assert exponent(root_of_unity(8, 5)) == Fraction(5, 8)
    with pytest.raises(UnsupportedScalar):
        exponent(as_scalar(2))


def test_finite_quotient_basic():
    q = FiniteQuotient([(1, 0), (0, 1)], [(2, 0), (0, 2)], 2)
    assert q.size == 4
    assert sorted(q.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for el in q.elements():
        assert q.coords(q.lift(el)) == el
    # cosets separate correctly
    assert q.coords((3, 5)) == q.coords((1, 1))
    assert q.coords((3, 5)) != q.coords((0, 1))


def test_finite_quotient_exact_membership():
    # the span of (1, 1) in Z^2, modulo 2(1, 1)
    q = FiniteQuotient([(1, 1)], [(2, 2)], 2)
    assert q.size == 2
    assert q.coords((3, 3)) == (1,)
    for vec in ((1, 0), (Fraction(1, 2), Fraction(1, 2))):
        with pytest.raises(ClassifyError, match="outside the ambient"):
            q.coords(vec)
    half = FiniteQuotient([(Fraction(1, 2),)], [(2,)], 1)
    assert half.coords((Fraction(5, 2),)) == half.coords((Fraction(1, 2),))
    with pytest.raises(ClassifyError, match="outside the ambient"):
        half.coords((Fraction(1, 4),))
    # membership agrees with coords
    assert (3, 3) in q and (Fraction(5, 2),) in half
    assert (1, 0) not in q and (Fraction(1, 2), Fraction(1, 2)) not in q
    assert (Fraction(1, 4),) not in half
    assert () in FiniteQuotient([], [], 0)


def test_grading_coords_exact():
    T = twist([[2]], [[1]])
    (cls, _other) = enumerate_simple_twisted(T).classes
    omega = instantiate_class(T, cls, trunc=2).omega
    assert omega._grading_coords((3,)) == (3,)
    with pytest.raises(ClassifyError, match="outside the grading"):
        omega._grading_coords((Fraction(1, 2),))


def test_finite_quotient_rejects_infinite():
    with pytest.raises(ClassifyError):
        FiniteQuotient([(1, 0), (0, 1)], [(2, 0)], 2)


def test_finite_quotient_rational_ambient():
    # (1/2)Z / 2Z has order 4
    q = FiniteQuotient([(Fraction(1, 2),)], [(2,)], 1)
    assert q.size == 4


# ---------------------------------------------------------------------
# automorphism lifts
# ---------------------------------------------------------------------

def _eigen_relations_hold(T, orb, mu, ks):
    """The recipes Y_j = sum_s w^(-js) k_s X_(sigma^s a) are eigenvectors
    of the lift: coeffs_s phi(sigma^s a) = mu w^j coeffs_(s+1)."""
    pa = len(orb)
    ks = [k.scalar() for k in ks]
    for j in range(pa):
        coeffs = [root_of_unity(pa, (-j * s) % pa) * ks[s] for s in range(pa)]
        eig = mu.scalar() * root_of_unity(pa, j)
        for s in range(pa):
            if coeffs[s] * T.phi(orb[s]).scalar() != \
                    eig * coeffs[(s + 1) % pa]:
                return False
    return True


def _check_root_choices(T, length):
    dec = T.lattice.reduce_generating_set()
    (orb,) = dec.orbits
    assert len(orb) == length
    roots = T.mu_roots(orb)
    assert len(set(roots)) == length
    # for the canonical cocycle values the lift has the order of sigma
    assert T.orbit_product(orb) ** (T.lattice.p // length) == T.one
    for mu in roots:
        (ks,) = PresentedAlgebraA(T, dec, (mu,)).ks
        assert ks[0] == T.one
        assert _eigen_relations_hold(T, orb, mu, ks)
    return roots


def test_root_choices_negation():
    roots = _check_root_choices(twist([[2]], [[-1]]), 2)
    assert sorted(str(r) for r in roots) == ["-1", "1"]


def test_root_choices_rotation():
    _check_root_choices(twist([[2, 0], [0, 2]], ROT), 4)


# ---------------------------------------------------------------------
# the algebra A
# ---------------------------------------------------------------------

def test_algebra_negation_dimension_and_theta():
    # sigma = -1: dim A = 2^l and x_j^2 = mu phi(alpha_j)
    for l, gram in ((1, [[2]]), (2, [[2, 0], [0, 4]]), (3, None)):
        if gram is None:
            gram = [[2, 0, 0], [0, 2, 0], [0, 0, 4]]
        T = twist(gram, neg(l))
        A = first_algebra(T)
        assert A.dim_B0 == 2 ** l
        assert A.m == 0 and len(A.reps) == l
        # x_j^2 = e(a_j)^2 = eps(a_j, a_j) e(2 a_j), and 2 a_j is in K
        for rep, mu in zip(A.reps, A.mu_choice):
            scalar, rest = A.e_image(tuple(2 * x for x in rep))
            assert not any(rest)
            assert T.epsilon(rep, rep) * scalar == mu * T.phi(rep)


def test_algebra_zero_on_obstruction():
    # coordinate swap on the A2 gram: C(alpha, sigma alpha) = -1
    T = twist([[2, 1], [1, 2]], [[0, 1], [1, 0]])
    A = first_algebra(T)
    assert A.zero
    kind, _wit = A.witness
    assert kind == "commutator obstruction"


def test_algebra_zero_on_relation_mismatch():
    # rotation with mu = i: the folded relation scalars are inconsistent
    T = twist([[2, 0], [0, 2]], ROT)
    dec = T.lattice.reduce_generating_set()
    A = PresentedAlgebraA(T, dec, (RootPair(1, 1, 4),))
    assert A.zero
    kind, _wit = A.witness
    assert kind == "inconsistent relation scalars"
    # a collapsed root choice never builds E or meets its caps
    assert "E" not in vars(A.presentation)


def test_algebra_refuses_a_foreign_generating_set():
    # the algebra is presented on its lattice's own generating set: an
    # equal copy, or the equal set of an equal lattice, is refused
    T = twist([[2, 0], [0, 2]], ROT)
    dec = T.lattice.reduce_generating_set()
    copy = OrbitDecomposition(T.lattice, dec.orbits)
    other = TwistedLattice([[2, 0], [0, 2]], ROT).reduce_generating_set()
    for foreign in (copy, other):
        assert foreign.pi == dec.pi
        with pytest.raises(ClassifyError, match="generating set"):
            PresentedAlgebraA(T, foreign, (T.one,))
    assert PresentedAlgebraA(T, dec, (T.one,)).dec is dec


def test_derived_mu_matches_choice():
    T = twist([[2, 0], [0, 2]], ROT)
    dec = T.lattice.reduce_generating_set()
    A = PresentedAlgebraA(T, dec, (T.one,))
    for rep in A.reps:
        assert A.derived_mu(rep) == T.one


# ---------------------------------------------------------------------
# block decomposition vs oracle
# ---------------------------------------------------------------------

def _oracle_args(A):
    r = A.E.rank
    gens = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    comm = [[A.bichar(g, h) for h in gens] for g in gens]
    return A.E.divisors, comm


DECOMPOSE_CASES = [
    ([[2, 0], [0, 4]], 1),
    ([[2, 0], [0, 4]], -1),
    ([[2, 1], [1, 2]], 1),
    ([[2, 1], [1, 2]], -1),
]


def _negation_algebra(gram, mu_sign):
    T = twist(gram, neg(2))
    dec = T.lattice.reduce_generating_set()
    mu = tuple(T.mu_roots(orb)[0 if mu_sign == 1 else 1]
               for orb in dec.orbits)
    return PresentedAlgebraA(T, dec, mu)


def _dims(dA):
    return tuple(b.dim for b in dA.blocks)


@pytest.mark.parametrize("gram,mu_sign", DECOMPOSE_CASES)
def test_decompose_matches_oracle(gram, mu_sign):
    A = _negation_algebra(gram, mu_sign)
    dA = A.block_decomposition
    assert all(dA.certified.values())
    count, dim, size = oracle_bicharacter_blocks(*_oracle_args(A))
    assert len(dA.blocks) == count
    assert set(_dims(dA)) == {dim}
    assert sum(d * d for d in _dims(dA)) == size == A.dim_B0


@pytest.mark.parametrize("gram,mu_sign", DECOMPOSE_CASES)
def test_blocks_pass_the_full_b0_certificate(gram, mu_sign):
    # the certificate the closed form replaced, run inside the whole of
    # B_0: e_chi B_0 has rank dim^2, and distinct idempotents multiply
    # to zero
    A = _negation_algebra(gram, mu_sign)
    blocks = A.block_decomposition.blocks
    elements = list(A.E.elements())
    assert len(elements) <= 16
    for block in blocks:
        rows = []
        for h in elements:
            prod = classify._b0_mul(A, block.idempotent, {h: ONE})
            rows.append([prod.get(g, as_scalar(0)) for g in elements])
        assert field_rank(rows, ONE) == block.dim ** 2
    for i, x in enumerate(blocks):
        for y in blocks[i + 1:]:
            assert classify._b0_mul(A, x.idempotent, y.idempotent) == {}


def test_failed_block_certificate_raises(monkeypatch):
    # a lift psi at twice its value is no homomorphism, and its
    # projectors, at twice their value, do not sum to one; the
    # enumeration names the failed checks instead of listing the classes
    real = classify._GroupScalars.psi

    def doubled(self, coords):
        g, s = real(self, coords)
        return g, s * RootPair(2, 0, 1)

    monkeypatch.setattr(classify._GroupScalars, "psi", doubled)
    with pytest.raises(ClassifyError,
                       match="certificate: idempotent, sum_to_one$"):
        enumerate_simple_twisted(twist([[2, 1], [1, 2]], neg(2)))


def test_decompose_trivial_group():
    T = twist([[2]], [[1]])
    A = first_algebra(T)
    dA = A.block_decomposition
    assert A.dim_B0 == 1 and len(dA.blocks) == 1 and _dims(dA) == (1,)
    assert all(dA.certified.values())


# ---------------------------------------------------------------------
# eta cosets and admissibility
# ---------------------------------------------------------------------

@pytest.mark.parametrize("gram", [[[2]], [[1]], [[2, -1], [-1, 2]],
                                  [[2, 0], [0, 4]]])
def test_eta_cosets_identity_sigma(gram):
    l = len(gram)
    lat = TwistedLattice(gram, [[1 if i == j else 0 for j in range(l)]
                                for i in range(l)])
    reps, q = eta_cosets(lat)
    assert len(reps) == abs(det_int(gram)) == \
        oracle_dual_coset_count(gram, lat.sigma)
    # representatives are distinct as weight functionals
    assert len(set(reps)) == len(reps)


def test_eta_trivial_when_no_fixed_vectors():
    lat = TwistedLattice([[2]], [[-1]])
    reps, q = eta_cosets(lat)
    assert reps == [(Fraction(0),)]


def test_admissibility_filters_roots():
    # rotation: only mu = 1 admits a compatible weight
    T = twist([[2, 0], [0, 2]], ROT)
    dec = T.lattice.reduce_generating_set()
    ok_plus, xi0 = admissible_base_weight(
        PresentedAlgebraA(T, dec, (T.one,)))
    assert ok_plus and xi0 == (Fraction(0), Fraction(0))
    ok_minus, _wit = admissible_base_weight(
        PresentedAlgebraA(T, dec, (RootPair(1, 1, 2),)))
    assert not ok_minus


def test_enumeration_takes_one_fixed_pairing_smith_form(monkeypatch):
    # the swap of A1 + A1 fixes (1, 1) and has two admissible root
    # choices; the Smith form of the fixed pairing is the lattice's, so
    # the enumeration takes it once, not once per admissible choice
    T = twist([[2, 0], [0, 2]], [[0, 1], [1, 0]])
    M = [list(r) for r in T.lattice.fixed_pairing]
    calls = []
    real = lattice_module.snf

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(lattice_module, "snf", counted)
    monkeypatch.setattr(classify, "snf", counted)
    res = enumerate_simple_twisted(T)
    assert sum(e.admissible for e in res.entries) == 2
    assert calls.count(M) == 1
    assert T.lattice.fixed_pairing_snf is T.lattice.fixed_pairing_snf


# ---------------------------------------------------------------------
# enumeration: the worked examples
# ---------------------------------------------------------------------

def test_enumerate_identity_sigma():
    T = twist([[2]], [[1]])
    res = enumerate_simple_twisted(T)
    assert not res.obstructed
    assert len(res.classes) == 2 == res.eta_count


def test_enumerate_negation():
    for l, gram in ((1, [[2]]), (2, [[2, 0], [0, 4]])):
        T = twist(gram, neg(l))
        res = enumerate_simple_twisted(T)
        admissible = [e for e in res.entries if e.admissible]
        assert len(res.entries) == 2 ** l
        assert len(admissible) == 1
        assert admissible[0].dim_B0 == 2 ** l
        assert sum(d * d for d in admissible[0].block_dims) == 2 ** l


def test_enumerate_rotation_two_classes():
    for gram in ([[2, 0], [0, 2]], [[4, 0], [0, 4]]):
        T = twist(gram, ROT)
        res = enumerate_simple_twisted(T)
        assert not res.obstructed
        assert len(res.classes) == 2
        assert res.orbit_lengths == (4,)
        assert res.order == 4


def test_enumerate_obstructed():
    T = twist([[2, 1], [1, 2]], [[0, 1], [1, 0]])
    res = enumerate_simple_twisted(T)
    assert res.obstructed
    assert res.witness is not None
    assert res.classes == ()


def test_enumerate_refuses_non_root_phi_products():
    # phi(alpha) = 2: the orbit product 2 * (1/2)... use sigma = id where
    # the orbit product is phi itself, which is not a root of unity
    T = twist([[2]], [[1]], phi={0: as_scalar(2)})
    with pytest.raises(UnsupportedScalar):
        enumerate_simple_twisted(T)


# ---------------------------------------------------------------------
# instantiation round trips
# ---------------------------------------------------------------------

@pytest.mark.parametrize("gram,sigma", [
    ([[2]], [[1]]),
    ([[2]], [[-1]]),
    ([[2, 1], [1, 2]], neg(2)),
    ([[2, 0], [0, 2]], ROT),
])
def test_instantiate_passes_conditions(gram, sigma):
    T = twist(gram, sigma)
    res = enumerate_simple_twisted(T)
    assert res.classes
    for cls in res.classes:
        M = instantiate_class(T, cls, trunc=4)
        reports = twisted_conditions(T, M)
        assert conditions_status(reports) == "pass", reports


def test_naive_module_fails_on_obstruction():
    T = twist([[2, 1], [1, 2]], [[0, 1], [1, 0]])
    M = FockModule(T, RegularOmega(T, 2), 4)
    reports = twisted_conditions(T, M)
    assert conditions_status(reports) == "fail"


def test_relation_i_untestable_when_no_probe_decides():
    # [2] with sigma = -1 on the one-line window: every e-shift of the
    # vacuum line leaves the window, so no probe decides relation (i)
    # for any root, and it never reads as a pass
    T = twist([[2]], [[-1]])
    M = FockModule(T, RegularOmega(T, 0), 1)
    alpha = (1,)
    for mu in T.mu_roots(T.lattice.orbit(alpha)):
        assert classify._check_relation_i(T, M, alpha, mu, [M.vacuum(0)]) \
            == ("untestable", (alpha, 1))
    (report,) = twisted_conditions(T, M)
    assert report["cond_i"] == "untestable"
    assert report["cond_ii"] == "pass"
    assert report["witness"] == ("(i)", alpha, 1)
    assert conditions_status([report]) == "untestable"


def test_conditions_witness_is_the_first_of_the_worst_status(monkeypatch):
    # the swap of A1 + A1 checks e_0 and e_1 as one orbit: relation (i)
    # undecided on e_0 and failing on e_1 reports e_1's failure
    T = twist([[2, 0], [0, 2]], [[0, 1], [1, 0]])
    M = FockModule(T, RegularOmega(T, 0), 1)
    verdicts = {(1, 0): "untestable", (0, 1): "fail"}
    monkeypatch.setattr(classify, "_check_relation_i",
                        lambda _T, _M, gamma, _mu, _probes:
                        (verdicts[gamma], (gamma, 1)))
    monkeypatch.setattr(classify, "_check_weight_ii",
                        lambda _T, _M, _gamma, _mu: ("pass", None))
    for report in twisted_conditions(T, M):
        assert (report["cond_i"], report["cond_ii"]) == ("fail", "pass")
        assert report["witness"] == ("(i)", (0, 1), 1)
    # a failing weight (ii) on e_0 replaces the undecided (i) before
    # it, and the later failure of (i) on e_1 does not replace it
    monkeypatch.setattr(classify, "_check_weight_ii",
                        lambda _T, _M, gamma, _mu: ("fail", (gamma, 0, 1)))
    for report in twisted_conditions(T, M):
        assert report["witness"] == ("(ii)", (1, 0), 0, 1)


@pytest.mark.parametrize("gram,sigma", [
    ([[2, 1], [1, 2]], neg(2)),
    ([[2, 0], [0, 4]], [[1, 0], [0, -1]]),
])
def test_instantiate_class_reuses_the_enumerated_algebra(monkeypatch, gram,
                                                         sigma):
    # the enumeration builds the algebras and block decompositions, and
    # instantiating its classes on the same twist then builds neither
    # again, and gives the vacuum lines and weights of a fresh twist
    T = twist(gram, sigma)
    built = []
    real_init, real_dec = PresentedAlgebraA.__init__, classify.ADecomposition

    def counting_init(self, *args):
        built.append("algebra")
        real_init(self, *args)

    def counting_dec(*args):
        built.append("blocks")
        return real_dec(*args)

    monkeypatch.setattr(PresentedAlgebraA, "__init__", counting_init)
    monkeypatch.setattr(classify, "ADecomposition", counting_dec)
    res = enumerate_simple_twisted(T)
    assert res.classes
    assert "algebra" in built and "blocks" in built
    built.clear()
    modules = [instantiate_class(T, cls, trunc=2) for cls in res.classes]
    monkeypatch.undo()
    assert built == []
    for cls, M in zip(res.classes, modules):
        # on a fresh twist, memo-free: instantiate_class would hand back
        # the vacuum space kept for this content
        fresh = classify._class_vacuum(twist(gram, sigma), cls)
        assert M.omega.lines == fresh.lines
        assert M.omega.weights == fresh.weights


def test_class_dimensions_match_blocks():
    T = twist([[2, 1], [1, 2]], neg(2))
    res = enumerate_simple_twisted(T)
    (entry,) = [e for e in res.entries if e.admissible]
    assert entry.dim_B0 == 4
    assert entry.block_dims == (2,)
    for cls in entry.classes:
        assert cls.dimension == 2
        M = instantiate_class(T, cls, trunc=4)
        assert M.omega.size == 2  # one degree line, a 2-dim simple module
        assert conditions_status(twisted_conditions(T, M)) == "pass"


# ---------------------------------------------------------------------
# memos and known faults
# ---------------------------------------------------------------------

A2 = [[2, -1], [-1, 2]]
FAULT = ([[4, -3, 2, 2], [-3, -8, 2, 4], [2, 2, 4, -3], [2, 4, -3, -8]],
         [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
# orders 2, 3, 4 and 6; the rotation collapses its root choices mu = +-i
# with inconsistent relation scalars, and the known-fault lattice every
# root choice with a non-central relation
SPLIT_FIXTURES = [
    ([[2, 1], [1, 2]], neg(2)),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 4]], neg(3)),
    (A2, [[0, -1], [1, -1]]),
    ([[2, 0], [0, 2]], ROT),
    (A2, [[1, -1], [1, 0]]),
    FAULT,
]


def _enumerated_algebras(monkeypatch, gram, sigma):
    """The per-root-choice algebras one enumeration builds."""
    built = []

    class Recorded(PresentedAlgebraA):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(classify, "PresentedAlgebraA", Recorded)
    res = enumerate_simple_twisted(twist(gram, sigma))
    monkeypatch.undo()
    assert len(built) == len(res.entries)
    return built


def _assert_same_algebra(A, fresh):
    assert (A.zero, A.witness) == (fresh.zero, fresh.witness)
    if A.zero:
        return
    assert A.ks == fresh.ks
    assert (A.c, A.grading) == (fresh.c, fresh.grading)
    # e(p_j a_j) of each degree-zero generator
    powers = [tuple(n * x for x in rep)
              for rep, n in zip(A.reps[A.m:], A.lengths[A.m:])]
    assert [A.e_image(v) for v in powers] == \
        [fresh.e_image(v) for v in powers]
    assert A.E.divisors == fresh.E.divisors
    assert A.dim_B0 == fresh.dim_B0
    rad, rad_fresh = A.presentation.radical, fresh.presentation.radical
    assert (rad.divisors, rad.gens) == (rad_fresh.divisors, rad_fresh.gens)
    elements = list(A.E.elements())
    for g in elements:
        for h in elements:
            assert A.tau(g, h) is A.tau(g, h)
            assert A.tau(g, h) == fresh.tau(g, h)


def test_tau_memo_matches_fresh_algebra(monkeypatch):
    gram = [[2, 0, 0], [0, 2, 0], [0, 0, 4]]
    T = twist(gram, neg(3))
    A = first_algebra(T)
    assert len(list(A.E.elements())) == 8
    _assert_same_algebra(
        A, twist(gram, neg(3)).presentation.algebra(A.mu_choice))
    # every algebra of an enumeration, built on the twist's shared
    # presentation, equals one built alone on a fresh twist
    witnesses = set()
    orders = set()
    for gram, sigma in SPLIT_FIXTURES:
        for A in _enumerated_algebras(monkeypatch, gram, sigma):
            T = twist(gram, sigma)
            fresh = PresentedAlgebraA(T, T.lattice.reduce_generating_set(),
                                      A.mu_choice)
            _assert_same_algebra(A, fresh)
            orders.add(T.lattice.p)
            if A.zero:
                witnesses.add(A.witness[0])
    assert orders == {2, 3, 4, 6}
    assert witnesses == {"inconsistent relation scalars",
                         "non-central relation"}


# class modules of orders 2, 3, 4 and 6: the four twisted_ops lattices,
# whose vacuum spaces have one degree line, and two with a fixed line,
# whose degree windows e(alpha) can leave
E_ACT_FIXTURES = [
    (A2, [[0, -1], [1, -1]]),
    (A2, [[1, -1], [1, 0]]),
    ([[2, 0], [0, 2]], ROT),
    ([[4, -2], [-2, 4]], [[0, -1], [1, -1]]),
    ([[2, 0], [0, 4]], [[1, 0], [0, -1]]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
]


def test_kept_class_e_action_matches_a_fresh_one():
    # on every line of every class module, for the basis vectors, their
    # negatives and their pairwise sums: the kept action is handed back
    # again, and equals a memo-free computation on a second vacuum space
    moved = exits = 0
    for gram, sigma in E_ACT_FIXTURES:
        T = twist(gram, sigma)
        l = T.lattice.rank
        units = [tuple(int(i == j) for i in range(l)) for j in range(l)]
        basis = units + [tuple(-x for x in u) for u in units]
        alphas = basis + [tuple(a + b for a, b in zip(u, v))
                          for u, v in itertools.combinations(basis, 2)]
        for cls in enumerate_simple_twisted(T).classes:
            A = T.presentation.algebra(cls.mu_choice)
            args = (A, cls.ideal_index, cls.base_weight, cls.eta)
            omega, fresh = classify.ClassOmega(*args), classify.ClassOmega(*args)
            for alpha in alphas:
                for i in range(omega.size):
                    kept = omega.e_act(alpha, i)
                    assert omega.e_act(list(alpha), i) is kept
                    assert kept == classify.ClassOmega.e_act.__wrapped__(
                        fresh, alpha, i), (alpha, i)
                    if kept is None:
                        exits += 1
                    else:
                        moved += 1
    assert moved > 600 and exits > 60


def test_product_check_computes_each_class_e_action_once(monkeypatch):
    # one product check on a class module of the rescaled A2 asks for
    # e(alpha) on a line again and again; each (alpha, line) is computed
    # once, counted by the degree coordinates every computation reads
    T = twist([[4, -2], [-2, 4]], [[0, -1], [1, -1]])
    M = instantiate_class(T, enumerate_simple_twisted(T).classes[0], trunc=2)
    asked, computed = [], []
    real_act, real_coords = classify.ClassOmega.e_act, \
        classify.ClassOmega._grading_coords

    def e_act(self, alpha, i):
        asked.append((tuple(alpha), i))
        return real_act(self, alpha, i)

    def grading_coords(self, alpha):
        computed.append(tuple(alpha))
        return real_coords(self, alpha)

    monkeypatch.setattr(classify.ClassOmega, "e_act", e_act)
    monkeypatch.setattr(classify.ClassOmega, "_grading_coords",
                        grading_coords)
    slots = [Fraction(k, 3) for k in range(1, 5)]
    report = product_check(M, (1, 0), (0, 1), -T.lattice.pairing(
        (1, 0), (0, 1)) - 1, slots, [M.vacuum(0)])
    assert set(report.values()) == {"pass"}
    assert len(asked) > 2 * len(set(asked))
    assert len(computed) == len(set(asked))


def test_enumeration_builds_one_presentation(monkeypatch):
    # sigma = -1 on A1 + A1 twisted: 4 root choices, one admissible; the
    # enumeration makes the commutator calls (commutator_exponent) of a
    # single root choice once the obstruction scan is done
    gram, sigma = [[2, 1], [1, 2]], neg(2)
    calls = []
    real = TwistedLattice.commutator_exponent

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(TwistedLattice, "commutator_exponent", counted)

    def scanned():
        T = twist(gram, sigma)
        T.obstruction_check()
        calls.clear()
        return T

    T = scanned()
    res = enumerate_simple_twisted(T)
    assert len(res.entries) == 4
    enumerated = len(calls)
    (entry,) = [e for e in res.entries if e.admissible]
    T = scanned()
    PresentedAlgebraA(T, T.lattice.reduce_generating_set(),
                      entry.mu_choice).block_decomposition
    assert enumerated == len(calls) > 0


# Unobstructed lattices on which enumeration finds no class: every root
# choice collapses with a non-central relation, against the existence
# criterion.  By the fixed dual-coset count, a mend should give them 25,
# 7, 73, 3 and 7 classes per admissible root choice.  The last two are
# A2 + A2 and [[2, 1], [1, 4]] + itself, each with the swap of its two
# summands.
SUMMAND_SWAP = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
FAULT_LATTICES = [
    FAULT,
    ([[-8, 3, 0, 0], [3, 0, 2, 0], [0, 2, 0, -3], [0, 0, -3, -8]],
     [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]),
    ([[-8, -4, -3, 4], [-4, -8, -4, 3], [-3, -4, 6, 4], [4, 3, 4, 6]],
     [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]),
    ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
     SUMMAND_SWAP),
    ([[2, 1, 0, 0], [1, 4, 0, 0], [0, 0, 2, 1], [0, 0, 1, 4]],
     SUMMAND_SWAP),
]


# Strict, so that mending the fault forces removing the mark.
@pytest.mark.xfail(strict=True, reason="unobstructed lattice with no class")
@pytest.mark.parametrize("gram,sigma", FAULT_LATTICES)
def test_unobstructed_has_a_class(gram, sigma):
    res = enumerate_simple_twisted(twist(gram, sigma))
    assert not res.obstructed
    assert res.classes


def _property_lattices():
    """The split fixtures, whose blocks include dimension 2, then seeded
    random lattices of orders 2, 3, 4 and 6, ten each with at most 16
    root choices, whose blocks all have dimension 1."""
    for gram, sigma in SPLIT_FIXTURES:
        yield TwistedLattice(gram, sigma)
    rng = random.Random(2024)
    need = {2: 10, 3: 10, 4: 10, 6: 10}
    while any(need.values()):
        lat = random_twisted_lattice(rng, rank_max=4)
        if need.get(lat.p) and \
                math.prod(lat.reduce_generating_set().lengths) <= 16:
            need[lat.p] -= 1
            yield lat


def test_class_count_matches_fixed_dual_cosets():
    # every admissible root choice gives |(Lambda'/Lambda)^sigma| classes
    # and the blocks of the bicharacter oracle, and an unobstructed
    # lattice has a class; the fault lattices are left out
    checked = set()
    for lat in _property_lattices():
        gram, sigma = [list(r) for r in lat.gram], [list(r) for r in lat.sigma]
        if (gram, sigma) in FAULT_LATTICES:
            continue
        T = TwistData(lat)
        res = enumerate_simple_twisted(T)
        assert res.obstructed or res.classes
        target = oracle_dual_coset_count(gram, sigma)
        for entry in res.entries:
            if not entry.admissible:
                continue
            assert len(entry.classes) == target
            A = T.presentation.algebra(entry.mu_choice)
            count, dim, size = oracle_bicharacter_blocks(*_oracle_args(A))
            assert (entry.block_count, set(entry.block_dims), entry.dim_B0) \
                == (count, {dim}, size)
            checked.add((lat.p, dim))
    assert {p for p, _dim in checked} == {2, 3, 4, 6}
    assert {1, 2} <= {dim for _p, dim in checked}


def test_even_draws_have_the_coset_count_per_root_choice():
    # 40 permutation and 40 conjugated even draws of rank <= 3: each
    # admissible root choice of every unobstructed draw gives
    # |(Lambda'/Lambda)^sigma| classes (77 unobstructed draws, 0.3 s);
    # the odd draws are left to the parity question below
    unobstructed = 0
    for seed, conjugate in ((4701, False), (4702, True)):
        rng = random.Random(seed)
        for _ in range(40):
            lat = random_twisted_lattice(rng, conjugate=conjugate)
            res = enumerate_simple_twisted(TwistData(lat))
            if res.obstructed:
                continue
            unobstructed += 1
            target = oracle_dual_coset_count(
                [list(r) for r in lat.gram], [list(r) for r in lat.sigma])
            for entry in res.entries:
                if entry.admissible:
                    assert len(entry.classes) == target, (lat.gram, lat.sigma)
    assert unobstructed == 77


def _class_summary(lat):
    """The obstruction verdict, class count, order and sorted class
    dimensions of the lattice's twist with default seeds."""
    res = enumerate_simple_twisted(TwistData(lat))
    return (res.obstructed, len(res.classes), res.order,
            sorted(c.dimension for c in res.classes))


def test_a_unimodular_basis_change_keeps_the_classification():
    # U is an isometry from (U^T G U, U^-1 sigma U) to (G, sigma), so 60
    # even and 60 odd draws of rank <= 3 (seeds 4801, 4802) and their
    # images in a random unimodular basis give the same verdict, class
    # count, order and class dimensions (102 with classes, 18
    # obstructed, 0.4 s).  This pins default seeds: each basis takes its
    # own default epsilon and phi, and 17 images have a phi(e_i) other
    # than 1.  The seeds carried to the new basis are not tested here.
    summaries, moved_phi = [], 0
    for seed, odd in ((4801, False), (4802, True)):
        rng = random.Random(seed)
        for _ in range(60):
            lat = random_twisted_lattice(rng, odd=odd)
            u, u_inv = _random_unimodular(rng, lat.rank)
            image = TwistedLattice(
                linalg.mat_mul(linalg.transpose(u),
                               linalg.mat_mul(lat.gram, u)),
                linalg.mat_mul(u_inv, linalg.mat_mul(lat.sigma, u)))
            summary = _class_summary(lat)
            assert _class_summary(image) == summary, (lat.gram, lat.sigma)
            summaries.append(summary)
            moved_phi += any(x.q != 1 or x.k
                             for x in TwistData(image).phi_basis)
    assert sum(s[0] for s in summaries) == 18
    assert sum(1 for s in summaries if s[1]) == 102
    assert moved_phi == 17


# Odd lattices with sigma = -1 on which the classifier finds two classes
# where (Lambda'/Lambda)^sigma has one element: on [[1]] the two differ
# only in their block, so they may be a module and its parity shift.
# Strict, so that deciding the odd factor forces removing the mark.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="odd lattice: twice the coset count")
@pytest.mark.parametrize("n", [1, 3, 9])
def test_odd_negation_has_the_coset_count(n):
    res = enumerate_simple_twisted(twist([[n]], [[-1]]))
    counts = [len(e.classes) for e in res.entries if e.admissible]
    assert counts == [oracle_dual_coset_count([[n]], [[-1]])]


def _closure_isotropic(A):
    """The maximal isotropic subgroup of E and its coset representatives
    by a search over sets: from the radical's members, take the first
    element of E outside the set that pairs trivially with every
    member, close the set under addition and start over; an element's
    representative is the least element of its coset."""
    E = A.E
    rad = A.presentation.radical
    members = {tuple(x % d for x, d in zip(rad.lift(a), E.divisors))
               for a in rad.elements()}
    elements = list(E.elements())
    grown = True
    while grown:
        grown = False
        for g in elements:
            if g in members or any(A.presentation.bichar_exponent(g, h)
                                   for h in members):
                continue
            frontier = {g}
            while frontier:
                x = frontier.pop()
                if x not in members:
                    members.add(x)
                    frontier.update(classify._e_add(x, h, E.divisors)
                                    for h in members)
            grown = True
            break
    coset_rep = {g: min(classify._e_add(g, h, E.divisors) for h in members)
                 for g in elements}
    return members, sorted(set(coset_rep.values())), coset_rep


# Gram matrices of A3, A4, D4, D5 and A2 + A2: under the negation, the
# maximal isotropic subgroup of E is 2, 4, 2, 4 and 4 times the radical
ISOTROPIC_GRAMS = [
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
     [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
    [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
]


def test_isotropic_subgroup_and_cosets_match_the_closure_search():
    # per admissible root choice of the property lattices and of the
    # negated root lattices above: the subgroup grown from the radical
    # in one ordered pass, and the cosets of a second pass, are the set
    # search's; a split fixture and the root lattices have a subgroup
    # larger than the radical
    from test_golden import W

    algebras = larger = 0
    for lat in itertools.chain(
            _property_lattices(),
            (TwistedLattice(g, neg(len(g))) for g in ISOTROPIC_GRAMS)):
        T = TwistData(lat)
        for entry in enumerate_simple_twisted(T).entries:
            if not entry.classes:
                continue
            cls = entry.classes[0]
            A = T.presentation.algebra(cls.mu_choice)
            omega = classify.ClassOmega(A, cls.ideal_index, cls.base_weight,
                                        cls.eta)
            members = {g for g, _s in omega.h_lifts.table.values()}
            assert (members, omega.transversal, omega.coset_rep) == \
                _closure_isotropic(A)
            algebras += 1
            larger += omega.H.size > A.presentation.radical.size
    assert algebras > 50 and larger == 6
    # on the twisted_ops lattices H is the radical, kept with its lift
    # by the algebra, and every class module has one coset
    for gram, sigma in W.OPS_LATTICES.values():
        T = twist(gram, sigma)
        for cls in enumerate_simple_twisted(T).classes:
            A = T.presentation.algebra(cls.mu_choice)
            omega = classify.ClassOmega(A, cls.ideal_index, cls.base_weight,
                                        cls.eta)
            assert omega.H is A.presentation.radical
            assert omega.h_lifts is A.radical_lifts
            assert len(omega.transversal) == 1


def test_class_module_on_the_radical_builds_no_projector(monkeypatch):
    # on the twisted_ops lattices H is the radical with its own lift,
    # so the class character is the block's label and a class module
    # builds no character projector and multiplies nothing in B_0
    from test_golden import W

    def forbidden(*args):
        raise AssertionError("a class module on the radical computed this")

    modules = 0
    for gram, sigma in W.OPS_LATTICES.values():
        T = twist(gram, sigma)
        classes = enumerate_simple_twisted(T).classes
        algebras = [T.presentation.algebra(cls.mu_choice) for cls in classes]
        for A in algebras:
            A.block_decomposition
        with monkeypatch.context() as m:
            m.setattr(classify._GroupScalars, "projector", forbidden)
            m.setattr(classify, "_b0_mul", forbidden)
            for cls, A in zip(classes, algebras):
                omega = classify.ClassOmega(A, cls.ideal_index,
                                            cls.base_weight, cls.eta)
                assert omega.h_label == omega.block.label
                modules += 1
    assert modules > 0


# ---------------------------------------------------------------------
# the integer front end against independent routes
# ---------------------------------------------------------------------

def _pool_lattices():
    """The classify_stream pool: its fixtures, the random pool and the
    known-fault lattices."""
    from test_golden import TL, W

    for gram, sigma in W.CLASSIFY_FIXTURES + W.classify_pool(TL) \
            + W.KNOWN_FAULTS:
        yield TwistedLattice(gram, sigma)


def _centrality_lattices():
    yield from _pool_lattices()
    for gram, sigma in SPLIT_FIXTURES + FAULT_LATTICES:
        yield TwistedLattice(gram, sigma)
    rng = random.Random(4711)
    for _ in range(150):
        yield random_twisted_lattice(rng, rank_max=4)


def test_centrality_witness_matches_commutator_loop():
    # the first difference vector d = sigma^s a - a of the generating
    # orbits, s ascending, with some C(d, e_k) != 1, and its first k,
    # found with the commutator exponent itself
    seen = {"none": 0, "witness": 0}
    for lat in _centrality_lattices():
        T = TwistData(lat)
        if T.obstruction_check()[0]:
            continue
        l = lat.rank
        expect = next(
            ((tuple(x - y for x, y in zip(orb[s], orb[0])), k)
             for orb in lat.reduce_generating_set().orbits
             for s in range(1, len(orb))
             for k in range(l)
             if lat.commutator_exponent(
                 tuple(x - y for x, y in zip(orb[s], orb[0])),
                 tuple(1 if i == k else 0 for i in range(l)))),
            None)
        witness = T.presentation.witness
        if expect is None:
            assert witness is None
            seen["none"] += 1
        else:
            assert witness == ("non-central relation", expect)
            seen["witness"] += 1
    assert seen["none"] > 100 and seen["witness"] >= 3


def _fixture_quotients():
    """The E, radical and eta quotients of the pool and split fixtures."""
    for lat in list(_pool_lattices()) + [TwistedLattice(g, s)
                                         for g, s in SPLIT_FIXTURES]:
        yield "eta", eta_cosets(lat)[1]
        P = TwistData(lat).presentation
        if P.witness is None:
            yield "E", P.E
            yield "radical", P.radical


def test_finite_quotient_lifts_and_coords():
    kinds = set()
    for kind, Q in _fixture_quotients():
        for cds in Q.elements():
            lift = Q.lift(cds)
            assert Q.coords(lift) == cds
            assert lift == tuple(
                sum((Fraction(c) * Fraction(g[k])
                     for c, g in zip(cds, Q.gens)), Fraction(0))
                for k in range(Q.dim))
        # generator i has order divisors_i in the quotient
        zero = tuple(0 for _ in Q.divisors)
        for d, g in zip(Q.divisors, Q.gens):
            assert Q.coords(tuple(d * x for x in g)) == zero
        if Q.size > 1:
            kinds.add(kind)
    assert kinds == {"eta", "E", "radical"}


# ---------------------------------------------------------------------
# the classifier's scalars against their definitions
# ---------------------------------------------------------------------

def _scalar_lattices():
    """The classify_stream pool and 100 random draws."""
    yield from _pool_lattices()
    rng = random.Random(5150)
    for _ in range(100):
        yield random_twisted_lattice(rng, rank_max=4)


def _check_algebra_scalars(T, A, rng):
    """k_image, e_image, tau, derived_mu and the power relations of the
    degree-zero generators of A, each against its defining identity in
    the twisted group algebra, e(a) e(b) = epsilon(a, b) e(a + b),
    recomputed from the public values of epsilon, phi and k_coeffs, as
    CycScalars.  Returns the number of power relations checked."""
    lat, P = T.lattice, A.presentation
    l = lat.rank

    def eps(a, b):
        return T.epsilon(a, b).scalar()

    def e_scalar(gamma):
        s, rep = A.e_image(gamma)
        return s.scalar(), rep

    # e(d) = epsilon(d, a) k_s^-1 for d = sigma^s a - a on each orbit
    for j, (orb, mu) in enumerate(zip(A.dec.orbits, A.mu_choice)):
        ks = T.k_coeffs(orb, mu)
        assert ks == A.ks[j]
        for s in range(1, len(orb)):
            d = tuple(x - y for x, y in zip(orb[s], orb[0]))
            assert A.k_image(d).scalar() == \
                eps(d, orb[0]) * ks[s].inverse().scalar()
    # the image of K is a twisted character: chi(x) chi(y) =
    # epsilon(x, y) chi(x + y)
    kvecs = [tuple(c) for c in P._khnf] or [(0,) * l]

    def in_k():
        coeffs = [rng.randint(-2, 2) for _ in kvecs]
        return tuple(sum(a * c[i] for a, c in zip(coeffs, kvecs))
                     for i in range(l))

    for _ in range(6):
        x, y = in_k(), in_k()
        xy = tuple(a + b for a, b in zip(x, y))
        assert (A.k_image(x) * A.k_image(y)).scalar() == \
            eps(x, y) * A.k_image(xy).scalar()
    # e_image respects the group law: e(g1) e(g2) = eps(g1, g2) e(g1 + g2)
    for _ in range(6):
        g1 = tuple(rng.randint(-3, 3) for _ in range(l))
        g2 = tuple(rng.randint(-3, 3) for _ in range(l))
        s1, r1 = e_scalar(g1)
        s2, r2 = e_scalar(g2)
        s12, r12 = e_scalar(tuple(a + b for a, b in zip(g1, g2)))
        sr, rr = e_scalar(tuple(a + b for a, b in zip(r1, r2)))
        assert rr == r12
        assert s1 * s2 * eps(r1, r2) * sr == eps(g1, g2) * s12
    # the root forced at gamma: e(sigma gamma) = (mu(gamma) / phi(gamma))
    # e(gamma), and mu(rep_j) is the chosen root
    for k in range(l):
        gamma = tuple(1 if i == k else 0 for i in range(l))
        s_sigma, rep_sigma = e_scalar(lat.apply_sigma(gamma))
        s_gamma, rep_gamma = e_scalar(gamma)
        assert rep_sigma == rep_gamma
        assert A.derived_mu(gamma).scalar() == \
            T.phi(gamma).scalar() * s_sigma * s_gamma.inverse()
    for rep, mu in zip(A.reps, A.mu_choice):
        assert A.derived_mu(rep) == mu
    # power relations of the degree-zero generators a, orbit a_0 = a,
    # ..., a_(n-1) of sum zero: e(a)^n = prod_(0<i<n) eps(i a, a) e(n a),
    # with n a in K, equals prod_s k_s eps(a_0 + ... + a_(s-1), a_s),
    # the product of e over the orbit by relation (i)
    degree_zero = range(A.m, len(A.reps))
    for j in degree_zero:
        orb = A.dec.orbits[j]
        rep, n = orb[0], len(orb)
        theta, rest = e_scalar(tuple(n * x for x in rep))
        assert not any(rest)
        for i in range(1, n):
            theta = theta * eps(tuple(i * x for x in rep), rep)
        orbit_fold = ONE
        partial = rep
        for s in range(1, n):
            orbit_fold = orbit_fold * A.ks[j][s].scalar() * \
                eps(partial, orb[s])
            partial = tuple(x + y for x, y in zip(partial, orb[s]))
        assert not any(partial)
        assert theta == orbit_fold
    # tau: y_g y_h = tau(g, h) y_(g+h) for y_g = e(lift g)
    E = A.E
    elements = list(E.elements())
    for _ in range(6):
        g, h = rng.choice(elements), rng.choice(elements)
        gh = classify._e_add(g, h, E.divisors)
        tg, th, tgh = E.lift(g), E.lift(h), E.lift(gh)
        s_sum, rep_sum = e_scalar(tuple(a + b for a, b in zip(tg, th)))
        s_gh, rep_gh = e_scalar(tgh)
        assert rep_sum == rep_gh
        assert A.tau(g, h).scalar() == \
            eps(tg, th) * s_sum * s_gh.inverse()
    return len(degree_zero)


def _check_class_e_action(T, A, omega, rng):
    """ClassOmega.e_act against e(a) e(b) = eps(a, b) e(a + b) and
    relation (i), e(sigma^s a) = k_s^-1 e(a), on the vacuum lines."""
    lat = T.lattice
    l = lat.rank
    seen = 0
    for _ in range(12):
        i = rng.randrange(omega.size)
        a = tuple(rng.randint(-1, 1) for _ in range(l))
        b = tuple(rng.randint(-1, 1) for _ in range(l))
        ab = tuple(x + y for x, y in zip(a, b))
        first = omega.e_act(b, i)
        whole = omega.e_act(ab, i)
        if first is None or whole is None:
            continue
        j, sb = first
        second = omega.e_act(a, j)
        if second is None:
            continue
        m, sa = second
        m2, sab = whole
        assert m == m2
        assert sa * sb == T.epsilon(a, b).scalar() * sab
        seen += 1
    for orb, mu in zip(A.dec.orbits, A.mu_choice):
        ks = [k.scalar() for k in T.k_coeffs(orb, mu)]
        for i in range(omega.size):
            base = omega.e_act(orb[0], i)
            if base is None:
                continue
            j, s0 = base
            for s in range(1, len(orb)):
                moved = omega.e_act(orb[s], i)
                if moved is not None:
                    js, ss = moved
                    assert js == j and ss == ks[s].inverse() * s0
                    seen += 1
    return seen


def _symmetric_twist(lat, rng):
    """The twist of lat whose epsilon seeds are the default ones times a
    random symmetric matrix of eighth roots of unity: the commutator map
    is the same, and epsilon is no longer +-1 on K x Lambda."""
    seeds = cocycle.build_epsilon(lat)
    for i in range(lat.rank):
        for j in range(i, lat.rank):
            z = root_of_unity(8, rng.randrange(8))
            seeds[(i, j)] = seeds[(i, j)] * z
            if i != j:
                seeds[(j, i)] = seeds[(j, i)] * z
    return TwistData(lat, eps_seed=seeds)


def test_classifier_scalars_match_their_definitions():
    rng = random.Random(77)
    algebras = relations = modules = actions = 0
    for lat in _scalar_lattices():
        T = _symmetric_twist(lat, rng) if rng.random() < 0.5 \
            else TwistData(lat)
        try:
            res = enumerate_simple_twisted(T)
        except (ClassifyError, UnsupportedScalar):
            continue
        for entry in res.entries:
            if entry.admissible:
                relations += _check_algebra_scalars(
                    T, T.presentation.algebra(entry.mu_choice), rng)
                algebras += 1
        if res.classes:
            cls = res.classes[0]
            A = T.presentation.algebra(cls.mu_choice)
            omega = classify.ClassOmega(A, cls.ideal_index, cls.base_weight,
                                        cls.eta)
            actions += _check_class_e_action(T, A, omega, rng)
            modules += 1
    assert algebras > 150 and relations > 50
    assert modules > 120 and actions > 2000


def test_enumeration_makes_no_cyc_scalar_products(monkeypatch):
    # on the A2 order-3 fixture the enumeration multiplies, inverts and
    # raises to powers only RootPairs; CycScalars are built only for the
    # values it hands out (RootPair.scalar)
    T = twist(A2, [[0, -1], [1, -1]])
    outside = []
    depth = [0]
    for name in ("__mul__", "inverse", "__pow__"):
        real = getattr(CycScalar, name)

        def counted(*args, _real=real, _name=name):
            if not depth[0]:
                outside.append(_name)
            return _real(*args)

        monkeypatch.setattr(CycScalar, name, counted)
    real_scalar = RootPair.scalar

    def converting(self):
        depth[0] += 1
        try:
            return real_scalar(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(RootPair, "scalar", converting)
    res = enumerate_simple_twisted(T)
    assert len(res.classes) == 3
    assert outside == []


# ---------------------------------------------------------------------
# what the presentation and the class vacuum space keep
# ---------------------------------------------------------------------

def _classify_test_lattices():
    """The lattices this file enumerates: its fixtures and the property
    lattices of orders 2, 3, 4 and 6."""
    seen = set()
    fixtures = [TwistedLattice(g, s) for g, s in
                SPLIT_FIXTURES + E_ACT_FIXTURES + FAULT_LATTICES]
    for lat in fixtures + list(_property_lattices()):
        key = (lat.gram, lat.sigma)
        if key not in seen:
            seen.add(key)
            yield lat


def test_relation_matrix_takes_one_smith_form(monkeypatch):
    # every relation combination k_parts hands out during enumeration
    # equals linalg.solve_int on a fresh copy of the relation matrix,
    # and each presentation puts its matrix in Smith form once, counted
    # by the matrix object linalg.snf is handed
    real_snf, real_k_parts = linalg.snf, classify.Presentation.k_parts
    handed, asked = [], []

    def snf(a):
        handed.append(a)
        return real_snf(a)

    def k_parts(self, kvec):
        out = real_k_parts(self, kvec)
        asked.append((self, kvec, out))
        return out

    monkeypatch.setattr(linalg, "snf", snf)
    monkeypatch.setattr(classify.Presentation, "k_parts", k_parts)
    presentations = []
    for lat in _classify_test_lattices():
        T = TwistData(lat)
        enumerate_simple_twisted(T)
        if not T.presentation.obstructed:
            presentations.append(T.presentation)
    monkeypatch.undo()
    solved = set()
    for P, kvec, parts in asked:
        combo = linalg.solve_int([list(r) for r in P._dmat], list(kvec))
        assert (None if parts is None else parts[0]) == combo
        if combo is not None:
            assert tuple(sum(c * d[i] for c, d in zip(combo, P.dvecs))
                         for i in range(P.lattice.rank)) == kvec
            solved.add((id(P), kvec))
    for P in presentations:
        takes = sum(1 for a in handed if a is P._dmat)
        assert takes == (1 if P.dvecs and P.witness is None else 0)
    assert len(solved) > 150
    assert sum(1 for P in presentations if P.dvecs) > 30


def _searched_h_label(A, block, lifts):
    """The character of H whose projector f lies under the block's
    idempotent e, e f = f, searched label by label in labels() order."""
    for label in lifts.labels():
        f = lifts.projector(label)
        if classify._b0_mul(A, block.idempotent, f) == f:
            return label
    return None


def _renormalized(lifts, k):
    """A second lift of the same subgroup: generator k's normalizer
    times zeta_(o_k), still a homomorphism, so its character labels
    shift against the radical's lift."""
    out = copy.copy(lifts)
    out.__dict__.pop("table", None)
    out.gens = [(rk, ok, nk * RootPair(1, 1, ok)) if i == k else
                (rk, ok, nk) for i, (rk, ok, nk) in enumerate(lifts.gens)]
    return out


def test_class_character_matches_the_projector_search():
    # on every class module of the property lattices (orders 2, 3, 4
    # and 6), the H-character read off the block's radical character is
    # the one the projector search finds; on the order-2 split fixtures
    # H is larger than the radical and the blocks have dimension 2.
    # Each generator's normalizer is also turned by a root of unity, so
    # that the lifts of H and of the radical differ by a character of
    # order 2 or 3 on it
    modules, larger, turned = 0, set(), set()
    for lat in _property_lattices():
        T = TwistData(lat)
        for cls in enumerate_simple_twisted(T).classes:
            A = T.presentation.algebra(cls.mu_choice)
            omega = classify.ClassOmega(A, cls.ideal_index, cls.base_weight,
                                        cls.eta)
            block, H = omega.block, omega.H
            assert omega.h_label == _searched_h_label(A, block,
                                                      omega.h_lifts)
            modules += 1
            if H.size > A.presentation.radical.size:
                larger.add((lat.p, omega.d))
            for k, (_rk, ok, _nk) in enumerate(omega.h_lifts.gens):
                if ok == 1:
                    continue
                lifts = _renormalized(omega.h_lifts, k)
                label = classify._block_character(A, block, H, lifts)
                assert label == _searched_h_label(A, block, lifts)
                if label != omega.h_label:
                    turned.add(ok)
    assert modules > 400
    assert (2, 2) in larger
    assert {2, 3} <= turned


def _block_lattices():
    """The lattices of this file's block and class-module tests, and the
    twisted_ops lattices."""
    from test_golden import W

    yield from _property_lattices()
    for gram, sigma in E_ACT_FIXTURES + list(W.OPS_LATTICES.values()):
        yield TwistedLattice(gram, sigma)
    for gram, _mu_sign in DECOMPOSE_CASES[::2]:
        yield TwistedLattice(gram, neg(2))


def _same_block(x, y):
    return (x.label, x.idempotent, x.dim) == (y.label, y.idempotent, y.dim)


def test_a_block_alone_is_the_listed_block():
    # per admissible root choice, on two fresh twists: block(i) before
    # the decomposition on one, after it on the other
    checked = 0
    for lat in _block_lattices():
        for entry in enumerate_simple_twisted(TwistData(lat)).entries:
            if not entry.admissible:
                continue
            alone = TwistData(lat).presentation.algebra(entry.mu_choice)
            listed = TwistData(lat).presentation.algebra(entry.mu_choice)
            singles = [alone.block(i) for i in range(entry.block_count)]
            assert "block_decomposition" not in alone.__dict__
            blocks = listed.block_decomposition.blocks
            assert len(blocks) == len(singles) == entry.block_count
            # listed in the order of the radical's characters
            assert [b.label for b in blocks] == \
                list(listed.radical_lifts.labels())
            assert tuple(b.dim for b in blocks) == entry.block_dims
            for i, block in enumerate(blocks):
                assert _same_block(singles[i], block)
                assert _same_block(listed.block(i), block)
                assert _same_block(alone.block_decomposition.blocks[i], block)
            with pytest.raises(ClassifyError, match="no block"):
                alone.block(entry.block_count)
            checked += 1
    assert checked > 60


def test_class_modules_read_their_own_block(monkeypatch):
    # a class module built from block(i) against one built from the
    # whole decomposition's block: the same lines, weights and
    # twisted-module conditions; the first leaves the decomposition
    # unbuilt, and on the radical builds no projector at all
    def listed(self, i):
        return self.block_decomposition.blocks[i]

    def forbidden(*args):
        raise AssertionError("a class module on the radical computed this")

    modules = 0
    for lat in _block_lattices():
        for entry in enumerate_simple_twisted(TwistData(lat)).entries:
            if not entry.classes:
                continue
            cls = entry.classes[-1]
            T = TwistData(lat)
            A = T.presentation.algebra(cls.mu_choice)
            with monkeypatch.context() as m:
                # a block of dimension 1 has H = E = the radical
                if cls.dimension == 1:
                    m.setattr(classify._GroupScalars, "projector", forbidden)
                M = instantiate_class(T, cls, trunc=2)
            assert "block_decomposition" not in A.__dict__
            T2 = TwistData(lat)
            T2.presentation.algebra(cls.mu_choice).block_decomposition
            with monkeypatch.context() as m:
                m.setattr(PresentedAlgebraA, "block", listed)
                # memo-free: instantiate_class would hand back M's
                # vacuum space, kept for this content
                M2 = FockModule(T2, classify._class_vacuum(T2, cls), 2)
            assert M2.omega is not M.omega
            assert M.omega.lines == M2.omega.lines
            assert M.omega.weights == M2.omega.weights
            assert M.omega.block.label == M2.omega.block.label
            assert twisted_conditions(T, M) == twisted_conditions(T2, M2)
            modules += 1
    assert modules > 60
