import itertools
from fractions import Fraction

import pytest

from twistlab.cocycle import TwistData
from twistlab.fock import (
    FockError,
    FockModule,
    FockOp,
    FockVector,
    GradedBasis,
    RegularOmega,
    e_group_checks,
    heisenberg_commutation_check,
    pair_expansion_check,
    partition_rhs,
    product_check,
    reconstruct_e,
    virasoro_element_checks,
)
from twistlab.fdist import (
    GenSeries,
    LieAlg,
    QuadraticSpace,
    compare_status,
    derive,
    kernel_Delta,
    nth_product,
    nth_product_kernel,
    series_compare,
)
from twistlab.lattice import TwistedLattice
from twistlab.scalar import CycScalar, ONE, ZERO

from test_lattice import A1x2, ROT4


def untwisted_module(trunc=4, bound=3):
    lat = TwistedLattice([[2]], [[1]])
    td = TwistData(lat)
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


def negation_module(trunc=6, bound=2):
    lat = TwistedLattice([[2]], [[-1]])
    td = TwistData(lat)
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


def rotation_module(trunc=4, bound=2):
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


def vac(M):
    return M.vacuum(M.omega.lookup[(0,) * M.lattice.rank])


# ---------------------------------------------------------------------
# Graded eigenbasis
# ---------------------------------------------------------------------

def test_graded_basis_eigen_structure():
    M = rotation_module()
    gb = M.basis
    assert gb.qs == (1, 3)
    assert gb.residues == (Fraction(1, 4), Fraction(3, 4))
    from twistlab.scalar import root_of_unity
    lat = M.lattice
    for j, vec in enumerate(gb.vecs):
        img = [sum((CycScalar.rational(lat.sigma[i][k]) * vec[k]
                    for k in range(lat.rank)), ZERO)
               for i in range(lat.rank)]
        expect = [root_of_unity(4, gb.qs[j]) * x for x in vec]
        assert img == expect


def test_graded_basis_pairing_grading():
    for M in (untwisted_module(), negation_module(), rotation_module()):
        gb = M.basis
        p = gb.p
        l = M.lattice.rank
        for i in range(l):
            for j in range(l):
                if (gb.qs[i] + gb.qs[j]) % p != 0:
                    assert not gb.pairing[i][j]


def test_graded_basis_duals_are_dual():
    for M in (untwisted_module(), negation_module(), rotation_module()):
        gb = M.basis
        l = M.lattice.rank
        for i in range(l):
            for j in range(l):
                val = sum((gb.pairing[i][k] * gb.duals[j][k]
                           for k in range(l)), ZERO)
                assert val == (ONE if i == j else ZERO)


def test_graded_basis_rejects_degenerate_pairing():
    with pytest.raises(Exception):
        GradedBasis(TwistedLattice([[0]], [[1]]))


# ---------------------------------------------------------------------
# Heisenberg action
# ---------------------------------------------------------------------

def test_heis_act_annihilates_vacuum():
    M = negation_module()
    v = vac(M)
    for m in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        assert M.heis_act(0, m, v).is_zero()


def test_heis_act_bracket_contraction():
    # [h(n), h(-n)] v = n (h^[n] | h^[-n]) v with c = 1
    M = negation_module()
    v = vac(M)
    n = Fraction(1, 2)
    created = M.heis_act(0, -n, v)
    back = M.heis_act(0, n, created)
    # (h_0|h_0) = 2 in the eigenbasis here
    assert back == v.scale(n * 2)


def test_heis_act_zero_mode_weight():
    M = untwisted_module()
    i = M.omega.lookup[(1,)]
    v = M.vacuum(i)
    got = M.heis_act(0, 0, v)
    assert got == v.scale(M.omega.xi(i)[0])


def test_heis_act_truncation_poisons():
    M = untwisted_module(trunc=2)
    v = vac(M)
    deep = M.heis_act(0, Fraction(-3), v)
    assert deep.poisoned and deep.is_zero()


def test_mode_residue_mismatch_is_zero():
    M = negation_module()
    v = vac(M)
    assert M.heis_act(0, -1, v).is_zero()
    assert not M.heis_act(0, -1, v).poisoned
    # modes off the grid (1/p)Z match no residue: zero, and the input's
    # poison flag carried over
    for N, m in ((M, Fraction(1, 3)), (M, Fraction(-5, 3)),
                 (untwisted_module(), Fraction(1, 2)),
                 (untwisted_module(), Fraction(-1, 2))):
        w = vac(N)
        assert N.heis_act(0, m, w) == FockVector(N, {})
        assert N.heis_act(0, m, FockVector(N, {}, poisoned=True)) == \
            FockVector(N, {}, poisoned=True)
        assert N.mode_op((ONE,), m).apply(w) == FockVector(N, {})


def order3_module(trunc=2, bound=1):
    lat = TwistedLattice([[2, -1], [-1, 2]], [[0, -1], [1, -1]])
    td = TwistData(lat)
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


@pytest.mark.parametrize("make", [untwisted_module, negation_module,
                                  order3_module, rotation_module])
def test_heis_act_int_and_fraction_modes_agree(make):
    M = make(trunc=2)
    p = M.p
    for v in M.basis_vectors(1):
        for j in range(M.lattice.rank):
            for m in range(-2, 3):
                assert M.heis_act(j, m, v) == M.heis_act(j, Fraction(m), v)
            for ms in range(-2 * p, 2 * p + 1):
                # the same mode as a Fraction and as an int times p
                got = M.heis_act(j, Fraction(ms, p), v)
                if ms % p == 0:
                    assert got == M.heis_act(j, ms // p, v)
                if ms % p != M.basis.qs[j]:
                    assert got == FockVector(M, {})


@pytest.mark.parametrize("make, deep, ok", [
    (untwisted_module, Fraction(-3), Fraction(-2)),
    (negation_module, Fraction(-5, 2), Fraction(-3, 2)),
    (rotation_module, Fraction(-9, 4), Fraction(-5, 4)),
])
def test_creation_past_trunc_poisons(make, deep, ok):
    M = make(trunc=2)
    v = vac(M)
    j = next(j for j, q in enumerate(M.basis.qs)
             if q == deep.numerator % M.p)
    got = M.heis_act(j, deep, v)
    assert got.poisoned and got.is_zero()
    kept = M.heis_act(j, ok, v)
    assert not kept.poisoned and not kept.is_zero()
    # the creation degree counts the modes already in the word
    assert M.heis_act(j, ok, kept).poisoned


# ---------------------------------------------------------------------
# Degree grading
# ---------------------------------------------------------------------

def test_virasoro_one_is_degree():
    for M in (untwisted_module(), negation_module(), rotation_module()):
        for v in M.basis_vectors(2):
            assert M.virasoro_one(v) == v.scale(v.max_degree())


def test_weight_anomaly_values():
    assert untwisted_module().weight_anomaly() == 0
    assert negation_module().weight_anomaly() == Fraction(1, 16)
    assert rotation_module().weight_anomaly() == Fraction(3, 32)


# ---------------------------------------------------------------------
# Vertex operator coefficients
# ---------------------------------------------------------------------

def test_vertex_coeff_untwisted_vacuum_values():
    M = untwisted_module()
    v = vac(M)
    alpha = (1,)
    i_a = M.omega.lookup[(1,)]
    ket_a = M.vacuum(i_a)
    assert M.vertex_coeff(alpha, Fraction(0)).apply(v).is_zero()
    assert M.vertex_coeff(alpha, Fraction(-1)).apply(v) == ket_a
    assert M.vertex_coeff(alpha, Fraction(-2)).apply(v) == \
        M.heis_act(0, Fraction(-1), ket_a)


def test_vertex_commutator_with_heisenberg():
    # [h(n), X_alpha(m)] = (alpha|h) X_alpha(m+n)
    for M, h, alpha, modes in (
        (untwisted_module(), (1,), (1,), [Fraction(-1), Fraction(1)]),
        (negation_module(), (1,), (1,),
         [Fraction(-1, 2), Fraction(1, 2)]),
    ):
        v = vac(M)
        coords = M.lattice_coords(h)
        pair = Fraction(M.lattice.pairing(alpha, h))
        for n in modes:
            for m in (Fraction(-1), Fraction(0), Fraction(-1, 2)):
                x = M.vertex_coeff(alpha, m)
                hop = M.mode_op(coords, n)
                lhs = hop.apply(x.apply(v)) - x.apply(hop.apply(v))
                rhs = M.vertex_coeff(alpha, m + n).apply(v).scale(pair)
                d = lhs - rhs
                assert d.is_zero() and not d.poisoned


# ---------------------------------------------------------------------
# Vectors as memo keys
# ---------------------------------------------------------------------

def test_vector_hash_agrees_with_eq():
    M = untwisted_module()
    k1, k2 = ((), 0), ((), 1)
    two = CycScalar.rational(2)
    u = FockVector(M, {k1: ONE, k2: two})
    w = FockVector(M, {k2: two, k1: ONE})
    assert u is not w and u == w and hash(u) == hash(w)
    summed = u + FockVector(M, {})
    assert summed == u and hash(summed) == hash(u)
    # a poisoned vector drops its terms: it differs from zero only in
    # the flag, and must not share a memo entry with it
    clean, bad = FockVector(M, {}), FockVector(M, {k1: ONE}, poisoned=True)
    assert clean != bad
    assert {clean: 0, bad: 1}[FockVector(M, {}, poisoned=True)] == 1


def test_series_coefficient_remembers_its_action():
    M = untwisted_module()
    calls = []

    def act(v):
        calls.append(v)
        return v.scale(2)

    s = GenSeries(M.alg, lambda n: FockOp(M, act), {Fraction(0)},
                  shift_base=Fraction(0))
    op = s.coeff(0)
    assert s.coeff(0) is op
    v1, v2 = vac(M), vac(M)
    assert v1 is not v2
    assert op.apply(v1) == op.apply(v2) == v1.scale(2)
    assert len(calls) == 1
    # operators built from the coefficient reuse its remembered results
    thrice = op.scale(3)
    assert thrice.apply(v2) == v1.scale(6)
    assert len(calls) == 1


def test_lie_series_coefficients_unwrapped():
    alg = LieAlg(QuadraticSpace(["h"], [0], [[2]]))
    elt = alg.gen_mode(0, 1)
    s = GenSeries(alg, lambda n: elt, {Fraction(0)})
    assert s.coeff(1) is elt


# ---------------------------------------------------------------------
# Sums stop at their first poisoned term
# ---------------------------------------------------------------------

def _recorder(M, name, calls):
    """An operator that records each application and changes nothing."""
    def act(w):
        calls.append(name)
        return w
    return FockOp(M, act)


def test_operator_sum_stops_at_poison():
    M = untwisted_module(trunc=2)
    v = vac(M)
    P = M.mode_op((ONE,), -3)
    assert P.apply(v).poisoned
    calls = []
    Q = _recorder(M, "Q", calls)
    for op in (P + Q, P - Q):
        assert op.apply(v) == FockVector(M, {}, poisoned=True)
    assert calls == []
    # a clean first term still adds the second
    R = M.mode_op((ONE,), -1)
    assert (R + Q).apply(v) == R.apply(v) + v
    assert (R - Q).apply(v) == R.apply(v) - v
    assert calls == ["Q", "Q"]


def _recording_series(M, name, calls, poison_slot):
    """Series whose slot-k coefficient records ('name', k) when applied,
    except at poison_slot, where it creates past the truncation."""
    poison = M.mode_op((ONE,), -M.trunc - 1)

    def fn(k):
        if k == poison_slot:
            return poison
        return _recorder(M, (name, k), calls)

    return GenSeries(M.alg, fn, {Fraction(0)}, shift_base=Fraction(5))


def test_product_coefficients_stop_at_poison():
    M = untwisted_module(trunc=2)
    v = vac(M)
    poisoned = FockVector(M, {}, poisoned=True)
    calls = []
    # a(n)b(m) is the first term of both products, and a(n) poisons it
    a = _recording_series(M, "a", calls, poison_slot=2)
    b = _recording_series(M, "b", calls, poison_slot=None)
    op = M.alg.integral_product_coeff(a, b, Fraction(0), Fraction(0), 2, 0)
    assert op.apply(v) == poisoned
    assert calls == [("b", 0)]
    # fresh series: coefficients remember their results on v
    calls.clear()
    a = _recording_series(M, "a", calls, poison_slot=2)
    b = _recording_series(M, "b", calls, poison_slot=None)
    op = M.alg.residue_product_coeff(a, b, 2, Fraction(0),
                                     [(Fraction(0), Fraction(0), ONE)], 1)
    assert op.apply(v) == poisoned
    assert calls == [("b", 0)]


def test_out_of_window_product_coefficients_are_poisoned():
    # X(1)[-3]X(1) at trunc 2: every product slot leaves the window, and
    # both routes give the empty poisoned vector the full sums gave
    M = negation_module(trunc=2)
    sa = M.vertex_series((1,))
    expand = nth_product(sa, sa, -3, 2)
    kernel = nth_product_kernel(sa, sa, -3, 2, kernel_Delta(M.p, -3, 2))
    poisoned = FockVector(M, {}, poisoned=True)
    for t in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for series in (expand, kernel):
            assert series.coeff(t).apply(vac(M)) == poisoned


# ---------------------------------------------------------------------
# Virasoro element checks
# ---------------------------------------------------------------------

def _all_pass(report):
    bad = [line for line in report if line[-1] != "pass"]
    assert not bad, bad


def test_virasoro_checks_untwisted():
    M = untwisted_module()
    slots = [Fraction(k) for k in range(-2, 3)]
    _all_pass(virasoro_element_checks(M, [(1,)], slots, [vac(M)]))


def test_virasoro_checks_negation():
    M = negation_module()
    slots = [Fraction(k, 2) for k in range(-4, 5)]
    _all_pass(virasoro_element_checks(M, [(1,)], slots, [vac(M)]))


def test_virasoro_checks_rotation():
    M = rotation_module()
    slots = [Fraction(k, 4) for k in range(-4, 7)]
    _all_pass(virasoro_element_checks(M, [(1, 0)], slots, [vac(M)]))


# ---------------------------------------------------------------------
# Lattice products
# ---------------------------------------------------------------------

def _assert_product(M, a, b, n, slots):
    rep = product_check(M, a, b, n, slots, [vac(M)])
    assert all(v == "pass" for v in rep.values()), (a, b, n, rep)


def test_products_untwisted():
    M = untwisted_module()
    slots = [Fraction(k) for k in range(-1, 3)]
    _assert_product(M, (1,), (-1,), -1, slots)
    _assert_product(M, (1,), (-1,), 0, slots)
    _assert_product(M, (1,), (1,), -3, slots)
    # vanishing at and above -(a|b)
    _assert_product(M, (1,), (1,), -2, slots)
    _assert_product(M, (1,), (-1,), 2, slots)


def test_products_negation():
    M = negation_module()
    slots = [Fraction(k, 2) for k in range(-2, 5)]
    _assert_product(M, (1,), (1,), -3, slots)
    _assert_product(M, (1,), (-1,), -1, slots)
    _assert_product(M, (1,), (1,), -2, slots)
    _assert_product(M, (1,), (-1,), 2, slots)


def test_products_rotation():
    M = rotation_module(trunc=5)
    slots = [Fraction(k, 4) for k in range(2, 7)]
    _assert_product(M, (1, 0), (-1, 0), -1, slots)
    _assert_product(M, (1, 0), (1, 0), 0, slots)
    _assert_product(M, (1, 0), (0, 1), 0, slots)


def test_partition_rhs_vanishing_convention():
    M = untwisted_module()
    assert partition_rhs(M, (1,), (1,), -2) is None
    assert partition_rhs(M, (1,), (1,), -3) is not None


def test_product_untestable_when_window_too_small():
    M = negation_module(trunc=2)
    slots = [Fraction(-2)]
    rep = product_check(M, (1,), (1,), -3, slots, [vac(M)])
    assert all(v == "untestable" for v in rep.values()), rep


# ---------------------------------------------------------------------
# Operator relations of the module
# ---------------------------------------------------------------------

def test_heisenberg_commutation_relations():
    for M, modes in (
        (untwisted_module(), [Fraction(-1), 0, Fraction(1)]),
        (negation_module(), [Fraction(-1, 2), 0, Fraction(1, 2)]),
        (rotation_module(), [Fraction(-1, 4), 0, Fraction(3, 4)]),
    ):
        r = M.lattice.rank
        alphas = [tuple(1 if i == 0 else 0 for i in range(r))]
        hs = [tuple(1 if i == j else 0 for i in range(r))
              for j in range(r)]
        probes = [vac(M)]
        rep = heisenberg_commutation_check(M, alphas, hs, modes, probes)
        assert all(st == "pass" for _, st in rep), rep


def test_e_group_law_and_commutation():
    for M in (untwisted_module(), negation_module(), rotation_module()):
        r = M.lattice.rank
        a = tuple(1 if i == 0 else 0 for i in range(r))
        b = tuple(-x for x in a)
        pairs = [(a, a), (a, b)]
        if r > 1:
            pairs.append((a, (0, 1)))
        rep = e_group_checks(M, pairs, [vac(M)])
        assert all(s1 == "pass" and s2 == "pass" for _, s1, s2 in rep), rep


def test_e_identity():
    M = negation_module()
    v = M.heis_act(0, Fraction(-1, 2), vac(M))
    assert M.e_op((0,)).apply(v) == v


def test_reconstruct_e():
    for M, exps in (
        (untwisted_module(), [Fraction(k) for k in range(-2, 3)]),
        (negation_module(), [Fraction(k, 2) for k in range(-2, 3)]),
        (rotation_module(), [Fraction(k, 4) for k in range(-2, 3)]),
    ):
        r = M.lattice.rank
        a = tuple(1 if i == 0 else 0 for i in range(r))
        rep = reconstruct_e(M, a, exps, [vac(M)])
        assert all(st == "pass" for _, st in rep), rep


# ---------------------------------------------------------------------
# Two-variable expansion
# ---------------------------------------------------------------------

def test_pair_expansion_untwisted():
    M = untwisted_module()
    v0 = vac(M)
    v1 = M.heis_act(0, Fraction(-1), v0)
    slots = [Fraction(-1), Fraction(0), Fraction(1)]
    rep = pair_expansion_check(M, (1,), (-1,), slots, slots, [v0, v1])
    assert all(st == "pass" for _, st in rep), rep


def test_pair_expansion_negation():
    M = negation_module()
    v0 = vac(M)
    slots = [Fraction(k, 2) for k in (-2, -1, 0, 1)]
    rep = pair_expansion_check(M, (1,), (1,), slots, slots, [v0])
    assert all(st == "pass" for _, st in rep), rep
    rep = pair_expansion_check(M, (1,), (-1,), slots, slots, [v0])
    assert all(st == "pass" for _, st in rep), rep


def test_pair_expansion_rotation():
    M = rotation_module()
    v0 = vac(M)
    ws = [Fraction(-3, 4), Fraction(1, 4)]
    zs = [Fraction(-1, 2), Fraction(0)]
    rep = pair_expansion_check(M, (1, 0), (0, 1), ws, zs, [v0])
    assert all(st == "pass" for _, st in rep), rep


# ---------------------------------------------------------------------
# Series-level consistency
# ---------------------------------------------------------------------

def test_vertex_series_weight_shift():
    # z^mu phi has weight mu: slot bookkeeping through shift
    from twistlab.fdist import weight
    M = untwisted_module()
    x = M.vertex_series((1,))
    d_op = M.upsilon_zero_op()
    slots = [Fraction(k) for k in range(-2, 3)]
    assert weight(x, d_op, slots, [vac(M)]) == ZERO
    lam = weight(x.shift(1), d_op, slots, [vac(M)])
    assert lam == ONE


def test_derive_matches_translation():
    # DX_alpha = alpha~ [-1] X_alpha on the vacuum
    M = untwisted_module()
    x = M.vertex_series((1,))
    at = M.tilde((1,))
    lhs = derive(x)
    rhs = nth_product(at, x, -1, 2)
    slots = [Fraction(k) for k in range(-2, 3)]
    assert compare_status(
        series_compare(lhs, rhs, slots, [vac(M)])) == "pass"


def test_vertex_exponent_kept_per_line_and_irrational_refused():
    T = TwistData(TwistedLattice([[2]], [[-1]]))
    M = FockModule(T, RegularOmega(T, 1), 2)
    assert M.vertex_exponent((1,), 0) is M.vertex_exponent([1], 0)
    assert M.vertex_exponent((1,), 0) == -1  # -(alpha|alpha)/2

    class IrrationalOmega:
        # one vacuum line whose weight is not rational
        size = 1

        def xi(self, _i):
            return (CycScalar(4, (0, 1)),)

    M = FockModule(T, IrrationalOmega(), 2)
    for _ in range(2):
        with pytest.raises(FockError, match="z-exponent"):
            M.vertex_exponent((1,), 0)
    with pytest.raises(FockError, match="z-exponent"):
        M.vertex_series((1,))
