import itertools
import random
from fractions import Fraction

import pytest

from twistlab.fdist import (
    FdistError,
    GenSeries,
    KernelPoly,
    LieAlg,
    QuadraticSpace,
    WindowUnderflow,
    _neg_binoms,
    coeff_is_zero,
    compare_status,
    derive,
    gen_binom,
    grid_slot,
    kernel_Delta,
    kernel_Delta_via_F,
    kernel_F,
    kernel_delta_check,
    lie_from_products,
    locality_test,
    nth_product,
    series_compare,
    vector_status,
    verify_axioms,
    weight,
    worst_status,
    zero_series,
)
from twistlab.cocycle import TwistData
from twistlab.fock import FockModule, FockOp, RegularOmega
from twistlab.lattice import TwistedLattice
from twistlab.scalar import CycScalar, ONE, as_scalar


def test_gen_binom():
    assert gen_binom(Fraction(7, 3), 0) == 1
    assert gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    for n in range(6):
        for j in range(n + 1):
            import math

            assert gen_binom(Fraction(n), j) == math.comb(n, j)
    assert gen_binom(Fraction(3), 5) == 0
    assert gen_binom(Fraction(-2), 3) == -4


def test_product_binomials_match_gen_binom():
    # binom(-r/D, j) from integer numerators, for every residue r of the
    # grids D 1..12 and j 0..5; the unit at j = 0 is the object ONE
    for D in range(1, 13):
        for r in range(D):
            want = [(j, as_scalar(c)) for j in range(6)
                    if (c := gen_binom(Fraction(-r, D), j))]
            got = _neg_binoms(r, D, 6)
            assert got == want, (r, D)
            assert got[0][1] is ONE
            assert _neg_binoms(r, D, 0) == []


def test_quadratic_space_validation():
    with pytest.raises(FdistError):
        QuadraticSpace(["a", "b"], [0, 0], [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(FdistError):
        # nonzero pairing across incompatible degrees
        QuadraticSpace(["a", "b"], [0, Fraction(1, 2)], [[2, 1], [1, 2]])


def test_grid_slot_unit_cases():
    # the one rational-to-integer slot rule: x times grid as an int, or
    # None off the grid (1/grid)Z
    assert grid_slot(3, 4) == 12 and type(grid_slot(3, 4)) is int
    assert grid_slot(-3, 4) == -12
    assert grid_slot(0, 6) == 0
    assert grid_slot(Fraction(5, 2), 6) == 15
    assert grid_slot(Fraction(-5, 2), 6) == -15
    assert grid_slot(Fraction(4, 2), 3) == 6
    assert type(grid_slot(Fraction(5, 2), 6)) is int
    assert grid_slot(Fraction(1, 4), 6) is None
    assert grid_slot(Fraction(-1, 4), 6) is None
    assert grid_slot(Fraction(7, 5), 1) is None


def test_lie_series_off_the_grid_are_refused():
    # a Lie algebra with degrees in (1/2)Z has the grid 2: a residue or
    # shift in (1/3)Z is refused, and reading a slot there is zero
    alg, series = heisenberg(Fraction(1, 2))
    assert alg.grid == 2 and series.grid == 2
    with pytest.raises(FdistError):
        GenSeries(alg, lambda n: alg.gen_mode(0, n), {Fraction(1, 3)})
    with pytest.raises(FdistError):
        series.shift(Fraction(1, 3))
    assert series.coeff(Fraction(1, 3)).is_zero()
    assert series.shift(Fraction(1, 2)).coeff(0) == series.coeff(
        Fraction(1, 2))


def heisenberg(degree):
    """One-generator twisted Heisenberg with (h|h) = 2."""
    sp = QuadraticSpace(["h"], [degree], [[2]])
    alg = LieAlg(sp)
    series = GenSeries(alg, lambda n: alg.gen_mode(0, n), {degree})
    return alg, series


def two_heisenberg(la, mu, pair):
    sp = QuadraticSpace(["a", "b"], [la, mu], [[0, pair], [pair, 0]])
    alg = LieAlg(sp)
    sa = GenSeries(alg, lambda n: alg.gen_mode(0, n), {la})
    sb = GenSeries(alg, lambda n: alg.gen_mode(1, n), {mu})
    return alg, sa, sb


def constant_series(alg, value, slot=-1):
    return GenSeries(
        alg,
        lambda n: value if n == Fraction(slot) else alg.zero(),
        {Fraction(slot)},
    )


def series_equal(s1, s2, slots):
    return compare_status(series_compare(s1, s2, slots)) == "pass"


SLOTS = [Fraction(n, 2) for n in range(-8, 9)]


def test_affine_first_product_untwisted():
    alg, sa, sb = two_heisenberg(0, 0, 3)
    prod = nth_product(sa, sb, 1, 2)
    expect = constant_series(alg, alg.central().scale(3))
    assert series_equal(prod, expect, SLOTS)
    # zeroth product vanishes for an abelian pair
    assert series_equal(nth_product(sa, sb, 0, 2), zero_series(alg), SLOTS)


def test_affine_first_product_twisted():
    half = Fraction(1, 2)
    alg, sa, sb = two_heisenberg(half, half, 5)
    prod = nth_product(sa, sb, 1, 2)
    expect = constant_series(alg, alg.central().scale(5))
    assert series_equal(prod, expect, SLOTS)


def test_tau_products_case_table():
    half = Fraction(1, 2)
    # lambda = mu = 0: tau[1]tau = (a|b) c
    alg, sa, sb = two_heisenberg(0, 0, 7)
    ta, tb = sa.shift(0), sb.shift(0)
    assert series_equal(nth_product(ta, tb, 1, 2),
                        constant_series(alg, alg.central().scale(7)), SLOTS)
    # lambda + mu = 1: tau[1]tau = z (a|b) c  (slot -2)
    alg, sa, sb = two_heisenberg(half, half, 7)
    ta, tb = sa.shift(half), sb.shift(half)
    assert series_equal(
        nth_product(ta, tb, 1, 2),
        constant_series(alg, alg.central().scale(7), slot=-2), SLOTS)
    # lambda + mu >= 1, abelian: tau[0]tau = lambda (a|b) c
    assert series_equal(
        nth_product(ta, tb, 0, 2),
        constant_series(alg, alg.central().scale(Fraction(7, 2))), SLOTS)
    # lambda + mu < 1, abelian: tau[0]tau = tau_{[ab]} = 0
    alg0, sa0, sb0 = two_heisenberg(0, 0, 7)
    assert series_equal(nth_product(sa0.shift(0), sb0.shift(0), 0, 2),
                        zero_series(alg0), SLOTS)


def sl2_twisted():
    """Twisted sl2 under the swap involution: u = e+f (degree 0),
    v = e-f and h (degree 1/2); [u,v] = -2h, [h,u] = 2v, [h,v] = 2u;
    form (u|u) = 2, (v|v) = -2, (h|h) = 2."""
    half = Fraction(1, 2)
    two = CycScalar.rational(2)
    bracket = {
        (0, 1): ((2, -two),), (1, 0): ((2, two),),
        (2, 0): ((1, two),), (0, 2): ((1, -two),),
        (2, 1): ((0, two),), (1, 2): ((0, -two),),
    }
    sp = QuadraticSpace(
        ["u", "v", "h"], [0, half, half],
        [[2, 0, 0], [0, -2, 0], [0, 0, 2]], bracket)
    alg = LieAlg(sp)
    su = GenSeries(alg, lambda n: alg.gen_mode(0, n), {Fraction(0)})
    sv = GenSeries(alg, lambda n: alg.gen_mode(1, n), {half})
    sh = GenSeries(alg, lambda n: alg.gen_mode(2, n), {half})
    return alg, su, sv, sh


def test_tau_zeroth_product_with_bracket():
    half = Fraction(1, 2)
    alg, su, sv, sh = sl2_twisted()
    tu, tv, th = su.shift(0), sv.shift(half), sh.shift(half)
    # lambda + mu = 1/2 + 0 < 1: tau_h [0] tau_u = tau_{[h,u]} = 2 tau_v
    assert series_equal(nth_product(th, tu, 0, 2), tv.scale(2), SLOTS)
    # lambda + mu = 1 >= 1: tau_h [0] tau_h = z tau_{[h,h]} + lambda (h|h) c
    assert series_equal(nth_product(th, th, 0, 2),
                        constant_series(alg, alg.central()), SLOTS)
    # lambda + mu = 1 with nonzero bracket: tau_h [0] tau_v = 2 z tau_u
    got = nth_product(th, tv, 0, 2)
    expect = tu.scale(2).shift(1)
    assert series_equal(got, expect, SLOTS)


def test_lie_from_products_heisenberg():
    alg, s = heisenberg(Fraction(1, 2))
    for m in [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]:
        direct, recovered = lie_from_products(s, s, m, -m, 2)
        assert direct == recovered
        assert direct == alg.central().scale(Fraction(2) * m)
    # m + n != 0: bracket vanishes
    direct, recovered = lie_from_products(
        s, s, Fraction(1, 2), Fraction(1, 2), 2)
    assert direct == recovered
    assert direct.is_zero()


def test_lie_from_products_m_zero_single_term():
    alg, su, sv, sh = sl2_twisted()
    direct, recovered = lie_from_products(su, sh, 0, Fraction(1, 2), 2)
    assert direct == recovered
    prod0 = nth_product(su, sh, 0, 2)
    assert direct == prod0.coeff(Fraction(1, 2))
    assert direct == alg.gen_mode(1, Fraction(1, 2)).scale(-2)


def test_locality():
    alg, s = heisenberg(Fraction(1, 2))
    slots = [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(3, 2), Fraction(1, 2))]
    assert locality_test(s, s, 2, slots)
    assert not locality_test(s, s, 1, slots)
    # commuting pair is local of order 0
    alg2, sa, sb = two_heisenberg(0, 0, 0)
    assert locality_test(sa, sb, 0, [(1, -1), (0, 2)])


def test_derive_relation():
    alg, s = heisenberg(Fraction(1, 2))
    d = derive(s)
    for n in SLOTS:
        assert d.coeff(n) == s.coeff(n - 1).scale(-n)


def test_window_untestable():
    # a probe that leaves the Fock truncation is the only untestable
    # signal: series_compare marks its slot, and locality_test and
    # weight, with every probe out of the window, raise WindowUnderflow
    # rather than pass
    M, _coords, _create, vac, full = heisenberg_fock()
    h = M.tilde((1,))
    d_op = M.upsilon_zero_op()
    pairs = series_compare(h, h.scale(1), [-1, 1], [full])
    assert dict(pairs) == {Fraction(-1): "untestable", Fraction(1): "pass"}
    assert compare_status(pairs) == "untestable"
    # the vacuum decides these
    assert locality_test(h, h, 2, [(1, -1)], [vac])
    assert weight(h, d_op, [0, 1], [vac]) == 0
    # h(-1)h(-1) and h(-2) need two creations: no probe has room
    with pytest.raises(WindowUnderflow):
        locality_test(h, h, 2, [(-1, -1)], [vac, full])
    with pytest.raises(WindowUnderflow):
        weight(h, d_op, [-1], [vac, full])


def test_verify_axioms_twisted_affine():
    half = Fraction(1, 2)
    alg, su, sv, sh = sl2_twisted()
    family = [("tu", su.shift(0)), ("tv", sv.shift(half)),
              ("th", sh.shift(half))]
    slots = list(range(-4, 5))
    report = verify_axioms(family, ["C1", "C2", "C3", "C4"], slots,
                           lambda a, b: 2)
    assert report
    bad = [line for line in report if line[2] != "pass"]
    assert not bad, bad


def test_verify_axioms_untestable_marking():
    # on h(-1)|0>, with no room for a creation, a line whose products
    # create is untestable, never pass
    M, _coords, _create, _vac, full = heisenberg_fock()
    h = M.tilde((1,))
    report = verify_axioms([("h", h)], ["C1", "C2", "C3"], [-1, 0, 1],
                           lambda a, b: 2, [full])
    assert all(status in ("pass", "untestable") for _, _, status in report)
    assert any(status == "untestable" for _, _, status in report)


# ---------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------

def test_kernel_F_p1_is_one():
    for m in range(7):
        assert kernel_F(1, m) == KernelPoly.monomial(1, 0, 0, 1)


def test_kernel_F_diagonal_identity():
    for p in range(1, 6):
        for m in range(7):
            diag = kernel_F(p, m).restrict_diagonal()
            # expect p^-m z^((m+1)(1-p)/p): exponent in 1/p units
            expect = {(m + 1) * (1 - p): Fraction(1, p ** m)}
            assert diag == expect


def test_kernel_delta_two_routes_agree():
    for p in range(1, 9):
        for n in range(-2, 3):
            for N in range(max(n + 1, 0), n + 7):
                agree, d1, d2 = kernel_delta_check(p, n, N)
                assert agree, (p, n, N)


# The kernels in Fraction and KernelPoly arithmetic, term for term as
# the paper writes them: oracles for the integer builders of fdist.

def _oracle_F(p, m):
    out = {}
    for l in range(1 - p, 1 - p + m + 1):
        total = Fraction(0)
        for q in range(p):
            k = 0
            while l + q - k * p >= 0:
                inner = l + q - k * p
                if inner <= m + 1:
                    sign = -1 if (l + q + k * p) % 2 else 1
                    total += sign * gen_binom(Fraction(-q, p) + k, m) * \
                        gen_binom(Fraction(m + 1), inner)
                k += 1
        if total:
            out[(m - l + 1 - p, l - m * p)] = total
    return KernelPoly(p, out)


def _oracle_w_minus_z(p, j):
    return KernelPoly(p, {((j - i) * p, i * p):
                          gen_binom(Fraction(j), i) * (-1) ** i
                          for i in range(j + 1)})


def _oracle_Delta(p, n, N):
    out = KernelPoly(p)
    for q in range(p):
        for j in range(0, N - n):
            c = gen_binom(Fraction(-q, p), j)
            if c:
                out = out + KernelPoly.monomial(p, q, -q - j * p, c) * \
                    _oracle_w_minus_z(p, j)
    return out


def _oracle_Delta_via_F(p, n, N):
    m = N - n - 1
    if m < 0:
        return KernelPoly(p)
    prefactor = KernelPoly(p, {(i, p - 1 - i): 1 for i in range(p)})
    return prefactor ** (m + 1) * _oracle_F(p, m)


def test_kernels_match_their_fraction_oracles():
    for p in range(1, 9):
        for m in range(5):
            assert kernel_F(p, m).terms == _oracle_F(p, m).terms, (p, m)
        for n in range(-4, 4):
            for N in range(6):
                assert kernel_Delta(p, n, N).terms == \
                    _oracle_Delta(p, n, N).terms, (p, n, N)
                assert kernel_Delta_via_F(p, n, N).terms == \
                    _oracle_Delta_via_F(p, n, N).terms, (p, n, N)


def test_kernel_delta_p1():
    # p = 1: Delta is identically 1 (only the j = 0 term survives)
    for n in range(-2, 3):
        for N in range(n + 1, n + 4):
            assert kernel_Delta(1, n, N) == KernelPoly.monomial(1, 0, 0, 1)


def test_kernel_poly_arithmetic():
    p = KernelPoly(3, {(1, 0): 2, (0, 1): -1})
    q = KernelPoly(3, {(1, 0): 1})
    assert (p - q) + q == p
    assert p * q == KernelPoly(3, {(2, 0): 2, (1, 1): -1})
    assert q ** 3 == KernelPoly(3, {(3, 0): 1})


# ---------------------------------------------------------------------
# The verdict rule
# ---------------------------------------------------------------------

def test_worst_status_ranking():
    assert worst_status([]) == "pass"
    assert worst_status(["pass", "pass"]) == "pass"
    assert worst_status(["pass", "untestable", "pass"]) == "untestable"
    assert worst_status(["untestable", "fail", "pass"]) == "fail"
    assert worst_status(["fail", "untestable"]) == "fail"
    assert compare_status([(0, "untestable"), (1, "pass")]) == "untestable"


def test_worst_status_stops_at_first_fail():
    def statuses():
        yield "untestable"
        yield "fail"
        raise AssertionError("read past the first fail")

    assert worst_status(statuses()) == "fail"


def heisenberg_fock():
    """Rank-1 lattice (2), sigma = 1, truncated at creation degree 1,
    with a creation mode h(-1) and its probes: the vacuum (room for one
    creation) and h(-1)|0> (none left)."""
    T = TwistData(TwistedLattice([[2]], [[1]]))
    M = FockModule(T, RegularOmega(T, 1), 1)
    coords = M.lattice_coords((1,))
    create = M.mode_op(coords, -1)
    vac = M.vacuum(M.omega.lookup[(0,)])
    return M, coords, create, vac, create.apply(vac)


def test_vector_status():
    M, _coords, create, vac, full = heisenberg_fock()
    assert vector_status(M.zero_vec()) == "pass"
    assert vector_status(vac) == "fail"
    assert vector_status(create.apply(full)) == "untestable"


def test_coeff_is_zero_fail_beats_poisoned_in_any_order():
    # h(-1) is nonzero on the vacuum and leaves the window on h(-1)|0>
    M, _coords, create, vac, full = heisenberg_fock()
    for probes in ([vac, full], [full, vac]):
        assert coeff_is_zero(M.alg, create, probes) == "fail"


def test_coeff_is_zero_untestable_when_only_poisoned_probes_miss():
    # [h(1), h(-1)] - (h|h) id vanishes; on h(-1)|0> it needs a second
    # creation past the truncation
    M, coords, create, vac, full = heisenberg_fock()
    ann = M.mode_op(coords, 1)
    comm = M.alg.bracket(ann, create) - FockOp(M, lambda v: v).scale(2)
    assert coeff_is_zero(M.alg, comm, [vac]) == "pass"
    for probes in ([vac, full], [full, vac]):
        assert coeff_is_zero(M.alg, comm, probes) == "untestable"
    with pytest.raises(FdistError):
        coeff_is_zero(M.alg, comm)


def test_coeff_is_zero_lie_coefficients():
    alg, _series = heisenberg(Fraction(0))
    assert coeff_is_zero(alg, alg.zero()) == "pass"
    assert coeff_is_zero(alg, alg.gen_mode(0, 1)) == "fail"
    assert coeff_is_zero(alg, alg.central()) == "fail"
