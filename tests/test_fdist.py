import itertools
from fractions import Fraction

import pytest

from twistlab.fdist import (
    FdistError,
    KernelPoly,
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
    nth_product_kernel,
    series_compare,
    vector_status,
    verify_axioms,
    weight,
    worst_status,
    zero_series,
)
from twistlab.cocycle import TwistData, locality_order
from twistlab.fock import FockModule, FockOp, RegularOmega
from twistlab.lattice import TwistedLattice
from twistlab.oracle import oracle_product
from twistlab.scalar import ONE, as_scalar


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
    # the twisted Heisenberg field of sigma = -1 has its modes in
    # (1/2)Z: a shift in (1/3)Z is refused, reading a slot there is
    # zero, and a shift by 1/2 reads the next slot
    M = fock_module([[2]], [[-1]])
    unit = M.basis.units[0]
    series = M.eigen_tilde(unit)
    assert series.res_k == {M.grid // 2}
    assert M.grid % 2 == 0 and M.grid % 3 and series.grid == M.grid
    with pytest.raises(FdistError):
        series.shift(Fraction(1, 3))
    probes = M.basis_vectors(1)
    shifted = series.shift(Fraction(1, 2))
    for v in probes:
        assert series.coeff(Fraction(1, 3)).apply(v) == M.zero_vec()
        assert shifted.coeff(0).apply(v) == series.coeff(
            Fraction(1, 2)).apply(v)


def test_series_on_two_modules_are_refused():
    # two modules built alike are still two: no sum, difference or
    # product mixes their series
    M1, M2 = (fock_module([[2]], [[-1]]) for _ in range(2))
    a, b = M1.tilde((1,)), M2.tilde((1,))
    assert a.grid == b.grid
    products = [
        lambda: a + b,
        lambda: a - b,
        lambda: nth_product(a, b, 0, 2),
        lambda: nth_product_kernel(a, b, 0, 2, kernel_Delta(M1.p, 0, 2)),
        lambda: oracle_product(a, b, 0, 2),
    ]
    for make in products:
        with pytest.raises(FdistError, match="different modules"):
            make()


# ---------------------------------------------------------------------
# The paper's tau-products and axioms on Fock fields
# ---------------------------------------------------------------------

A2 = [[2, -1], [-1, 2]]
A2_ROT3 = [[0, -1], [1, -1]]
ROT4 = [[0, -1], [1, 0]]
SWAP = [[0, 1], [1, 0]]
# [2] with sigma = +-1, 2 I_2 with the order-4 rotation and with the
# swap, and A_2 with its order-3 rotation
TAU_LATTICES = [([[2]], [[1]]), ([[2]], [[-1]]), ([[2, 0], [0, 2]], ROT4),
                ([[2, 0], [0, 2]], SWAP), (A2, A2_ROT3)]
# the tau fields have integral exponents; at truncation 3 these slots
# keep every product on the centre vacuum inside the window
TAU_SLOTS = list(range(-2, 4))


def fock_module(gram, sigma, trunc=3, bound=1):
    T = TwistData(TwistedLattice(gram, sigma))
    return FockModule(T, RegularOmega(T, bound), trunc)


def centre_vacuum(M):
    return M.vacuum(M.omega.lookup[(0,) * M.lattice.rank])


def tau_fields(M):
    """tau_j(z) = z^(q_j/p) h_j(z) for the eigenvectors h_j of sigma,
    sigma h_j = omega^(q_j) h_j: the twisted Heisenberg fields with
    integral exponents."""
    B = M.basis
    return [M.eigen_tilde(B.units[j]).shift(B.residues[j])
            for j in range(M.lattice.rank)]


def tau_expected(M, i, j, n):
    """The paper's tau_i [n] tau_j for n in (0, 1), with the central
    element c the identity series: for lam + mu = 0, tau[1]tau = (a|b)c
    and tau[0]tau = 0; for lam + mu = 1, tau[1]tau = z (a|b)c and
    tau[0]tau = lam (a|b)c.  None for the other pairs, whose pairing
    vanishes."""
    B = M.basis
    lam, mu = B.residues[i], B.residues[j]
    c = M.identity_series().scale(B.pairing[i][j])
    if lam + mu == 0:
        return c if n == 1 else zero_series(M)
    if lam + mu == 1:
        return c.shift(1) if n == 1 else c.scale(lam)
    return None


def tau_lines(gram, sigma):
    """(table, axioms): one ('tau', instance, verdict) line per entry of
    the tau-product table, and the verify_axioms C1-C4 lines of the tau
    fields (locality order 2), all on the centre vacuum."""
    M = fock_module(gram, sigma)
    probes = [centre_vacuum(M)]
    taus = tau_fields(M)
    table = []
    for (i, a), (j, b) in itertools.product(enumerate(taus), repeat=2):
        for n in (1, 0):
            expect = tau_expected(M, i, j, n)
            if expect is not None:
                table.append(("tau", f"t{i}[{n}]t{j}", compare_status(
                    series_compare(nth_product(a, b, n, 2), expect,
                                   TAU_SLOTS, probes))))
    axioms = verify_axioms([(f"t{j}", t) for j, t in enumerate(taus)],
                           ["C1", "C2", "C3", "C4"], TAU_SLOTS,
                           lambda a, b: 2, probes)
    return table, axioms


def series_status(s1, s2, M):
    return compare_status(series_compare(s1, s2, TAU_SLOTS,
                                         [centre_vacuum(M)]))


def test_affine_first_product_untwisted():
    # [2], sigma = 1: lam = mu = 0, tau[1]tau = (h|h) c and tau[0]tau = 0
    M = fock_module([[2]], [[1]])
    (t,) = tau_fields(M)
    assert M.basis.pairing[0][0] == 2
    c = M.identity_series()
    assert series_status(nth_product(t, t, 1, 2), c.scale(2), M) == "pass"
    assert series_status(nth_product(t, t, 0, 2), zero_series(M),
                         M) == "pass"
    # a wrong constant is caught
    assert series_status(nth_product(t, t, 1, 2), c.scale(3), M) == "fail"


def test_affine_first_product_twisted():
    # [2], sigma = -1: lam = mu = 1/2, tau[1]tau = z (h|h) c and
    # tau[0]tau = lam (h|h) c
    M = fock_module([[2]], [[-1]])
    (t,) = tau_fields(M)
    assert M.basis.residues == (Fraction(1, 2),)
    c = M.identity_series()
    assert series_status(nth_product(t, t, 1, 2), c.scale(2).shift(1),
                         M) == "pass"
    assert series_status(nth_product(t, t, 0, 2), c, M) == "pass"
    # without the z the first product is wrong
    assert series_status(nth_product(t, t, 1, 2), c.scale(2), M) == "fail"


def test_tau_products_case_table():
    for gram, sigma in TAU_LATTICES:
        table, _axioms = tau_lines(gram, sigma)
        assert table, (gram, sigma)
        bad = [line for line in table if line[2] != "pass"]
        assert not bad, (gram, sigma, bad)


def test_verify_axioms_twisted_affine():
    for gram, sigma in TAU_LATTICES:
        _table, axioms = tau_lines(gram, sigma)
        assert {tag for tag, _i, _s in axioms} == {"C1", "C2", "C3", "C4"}
        bad = [line for line in axioms if line[2] != "pass"]
        assert not bad, (gram, sigma, bad)


def sl2_family(sign):
    """The A_1 lattice's X_alpha, X_-alpha and h = alpha~, the affine
    sl_2 at level 1, on [2] with sigma = sign: the module at truncation
    3 and bound 2, the family, and its locality orders (the lattice's
    for two X fields, 2 with h)."""
    M = fock_module([[2]], [[sign]], trunc=3, bound=2)
    roots = {"xp": (1,), "xm": (-1,)}
    family = [(name, M.vertex_series(a)) for name, a in roots.items()]
    family.append(("h", M.tilde((1,))))

    def loc(a, b):
        if a in roots and b in roots:
            return locality_order(M.lattice, roots[a], roots[b])
        return 2

    return M, family, loc


def sl2_report(sign, which):
    M, family, loc = sl2_family(sign)
    slots = [Fraction(k, M.p) for k in range(-M.p, 2 * M.p + 1)]
    report = verify_axioms(family, which, slots, loc, [centre_vacuum(M)])
    return [status for _tag, _inst, status in report]


def test_verify_axioms_sl2_c1_to_c3():
    # a non-abelian family: every C1-C3 line passes untwisted, and the
    # twisted lines either pass or are untestable, never fail
    untwisted = sl2_report(1, ["C1", "C2", "C3"])
    assert untwisted == ["pass"] * 64
    twisted = sl2_report(-1, ["C1", "C2", "C3"])
    assert (twisted.count("pass"), twisted.count("untestable"),
            len(twisted)) == (54, 18, 72)


@pytest.mark.xfail(strict=True, reason=(
    "_assoc_check and _comm_check take N(a, c) as the locality of a with "
    "b[k]c; N(X_alpha, X_-alpha[0]X_alpha) is 1 where N(X_alpha, X_alpha) "
    "is 0, so lines such as (xp[0]xm)[0]xp fail falsely"))
def test_verify_axioms_sl2_c4_v3_v4_have_no_false_fail():
    fails = {tag: sl2_report(1, [tag]).count("fail")
             for tag in ("C4", "V3", "V4")}
    assert fails == {"C4": 0, "V3": 0, "V4": 0}


def test_tau_zeroth_product_with_bracket():
    # untwisted affine sl_2 (lam = mu = 0): tau_a [0] tau_b = tau_[a,b],
    # and tau_a [1] tau_b = (a|b) c
    M, family, loc = sl2_family(1)
    xp, xm, h = (s for _name, s in family)
    eps = M.twist.epsilon((1,), (-1,)).scalar()
    N = loc("xp", "xm")
    # [h, e_+-alpha] = +-(h|alpha) e_+-alpha
    assert series_status(nth_product(h, xp, 0, 2), xp.scale(2), M) == "pass"
    assert series_status(nth_product(h, xm, 0, 2), xm.scale(-2), M) == "pass"
    # [e_alpha, e_-alpha] = eps(alpha, -alpha) h
    assert series_status(nth_product(xp, xm, 0, N), h.scale(eps),
                         M) == "pass"
    assert series_status(nth_product(xp, xm, 0, N), h.scale(-eps),
                         M) == "fail"
    assert series_status(nth_product(xp, xm, 1, N),
                         M.identity_series().scale(eps), M) == "pass"


def test_lie_from_products_heisenberg():
    # [h(m), h(n)] = m (h|h) delta_(m+n,0) on [2] with sigma = -1
    M = fock_module([[2]], [[-1]])
    h = M.tilde((1,))
    vac = centre_vacuum(M)
    probes = [vac, h.coeff(Fraction(-1, 2)).apply(vac)]
    for m in [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]:
        direct, recovered = lie_from_products(h, h, m, -m, 2)
        assert coeff_is_zero(direct - recovered, probes) == "pass"
        assert coeff_is_zero(direct - FockOp(M, lambda v: v).scale(2 * m),
                             probes) == "pass"
        assert coeff_is_zero(direct, probes) == "fail"
    # m + n != 0: bracket vanishes
    direct, recovered = lie_from_products(
        h, h, Fraction(1, 2), Fraction(1, 2), 2)
    assert coeff_is_zero(direct, probes) == "pass"
    assert coeff_is_zero(recovered, probes) == "pass"


def test_lie_from_products_m_zero_single_term():
    # m = 0 leaves only the s = 0 term: [h(0), X(n)] = (h[0]X)(n)
    M, family, _loc = sl2_family(1)
    xp, _xm, h = (s for _name, s in family)
    probes = [centre_vacuum(M)]
    prod0 = nth_product(h, xp, 0, 2)
    for n in (-2, -1, 0):
        direct, recovered = lie_from_products(h, xp, 0, n, 2)
        assert coeff_is_zero(direct - recovered, probes) == "pass"
        assert coeff_is_zero(direct - prod0.coeff(n), probes) == "pass"
        assert coeff_is_zero(direct - xp.coeff(n).scale(2), probes) == "pass"
    assert coeff_is_zero(xp.coeff(-1), probes) == "fail"


@pytest.mark.parametrize("gram,a,b", [
    ([[1, 0], [0, 1]], (1, 0), (0, 1)),
    ([[1]], (1,), (-1,)),
])
def test_lie_from_products_pins_the_super_sign(gram, a, b):
    # odd X fields: FockOp.bracket of their modes, with its super sign,
    # against the bracket recovered from the products
    l = len(gram)
    M = fock_module(gram, [[int(i == j) for j in range(l)] for i in range(l)])
    xa, xb = M.vertex_series(a), M.vertex_series(b)
    assert xa.parity == xb.parity == 1
    N = locality_order(M.lattice, a, b)
    modes = [Fraction(k, M.p) for k in range(-2, 3)]
    verdicts = []
    for m, n in itertools.product(modes, repeat=2):
        direct, recovered = lie_from_products(xa, xb, m, n, N)
        verdicts.append(coeff_is_zero(direct - recovered,
                                      [centre_vacuum(M)]))
    assert verdicts == ["pass"] * 25


def test_locality():
    M = fock_module([[2]], [[-1]])
    h = M.tilde((1,))
    probes = [centre_vacuum(M)]
    slots = [(Fraction(1, 2), Fraction(-1, 2)),
             (Fraction(3, 2), Fraction(1, 2))]
    assert locality_test(h, h, 2, slots, probes) == "pass"
    assert locality_test(h, h, 1, slots, probes) == "fail"
    # commuting pair is local of order 0
    M2 = fock_module([[2, 0], [0, 2]], [[1, 0], [0, 1]])
    assert locality_test(M2.tilde((1, 0)), M2.tilde((0, 1)), 0,
                         [(1, -1), (0, 2)], [centre_vacuum(M2)]) == "pass"


def test_locality_verdict_does_not_depend_on_slot_order():
    # at order 0 the sum is [h(n), h(m)]: at (-1, -1) it needs two
    # creations, untestable on both probes, and at (1, -1) it is
    # (h|h) id, a fail; the fail is the verdict in either order
    M, _coords, _create, vac, full = heisenberg_fock()
    h = M.tilde((1,))
    slots = [(-1, -1), (1, -1)]
    for order in (slots, slots[::-1]):
        assert locality_test(h, h, 0, order, [vac, full]) == "fail"


def test_derive_relation():
    M = fock_module([[2]], [[-1]])
    h = M.tilde((1,))
    d = derive(h)
    probes = [centre_vacuum(M)]
    slots = [Fraction(n, 2) for n in range(-4, 5)]
    for n in slots:
        assert coeff_is_zero(d.coeff(n) - h.coeff(n - 1).scale(-n),
                             probes) == "pass"
    assert any(coeff_is_zero(d.coeff(n), probes) == "fail" for n in slots)


def test_window_untestable():
    # a probe that leaves the Fock truncation is the only untestable
    # signal: series_compare marks its slot, locality_test reads it as
    # untestable, and weight, with every probe out of the window,
    # decides nothing (None), never a weight
    M, _coords, _create, vac, full = heisenberg_fock()
    h = M.tilde((1,))
    d_op = M.upsilon_zero_op()
    pairs = series_compare(h, h.scale(1), [-1, 1], [full])
    assert dict(pairs) == {Fraction(-1): "untestable", Fraction(1): "pass"}
    assert compare_status(pairs) == "untestable"
    # the vacuum decides these
    assert locality_test(h, h, 2, [(1, -1)], [vac]) == "pass"
    assert weight(h, d_op, [0, 1], [vac]) == 0
    # h(-1)h(-1) and h(-2) need two creations: no probe has room
    assert locality_test(h, h, 2, [(-1, -1)], [vac, full]) == "untestable"
    assert weight(h, d_op, [-1], [vac, full]) is None


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
                assert kernel_delta_check(p, n, N), (p, n, N)


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
    coords = M.basis.decompose((1,))
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
        assert coeff_is_zero(create, probes) == "fail"


def test_coeff_is_zero_untestable_when_only_poisoned_probes_miss():
    # [h(1), h(-1)] - (h|h) id vanishes; on h(-1)|0> it needs a second
    # creation past the truncation
    M, coords, create, vac, full = heisenberg_fock()
    ann = M.mode_op(coords, 1)
    comm = ann.bracket(create) - FockOp(M, lambda v: v).scale(2)
    assert coeff_is_zero(comm, [vac]) == "pass"
    for probes in ([vac, full], [full, vac]):
        assert coeff_is_zero(comm, probes) == "untestable"

