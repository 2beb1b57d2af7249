import itertools
import math
import random
from fractions import Fraction

import pytest

from twistlab.cocycle import TwistData, locality_order
from twistlab.fock import (
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
    FdistError,
    GenSeries,
    _int_binom,
    compare_status,
    derive,
    gen_binom,
    kernel_Delta,
    nth_product,
    nth_product_kernel,
    series_compare,
    verify_axioms,
    zero_series,
)
from twistlab import fock, linalg
from twistlab._kept import kept
from twistlab.lattice import TwistedLattice
from twistlab.linalg import field_inverse, field_rref, field_solve
from twistlab.scalar import CycScalar, ONE, ZERO, as_scalar, root_of_unity

from test_golden import TL, W
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


def heis(M, j, m, v):
    """h_j(m) applied to v, for an int or Fraction mode m: the module's
    one Heisenberg action on the unit eigen-coordinates of h_j."""
    return M.mode_op(M.basis.units[j], m).apply(v)


# ---------------------------------------------------------------------
# Graded eigenbasis
# ---------------------------------------------------------------------

def test_graded_basis_eigen_structure():
    M = rotation_module()
    gb = M.basis
    assert gb.qs == (1, 3)
    assert gb.residues == (Fraction(1, 4), Fraction(3, 4))
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


def _witness_basis(lat):
    """qs, vecs, pairing and duals by the elimination route: projector
    entries as Fraction-dense CycScalars, their RREF, the pairing as an
    l^4 double sum, and its inverse."""
    p, l = lat.p, lat.rank
    qs, vecs = [], []
    for q in range(p):
        rows = []
        for k in range(l):
            row = []
            for i in range(l):
                dense = [Fraction(0)] * p
                for s in range(p):
                    dense[(-q * s) % p] += Fraction(lat.sigma_pows[s][i][k], p)
                row.append(CycScalar(p, dense))
            rows.append(row)
        rref, pivots = field_rref(rows, ONE)
        for r in rref[:len(pivots)]:
            qs.append(q)
            vecs.append(tuple(r))
    g = lat.gram
    pairing = [[sum((vecs[i][a] * as_scalar(g[a][b]) * vecs[j][b]
                     for a in range(l) for b in range(l)), ZERO)
                for j in range(l)] for i in range(l)]
    minv = field_inverse(pairing, ONE)
    duals = tuple(tuple(minv[i][j] for i in range(l)) for j in range(l))
    return tuple(qs), tuple(vecs), pairing, duals


def _witness_coords(vecs, v):
    """The eigen-coordinates of v by one field_solve."""
    l = len(vecs)
    h = [[vecs[j][k] for j in range(l)] for k in range(l)]
    return tuple(field_solve(h, [as_scalar(x) for x in v], ONE))


def _witness_lattices():
    """The lattices this file builds modules on, and 50 random twisted
    lattices of orders 1 to 6 from the benchmark's generator."""
    lats = [TwistedLattice(g, s) for g, s in
            [([[2]], [[1]]), ([[2]], [[-1]]), (A1x2, ROT4)]
            + list(GRID_LATTICES.values()) + MIXED_RESIDUES]
    rng = random.Random(1907)
    drawn = 0
    while drawn < 50:
        lat = W.random_twisted_lattice(rng, TL)
        if lat.p <= 6:
            lats.append(lat)
            drawn += 1
    return lats


def test_graded_basis_matches_elimination_witness():
    rng = random.Random(1908)
    for lat in _witness_lattices():
        l = lat.rank
        gb = GradedBasis(lat)
        qs, vecs, pairing, duals = _witness_basis(lat)
        assert gb.qs == qs
        assert gb.vecs == vecs
        assert gb.pairing == pairing
        # the pairing is symmetric, so its inverse is too: the duals and
        # the coordinate matrix may read it either way round
        assert pairing == [list(col) for col in zip(*pairing)]
        assert gb.duals == duals
        units = [tuple(int(i == j) for i in range(l)) for j in range(l)]
        small = [tuple(rng.randint(-3, 3) for _ in range(l))
                 for _ in range(10)]
        for v in units + small:
            assert gb.decompose(v) == _witness_coords(vecs, v), (lat, v)


def _full_elimination_basis(lat):
    """qs, vecs, pairing, duals and coord_rows as GradedBasis built them
    with a full elimination: the transposed eigenprojector of every
    residue q, multiplicity zero included, in integer-built CycScalars,
    its field_rref, the pairing with its vanishing check, its inverse
    and the coordinate matrix."""
    p, l = lat.p, lat.rank
    pows = lat.sigma_pows
    qs, vecs = [], []
    for q in range(p):
        rows = []
        for k in range(l):
            row = []
            for i in range(l):
                dense = [0] * p
                for s in range(p):
                    dense[(-q * s) % p] += pows[s][i][k]
                row.append(CycScalar.from_ints(p, dense, p))
            rows.append(row)
        rref, pivots = field_rref(rows, ONE)
        for r in rref[:len(pivots)]:
            qs.append(q)
            vecs.append(tuple(r))
    g = lat.gram
    gh = [[sum((h[b] * g[a][b] for b in range(l) if g[a][b]), ZERO)
           for a in range(l)] for h in vecs]
    pairing = [[sum((vecs[i][a] * gh[j][a] for a in range(l)), ZERO)
                for j in range(l)] for i in range(l)]
    for i in range(l):
        for j in range(l):
            assert (qs[i] + qs[j]) % p == 0 or not pairing[i][j]
    minv = field_inverse(pairing, ONE)
    duals = tuple(tuple(minv[i][j] for i in range(l)) for j in range(l))
    coord_rows = tuple(
        tuple(sum((gh[i][a] * minv[i][j] for i in range(l)), ZERO)
              for a in range(l)) for j in range(l))
    return tuple(qs), tuple(vecs), pairing, duals, coord_rows


# rank-3 lattices in a skewed basis, where a later projector row has
# the smaller pivot, or an earlier row must be reduced at a later pivot
SKEWED = [
    ([[0, -12, 4], [-12, -12, 10], [4, 10, -6]],
     [[1, 2, -1], [2, 1, -1], [4, 4, -3]]),
    ([[-10, 18, -5], [18, -48, 16], [-5, 16, -8]],
     [[1, 0, 0], [1, -1, 0], [2, -4, 1]]),
    ([[-2, 3, -9], [3, 4, -1], [-9, -1, -4]],
     [[0, 0, -1], [-1, -1, 1], [-1, 0, 0]]),
]


def test_graded_basis_matches_the_full_elimination():
    # the multiplicities read off the traces and the eigenspaces read
    # off as many projector rows as they need give the very basis the
    # full elimination of every eigenprojector gave, on lattices with
    # eigenspaces of dimension 1, 2 and 3 and with eigenvalues missing
    dims, missing = set(), 0
    skewed = [TwistedLattice(g, s) for g, s in SKEWED]
    for lat in _witness_lattices() + skewed:
        gb = GradedBasis(lat)
        qs, vecs, pairing, duals, coord_rows = _full_elimination_basis(lat)
        assert (gb.qs, gb.vecs, gb.pairing, gb.duals, gb.coord_rows) == \
            (qs, vecs, pairing, duals, coord_rows)
        dims.update(qs.count(q) for q in set(qs))
        missing += lat.p - len(set(qs))
    assert {1, 2, 3} <= dims and missing > 20


def test_module_and_product_solve_no_linear_system(monkeypatch):
    # the eigen-coordinates are read off the basis' kept matrix
    calls = []
    real = linalg.field_solve

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (linalg, fock):
        if hasattr(mod, "field_solve"):
            monkeypatch.setattr(mod, "field_solve", counting)
    M = rotation_module(trunc=3)
    slots = [Fraction(k, 4) for k in range(2, 7)]
    product_check(M, (1, 0), (-1, 0), 1, slots, [vac(M)])
    assert calls == []


# ---------------------------------------------------------------------
# Heisenberg action
# ---------------------------------------------------------------------

def test_mode_apply_annihilates_vacuum():
    M = negation_module()
    v = vac(M)
    for m in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        assert heis(M, 0, m, v).is_zero()


def test_mode_apply_bracket_contraction():
    # [h(n), h(-n)] v = n (h^[n] | h^[-n]) v with c = 1
    M = negation_module()
    v = vac(M)
    n = Fraction(1, 2)
    created = heis(M, 0, -n, v)
    back = heis(M, 0, n, created)
    # (h_0|h_0) = 2 in the eigenbasis here
    assert back == v.scale(n * 2)


def test_mode_apply_zero_mode_weight():
    M = untwisted_module()
    i = M.omega.lookup[(1,)]
    v = M.vacuum(i)
    got = heis(M, 0, 0, v)
    D, rows = M.omega.weights
    assert got == v.scale(Fraction(rows[i][0], D))


def test_mode_apply_truncation_poisons():
    M = untwisted_module(trunc=2)
    v = vac(M)
    deep = heis(M, 0, Fraction(-3), v)
    assert deep.poisoned and deep.is_zero()


def test_mode_residue_mismatch_is_zero():
    M = negation_module()
    v = vac(M)
    assert heis(M, 0, -1, v).is_zero()
    assert not heis(M, 0, -1, v).poisoned
    # modes off the grid (1/p)Z match no residue: zero, and the input's
    # poison flag carried over
    for N, m in ((M, Fraction(1, 3)), (M, Fraction(-5, 3)),
                 (untwisted_module(), Fraction(1, 2)),
                 (untwisted_module(), Fraction(-1, 2))):
        w = vac(N)
        assert heis(N, 0, m, w) == FockVector(N, {})
        assert heis(N, 0, m, FockVector(N, {}, poisoned=True)) == \
            FockVector(N, {}, poisoned=True)
        assert N.mode_op((ONE,), m).apply(w) == FockVector(N, {})


def order3_module(trunc=2, bound=1):
    lat = TwistedLattice([[2, -1], [-1, 2]], [[0, -1], [1, -1]])
    td = TwistData(lat)
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


@pytest.mark.parametrize("make", [untwisted_module, negation_module,
                                  order3_module, rotation_module])
def test_mode_apply_int_and_fraction_modes_agree(make):
    M = make(trunc=2)
    p = M.p
    for v in M.basis_vectors(1):
        for j in range(M.lattice.rank):
            for m in range(-2, 3):
                assert heis(M, j, m, v) == heis(M, j, Fraction(m), v)
            for ms in range(-2 * p, 2 * p + 1):
                # the same mode as a Fraction and as an int times p
                got = heis(M, j, Fraction(ms, p), v)
                if ms % p == 0:
                    assert got == heis(M, j, ms // p, v)
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
    got = heis(M, j, deep, v)
    assert got.poisoned and got.is_zero()
    kept = heis(M, j, ok, v)
    assert not kept.poisoned and not kept.is_zero()
    # the creation degree counts the modes already in the word
    assert heis(M, j, ok, kept).poisoned


# one lattice of each order 1, 2, 3, 4, 6: the identity on A2 and, on
# 2*I_3, the swap of e1, e2 with e3 -> -e3 (two eigenvectors on one
# residue); the 3-cycle on 2*I_3 and the rotation of A1x2 plus a fixed
# line (a zero mode beside twisted ones); the order-3 rotation of A2
# plus -1 on a line (no zero mode)
MIXED_RESIDUES = [
    ([[2, -1], [-1, 2]], [[1, 0], [0, 1]]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    ([[2, -1, 0], [-1, 2, 0], [0, 0, 2]],
     [[0, -1, 0], [1, -1, 0], [0, 0, -1]]),
]


@pytest.mark.parametrize("gram, sigma", MIXED_RESIDUES)
def test_mode_apply_heisenberg_relations(gram, sigma):
    # on every basis vector: [h(m), h'(n)] = m delta_(m+n,0) (h|h'),
    # where only the components of h and h' on the eigenvectors that act
    # at m and n pair; h(0) multiplies each line by xi(h); and the action
    # is linear in the eigen-coordinates
    lat = TwistedLattice(gram, sigma)
    td = TwistData(lat)
    M = FockModule(td, RegularOmega(td, bound=1), trunc=3)
    p, l = M.p, lat.rank
    gb = M.basis
    rng = random.Random(14 * p)

    def draw():
        return tuple(CycScalar.rational(rng.choice((-3, -2, -1, 2, 3)))
                     * root_of_unity(p, rng.randrange(p)) for _ in range(l))

    def pair(c, d, m, n):
        return sum((c[j] * d[k] * gb.pairing[j][k]
                    for j in range(l) if gb.qs[j] == m % p
                    for k in range(l) if gb.qs[k] == n % p), ZERO)

    h, h2 = draw(), draw()
    a, b = draw()[0], draw()[0]
    combo = tuple(a * x + b * y for x, y in zip(h, h2))
    modes = range(-p, p + 1)
    for v in M.basis_vectors(1):
        # scaled modes: creation and annihilation stay inside trunc 3
        for m in modes:
            for n in {-m, rng.choice(modes), rng.choice(modes)}:
                lhs = M.mode_apply(h, m, M.mode_apply(h2, n, v)) \
                    - M.mode_apply(h2, n, M.mode_apply(h, m, v))
                assert not lhs.poisoned
                c = pair(h, h2, m, n) * Fraction(m, p) if m + n == 0 else 0
                assert lhs == v.scale(c)
            assert M.mode_apply(combo, m, v) == \
                M.mode_apply(h, m, v).scale(a) + M.mode_apply(h2, m, v).scale(b)
        (_, iota), = v.terms
        D, rows = M.omega.weights
        xi = [Fraction(x, D) for x in rows[iota]]
        xi_h = sum((h[j] * gb.vecs[j][k] * xi[k]
                    for j in range(l) if gb.qs[j] == 0
                    for k in range(l)), ZERO)
        assert M.mode_apply(h, 0, v) == v.scale(xi_h)


def _mode_apply_oracle(M, coords, ms, v):
    """h(ms/p) on v with no kept plan: the acting pairs, annihilation
    factors and line weights are rebuilt on every call."""
    if not v.terms:
        return v
    qs = M.basis.qs
    res = ms % M.p
    active = [(j, c) for j, c in enumerate(coords) if c and qs[j] == res]
    out = {}
    if not active:
        return FockVector._of(M, out)
    if ms < 0:
        cap = M.cap
        for (word, iota), coeff in v.terms.items():
            if -sum(mm for mm, _ in word) - ms > cap:
                return FockVector._of(M, {}, True)
            for j, c in active:
                key = (tuple(sorted(word + ((ms, j),))), iota)
                fock._add_term(out, key, coeff * c)
    elif ms > 0:
        pairing = M.basis.pairing
        fm = CycScalar.from_ints(1, [ms], M.p)
        facs = {}
        for (word, iota), coeff in v.terms.items():
            for pos, (mm, jj) in enumerate(word):
                if mm != -ms:
                    continue
                fac = facs.get(jj)
                if fac is None:
                    fac = facs[jj] = fm * sum(
                        (c * pairing[j][jj] for j, c in active), ZERO)
                if fac:
                    key = (word[:pos] + word[pos + 1:], iota)
                    fock._add_term(out, key, coeff * fac)
    else:
        lines = {}
        for (word, iota), coeff in v.terms.items():
            x = lines.get(iota)
            if x is None:
                w = M.zero_weights[iota]
                x = lines[iota] = sum((c * w[j] for j, c in active), ZERO)
            if x:
                out[(word, iota)] = coeff * x
    return FockVector._of(M, out)


def _normal_ordered_oracle(M, v, k):
    """(1/2) sum_i sum_s :alpha_i(s) beta_i(-s-k): on v, every s of the
    window evaluated through the plan-free mode oracle."""
    if not v.terms:
        return v
    p = M.p
    top = (v.max_degree_k() - M.floor_k) // M.mode_step
    kp = k * p
    total = FockVector(M, {})
    for i in range(M.lattice.rank):
        unit, dual, q = M.basis.units[i], M.basis.duals[i], M.basis.qs[i]
        for s in M._mode_grid(q, -top - kp, -1):
            w = _mode_apply_oracle(M, dual, -s - kp, v)
            total = total + _mode_apply_oracle(M, unit, s, w)
        for s in M._mode_grid(q, 0, top):
            w = _mode_apply_oracle(M, unit, s, v)
            total = total + _mode_apply_oracle(M, dual, -s - kp, w)
    return total.scale(Fraction(1, 2))


def order6_module(trunc=2, bound=1):
    td = TwistData(TwistedLattice(*GRID_LATTICES[6]))
    return FockModule(td, RegularOmega(td, bound=bound), trunc=trunc)


def class_module(trunc=2):
    # a class module with a sigma-fixed and a twisted eigenvector
    from twistlab.classify import enumerate_simple_twisted, instantiate_class

    td = TwistData(TwistedLattice([[2, 0], [0, 4]], [[1, 0], [0, -1]]))
    return instantiate_class(td, enumerate_simple_twisted(td).classes[0],
                             trunc=trunc)


KERNEL_MODULES = [untwisted_module, negation_module, order3_module,
                  rotation_module, order6_module, class_module]


@pytest.mark.parametrize("make", KERNEL_MODULES)
def test_mode_apply_matches_the_plan_free_oracle(make):
    # the kept plans change no result, poisoned flag included: on every
    # basis vector, for units, duals and lattice coordinates, every
    # scaled mode -2p..2p and a poisoned input; each plan is read again
    # once it is kept.  A mode off the grid is mode_op's empty operator
    M = make(trunc=2)
    p, l = M.p, M.lattice.rank
    coords = list(M.basis.units) + list(M.basis.duals) + [
        M.basis.decompose(a) for a in
        [tuple(int(i == j) for i in range(l)) for j in range(l)]
        + [(1,) * l, (2,) + (-1,) * (l - 1)]]
    modes = list(range(-2 * p, 2 * p + 1))
    poisoned = FockVector(M, {}, poisoned=True)
    vectors = M.basis_vectors(1)
    seen = set()
    for c in coords:
        off = M.mode_op(c, Fraction(1, 2 * p + 1))
        assert off.apply(poisoned) is poisoned
        for v in vectors:
            got = off.apply(v)
            assert got.is_zero() and not got.poisoned, (c, v)
        for ms in modes:
            assert M.mode_apply(c, ms, poisoned) is poisoned
            for v in vectors:
                want = _mode_apply_oracle(M, c, ms, v)
                for _ in range(2):
                    got = M.mode_apply(c, ms, v)
                    assert got == want, (c, ms, v)
                    assert got.poisoned == want.poisoned
                seen.add((want.poisoned, want.is_zero()))
    assert seen == {(False, False), (False, True), (True, True)}


@pytest.mark.parametrize("make", KERNEL_MODULES)
def test_normal_ordered_sum_matches_the_full_double_sum(make):
    # the held-mode rule skips only terms that are exactly zero
    M = make(trunc=2)
    for v in M.basis_vectors(2):
        for k in (0, 1):
            assert M._normal_ordered_sum(v, k) == \
                _normal_ordered_oracle(M, v, k), (v, k)


def _recursive_basis(M, max_degree):
    """The (word, line) keys of the creation basis of degree at most
    max_degree, listed by recursion: the witness of basis_vectors."""
    modes, cap = [], max_degree * M.p
    for j in range(M.lattice.rank):
        m = M.basis.qs[j] - M.p
        while -m <= cap:
            modes.append((m, j))
            m -= M.p
    out = []

    def rec(start, word, left):
        out.extend((tuple(sorted(word)), i) for i in range(M.omega.size))
        for k in range(start, len(modes)):
            m, j = modes[k]
            if -m <= left:
                rec(k, word + [(m, j)], left + m)

    rec(0, [], cap)
    return out


@pytest.mark.parametrize("make", KERNEL_MODULES)
def test_basis_listing_and_word_count_match_the_recursion(make):
    # the loop lists the recursion's vectors in its order, and the
    # integer count of the words agrees with both, also when it is cut
    M = make(trunc=2)
    for d in range(3):
        want = _recursive_basis(M, d)
        got = M.basis_vectors(d)
        assert [list(v.terms.items()) for v in got] == \
            [[(k, ONE)] for k in want]
        words = len(want) // M.omega.size
        qs, cap = M.basis.qs, d * M.p
        assert fock._word_count(qs, M.p, cap, words) == words
        assert fock._word_count(qs, M.p, cap, words - 1) > words - 1


@pytest.mark.parametrize("make", [negation_module, order3_module,
                                  class_module])
def test_vector_keeps_its_degree(make):
    # the degree kept beside the hash equals a fresh maximum over the
    # terms, for vectors from every constructor, read once and again
    M = make(trunc=2)
    made = []
    for v in M.basis_vectors(1):
        made += [v, FockVector._of(M, dict(v.terms))]
        for ms in range(-2 * M.p, 2 * M.p + 1):
            made.append(M.mode_apply(M.basis.units[0], ms, v))
    live = [w for w in made if w.terms]
    made.append(fock._summed(M, ((w, k - 3) for k, w in enumerate(live))))
    made.append(fock._summed(M, ((w, ONE) for w in live[::3])))
    # a multiple made before its source's degree is read, and after
    made += [w.scale(root_of_unity(3, 1)) for w in made]
    for w in made:
        if w.terms:
            w.max_degree_k()
    made += [w.scale(-2) for w in made if w.terms]
    checked = 0
    for w in made:
        if w.terms:
            fresh = max(M.term_degree_k(k) for k in w.terms)
            assert w.max_degree_k() == fresh
            assert w.max_degree_k() == fresh and w._degree == fresh
            checked += 1
    assert checked > 20


def test_product_coefficients_carry_the_series_parity():
    # an odd vertex series X on the lattice [[1]]: the coefficients of
    # alpha~ [-1] X are odd, so the bracket with X's coefficients is
    # their anticommutator, which differs from the commutator on six
    # slot pairs of [-3, 3]^2
    td = TwistData(TwistedLattice([[1]], [[1]]))
    M = FockModule(td, RegularOmega(td, bound=2), trunc=3)
    x = M.vertex_series((1,))
    prod = nth_product(M.tilde((1,)), x, -1, 2)
    assert prod.parity == x.parity == 1
    v = vac(M)
    differ = 0
    for m, n in itertools.product(range(-3, 4), repeat=2):
        a, b = prod.coeff(m), x.coeff(n)
        assert a.parity == 1
        anti = (a.compose(b) + b.compose(a)).apply(v)
        comm = (a.compose(b) - b.compose(a)).apply(v)
        assert a.bracket(b).apply(v) == anti, (m, n)
        differ += anti != comm
    assert differ == 6


def test_coefficient_parity_is_the_series_parity():
    td = TwistData(TwistedLattice([[1]], [[1]]))
    M = FockModule(td, RegularOmega(td, bound=2), trunc=3)
    x, h = M.vertex_series((1,)), M.tilde((1,))
    prod = nth_product(h, x, -1, 2)
    family = [
        x, prod, nth_product(h, x, 0, 2), nth_product(h, h, -1, 2),
        nth_product(x, x, -2, 1), prod.scale(3), prod.scale(1),
        prod + prod.scale(2), prod - prod, zero_series(M, 1) + prod,
        zero_series(M, 1) - prod, derive(prod), derive(x),
        zero_series(M, 1)]
    parities = [s.parity for s in family]
    assert 0 in parities and 1 in parities
    # the residue slots, and the half-integral slots off every residue
    slots = list(range(-3, 4)) + [Fraction(2 * t + 1, 2)
                                  for t in range(-3, 3)]
    for s in family:
        for t in slots:
            assert s.coeff(t).parity == s.parity, (s, t)


@pytest.mark.parametrize("gram, sigma, v3, v4", [
    ([[2]], [[-1]], {"pass": 7, "untestable": 1}, {"pass": 4}),
    (A1x2, ROT4, {"pass": 24, "untestable": 40},
     {"pass": 16, "untestable": 16}),
])
def test_heisenberg_family_meets_v3_and_v4(gram, sigma, v3, v4):
    # the associativity (V3) and commutator (V4) axioms on the Heisenberg
    # series of the basis, at the slots 0 .. 1/2 on the grid 1/p
    td = TwistData(TwistedLattice(gram, sigma))
    M = FockModule(td, RegularOmega(td, bound=1), trunc=3)
    l = M.lattice.rank
    family = [(f"h{j}", M.tilde(tuple(int(i == j) for i in range(l))))
              for j in range(l)]
    slots = [Fraction(k, M.p) for k in range(M.p // 2 + 1)]
    for tag, want in (("V3", v3), ("V4", v4)):
        report = verify_axioms(family, [tag], slots, lambda a, b: 2,
                               [vac(M)])
        statuses = [status for _tag, _inst, status in report]
        assert "fail" not in statuses and "pass" in statuses
        assert {s: statuses.count(s) for s in set(statuses)} == want


def test_empty_sum_and_unit_scale_add_no_layer():
    M = negation_module()
    op, zero = M.mode_op(M.basis.units[0], Fraction(-1, 2)), M.zero_op()
    assert op.scale(ONE) is op and op.scale(1) is op
    assert op + zero is op and zero + op is op and op - zero is op
    assert zero.remembered() is zero
    v = vac(M)
    assert (zero - op).apply(v) == op.apply(v).scale(-1)
    assert (zero + zero).apply(v) == FockVector(M, {})


# ---------------------------------------------------------------------
# Degree grading
# ---------------------------------------------------------------------

def test_virasoro_one_is_degree():
    for M in (untwisted_module(), negation_module(), rotation_module()):
        for v in M.basis_vectors(2):
            assert M.virasoro_one(v) == v.scale(
                Fraction(v.max_degree_k(), M.grid))


def test_translation_operator_remembers_each_vector(monkeypatch):
    # D evaluates its double sum once per vector, however often it is
    # applied, and keeps exactly the double sum's value
    for M in (untwisted_module(), negation_module(), rotation_module()):
        fresh = M._normal_ordered_sum
        calls = []

        def spy(v, k):
            calls.append((v, k))
            return fresh(v, k)

        monkeypatch.setattr(M, "_normal_ordered_sum", spy)
        d_op = M.upsilon_zero_op()
        vectors = [v for v in M.basis_vectors(2) if v.terms]
        first = [d_op.apply(v) for v in vectors]
        second = [d_op.apply(v) for v in vectors]
        assert calls == [(v, 1) for v in vectors]
        assert all(x is y for x, y in zip(first, second))
        assert first == [fresh(v, 1) for v in vectors]


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
    x = M.vertex_series(alpha)
    assert x.coeff(Fraction(0)).apply(v).is_zero()
    assert x.coeff(Fraction(-1)).apply(v) == ket_a
    assert x.coeff(Fraction(-2)).apply(v) == heis(M, 0, Fraction(-1), ket_a)


def test_vertex_commutator_with_heisenberg():
    # [h(n), X_alpha(m)] = (alpha|h) X_alpha(m+n)
    for M, h, alpha, modes in (
        (untwisted_module(), (1,), (1,), [Fraction(-1), Fraction(1)]),
        (negation_module(), (1,), (1,),
         [Fraction(-1, 2), Fraction(1, 2)]),
    ):
        v = vac(M)
        coords = M.basis.decompose(h)
        pair = Fraction(M.lattice.pairing(alpha, h))
        series = M.vertex_series(alpha)
        for n in modes:
            for m in (Fraction(-1), Fraction(0), Fraction(-1, 2)):
                x = series.coeff(m)
                hop = M.mode_op(coords, n)
                lhs = hop.apply(x.apply(v)) - x.apply(hop.apply(v))
                rhs = series.coeff(m + n).apply(v).scale(pair)
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

    s = GenSeries(M, lambda k: FockOp(M, act), {0}, shift_k=0)
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


def test_remember_keeps_the_memo_on_the_operator():
    # remembered hands back the operator itself, which from then on keeps
    # its result per vector; sums and multiples keep using that memo,
    # and remembering twice keeps the one memo
    M = untwisted_module()
    calls = []

    def act(v):
        calls.append(v)
        return v.scale(2)

    op, zero = FockOp(M, act), M.zero_op()
    assert op.remembered() is op
    memo = op.seen
    assert op.remembered() is op and op.seen is memo
    assert op + zero is op and zero + op is op and op.scale(ONE) is op
    # a remembered sum stays one part of the sums built from it
    total = (op + op.scale(3)).remembered()
    vectors = [vac(M), M.vacuum(1), vac(M).scale(5)]
    for _ in range(2):
        for v in vectors:
            assert op.apply(v) == v.scale(2)
            assert (op.scale(3) - op).apply(v) == v.scale(4)
            assert (total + zero + op).apply(v) == v.scale(10)
    assert calls == vectors and len(memo) == 3 and len(total.seen) == 3


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


def test_e_op_stops_at_the_first_line_outside_the_window():
    M = untwisted_module(trunc=2, bound=1)
    omega = M.omega
    lines = [omega.lookup[(b,)] for b in (1, 0, -1)]
    calls = []
    real = omega.e_act

    def e_act(alpha, i):
        calls.append(omega.lines[i])
        return real(alpha, i)

    omega.e_act = e_act
    e = M.e_op((1,))
    # e(1) moves the line (1,) out of the window: the lines after it
    # are never moved
    v = FockVector(M, {((), i): ONE for i in lines})
    assert e.apply(v) == FockVector(M, {}, poisoned=True)
    assert calls == [(1,)]
    # lines that stay inside are all moved
    calls.clear()
    w = FockVector(M, {((), i): ONE for i in lines[1:]})
    def eps(a, b):
        return M.twist.epsilon(a, b).scalar()

    assert e.apply(w) == (M.vacuum(lines[0]).scale(eps((1,), (0,)))
                          + M.vacuum(lines[1]).scale(eps((1,), (-1,))))
    assert calls == [(0,), (-1,)]


def _recording_series(M, name, calls, poison_slot):
    """Series whose coefficient at the integer slot n records
    ('name', n) when applied, except at poison_slot, where it creates
    past the truncation."""
    poison = M.mode_op((ONE,), -M.trunc - 1)

    def fn(k):
        n = Fraction(k, M.grid)
        if n == poison_slot:
            return poison
        return _recorder(M, (name, n), calls)

    return GenSeries(M, fn, {0}, shift_k=5 * M.grid)


def test_product_coefficients_stop_at_poison():
    M = untwisted_module(trunc=2)
    v = vac(M)
    poisoned = FockVector(M, {}, poisoned=True)
    calls = []
    # a(n)b(m) is the first term of both products, and a(n) poisons it
    a = _recording_series(M, "a", calls, poison_slot=2)
    b = _recording_series(M, "b", calls, poison_slot=None)
    op = M.integral_product_coeff(a, b, Fraction(0), Fraction(0), 2, 0)
    assert op.apply(v) == poisoned
    assert calls == [("b", 0)]
    # fresh series: coefficients remember their results on v
    calls.clear()
    a = _recording_series(M, "a", calls, poison_slot=2)
    b = _recording_series(M, "b", calls, poison_slot=None)
    op = M.residue_product_coeff(a, b, 2, Fraction(0),
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
# Empty vectors are fixed points; operator sums are flat combinations
# ---------------------------------------------------------------------

def _slots_of(series, width=2):
    """A few slots on each residue of the series."""
    return [Fraction(r, series.grid) + k for r in sorted(series.res_k)
            for k in range(-width, width + 1)]


def _operators(M):
    """(name, operator) for every kind of operator the checks apply."""
    alpha = (1,) + (0,) * (M.lattice.rank - 1)
    coords = M.basis.decompose(alpha)
    ops = [(f"mode {m}", M.mode_op(coords, m))
           for m in (Fraction(-1), Fraction(0), Fraction(1),
                     Fraction(-1, M.p), Fraction(1, M.p))]
    ops.append(("e", M.e_op(alpha)))
    sa = M.vertex_series(alpha)
    ops += [(f"X({t})", sa.coeff(t)) for t in _slots_of(sa)]
    tilde = M.tilde(alpha)
    ops += [(f"tilde({t})", tilde.coeff(t)) for t in _slots_of(tilde)]
    N = locality_order(M.lattice, alpha, alpha)
    for n in (N - 1, -1):
        expand = nth_product(sa, sa, n, N)
        nk = max(N, n + 1)
        kernel = nth_product_kernel(sa, sa, n, nk, kernel_Delta(M.p, n, nk))
        ops += [(f"X[{n}]X({t})", expand.coeff(t))
                for t in _slots_of(expand, 1)]
        ops += [(f"X[{n}]X kernel({t})", kernel.coeff(t))
                for t in _slots_of(kernel, 1)]
    ident = M.identity_series()
    ops += [(f"id({t})", ident.coeff(t)) for t in (-1, 0)]
    ops.append(("D", M.upsilon_zero_op()))
    ops.append(("zero", M.zero_op()))
    return ops


@pytest.mark.parametrize("make", [untwisted_module, negation_module,
                                  order3_module])
def test_empty_vectors_are_fixed_points(make, monkeypatch):
    M = make(trunc=2, bound=1)
    zero, poisoned = FockVector(M, {}), FockVector(M, {}, poisoned=True)
    coords = M.basis.decompose((1,) + (0,) * (M.lattice.rank - 1))
    for z in (zero, poisoned):
        for ms in (-M.p, 0, M.p, 1, -1):
            assert M.mode_apply(coords, ms, z) is z
    ops = _operators(M)
    for name, op in ops:
        for z in (zero, poisoned):
            assert op.apply(z) is z, name
    # with the shortcut lifted, every operator still maps each empty
    # vector to an equal one, so the shortcut changes no result
    monkeypatch.setattr(FockOp, "apply", FockOp._eval)
    for name, op in _operators(M):
        for z in (zero, poisoned):
            assert op.apply(z) == z, name


@pytest.mark.parametrize("make", [untwisted_module, negation_module,
                                  order3_module])
def test_flat_combination_matches_vector_sums(make):
    M = make(trunc=3, bound=1)
    rng = random.Random(1500 + M.p)
    rank = M.lattice.rank
    alpha = (1,) + (0,) * (rank - 1)
    coords = M.basis.decompose(alpha)
    sa = M.vertex_series(alpha)
    pool = ([M.mode_op(coords, m) for m in (Fraction(-1, M.p), Fraction(0),
                                            Fraction(1, M.p))]
            + [M.e_op(alpha)]
            + [sa.coeff(t) for t in _slots_of(sa, 1)])
    basis = M.basis_vectors(1)
    clean = cancelled = 0
    for _ in range(12):
        A, B, C = (rng.choice(pool) for _ in range(3))
        c = CycScalar.rational(Fraction(rng.choice((-3, -1, 2, 5)),
                                        rng.choice((1, 2, 3))))
        picked = rng.sample(basis, min(3, len(basis)))
        v = picked[0]
        for w in picked[1:]:
            v = v + w.scale(rng.choice((-2, 1, 3)))
        ab = (A.apply(v) + B.apply(v)).scale(c)
        want = ab - C.apply(v)
        assert ((A + B).scale(c) - C).apply(v) == want
        clean += not want.poisoned and not want.is_zero()
        # the same combination built another way cancels to zero
        cancel = ((A + B).scale(c) - (A.scale(c) + B.scale(c))).apply(v)
        assert cancel == FockVector(M, {}, poisoned=ab.poisoned)
        cancelled += not ab.poisoned and not ab.is_zero()
    assert clean and cancelled


def test_int_binom_matches_gen_binom():
    for n in range(-8, 9):
        for k in range(-1, 11):
            assert _int_binom(n, k) == gen_binom(Fraction(n), k), (n, k)


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
    v = heis(M, 0, Fraction(-1, 2), vac(M))
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


def test_reconstruct_e_on_probes_with_creations():
    # a probe with a creation mode has a nontrivial annihilation
    # expansion, whose degree the slot of each term reads
    statuses = []
    for make in (untwisted_module, negation_module, rotation_module,
                 order3_module):
        M = make()
        a = (1,) + (0,) * (M.lattice.rank - 1)
        exps = [Fraction(k, M.p) for k in range(-2, 3)]
        probes = [v for v in M.basis_vectors(1)
                  if any(word for (word, _i) in v.terms)][:6]
        for v in probes:
            statuses += [st for _e, st in reconstruct_e(M, a, exps, [v])]
    assert "fail" not in statuses
    assert len(statuses) == 120 and statuses.count("pass") >= 100


# ---------------------------------------------------------------------
# Two-variable expansion
# ---------------------------------------------------------------------

def test_pair_expansion_untwisted():
    M = untwisted_module()
    v0 = vac(M)
    v1 = heis(M, 0, Fraction(-1), v0)
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


def _cyc_scalar_weights(M):
    """The vacuum weights of M through CycScalars, the route before the
    weights were plain rationals: each xi entry a CycScalar, built as
    the vacuum space built it, the zero weights and line degrees
    CycScalar sums read back as (numerator, denominator) pairs.
    Returns (zero_weights, degree_k, floor_k, xi_k, grid)."""
    omega, basis, lat = M.omega, M.basis, M.lattice
    l, p = lat.rank, lat.p
    if isinstance(omega, RegularOmega):
        xis = [tuple(CycScalar.from_ints(1, [x], p) for x in lat.nu_p(b))
               for b in omega.lines]
    else:
        xis = [tuple(as_scalar(b + Fraction(x, p)) for b, x in
                     zip(omega.base, lat.nu_p(omega._lift_vec(k))))
               for k, _t in omega.lines]

    def pair(x):
        assert x.n == 1
        return (x.num[0] if x.num else 0), x.den

    fixed = [j for j in range(l) if basis.qs[j] == 0]
    zero_weights, degs, xi_pairs = [], [], []
    for xi in xis:
        w = {j: sum((basis.vecs[j][k] * xi[k] for k in range(l)), ZERO)
             for j in fixed}
        zero_weights.append(w)
        num, den = pair(sum(
            (w[j] * sum((basis.duals[j][t] * w[t] for t in fixed), ZERO)
             for j in fixed), ZERO))
        g = math.gcd(num, 2 * den)
        degs.append((num // g, 2 * den // g))
        xi_pairs.append([pair(x) for x in xi])
    grid = math.lcm(2 * p, *(d for _n, d in degs),
                    *(x[1] for row in xi_pairs for x in row))
    degree_k = [n * (grid // d) for n, d in degs]
    xi_k = [tuple(n * (grid // d) for n, d in row) for row in xi_pairs]
    return zero_weights, degree_k, min(degree_k), xi_k, grid


def _weight_route_modules():
    """The regular and class modules of the classify tests' lattices
    and of the four twisted_ops lattices."""
    from test_classify import A2, E_ACT_FIXTURES, ROT
    from twistlab.classify import enumerate_simple_twisted, instantiate_class

    lattices = [([[2]], [[1]]), ([[2]], [[-1]]),
                ([[2, 1], [1, 2]], [[-1, 0], [0, -1]]),
                ([[2, 0], [0, 2]], ROT), (A2, [[0, 1], [1, 0]])]
    lattices += E_ACT_FIXTURES + list(W.OPS_LATTICES.values())
    for gram, sigma in lattices:
        T = TwistData(TwistedLattice(gram, sigma))
        yield FockModule(T, RegularOmega(T, 2), 2)
        res = enumerate_simple_twisted(T)
        for cls in res.classes:
            yield instantiate_class(T, cls, 2)


def test_vacuum_weights_match_the_cyc_scalar_route():
    # each vacuum weight is a plain rational, integer rows over one
    # denominator, and the module reads the same zero weights, line
    # degrees, floor, xi entries and grid off them as off the CycScalar
    # weights the vacuum spaces built before
    classes = 0
    for M in _weight_route_modules():
        classes += not isinstance(M.omega, RegularOmega)
        D, rows = M.omega.weights
        assert type(D) is int and len(rows) == M.omega.size
        assert all(type(x) is int for row in rows for x in row)
        zero_weights, degree_k, floor_k, xi_k, grid = _cyc_scalar_weights(M)
        assert M.grid == grid
        assert M.degree_k == degree_k and M.floor_k == floor_k
        assert M._xi_k == xi_k
        assert M.zero_weights == zero_weights
    assert classes > 10


def test_vertex_exponent_kept_per_line():
    T = TwistData(TwistedLattice([[2]], [[-1]]))
    M = FockModule(T, RegularOmega(T, 1), 2)
    # the exponents of all lines are kept per lattice vector, on the
    # grid: -(alpha|alpha)/2 = -1 on the line 0
    assert M.vertex_exponents_k((1,)) is M.vertex_exponents_k([1])
    assert M.vertex_exponents_k((1,))[0] == -M.grid


# ---------------------------------------------------------------------
# Exponential factors: kept expansions and integer coefficients
# ---------------------------------------------------------------------

def _fraction_ann_expand(M, coords, v, sign):
    """The annihilation exponential with its coefficients formed as
    Fractions: the route before the coefficients were integers."""
    if not v.terms:
        return [(v, 0)]
    p, qs = M.p, M.basis.qs
    top = (v.max_degree_k() - M.floor_k) // M.mode_step
    results = [(v, 0)]
    for n in range(1, top + 1):
        if any(c and qs[j] == n % p for j, c in enumerate(coords)):
            ratio = Fraction(sign * p, n)
            new = []
            for (v0, e) in results:
                new.append((v0, e))
                cur = v0
                k = 1
                while True:
                    cur = M.mode_apply(coords, n, cur)
                    if cur.is_zero() and not cur.poisoned:
                        break
                    coef = ratio ** k / math.factorial(k)
                    new.append((cur.scale(coef), e + k * n))
                    k += 1
            results = new
    return results


def _fraction_cre_expand(M, coords, v, target, sign):
    """The creation exponential's z^(target/p) coefficient with its
    coefficients formed as Fractions, summed term by term."""
    if target == 0 or not v.terms:
        return v
    used = max(-sum(m for m, _ in word) for (word, _i) in v.terms)
    if used + target > M.cap:
        return FockVector(M, {}, True)
    p, qs = M.p, M.basis.qs
    modes = [u for u in range(1, target + 1)
             if any(c and qs[j] == -u % p for j, c in enumerate(coords))]
    out = FockVector(M, {})

    def rec(idx, cur, left, scale):
        nonlocal out
        if left == 0:
            out = out + cur.scale(as_scalar(scale))
            return
        if idx >= len(modes):
            return
        u = modes[idx]
        rec(idx + 1, cur, left, scale)
        ratio = Fraction(sign * p, u)
        k = 1
        acc = cur
        while k * u <= left:
            acc = M.mode_apply(coords, -u, acc)
            if acc.is_zero() and not acc.poisoned:
                break
            rec(idx + 1, acc, left - k * u,
                scale * ratio ** k / math.factorial(k))
            k += 1

    rec(0, v, target, Fraction(1))
    return out


def _expansion_cases(seed):
    """(module, lattice vectors, probe vectors) on the file's twisted
    lattices: basis vectors of creation degree <= 1, a few scaled, and
    sums of two."""
    rng = random.Random(seed)
    for gram, sigma in list(GRID_LATTICES.values()) + MIXED_RESIDUES:
        td = TwistData(TwistedLattice(gram, sigma))
        M = FockModule(td, RegularOmega(td, bound=1), trunc=3)
        l = M.lattice.rank
        alphas = [tuple(rng.randint(-1, 1) for _ in range(l))
                  for _ in range(3)] + [(1,) + (0,) * (l - 1)]
        basis = M.basis_vectors(1)
        vecs = rng.sample(basis, min(6, len(basis)))
        vecs += [v.scale(Fraction(rng.choice((-3, 2, 5)), 3))
                 for v in vecs[:2]]
        vecs += [vecs[0] + vecs[1].scale(2), vecs[2] - vecs[3]]
        yield M, alphas, vecs


def test_annihilation_expansion_matches_a_fresh_one():
    # both signs, on every case: the expansion, read from the kept
    # tables, equals the one formed afresh with Fraction coefficients,
    # on the module and on a second, fresh module
    seen = 0
    for M, alphas, vecs in _expansion_cases(2001):
        fresh = FockModule(M.twist, RegularOmega(M.twist, bound=1), trunc=3)
        for alpha in alphas:
            coords = M.basis.decompose(alpha)
            for v in vecs:
                for sign in (-1, 1):
                    out = M._ann_expand(alpha, v, sign)
                    want = _fraction_ann_expand(M, coords, v, sign)
                    assert list(out) == want, (alpha, v, sign)
                    assert list(fresh._ann_expand(alpha, v, sign)) == want
                    seen += len(want) > 1
    assert seen > 100


def test_annihilation_expansion_tries_only_held_modes(monkeypatch):
    # a bare vacuum on a high line holds no mode, so its annihilation
    # exponential is the vacuum alone, with no mode applied; the scan
    # over every mode up to its degree took b^2 applications
    td = TwistData(TwistedLattice([[2]], [[1]]))
    M = FockModule(td, RegularOmega(td, bound=300), trunc=2)
    v = M.vacuum(M.omega.lookup[(300,)])
    assert (v.max_degree_k() - M.floor_k) // M.mode_step == 300 ** 2
    calls = []
    apply = M.mode_apply
    monkeypatch.setattr(M, "mode_apply",
                        lambda *args: calls.append(args) or apply(*args))
    for sign in (-1, 1):
        assert M._ann_expand((1,), v, sign) == ((v, 0),)
    assert calls == []


def test_annihilation_expansion_keeps_the_paths_at_least_asked():
    # the paths of degree e >= least, in the full expansion's order: the
    # empty path, v itself, only when least <= 0, and none past the top
    seen = cut = 0
    for M, alphas, vecs in _expansion_cases(2004):
        for alpha in alphas:
            coords = M.basis.decompose(alpha)
            for v in vecs:
                for sign in (-1, 1):
                    full = _fraction_ann_expand(M, coords, v, sign)
                    for least in (-M.p, 0, 1, M.p, 2 * M.p + 1, 4 * M.p):
                        want = [(w, e) for w, e in full if e >= least]
                        got = M._ann_expand(alpha, v, sign, least)
                        assert list(got) == want, (alpha, v, sign, least)
                        seen += len(want) > 1
                        cut += 0 < len(want) < len(full)
    assert seen > 100 and cut > 100


def _fraction_vertex_coeff(M, alpha, k, v):
    """The slot-k coefficient of X_alpha(z) on v, composed term by term
    from the Fraction expansions and the vacuum space's e(alpha), with
    no table, plan or memo of the module: poisoned when a creation
    passes the cap or e(alpha) leaves the window."""
    coords = M.basis.decompose(alpha)
    exps = M.vertex_exponents_k(alpha)
    out = FockVector(M, {})
    for (word, iota), coeff in v.terms.items():
        low, off = divmod(-k - M.grid - exps[iota], M.mode_step)
        if off:
            continue
        base = FockVector(M, {(word, iota): coeff})
        for v1, e in _fraction_ann_expand(M, coords, base, -1):
            if low + e < 0:
                continue
            v2 = _fraction_cre_expand(M, coords, v1, low + e, 1)
            if v2.poisoned:
                return FockVector(M, {}, True)
            for (w, i), x in v2.terms.items():
                image = M.omega.e_act(tuple(alpha), i)
                if image is None:
                    return FockVector(M, {}, True)
                out = out + FockVector(M, {(w, image[0]): x * image[1]})
    return out


def _a2_rot3_modules(trunc):
    from twistlab.classify import enumerate_simple_twisted, instantiate_class

    T = TwistData(TwistedLattice(*W.OPS_LATTICES["A2.rot3"]))
    yield FockModule(T, RegularOmega(T, 1), trunc)
    yield instantiate_class(T, enumerate_simple_twisted(T).classes[1], trunc)


def test_vertex_coefficients_match_the_fraction_composition():
    # on every basis vector up to the truncation of a regular and a
    # class module of A2 with the order-3 rotation, at slots from below
    # every word's reach (zero) to past the cap (poisoned): the
    # coefficient equals the term-by-term composition, poison included
    zero = nonzero = poisoned = 0
    for M in _a2_rot3_modules(2):
        vecs = M.basis_vectors(2)
        for alpha in [(1, 0), (1, 1), (-1, 2)]:
            series = M.vertex_series(alpha)
            exps = M.vertex_exponents_k(alpha)
            slots = {-M.grid - x - low * M.mode_step for x in set(exps)
                     for low in range(-M.cap - 2, M.cap + 2)}
            for k in sorted(slots):
                for v in vecs:
                    got = series._at(k).apply(v)
                    want = _fraction_vertex_coeff(M, alpha, k, v)
                    assert got == want, (alpha, k, v)
                    zero += got.is_zero() and not got.poisoned
                    nonzero += bool(got.terms)
                    poisoned += got.poisoned
    assert zero > 100 and nonzero > 100 and poisoned > 100


def test_a_coefficient_below_every_reach_reads_no_table(monkeypatch):
    # at a slot below every word's reach (low + the word's creation
    # degree < 0 on every line) no path can contribute: the coefficient
    # is zero and reads no annihilation table; one slot higher the top
    # words of the lines of least exponent read theirs
    for M in _a2_rot3_modules(2):
        alpha = (1, 0)
        vecs = M.basis_vectors(2)
        x = min(M.vertex_exponents_k(alpha))
        reads = []
        table = M.basis.annihilation_terms
        monkeypatch.setattr(M.basis, "annihilation_terms",
                            lambda *args: reads.append(args) or table(*args))
        below = -M.grid - x + (M.cap + 1) * M.mode_step
        for v in vecs:
            assert M.vertex_series(alpha)._at(below).apply(v) == M.zero_vec()
        assert reads == []
        for v in vecs:
            M.vertex_series(alpha)._at(below - M.mode_step).apply(v)
        assert reads
        monkeypatch.undo()


def test_creation_coefficients_match_the_fraction_formula():
    nontrivial = poisoned = 0
    for M, alphas, vecs in _expansion_cases(2002):
        for alpha in alphas:
            coords = M.basis.decompose(alpha)
            for v in vecs:
                for target in list(range(2 * M.p + 1)) + [M.cap]:
                    for sign in (-1, 1):
                        got = M._cre_expand(coords, v, target, sign)
                        want = _fraction_cre_expand(M, coords, v, target,
                                                    sign)
                        assert got == want, (alpha, v, target, sign)
                        nontrivial += len(got.terms) > 1
                        poisoned += got.poisoned
    assert nontrivial > 100 and poisoned > 10


# one eigenvalue of multiplicity two: a mode of alpha creates two words,
# and an annihilation of a word holding two creations of one mode has
# two terms
REPEATED_EIGENVALUE = [([[2, 1], [1, 2]], [[1, 0], [0, 1]]),
                       ([[2, 1], [1, 2]], [[-1, 0], [0, -1]])]


@pytest.mark.parametrize("gram, sigma", REPEATED_EIGENVALUE)
def test_exponential_tables_match_the_fraction_formulas(gram, sigma):
    # each table of the eigenbasis, read on the vacuum (creation) or on
    # one word (annihilation), is the Fraction formula's expansion; the
    # module's merges of them into vectors of one or two words are too,
    # and the two words of a sum share modes
    td = TwistData(TwistedLattice(gram, sigma))
    M = FockModule(td, RegularOmega(td, bound=1), trunc=3)
    B = M.basis
    assert len(set(B.qs)) == 1
    words = [v for v in M.basis_vectors(2) if next(iter(v.terms))[1] == 0]
    pairs = [a + b.scale(-2) for a, b in itertools.combinations(words, 2)]
    several = 0
    for alpha in [(1, 0), (0, 1), (1, -1), (2, 1)]:
        coords = B.decompose(alpha)
        for sign in (-1, 1):
            for degree in range(1, M.cap + 1):
                want = _fraction_cre_expand(M, coords, M.vacuum(0), degree,
                                            sign)
                got = B.creation_terms(coords, degree, sign)
                assert {(w, 0): x for w, x in got} == want.terms
            for v in words:
                ((word, iota), _one), = v.terms.items()
                got = B.annihilation_terms(coords, word, sign)
                assert [(FockVector(M, {(w, iota): x for w, x in terms}), e)
                        for e, _path, terms in got] == \
                    _fraction_ann_expand(M, coords, v, sign)
            for v in words + pairs:
                want = _fraction_ann_expand(M, coords, v, sign)
                assert list(M._ann_expand(alpha, v, sign)) == want
                several += len(v.terms) > 1 and len(want) > 2
                for target in range(M.cap + 1):
                    assert M._cre_expand(coords, v, target, sign) == \
                        _fraction_cre_expand(M, coords, v, target, sign)
    assert several > 100


def _fraction_kernel_terms(M, alpha, beta, kz_max):
    """_pair_kernel_terms with Fraction exponents and binomials."""
    p = M.p
    ms = M.lattice.m_values(alpha, beta)
    terms = {(Fraction(0), Fraction(0)): ONE}
    for s in range(p):
        m = ms[s]
        om = root_of_unity(p, s)
        kmax = m if m >= 0 else max(0, math.floor(kz_max * p))
        fac = {}
        for k in range(kmax + 1):
            c = gen_binom(Fraction(m), k)
            if c:
                fac[(Fraction(m - k, p), Fraction(k, p))] = \
                    as_scalar(c) * (-om) ** k
        new = {}
        for (uw, uz), c1 in terms.items():
            for (vw, vz), c2 in fac.items():
                if uz + vz <= kz_max:
                    key = (uw + vw, uz + vz)
                    new[key] = new.get(key, ZERO) + c1 * c2
        terms = {k: v for k, v in new.items() if v}
    return terms


def test_kernel_terms_and_vertex_exponents_on_the_grid():
    # the pair kernel in 1/p units and the vertex exponents on the
    # module's grid equal their Fraction forms
    rng = random.Random(2003)
    for M, alphas, _vecs in _expansion_cases(2003):
        p, grid = M.p, M.grid
        for alpha in alphas:
            beta = rng.choice(alphas)
            for kz in (0, 1, p + 1, 2 * p):
                got = fock._pair_kernel_terms(M, alpha, beta, kz)
                want = _fraction_kernel_terms(M, alpha, beta,
                                              Fraction(kz, p))
                assert {(Fraction(w, p), Fraction(z, p)): c
                        for w, z, c in got} == want
            exps = M.vertex_exponents_k(alpha)
            half = Fraction(M.lattice.prime_pairing_p(alpha, alpha), 2 * p)
            D, rows = M.omega.weights
            for i in range(M.omega.size):
                xi = sum((as_scalar(a) * Fraction(x, D)
                          for a, x in zip(alpha, rows[i])), ZERO)
                want = xi.rational_value() - half
                assert Fraction(exps[i], grid) == want


# ---------------------------------------------------------------------
# Series kept per lattice vector, and slots on the module's grid
# ---------------------------------------------------------------------

def test_series_kept_per_lattice_vector():
    M = order3_module()
    assert M.vertex_series((1, 0)) is M.vertex_series([1, 0])
    assert M.tilde((1, 0)) is M.tilde([1, 0])
    assert M.vertex_series((1, 0)) is not M.vertex_series((0, 1))
    assert M.vertex_series([1, 0]).coeff(Fraction(-2, 3)) \
        is M.vertex_series((1, 0)).coeff(Fraction(-2, 3))


def test_second_product_check_builds_no_vertex_coefficient(monkeypatch):
    # count the vertex coefficients the kept series build, through the
    # slot function of each vertex series
    built = []
    real = FockModule.vertex_series.__wrapped__

    def counting(self, alpha):
        series = real(self, alpha)
        fn = series._fn

        def counted(k):
            built.append((alpha, k))
            return fn(k)

        series._fn = counted
        return series

    monkeypatch.setattr(FockModule, "vertex_series", kept(counting))
    M = negation_module(trunc=3)
    slots = [Fraction(k, 2) for k in range(0, 3)]
    first = product_check(M, (1,), (1,), -3, slots, [vac(M)])
    assert built
    built.clear()
    second = product_check(M, (1,), (1,), -3, slots, [vac(M)])
    assert built == []
    assert second == first


# one lattice per automorphism order 1, 2, 3, 4, 6
GRID_LATTICES = {
    1: ([[2]], [[1]]),
    2: ([[2]], [[-1]]),
    3: ([[2, -1], [-1, 2]], [[0, -1], [1, -1]]),
    4: ([[2, 0], [0, 2]], [[0, -1], [1, 0]]),
    6: ([[2, -1], [-1, 2]], [[1, -1], [1, 0]]),
}


def _grid_module(p):
    gram, sigma = GRID_LATTICES[p]
    td = TwistData(TwistedLattice(gram, sigma))
    return FockModule(td, RegularOmega(td, bound=1), trunc=3)


def _off_grid_slot(rng, grid):
    """A slot whose denominator does not divide the grid."""
    den = next(d for d in (3, 5, 7, 9, 11) if grid % d)
    return Fraction(rng.randrange(1, den) + den * rng.randrange(-2, 2), den)


@pytest.mark.parametrize("p", sorted(GRID_LATTICES))
def test_grid_slots_match_oracle_and_fresh_module(p):
    import random

    from twistlab.oracle import oracle_product

    rng = random.Random(9100 + p)
    M = _grid_module(p)
    assert M.grid % (2 * p) == 0
    l = M.lattice.rank
    units = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    low = [v for v in M.basis_vectors(1)
           if v.max_degree_k() - M.floor_k <= M.grid]
    probes = rng.sample(low, min(6, len(low)))
    for _ in range(4):
        alpha, beta = rng.choice(units), rng.choice(units)
        n = rng.randrange(-1, 2)
        a, b = M.tilde(alpha), M.tilde(beta)
        main = nth_product(a, b, n, 2)
        orc = oracle_product(a, b, n, 2)
        fresh = _grid_module(p)
        fresh_main = nth_product(fresh.tilde(alpha), fresh.tilde(beta), n, 2)
        x = M.vertex_series(alpha)
        fresh_x = fresh.vertex_series(alpha)
        for _ in range(4):
            t = Fraction(rng.randrange(-2 * p, p + 1), p)
            for v in probes:
                got = main.coeff(t).apply(v)
                want = orc.coeff(t).apply(v)
                # the oracle sums past the truncation more often: compare
                # the values both routes decide
                if not (got.poisoned or want.poisoned):
                    assert got == want
                assert got == fresh_main.coeff(t).apply(v)
                assert x.coeff(t).apply(v) == fresh_x.coeff(t).apply(v)
            off = _off_grid_slot(rng, M.grid)
            for series in (main, orc, x):
                for v in probes:
                    w = series.coeff(off).apply(v)
                    assert w.is_zero() and not w.poisoned, (series, off)


@pytest.mark.parametrize("p", sorted(GRID_LATTICES))
def test_series_off_the_algebra_grid_are_refused(p):
    # the module's grid is the only grid a series has: a shift by
    # z^off or a kernel in 1/q with q not dividing the grid is refused;
    # reading an off-grid slot is still the zero coefficient, and an
    # off-grid mode the empty operator
    import random

    rng = random.Random(9300 + p)
    M = _grid_module(p)
    off = _off_grid_slot(rng, M.grid)
    unit = M.basis.units[0]
    a = M.tilde((1,) + (0,) * (M.lattice.rank - 1))
    with pytest.raises(FdistError):
        a.shift(off)
    with pytest.raises(FdistError):
        nth_product_kernel(a, a, 0, 2, kernel_Delta(off.denominator, 0, 2))
    probes = M.basis_vectors(1)
    # a shift on the grid round-trips: z^r a(z) at slot t is a at t + r
    for r in {Fraction(k, M.grid) for k in a.res_k} | {Fraction(1, M.p)}:
        shifted = a.shift(r)
        for t in (0, -1):
            for v in probes:
                assert shifted.coeff(t).apply(v) == a.coeff(t + r).apply(v)
    poisoned = FockVector(M, {}, poisoned=True)
    assert a.coeff(off).parts == []
    empty = M.mode_op(unit, off)
    assert empty.parts == []
    assert empty.apply(poisoned) is poisoned
    for v in probes:
        assert a.coeff(off).apply(v) == M.zero_vec()
        w = empty.apply(v)
        assert w.is_zero() and not w.poisoned
