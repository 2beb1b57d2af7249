"""Acceptance suite: one test per criterion, exact (zero-tolerance)
comparisons throughout, printing one pass/fail line per criterion."""
import itertools
import random
from fractions import Fraction

import pytest

from twistlab.classify import (
    PresentedAlgebraA,
    conditions_status,
    enumerate_simple_twisted,
    instantiate_class,
    twisted_conditions,
)
from twistlab.cocycle import TwistData, locality_order
from twistlab.fdist import (
    compare_status,
    kernel_Delta,
    kernel_F,
    locality_test,
    nth_product,
    nth_product_kernel,
    series_compare,
    zero_series,
)
from twistlab.fock import (
    FockModule,
    RegularOmega,
    e_group_checks,
    heisenberg_commutation_check,
    pair_expansion_check,
    product_check,
    reconstruct_e,
)
from twistlab.lattice import TwistedLattice
from twistlab.linalg import det_int, mat_mul, transpose
from twistlab.oracle import (
    oracle_bicharacter_blocks,
    oracle_dual_coset_count,
    oracle_product,
)
from twistlab.scalar import ONE, as_scalar

from test_fdist import TAU_LATTICES, tau_lines
from test_lattice import random_twisted_lattice

A2 = [[2, -1], [-1, 2]]
A2_ROT3 = [[0, -1], [1, -1]]
ROT4 = [[0, -1], [1, 0]]


def _report(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def _twist(gram, sigma, phi=None):
    return TwistData(TwistedLattice(gram, sigma), phi_seed=phi)


def _module(gram, sigma, trunc, bound):
    T = _twist(gram, sigma)
    return FockModule(T, RegularOmega(T, bound), trunc)


def _vac(M):
    return M.vacuum(M.omega.lookup[(0,) * M.lattice.rank])


def _central_probes(M):
    """Vacuum probes on the central degree line of the vacuum space."""
    lines = getattr(M.omega, "lines", None)
    if lines is None:
        return [_vac(M)]
    central = min(k for (k, _t) in lines)
    zero = tuple(0 for _ in central)
    return [M.vacuum(i) for i, (k, _t) in enumerate(lines) if k == zero]


def test_criterion_1_kernel_diagonal():
    ok = True
    for p in range(1, 6):
        for m in range(0, 7):
            diag = {k: v for k, v in
                    kernel_F(p, m).restrict_diagonal().items() if v}
            if diag != {(m + 1) * (1 - p): Fraction(1, p ** m)}:
                ok = False
    _report(1, ok)


def test_criterion_2_product_triangulation():
    lattices = {
        1: ([[2]], [[1]]),
        2: ([[2]], [[-1]]),
        3: (A2, A2_ROT3),
        4: ([[2, 0], [0, 2]], ROT4),
    }
    rng = random.Random(11)
    ok = True
    for p, (gram, sigma) in lattices.items():
        M = _module(gram, sigma, 4, 1)
        l = M.lattice.rank
        probes = [_vac(M)]
        slots = [Fraction(k, p) for k in range(-p, p + 1)]
        pool = []
        while len(pool) < 8:
            v = tuple(rng.randint(-2, 2) for _ in range(l))
            if any(v):
                pool.append(M.tilde(v))
        agreed = 0
        for _trial in range(150):
            if agreed >= 50:
                break
            a, b = rng.choice(pool), rng.choice(pool)
            n = rng.randint(-2, 2)
            main = nth_product(a, b, n, 2)
            nk = max(2, n + 1)
            kern = nth_product_kernel(a, b, n, nk, kernel_Delta(p, n, nk))
            orc = oracle_product(a, b, n, 2)
            sts = [compare_status(series_compare(x, y, slots, probes))
                   for x, y in ((main, kern), (main, orc), (kern, orc))]
            if "fail" in sts:
                ok = False
                break
            if all(s == "pass" for s in sts):
                agreed += 1
        if agreed < 50:
            ok = False
    _report(2, ok)


def test_criterion_3_conformal_axioms():
    # the paper's tau-product table and C1-C4 on the twisted Heisenberg
    # fields tau_j = z^(q_j/p) h_j(z) of five twisted lattices
    ok = True
    for gram, sigma in TAU_LATTICES:
        table, axioms = tau_lines(gram, sigma)
        if not table or any(line[2] != "pass" for line in table + axioms):
            ok = False
    _report(3, ok)


def _prop_vo_suite(M, pairs, slots, wslots, zslots, exps, probes):
    """Items (a)-(e): Heisenberg commutation, the extended group law,
    the product formulas, operator reconstruction, and the two-variable
    expansion identity.  Returns True when nothing fails and every item
    produced at least one exact pass."""
    lat = M.lattice
    l = lat.rank
    basis = [tuple(1 if k == i else 0 for k in range(l)) for i in range(l)]
    statuses = []
    modes = [Fraction(-1, M.p), 0, Fraction(1, M.p)]
    for _name, st in heisenberg_commutation_check(
            M, basis, basis, modes, probes):
        statuses.append(st)
    for _name, st1, st2 in e_group_checks(M, pairs, probes):
        statuses.extend([st1, st2])
    for a, b in pairs:
        n0 = -lat.pairing(a, b) - 1
        for n in (n0, n0 + 1):
            statuses.extend(product_check(M, a, b, n, slots, probes).values())
    for _e, st in reconstruct_e(M, basis[0], exps, probes):
        statuses.append(st)
    for a, b in pairs:
        for _slot, st in pair_expansion_check(M, a, b, wslots, zslots,
                                              probes):
            statuses.append(st)
    return "fail" not in statuses and "pass" in statuses


def test_criterion_4_prop_vo_suite():
    ok = True
    configs = [
        # (gram, sigma, bound, slots, wslots, zslots)
        ([[2]], [[1]], 3,
         [Fraction(k) for k in range(-1, 3)],
         [Fraction(-1), Fraction(0), Fraction(1)],
         [Fraction(-1), Fraction(0), Fraction(1)]),
        ([[2]], [[-1]], 2,
         [Fraction(k, 2) for k in range(-2, 5)],
         [Fraction(k, 2) for k in (-2, -1, 0, 1)],
         [Fraction(k, 2) for k in (-2, -1, 0, 1)]),
        ([[2, 0], [0, 2]], ROT4, 2,
         [Fraction(k, 4) for k in range(2, 7)],
         [Fraction(-3, 4), Fraction(1, 4)],
         [Fraction(-1, 2), Fraction(0)]),
    ]
    for gram, sigma, bound, slots, wslots, zslots in configs:
        M = _module(gram, sigma, 6, bound)
        l = M.lattice.rank
        a = tuple(1 if i == 0 else 0 for i in range(l))
        b = tuple(-x for x in a)
        pairs = [(a, a), (a, b)]
        if l > 1:
            pairs.append((a, (0, 1)))
        exps = [Fraction(k, M.p) for k in range(-2, 3)]
        if not _prop_vo_suite(M, pairs, slots, wslots, zslots, exps,
                              [_vac(M)]):
            ok = False
    _report(4, ok)


def test_criterion_5_locality_and_residue_oracle():
    ok = True
    configs = [
        ([[2]], [[1]], 3, 4, [Fraction(k) for k in range(-1, 2)]),
        ([[2]], [[-1]], 2, 6, [Fraction(k, 2) for k in range(-2, 3)]),
        ([[2, 0], [0, 2]], ROT4, 2, 5,
         [Fraction(k, 4) for k in range(2, 7)]),
    ]
    for gram, sigma, bound, trunc, slots in configs:
        M = _module(gram, sigma, trunc, bound)
        T = M.twist
        lat = M.lattice
        l = lat.rank
        gens = [tuple(1 if k == i else 0 for k in range(l))
                for i in range(l)]
        if l == 1:
            gens.append(tuple(-x for x in gens[0]))
        probes = [_vac(M)]
        for a, b in itertools.product(gens, repeat=2):
            N = locality_order(lat, a, b)
            sa, sb = M.vertex_series(a), M.vertex_series(b)
            # locality order: the commutator sum vanishes at N on
            # in-window mode pairs
            pair_slots = [(n, m)
                          for n in [Fraction(r, M.grid) + k
                                    for r in sorted(sa.res_k)
                                    for k in (1, 2)]
                          for m in [Fraction(r, M.grid) + k
                                    for r in sorted(sb.res_k)
                                    for k in (0, 1)]][:4]
            if locality_test(sa, sb, N, pair_slots, probes) != "pass":
                ok = False
            # vanishing at and above -(a|b)
            nv = -lat.pairing(a, b)
            st = compare_status(series_compare(
                nth_product(sa, sb, nv, max(N, nv + 1)),
                zero_series(M, parity=(sa.parity + sb.parity) % 2),
                slots, probes))
            if st == "fail":
                ok = False
            # closed form and kernel routes against the residue oracle
            n0 = -lat.pairing(a, b) - 1
            rep = product_check(M, a, b, n0, slots, probes)
            if any(v == "fail" for v in rep.values()):
                ok = False
            orc = oracle_product(sa, sb, n0, N)
            st = compare_status(series_compare(
                nth_product(sa, sb, n0, N), orc, slots, probes))
            if st == "fail":
                ok = False
    _report(5, ok)


def test_criterion_6_kappa_commutator():
    rng = random.Random(1903)
    ok = True
    checked = 0
    while checked < 200:
        lat = random_twisted_lattice(rng)
        T = TwistData(lat)
        l = lat.rank
        a = tuple(rng.randint(-2, 2) for _ in range(l))
        b = tuple(rng.randint(-2, 2) for _ in range(l))
        lhs = T.kappa(a, b) / T.kappa(b, a)
        s = (lat.pairing(a, a) * lat.pairing(b, b) + lat.pairing(a, b)) % 2
        if lhs != as_scalar(-1 if s else 1):
            ok = False
            break
        checked += 1
    _report(6, ok and checked == 200)


def test_criterion_7_identity_sigma_count():
    rng = random.Random(23)
    ok = True
    produced = 0
    while produced < 5:
        l = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(l)]
        if det_int(a) == 0:
            continue
        gram = mat_mul(transpose(a), a)  # positive definite
        if abs(det_int(gram)) > 40:
            continue
        produced += 1
        identity = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
        T = _twist(gram, identity)
        res = enumerate_simple_twisted(T)
        if res.obstructed or \
                len(res.classes) != oracle_dual_coset_count(gram, identity):
            ok = False
    _report(7, ok)


def test_criterion_8_negation_algebra():
    ok = True
    grams = {1: [[2]], 2: [[2, 1], [1, 2]], 3: [[2, 0, 0], [0, 2, 0],
                                                [0, 0, 4]]}
    for l, gram in grams.items():
        sigma = [[-1 if i == j else 0 for j in range(l)] for i in range(l)]
        T = _twist(gram, sigma)
        dec = T.lattice.reduce_generating_set()
        for sign_index in (0, 1):
            mu = tuple(T.mu_roots(orb)[sign_index] for orb in dec.orbits)
            A = PresentedAlgebraA(T, dec, mu)
            if A.zero or A.dim_B0 != 2 ** l:
                ok = False
                continue
            dA = A.block_decomposition
            dims = [b.dim for b in dA.blocks]
            if not all(dA.certified.values()):
                ok = False
            if sum(d * d for d in dims) != 2 ** l:
                ok = False
            count, dim, size = oracle_bicharacter_blocks(
                A.E.divisors,
                [[A.bichar(g, h)
                  for h in (tuple(1 if k == j else 0
                                  for k in range(A.E.rank))
                            for j in range(A.E.rank))]
                 for g in (tuple(1 if k == i else 0
                                 for k in range(A.E.rank))
                           for i in range(A.E.rank))])
            if (len(dims), set(dims)) != (count, {dim}):
                ok = False
    _report(8, ok)


def test_criterion_9_rotation_two_classes():
    ok = True
    for norm in (2, 4):
        gram = [[norm, 0], [0, norm]]
        for phi in (None, {0: as_scalar(-1), 1: as_scalar(-1)},
                    {0: as_scalar(-1), 1: as_scalar(1)}):
            T = _twist(gram, ROT4, phi=phi)
            res = enumerate_simple_twisted(T)
            if res.obstructed or len(res.classes) != 2:
                ok = False
    _report(9, ok)


def _find_obstructed(rng, tries=300):
    for _ in range(tries):
        lat = random_twisted_lattice(rng)
        T = TwistData(lat)
        obstructed, wit = T.obstruction_check()
        if obstructed:
            return T, wit
    return None, None


def test_criterion_10_obstruction():
    T, wit = _find_obstructed(random.Random(41))
    ok = T is not None and wit is not None
    if ok:
        res = enumerate_simple_twisted(T)
        ok = res.obstructed and res.witness is not None and not res.classes
        # the naive vacuum-space module cannot satisfy the conditions
        M = FockModule(T, RegularOmega(T, 2), 4)
        ok = ok and conditions_status(twisted_conditions(T, M)) == "fail"
    _report(10, ok)


def test_criterion_11_round_trip():
    ok = True
    fixtures = [
        ([[2]], [[1]]),
        ([[2]], [[-1]]),
        ([[2, 1], [1, 2]],
         [[-1, 0], [0, -1]]),
        ([[2, 0], [0, 2]], ROT4),
    ]
    for gram, sigma in fixtures:
        T = _twist(gram, sigma)
        res = enumerate_simple_twisted(T)
        if res.obstructed or not res.classes:
            ok = False
            continue
        p = T.lattice.p
        l = T.lattice.rank
        basis = [tuple(1 if k == i else 0 for k in range(l))
                 for i in range(l)]
        pairs = [(basis[0], basis[0]),
                 (basis[0], tuple(-x for x in basis[0]))]
        # product slots shallow enough to stay inside the truncation
        # window (mirrors the per-order windows of criterion 4)
        if p == 1:
            slots = [Fraction(k) for k in range(-1, 3)]
            wz = [Fraction(-1), Fraction(0), Fraction(1)]
        elif p == 2:
            slots = [Fraction(k, 2) for k in range(-2, 5)]
            wz = [Fraction(k, 2) for k in (-2, -1, 0, 1)]
        else:
            slots = [Fraction(k, p) for k in range(p // 2, p + p // 2 + 1)]
            wz = [Fraction(-1, 2), Fraction(0)]
        exps = [Fraction(k, p) for k in range(-1, 2)]
        for cls in res.classes:
            M = instantiate_class(T, cls, trunc=4)
            if conditions_status(twisted_conditions(T, M)) != "pass":
                ok = False
                continue
            if not _prop_vo_suite(M, pairs, slots, wz, wz, exps,
                                  _central_probes(M)[:2]):
                ok = False
    _report(11, ok)


def test_criterion_12_degree_operator():
    ok = True
    for gram, sigma, bound in (([[2]], [[1]], 2), ([[2]], [[-1]], 2),
                               ([[2, 0], [0, 2]], ROT4, 1)):
        M = _module(gram, sigma, 6, bound)
        count = 0
        for v in M.basis_vectors(5):
            deg = Fraction(v.max_degree_k(), M.grid)
            if M.virasoro_one(v) != v.scale(deg):
                ok = False
            count += 1
        if not count:
            ok = False
    _report(12, ok)
