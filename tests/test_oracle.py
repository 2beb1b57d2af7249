from fractions import Fraction

import pytest

from twistlab.cocycle import TwistData
from twistlab.fdist import compare_status, nth_product, series_compare, zero_series
from twistlab.fock import FockModule, RegularOmega
from twistlab.lattice import TwistedLattice
from twistlab.oracle import (
    OracleError,
    oracle_bicharacter_blocks,
    oracle_dual_coset_count,
    oracle_product,
    projection_monomials,
)
from twistlab.scalar import as_scalar, root_of_unity


def module(gram, sigma, trunc, bound=1):
    lat = TwistedLattice(gram, sigma)
    T = TwistData(lat)
    return FockModule(T, RegularOmega(T, bound), trunc)


def slots_for(p, lo=-2, hi=2):
    return [Fraction(k, p) for k in range(lo * p, hi * p + 1)]


def test_projection_monomials_untwisted_is_identity():
    # p = 1: the projection kernel collapses to the constant 1
    assert projection_monomials(1, 4) == [(Fraction(0), Fraction(0),
                                           Fraction(1))]


def test_projection_monomials_exponent_balance():
    # every monomial of the kernel has total degree zero
    for p in (2, 3, 4):
        for m in (0, 1, 3):
            for (u, x, c) in projection_monomials(p, m):
                assert u + x == 0
                assert c != 0


def test_oracle_product_matches_heisenberg():
    for gram, sigma in ([[2]], [[1]]), ([[2]], [[-1]]):
        M = module(gram, sigma, 4)
        h = M.tilde((1,))
        probes = [M.vacuum(i) for i in range(min(M.omega.size, 2))]
        slots = slots_for(M.p, -1, 2)
        for n in (-1, 0, 1):
            main = nth_product(h, h, n, 2)
            orc = oracle_product(h, h, n, 2)
            assert compare_status(
                series_compare(main, orc, slots, probes)) == "pass"


def test_oracle_product_matches_vertex_series():
    # sigma = -1: X(1)[-3]X(1) has a nonzero closed form; both routes agree
    M = module([[2]], [[-1]], 6, bound=2)
    x = M.vertex_series((1,))
    # probes whose index window survives two e(1) shifts
    probes = [M.vacuum(i) for i in range(3)]
    slots = slots_for(2, -1, 1)
    main = nth_product(x, x, -3, 2)
    orc = oracle_product(x, x, -3, 2)
    assert compare_status(series_compare(main, orc, slots, probes)) == "pass"


def test_oracle_product_vanishes_at_locality():
    M = module([[2]], [[-1]], 4)
    h = M.tilde((1,))
    probes = [M.vacuum(0)]
    slots = slots_for(2)
    prod = oracle_product(h, h, 2, 2)
    assert compare_status(series_compare(
        prod, zero_series(M), slots, probes)) == "pass"


def test_blocks_trivial_bicharacter():
    one = as_scalar(1)
    count, dim, size = oracle_bicharacter_blocks(
        (2, 2), [[one, one], [one, one]])
    assert (count, dim, size) == (4, 1, 4)


def test_blocks_alternating_bicharacter():
    one, minus = as_scalar(1), as_scalar(-1)
    count, dim, size = oracle_bicharacter_blocks(
        (2, 2), [[one, minus], [minus, one]])
    assert (count, dim, size) == (1, 2, 4)


def test_blocks_order_four():
    one = as_scalar(1)
    i4 = root_of_unity(4)
    count, dim, size = oracle_bicharacter_blocks(
        (4, 4), [[one, i4], [i4.inverse(), one]])
    assert (count, dim, size) == (1, 4, 16)


def test_blocks_factor_of_order_one():
    one = as_scalar(1)
    assert oracle_bicharacter_blocks([1, 2], [[one, one], [one, one]]) \
        == (2, 1, 2)


def test_blocks_rejects_bad_input():
    one, minus = as_scalar(1), as_scalar(-1)
    with pytest.raises(OracleError):
        oracle_bicharacter_blocks((2,), [[minus]])
    with pytest.raises(OracleError):
        oracle_bicharacter_blocks((2, 2), [[one, minus], [minus.inverse()
                                                          * minus, one]])
    with pytest.raises(OracleError):
        oracle_bicharacter_blocks((3, 3), [[one, minus], [minus, one]])


def test_dual_coset_count():
    i1, i2 = [[1]], [[1, 0], [0, 1]]
    assert oracle_dual_coset_count([[1]], i1) == 1
    assert oracle_dual_coset_count([[2]], i1) == 2
    assert oracle_dual_coset_count([[2, -1], [-1, 2]], i2) == 3
    assert oracle_dual_coset_count([[2, 0], [0, 4]], i2) == 8


def test_dual_coset_count_fixed_by_sigma():
    a2 = [[2, -1], [-1, 2]]
    # -1 fixes both cosets of Z/2; the order-3 rotation of A2 fixes
    # all of Z/3 and the order-6 one only 0; the quarter turn of 2*I_2
    # fixes (0, 0) and (1/2, 1/2) of (Z/2)^2
    assert oracle_dual_coset_count([[2]], [[-1]]) == 2
    assert oracle_dual_coset_count(a2, [[0, -1], [1, -1]]) == 3
    assert oracle_dual_coset_count(a2, [[1, -1], [1, 0]]) == 1
    assert oracle_dual_coset_count([[2, 0], [0, 2]], [[0, -1], [1, 0]]) == 2
    # rank 4 with exponent 120: the search visits each of the 960
    # cosets once (a search over coefficient boxes would visit 120^4
    # tuples); -1 fixes the 2-torsion
    gram = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 120]]
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    negation = [[-x for x in row] for row in identity]
    assert oracle_dual_coset_count(gram, identity) == 960
    assert oracle_dual_coset_count(gram, negation) == 16
