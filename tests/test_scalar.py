import math
from fractions import Fraction

import pytest

from twistlab.scalar import (
    ONE,
    ZERO,
    ConductorOverflow,
    CycScalar,
    ScalarError,
    canonical_root,
    cyclotomic_poly,
    parse_scalar,
    root_of_unity,
)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_basics():
    assert root_of_unity(1, 0) == ONE
    assert root_of_unity(2, 1) == CycScalar.rational(-1)
    i = root_of_unity(4, 1)
    assert i * i == CycScalar.rational(-1)
    z = root_of_unity(8)
    assert z ** 8 == ONE
    assert z ** 4 == CycScalar.rational(-1)


def test_conductor_minimization():
    # zeta_6 lives in the conductor-3 field
    z6 = root_of_unity(6, 1)
    assert z6.n == 3
    assert z6 == ONE + root_of_unity(3, 1)
    # zeta_8^2 is zeta_4
    assert root_of_unity(8, 2) == root_of_unity(4, 1)
    # rational combinations collapse to conductor 1
    z3 = root_of_unity(3)
    assert (ONE + z3 + z3 ** 2) == ZERO
    assert (z3 + z3 ** 2).n == 1


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_product_one_minus_omega_powers(p):
    omega = root_of_unity(p)
    prod = ONE
    for s in range(1, p):
        prod = prod * (ONE - omega ** s)
    assert prod == CycScalar.rational(p)


def test_one_minus_zeta3_product():
    z3 = root_of_unity(3)
    assert (ONE - z3) * (ONE - z3 ** 2) == CycScalar.rational(3)


def _samples(n):
    vals = [CycScalar.rational(Fraction(a, b)) for a, b in [(1, 1), (-2, 3), (5, 2)]]
    vals += [root_of_unity(n, k) for k in range(n)]
    vals.append(root_of_unity(n) + CycScalar.rational(Fraction(1, 2)))
    return vals


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])
def test_field_axioms_sampled(n):
    vals = _samples(n)
    for a in vals:
        for b in vals:
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a * b) * b.inverse() == a
    for a in vals:
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow_negative():
    z = root_of_unity(5)
    assert z ** -2 == z ** 3
    assert (CycScalar.rational(Fraction(2, 3)) ** -1) == CycScalar.rational(
        Fraction(3, 2)
    )


def test_order():
    assert ONE.order() == 1
    assert CycScalar.rational(-1).order() == 2
    assert root_of_unity(12, 8).order() == 3
    assert (-root_of_unity(3)).order() == 6
    assert CycScalar.rational(2).order() is None
    assert (ONE + root_of_unity(5)).order() is None


def test_canonical_root_examples():
    for r in (1, 2, 3, 5):
        assert canonical_root(ONE, r) == ONE
    assert canonical_root(CycScalar.rational(-1), 2) == root_of_unity(4)
    assert canonical_root(root_of_unity(3), 3) == root_of_unity(9)


def test_canonical_root_general():
    samples = [
        (CycScalar.rational(4), 2),
        (CycScalar.rational(Fraction(27, 8)), 3),
        (root_of_unity(8, 3), 2),
        (-root_of_unity(5, 2), 4),
        (CycScalar.rational(9) * root_of_unity(12, 7), 2),
    ]
    for a, r in samples:
        root = canonical_root(a, r)
        assert root ** r == a
    with pytest.raises(ScalarError):
        canonical_root(CycScalar.rational(2), 2)
    with pytest.raises(ScalarError):
        canonical_root(ONE + root_of_unity(5), 2)


def test_all_roots_related_by_unit():
    a = -root_of_unity(3)
    r = 4
    base = canonical_root(a, r)
    roots = {base * root_of_unity(r, j) for j in range(r)}
    assert len(roots) == r
    for x in roots:
        assert x ** r == a


def test_conductor_cap(monkeypatch):
    monkeypatch.setenv("TWISTLAB_CONDUCTOR_CAP", "10")
    with pytest.raises(ConductorOverflow):
        root_of_unity.__wrapped__(11)
    with pytest.raises(ConductorOverflow):
        root_of_unity.__wrapped__(5) * root_of_unity.__wrapped__(4)
    monkeypatch.delenv("TWISTLAB_CONDUCTOR_CAP")
    assert root_of_unity.__wrapped__(5) * root_of_unity.__wrapped__(4) == \
        root_of_unity(20, 9)


def test_numeric_embedding_agreement():
    samples = [
        root_of_unity(7, 3) + CycScalar.rational(Fraction(5, 3)),
        (ONE - root_of_unity(5)) ** 3,
        root_of_unity(9, 2) * root_of_unity(12, 5),
    ]
    for a in samples:
        for b in samples:
            exact = complex(a * b)
            approx = complex(a) * complex(b)
            assert abs(exact - approx) < 1e-9


def test_string_round_trip():
    samples = [
        ZERO,
        ONE,
        CycScalar.rational(Fraction(-7, 3)),
        root_of_unity(8, 5),
        -root_of_unity(12, 7) * CycScalar.rational(Fraction(3, 2)),
        ONE + root_of_unity(5) - CycScalar.rational(Fraction(1, 2)) * root_of_unity(5, 3),
    ]
    for a in samples:
        assert parse_scalar(a.to_string()) == a


def test_hash_consistency():
    a = root_of_unity(8, 2)
    b = root_of_unity(4, 1)
    assert a == b and hash(a) == hash(b)


def test_rational_add_sub_fast_path():
    # a conductor-1 sum skips reduction and minimization; it must agree
    # with the general constructor in value, coefficient dict and hash
    qs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
          Fraction(-5, 7), Fraction(11, 3), Fraction(-1, 3)]
    for a in qs:
        for b in qs:
            x, y = CycScalar.rational(a), CycScalar.rational(b)
            for got, want in ((x + y, a + b), (x - y, a - b)):
                ref = CycScalar(1, [want])
                assert got.rational_value() == want
                assert got == ref and got.c == ref.c
                assert hash(got) == hash(ref)
