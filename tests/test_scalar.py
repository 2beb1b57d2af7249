import cmath
import math
import random
from fractions import Fraction

import pytest

from twistlab import scalar as scalar_module
from twistlab.scalar import (
    ONE,
    ZERO,
    ConductorOverflow,
    CycScalar,
    RootPair,
    ScalarError,
    _positive_root_parts,
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
    import twistlab.scalar as scalar

    monkeypatch.setattr(scalar, "CONDUCTOR_CAP", 10)
    with pytest.raises(ConductorOverflow):
        root_of_unity(11)
    with pytest.raises(ConductorOverflow):
        root_of_unity(5) * root_of_unity(4)
    monkeypatch.undo()
    assert root_of_unity(5) * root_of_unity(4) == root_of_unity(20, 9)


def test_a_lowered_cap_applies_to_roots_computed_before(monkeypatch):
    import twistlab.scalar as scalar

    z8 = root_of_unity(8)
    monkeypatch.setattr(scalar, "CONDUCTOR_CAP", 4)
    with pytest.raises(ConductorOverflow, match="conductor 8 exceeds cap 4"):
        root_of_unity(8)
    with pytest.raises(ConductorOverflow, match="conductor 8 exceeds cap 4"):
        RootPair(1, 1, 8).scalar()
    monkeypatch.undo()
    assert root_of_unity(8) == z8 and z8 * z8 == root_of_unity(4)


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
    # a conductor-1 sum skips reduction and descent; it must agree with
    # the general constructor in value, representation and hash
    qs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
          Fraction(-5, 7), Fraction(11, 3), Fraction(-1, 3)]
    for a in qs:
        for b in qs:
            x, y = CycScalar.rational(a), CycScalar.rational(b)
            for got, want in ((x + y, a + b), (x - y, a - b)):
                ref = CycScalar(1, [want])
                assert got.rational_value() == want
                assert got == ref
                assert (got.n, got.num, got.den) == (ref.n, ref.num, ref.den)
                assert hash(got) == hash(ref)


def _fields(x):
    return x.n, x.num, x.den


def _copy(y):
    """A fresh CycScalar equal to y, not the same object."""
    return CycScalar.from_ints(y.n, list(y.num), y.den)


INT_FACTORS = (0, 1, -1, 10 ** 30, -10 ** 30)
FAST_PATH_VALUES = (
    CycScalar.rational(Fraction(-10, 21)),
    root_of_unity(12, 5) * CycScalar.rational(Fraction(4, 9))
    + CycScalar.rational(Fraction(1, 6)),
    ZERO,
)


@pytest.mark.parametrize("x", FAST_PATH_VALUES, ids=["rational", "cyc", "zero"])
def test_int_and_scalar_fast_paths_match_the_coerced_route(x, monkeypatch):
    # an int multiplies without becoming a scalar; the product must be
    # the canonical element the general constructor gives, on both sides
    for n in INT_FACTORS:
        want = CycScalar.from_ints(x.n, [c * n for c in x.num], x.den)
        for got in (x * n, n * x, x * CycScalar.rational(n)):
            assert _fields(got) == _fields(want)
            assert hash(got) == hash(want)
    # so does a Fraction, as its scalar does
    for f in (Fraction(-10, 21), Fraction(3, 4), Fraction(10 ** 30, 7)):
        want = x * CycScalar.rational(f)
        for got in (x * f, f * x):
            assert _fields(got) == _fields(want)
    # == on two scalars compares fields, as the coerced route did
    for y in FAST_PATH_VALUES + (ONE, CycScalar.rational(-1)):
        assert (x == y) == (_fields(x) == _fields(y))
        assert (x == y) == (x == _copy(y))
    coerced = []
    real = scalar_module._coerce

    def counting(v):
        coerced.append(v)
        return real(v)

    monkeypatch.setattr(scalar_module, "_coerce", counting)
    assert _fields(x * 3) == _fields(3 * x)
    assert _fields(x * Fraction(1, 3)) == _fields(Fraction(1, 3) * x)
    assert x == x and not coerced
    # a bool is an int subclass: it still goes through _coerce
    assert _fields(x * True) == _fields(x) and coerced == [True]
    assert x.__eq__("1") is NotImplemented and x != "1"
    assert x.__eq__(None) is NotImplemented
    assert (ZERO == 0) is True and (ONE == Fraction(1)) is True


# -- seeded property test ---------------------------------------------

# each base puts its elements in fields with q^2 | n or q || n for
# q = 2, 3, 5 and 7, and keeps every lcm small
PROPERTY_BASES = (36, 40, 42, 45, 49, 50)


def _random_element(rng, base):
    divisors = [d for d in range(1, base + 1) if base % d == 0]
    x = CycScalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(divisors)
        q = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        x = x + CycScalar.rational(q) * root_of_unity(d, rng.randrange(d))
    return x


def _reduced_power(n, e):
    """zeta_n^e in the power basis mod Phi_n, as a Fraction list."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    vec = [Fraction(0)] * max(deg, e % n + 1)
    vec[e % n] = Fraction(1)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j in range(deg + 1):
                vec[i - deg + j] -= c * phi[j]
    return vec[:deg]


def _in_subfield(x, d):
    """Whether x lies in Q(zeta_d), d | x.n: a Fraction solve of
    sum_k y_k zeta_d^k = x over the power basis of Q(zeta_n)."""
    n = x.n
    deg = len(cyclotomic_poly(n)) - 1
    cols = [_reduced_power(n, k * (n // d))
            for k in range(len(cyclotomic_poly(d)) - 1)]
    target = [Fraction(c, x.den) for c in x.num]
    target += [Fraction(0)] * (deg - len(target))
    rows = [[col[i] for col in cols] + [target[i]] for i in range(deg)]
    r = 0
    for c in range(len(cols)):
        piv = next((i for i in range(r, deg) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(deg):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return all(not row[-1] for row in rows[r:])


def _close(x, z):
    return abs(complex(x) - z) < 1e-9


def test_scalar_properties_seeded():
    rng = random.Random(20260)
    for _ in range(60):
        base = rng.choice(PROPERTY_BASES)
        a, b, c = (_random_element(rng, base) for _ in range(3))
        za, zb = complex(a), complex(b)
        assert _close(a + b, za + zb)
        assert _close(a - b, za - zb)
        assert _close(a * b, za * zb)
        for x in (a, b, c):
            if x:
                assert _close(x.inverse(), 1 / complex(x))
                assert x * x.inverse() == ONE
            assert parse_scalar(x.to_string()) == x
            assert x.den > 0
            assert math.gcd(x.den, *x.num) == 1
            assert not x.num or x.num[-1]
        for left, right in (((a * b) * c, a * (b * c)),
                            (a * (b + c), a * b + a * c)):
            assert (left.n, left.num, left.den) == \
                (right.n, right.num, right.den)
            assert hash(left) == hash(right)
        for x in (a, b, a * b, a + c):
            assert x.n == 1 or all(
                not _in_subfield(x, x.n // q)
                for q in range(2, x.n + 1)
                if x.n % q == 0 and all(q % p for p in range(2, q)))
            assert base % x.n == 0


def test_half_conductor_field_needs_no_elimination(monkeypatch):
    # n = 2 mod 4: Q(zeta_n) = Q(zeta_(n/2)), so the one descent is a
    # substitution, with no linear solve over Q
    from twistlab import scalar

    calls = []
    for name in ("field_rref", "field_inverse"):
        def counted(*args, _orig=getattr(scalar, name), _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(scalar, name, counted)
    field = scalar._Field(462)
    assert calls == []
    assert [q for q, _down in field.descents] == [2]


# values at conductors 2 mod 4, taken from the elimination-based descent
# (ks are 1, 2, 5 and n/2 + 1)
HALF_CONDUCTOR_VALUES = {
    6: (["1 + z(3)^1", "z(3)^1", "-z(3)^1", "-1 - z(3)^1"],
        "1", "-4/3 - 5/3*z(3)^1", "-1/2 - 9/2*z(3)^1"),
    30: (["1 - z(15)^1 + z(15)^3 - z(15)^4 + z(15)^5 - z(15)^7",
          "z(15)^1", "1 + z(3)^1",
          "-1 + z(15)^1 - z(15)^3 + z(15)^4 - z(15)^5 + z(15)^7"],
         "z(5)^1",
         "2/3 - 7/3*z(15)^1 - z(15)^2 + 4/3*z(15)^3 - 1/3*z(15)^4"
         " + 1/3*z(15)^5 + z(15)^6 - 4/3*z(15)^7",
         "3/2 - 7/2*z(15)^1 + 2*z(15)^2 + 1/2*z(15)^3 - 1/2*z(15)^4"
         " + 1/2*z(15)^5 - 1/2*z(15)^7"),
    42: (["-z(21)^11", "z(21)^1",
          "1 - z(21)^2 + z(21)^3 - z(21)^5 + z(21)^6 + z(21)^7 - z(21)^8"
          " + z(21)^10 - z(21)^11", "z(21)^11"],
         "z(7)^1",
         "1/3 - 3*z(21)^1 + z(21)^3 - z(21)^4 + z(21)^6 - z(21)^8"
         " + z(21)^9 - 4/3*z(21)^11",
         "1 - 3*z(21)^1 + 2*z(21)^2 - 1/2*z(21)^11"),
    66: (["-z(33)^17", "z(33)^1", "-z(33)^19", "z(33)^17"],
         "z(11)^1", "-2/3 - 2*z(33)^1 - 1/3*z(33)^17 - z(33)^18",
         "1 - 3*z(33)^1 + 2*z(33)^2 - 1/2*z(33)^17"),
    462: (["-z(231)^116", "z(231)^1", "-z(231)^118", "z(231)^116"],
          "z(77)^1", "-2/3 - 2*z(231)^1 - 1/3*z(231)^116 - z(231)^117",
          "1 - 3*z(231)^1 + 2*z(231)^2 - 1/2*z(231)^116"),
}


@pytest.mark.parametrize("n", sorted(HALF_CONDUCTOR_VALUES))
def test_half_conductor_values(n):
    roots, prod, mix, dense = HALF_CONDUCTOR_VALUES[n]
    vals = [root_of_unity(n, k) for k in (1, 2, 5, n // 2 + 1)]
    assert [str(v) for v in vals] == roots
    assert str(vals[0] * vals[2]) == prod
    assert str((vals[0] - 2) * (vals[1] + Fraction(1, 3))) == mix
    assert str(CycScalar(n, [1, Fraction(1, 2), -3, 0, 2])) == dense


# the lowest forms (M, k) of the roots of unity of order M <= 24
_LOWEST_ROOTS = [(m, k) for m in range(1, 25) for k in range(m)
                 if m == 1 or math.gcd(k, m) == 1]


def _brute_force_root(x):
    """(q, M, k) with x = q * zeta_M^k, q > 0, by search over M <= 24
    and k coprime to M; None if there is none.  Floating point only
    picks the candidates; each is confirmed exactly."""
    z = complex(x)
    for m, k in _LOWEST_ROOTS:
        w = z / cmath.exp(2j * math.pi * k / m)
        if abs(w.imag) < 1e-9 and w.real > 1e-9:
            q = Fraction(w.real).limit_denominator(1000)
            if x == CycScalar.rational(q) * root_of_unity(m, k):
                return q, m, k
    return None


def _decompose(x):
    """(q, M, k) with x = q * zeta_M^k, q > 0 rational and zeta_M^k in
    lowest terms, from `_positive_root_parts`, or None."""
    parts = _positive_root_parts(x)
    if parts is None:
        return None
    c, m, k = parts
    return Fraction(c, x.den), m, k


def test_decompose_positive_root_matches_brute_force():
    rng = random.Random(59)
    values = [ZERO, ONE, CycScalar.rational(-3), ONE + root_of_unity(5)]
    for _ in range(100):
        # q * zeta_m^k with q of either sign and a root of order <= 24
        m = rng.randint(1, 24)
        sign = rng.choice((1, -1)) if m <= 12 or m % 2 == 0 else 1
        q = Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))
        values.append(CycScalar.rational(q) * root_of_unity(m, rng.randrange(m)))
    for _ in range(100):
        # sums of two roots: some are rational multiples of a root of
        # unity (of order at most 24), most are not
        m = rng.randint(1, 12)
        values.append(root_of_unity(m, rng.randrange(m))
                      + root_of_unity(m, rng.randrange(m)))
    found = 0
    for x in values:
        expect = _brute_force_root(x)
        assert _decompose(x) == expect
        found += expect is not None
    assert 100 < found < len(values)


def _scan_decompose(x):
    """The search the positive-root decomposition used to make: every root of
    unity of Q(zeta_n) lies on the grid N = n (n even) or 2n (n odd),
    so try x * zeta_N^(-e) for e = 0..N-1 until the product is a
    positive rational."""
    if x.is_zero():
        return None
    if x.n == 1:
        q = x.rational_value()
        return (q, 1, 0) if q > 0 else (-q, 2, 1)
    n = x.n if x.n % 2 == 0 else 2 * x.n
    for e in range(n):
        b = x * root_of_unity(n, -e)
        if b.n == 1 and b.num[0] > 0:
            g = math.gcd(n, e)
            return b.rational_value(), n // g, e // g
    return None


def test_decompose_positive_root_matches_the_old_scan():
    # the closed form (content, then one table lookup per conductor)
    # against the scan, on q * zeta_M^k for every M <= 60, each k and
    # q in {1, 2, 1/3}
    for m in range(1, 61):
        for k in range(m):
            root = root_of_unity(m, k)
            for q in (1, 2, Fraction(1, 3)):
                x = root * q
                got = _decompose(x)
                assert got == _scan_decompose(x)
                assert got[0] == q and got[1:] == (m // math.gcd(m, k),
                                                   k // math.gcd(m, k))
    for x in (ONE + root_of_unity(5), ZERO):
        assert _decompose(x) is None
        assert _scan_decompose(x) is None


def _random_pair(rng, grid):
    """A random pair on the grid, with q = 1 half of the time."""
    q = 1 if rng.random() < 0.5 else Fraction(rng.randint(1, 9),
                                              rng.randint(1, 9))
    return RootPair(q, rng.randrange(grid), grid)


def _cyc(pair):
    """q * zeta_n^k by CycScalar arithmetic."""
    return CycScalar.rational(pair.q) * root_of_unity(pair.n, pair.k)


def test_root_pair_arithmetic_matches_cyc_scalar():
    # each pair operation against the same operation on CycScalars, the
    # independent route; grids are mixed so products change grid
    rng = random.Random(61)
    grids = (1, 2, 3, 4, 6, 8, 12, 24, 30, 40)
    for _ in range(300):
        a = _random_pair(rng, rng.choice(grids))
        b = _random_pair(rng, rng.choice(grids))
        ca, cb = _cyc(a), _cyc(b)
        assert a.scalar() == ca
        assert str(a) == str(ca)
        assert RootPair.of(ca) == a
        assert (RootPair.of(ca) * RootPair(1, 0, 120)).n == 120
        e = rng.randint(-5, 5)
        for pair, value in ((a * b, ca * cb), (a / b, ca / cb),
                            (a.inverse(), ca.inverse()), (a ** e, ca ** e)):
            assert 0 <= pair.k < pair.n
            assert pair.scalar() == value
            assert pair == RootPair.of(value) * RootPair(1, 0, pair.n)
        assert (a == b) == (ca == cb)
        assert (a * b == b * a) and hash(a * b) == hash(b * a)
        # the same value on a finer grid is equal and hashes alike
        finer = a * RootPair(1, 0, 7 * a.n)
        assert finer.n == 7 * a.n and finer == a and hash(finer) == hash(a)
        for r in (1, 2, 3, 4):
            if a.q == 1 or all(round(x ** (1 / r)) ** r == x
                               for x in (a.q.numerator, a.q.denominator)):
                root = a.root(r)
                assert root.scalar() == canonical_root(ca, r)
                assert root ** r == a
    assert RootPair.of(ONE + root_of_unity(5)) is None
    assert RootPair.of(ZERO) is None


def test_root_pair_rational_parts():
    # q != 1: the phi seed 2 of an identity twist, its inverse and its
    # exact and inexact roots
    two = RootPair.of(CycScalar.rational(2)) * RootPair(1, 0, 4)
    assert (two.q, two.k, two.n) == (2, 0, 4)
    assert (two * two).scalar() == CycScalar.rational(4)
    assert two.inverse().scalar() == CycScalar.rational(Fraction(1, 2))
    assert (two ** -3).scalar() == CycScalar.rational(Fraction(1, 8))
    four_i = RootPair(4, 1, 4)
    assert four_i.root(2).scalar() == CycScalar.rational(2) * root_of_unity(8)
    with pytest.raises(ScalarError, match="no exact integer 2-th root"):
        two.root(2)
    with pytest.raises(ScalarError, match="no exact integer 3-th root"):
        RootPair(Fraction(1, 2), 1, 3).root(3)
    with pytest.raises(ScalarError):
        RootPair(0, 1, 3)


def test_rational_roots_are_exact_past_float_range():
    # integer roots above 2^53, and above the largest float, are found
    # exactly; a non-power is still refused
    for base, r in ((10**20 + 12345, 2), (3**40 + 7, 3),
                    (10**200 + 3, 2), (Fraction(7**30, 11**25), 5)):
        assert scalar_module._rational_nth_root(Fraction(base) ** r, r) == base
    assert len(str((10**200 + 3) ** 2)) == 401
    for q, r in (((10**20 + 12345) ** 2 + 1, 2), ((3**40 + 7) ** 3 - 1, 3),
                 (10**401, 2), (2**64 * 3, 4)):
        with pytest.raises(ScalarError, match="no exact integer"):
            scalar_module._rational_nth_root(Fraction(q), r)
    square = RootPair((10**20 + 12345) ** 2, 1, 3)
    assert square.root(2).q == 10**20 + 12345


def test_root_pair_conversion_meets_the_conductor_cap(monkeypatch):
    # the cap applies where a pair becomes a CycScalar, to the order of
    # its root in lowest terms, not to the grid the pair is kept on
    monkeypatch.setattr(scalar_module, "CONDUCTOR_CAP", 4)
    quarter = RootPair(1, 3, 12)
    assert quarter.scalar() == root_of_unity(4, 1)
    # products and roots on the grid do not meet the cap
    assert (quarter * RootPair(1, 1, 12)).k == 4
    assert quarter.root(3).n == 12
    with pytest.raises(ConductorOverflow):
        RootPair(1, 1, 12).scalar()
    with pytest.raises(ConductorOverflow):
        canonical_root(root_of_unity(4, 1), 2)
