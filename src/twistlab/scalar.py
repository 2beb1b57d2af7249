"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in a canonical form: the conductor N is minimized and
the element is an integer numerator vector, reduced modulo the N-th
cyclotomic polynomial, over one positive denominator coprime to it, so
two equal elements always have identical representations.  All of the
arithmetic is on ints; Fraction appears only where rationals enter or
leave (rational(), rational_value(), the dense constructor, to_string);
from_ints builds an element from integer coordinates directly.

A RootPair is the narrower value q * zeta_n^k, q > 0 rational, kept as
the integer exponent k on a grid n: products add exponents.  The
cocycle and classifier layers return each of their values as a pair,
by one method, and build a CycScalar (RootPair.scalar) only where a sum
is formed or a value goes to CycScalar code.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .linalg import field_inverse, field_rref

# the largest conductor a sum, product or root of unity may reach
CONDUCTOR_CAP = 720


class ScalarError(Exception):
    pass


class ConductorOverflow(ScalarError):
    pass


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, index = degree."""
    # x^n - 1 divided by Phi_d for all proper divisors d | n.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n):
        if d == n:
            continue
        den = cyclotomic_poly(d)
        num = _poly_div_exact(num, den)
    return tuple(num)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division is exact by construction.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(c == 0 for c in num)
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _trim(vec: list[int]) -> list[int]:
    while vec and not vec[-1]:
        vec.pop()
    return vec


class _Field:
    """The integer tables of Q(zeta_n): the terms of Phi_n that reduce
    a power basis coordinate, and the descents to the maximal subfields
    Q(zeta_(n/q)), q prime: pairs (q, down), down(vec) giving the
    coordinates of vec there, or None if vec does not lie there."""

    __slots__ = ("n", "deg", "low", "descents")

    def __init__(self, n: int):
        phi = cyclotomic_poly(n)
        self.n = n
        self.deg = len(phi) - 1
        # Phi_n is monic: x^deg = -(sum of these terms), all integers
        self.low = tuple((j, c) for j, c in enumerate(phi[:-1]) if c)
        if n % 4 == 2:
            # Q(zeta_n) = Q(zeta_(n/2)): every element descends there
            self.descents = ((2, _halving_descent(n // 2)),)
            return
        primes = _prime_factors(n)
        # the q^2 | n descents are a scan, so they are tried first
        self.descents = tuple(
            [(q, _scan_descent(q)) for q in primes if n % (q * q) == 0]
            + [(q, self._split_descent(q)) for q in primes
               if n % (q * q)])

    def _split_descent(self, q: int):
        """Descent to Q(zeta_d), d = n/q with q || n and q odd.

        M (deg x deg_d, integers) embeds the power basis of Q(zeta_d):
        column k is zeta_n^(qk) reduced mod Phi_n.  R are deg_d rows on
        which M is invertible, and minv = D * M[R]^-1 is integral.  An
        integer vector v lies in the image exactly when M * (minv *
        v[R]) = D * v; the division by D is then exact, since
        Z[zeta_n] meets Q(zeta_d) in Z[zeta_d].
        """
        d = self.n // q
        deg_d = len(cyclotomic_poly(d)) - 1
        cols = [_reduce(self, [0] * (q * k) + [1]) for k in range(deg_d)]
        cols = [c + [0] * (self.deg - len(c)) for c in cols]
        one = Fraction(1)
        _, rows = field_rref([[Fraction(x) for x in c] for c in cols], one)
        inv = field_inverse([[Fraction(cols[k][r]) for k in range(deg_d)]
                             for r in rows], one)
        D = math.lcm(*(x.denominator for row in inv for x in row))
        minv = tuple(tuple((j, int(x * D)) for j, x in enumerate(row) if x)
                     for row in inv)
        picked = set(rows)
        checks = sorted(
            ((i, tuple((k, cols[k][i]) for k in range(deg_d) if cols[k][i]))
             for i in range(self.deg) if i not in picked),
            key=lambda t: len(t[1]))
        zero_rows = tuple(i for i, terms in checks if not terms)
        checks = tuple(t for t in checks if t[1])
        deg = self.deg

        def down(vec):
            full = vec + [0] * (deg - len(vec))
            for i in zero_rows:
                if full[i]:
                    return None
            src = [full[r] for r in rows]
            y = [sum(c * src[j] for j, c in row) for row in minv]
            for i, terms in checks:
                if sum(c * y[k] for k, c in terms) != D * full[i]:
                    return None
            if D != 1:
                y = [v // D for v in y]
            return _trim(y)

        return down


_field = lru_cache(maxsize=None)(_Field)


def _scan_descent(q: int):
    """Descent to Q(zeta_(n/q)) when q^2 | n: Phi_n(x) = Phi_(n/q)(x^q),
    so vec lies there exactly when only every q-th coordinate is set."""
    def down(vec):
        for r in range(1, q):
            if any(vec[r::q]):
                return None
        return vec[::q]

    return down


def _halving_descent(d: int):
    """Descent from Q(zeta_2d), d odd, to the same field Q(zeta_d): with
    h = (d+1)/2, zeta_d^h squares to zeta_d and equals -zeta_2d, so the
    substitution zeta_2d^k = (-1)^k zeta_d^(kh), reduced mod Phi_d,
    rewrites every element."""
    h = (d + 1) // 2

    def down(vec):
        dense = [0] * d
        for k, c in enumerate(vec):
            if c:
                dense[k * h % d] += -c if k % 2 else c
        return _trim(_reduce(_field(d), dense))

    return down


def _reduce(field: _Field, dense: list[int]) -> list[int]:
    """Reduce an integer polynomial in zeta_n mod Phi_n, in place when
    no folding is needed; the result has length <= deg."""
    n, deg = field.n, field.deg
    if len(dense) > n:
        folded = [0] * n
        for k, c in enumerate(dense):
            if c:
                folded[k % n] += c
        dense = folded
    low = field.low
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            base = i - deg
            for j, pj in low:
                dense[base + j] -= c * pj
    del dense[deg:]
    return dense


def _descend(n: int, vec: list[int]):
    """(conductor, numerator) of the trimmed vector vec of Q(zeta_n)
    after every possible descent."""
    while n > 1:
        if len(vec) <= 1:
            return 1, vec
        for q, down in _field(n).descents:
            got = down(vec)
            if got is not None:
                vec = got
                n //= q
                break
        else:
            break
    return n, vec


def _convolve(a: list[int], b: list[tuple[int, int]]) -> list[int]:
    """The product of the dense polynomial a and the sparse polynomial
    b, given as (exponent, coefficient) pairs."""
    out = [0] * (len(a) + max(j for j, _ in b))
    for j, y in b:
        for i, x in enumerate(a):
            if x:
                out[i + j] += x * y
    return out


def _make(n: int, num, den: int) -> CycScalar:
    s = object.__new__(CycScalar)
    s.n = n
    s.num = num
    s.den = den
    return s


def _canonical(n: int, vec: list[int], den: int, descend: bool = True):
    """The canonical element vec / den of Q(zeta_n), vec reduced mod
    Phi_n and den > 0; descend=False when n is known to be minimal."""
    _trim(vec)
    if descend:
        n, vec = _descend(n, vec)
    g = math.gcd(den, *vec)
    if g != 1:
        den //= g
        vec = [c // g for c in vec]
    return _make(n, tuple(vec), den)


def _rational(p: int, r: int) -> CycScalar:
    """p / r for integers p, r with r != 0."""
    if r < 0:
        p, r = -p, -r
    g = math.gcd(p, r)
    if g != 1:
        p //= g
        r //= g
    return _make(1, (p,) if p else (), r)


class CycScalar:
    """An element of Q(zeta_N) in canonical form: N is the minimal
    conductor, num the trimmed integer coordinates in the power basis
    mod Phi_N, den > 0 with gcd(den, *num) = 1."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, dense: list[Fraction]):
        """The element sum_k dense[k] zeta_n^k, for any rationals."""
        dense = [Fraction(x) for x in dense]
        den = math.lcm(*(x.denominator for x in dense))
        s = CycScalar.from_ints(n, [int(x * den) for x in dense], den)
        self.n, self.num, self.den = s.n, s.num, s.den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(n: int, dense: list[int], den: int = 1) -> CycScalar:
        """The element (sum_k dense[k] zeta_n^k) / den for integers
        dense[k] and den > 0: reduced mod Phi_n, then canonical."""
        if n == 1:
            return _rational(sum(dense), den)
        return _canonical(n, _reduce(_field(n), list(dense)), den)

    @staticmethod
    def rational(q) -> CycScalar:
        if type(q) is int:
            return _make(1, (q,) if q else (), 1)
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return _make(1, (q.numerator,) if q else (), q.denominator)

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ScalarError(f"not rational: {self}")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (self.n == other.n and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def _promoted(self, m: int) -> list[int]:
        """Dense numerator list of self viewed in Q(zeta_m), n | m."""
        step = m // self.n
        dense = [0] * ((len(self.num) - 1) * step + 1)
        dense[::step] = self.num
        return dense

    def __add__(self, other) -> CycScalar:
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.n == 1 and other.n == 1:
            return _rational_sum(self, other, 1)
        m = _lcm_checked(self.n, other.n)
        if self.n == 1 or other.n == 1:
            # adding a rational moves only the constant coordinate and
            # leaves the conductor as it is
            x, q = (other, self) if self.n == 1 else (self, other)
            if not q.num:
                return x
            vec = [c * q.den for c in x.num]
            vec[0] += q.num[0] * x.den
            return _canonical(m, vec, x.den * q.den, descend=False)
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        den = da * fa
        a, b = self._promoted(m), other._promoted(m)
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        vec = [c * fa for c in a]
        for k, c in enumerate(b):
            if c:
                vec[k] += c * fb
        if self.n != other.n:
            # a same-conductor sum is already reduced
            vec = _reduce(_field(m), vec)
        return _canonical(m, vec, den)

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return _make(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return _rational_sum(self, other, -1)
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _times_rational(self, p: int, r: int) -> CycScalar:
        """self * p / r for integers p and r > 0: each numerator
        coordinate scaled by p, with no reduction or descent."""
        if not p or not self.num:
            return ZERO
        if self.n == 1:
            return _rational(self.num[0] * p, self.den * r)
        return _canonical(self.n, [c * p for c in self.num],
                          self.den * r, descend=False)

    def __mul__(self, other) -> CycScalar:
        if type(other) is not CycScalar:
            if type(other) is int or type(other) is Fraction:
                # an int or Fraction multiplies as it is; a bool coerces
                return self._times_rational(other.numerator, other.denominator)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if other.n == 1:
            return self._times_rational(
                other.num[0] if other.num else 0, other.den)
        if self.n == 1:
            return other * self
        m = _lcm_checked(self.n, other.n)
        sb = m // other.n
        out = _convolve(self._promoted(m),
                        [(j * sb, y) for j, y in enumerate(other.num) if y])
        return _canonical(m, _reduce(_field(m), out), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        """1/x = y / N(x), y the product of the conjugates sigma_t(x),
        t in (Z/n)^x, t != 1; all of it in integers."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        n, num = self.n, self.num
        if n == 1:
            return _rational(self.den, num[0])
        field = _field(n)
        terms = [(k, c) for k, c in enumerate(num) if c]
        y = [1]
        for t in range(2, n):
            if math.gcd(t, n) == 1:
                y = _reduce(field, _convolve(
                    y, [(t * k % n, c) for k, c in terms]))
        norm = _reduce(field, _convolve(y, terms))[0]
        if norm < 0:
            norm = -norm
            y = [-a for a in y]
        return _canonical(n, [a * self.den for a in y], norm, descend=False)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int) -> CycScalar:
        if e < 0:
            return self.inverse() ** (-e)
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base2 = base * base if e > 1 else base
            base = base2
            e >>= 1
        return result

    # -- roots of unity -----------------------------------------------

    def order(self):
        """Multiplicative order if self is a root of unity, else None."""
        if not self.num:
            return None
        bound = self.n if self.n % 2 == 0 else 2 * self.n
        if self ** bound != ONE:
            return None
        for d in _divisors(bound):
            if self ** d == ONE:
                return d
        return bound

    # -- conversions --------------------------------------------------

    def __complex__(self) -> complex:
        tau = 2.0 * math.pi / self.n
        out = 0j
        for k, c in enumerate(self.num):
            if c:
                out += c / self.den * complex(math.cos(tau * k),
                                              math.sin(tau * k))
        return out

    def __repr__(self):
        return f"CycScalar({self.to_string()})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            mag = Fraction(abs(c), self.den)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}z({self.n})^{k}"
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _coerce(x):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar.rational(x)
    return None


def _rational_sum(a: CycScalar, b: CycScalar, sign: int) -> CycScalar:
    """a + sign * b for rational a and b: one cross-multiplication and
    one gcd, with no reduction, descent or cap."""
    p = a.num[0] if a.num else 0
    r = sign * b.num[0] if b.num else 0
    return _rational(p * b.den + r * a.den, a.den * b.den)


def as_scalar(x) -> CycScalar:
    s = _coerce(x)
    if s is None:
        raise ScalarError(f"cannot interpret {x!r} as a scalar")
    return s


def _lcm_checked(a: int, b: int) -> int:
    m = a * b // math.gcd(a, b)
    if m > CONDUCTOR_CAP:
        raise ConductorOverflow(f"conductor {m} exceeds cap {CONDUCTOR_CAP}")
    return m


def root_of_unity(n: int, k: int = 1) -> CycScalar:
    """zeta_n^k in canonical form, computed once; the cap is read each call."""
    if n < 1:
        raise ScalarError("root order must be positive")
    if n > CONDUCTOR_CAP:
        raise ConductorOverflow(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
    return _root_of_unity(n, k % n)


@lru_cache(maxsize=None)
def _root_of_unity(n: int, k: int) -> CycScalar:
    return _canonical(n, _reduce(_field(n), [0] * k + [1]), 1)


ZERO = CycScalar.rational(0)
ONE = CycScalar.rational(1)


def _rational_nth_root(q: Fraction, r: int) -> Fraction:
    def int_root(m: int) -> int:
        # the floor of m^(1/r) in integers: isqrt, or Newton steps down
        # from a power of two above it
        if r == 2 or m < 2:
            x = math.isqrt(m)
        else:
            x = 1 << -(-m.bit_length() // r)
            while True:
                y = ((r - 1) * x + m // x ** (r - 1)) // r
                if y >= x:
                    break
                x = y
        if x ** r != m:
            raise ScalarError(f"{m} has no exact integer {r}-th root")
        return x

    return Fraction(int_root(q.numerator), int_root(q.denominator))


def _lowest(k: int, n: int):
    """(M, j) with zeta_n^k = zeta_M^j in lowest terms, for 0 <= k < n."""
    g = math.gcd(k, n)
    return n // g, k // g


@lru_cache(maxsize=None)
def _root_table(n: int) -> dict:
    """The roots of unity of minimal conductor n > 1, keyed by their
    numerator tuple: num -> (M, j), zeta_M^j in lowest terms.  They are
    the +-zeta_n^i with conductor n; every root of unity of Q(zeta_n)
    lies on the grid N = n (n even) or N = 2n (n odd)."""
    field = _field(n)
    big = n if n % 2 == 0 else 2 * n
    table = {}
    for i in range(n):
        root = _canonical(n, _reduce(field, [0] * i + [1]), 1)
        if root.n != n:
            continue
        e = i * (big // n)
        table[root.num] = _lowest(e, big)
        if n % 2:
            # -zeta_n^i = zeta_2n^(2i + n); for even n it is zeta_n^i'
            table[tuple(-c for c in root.num)] = _lowest((e + n) % big, big)
    return table


def _positive_root_parts(x: CycScalar):
    """(c, M, j) with x = (c / x.den) * zeta_M^j, c > 0 the content (the
    gcd) of x.num and zeta_M^j in lowest terms, or None when x is not a
    positive rational times a root of unity: one table lookup of the
    primitive numerator num / c."""
    num = x.num
    if not num:
        return None
    if x.n == 1:
        c = num[0]
        return (c, 1, 0) if c > 0 else (-c, 2, 1)
    c = math.gcd(*num)
    if c != 1:
        num = tuple(v // c for v in num)
    root = _root_table(x.n).get(num)
    return None if root is None else (c,) + root


def _pair(q, k: int, n: int) -> RootPair:
    s = object.__new__(RootPair)
    s.q = q
    s.k = k
    s.n = n
    return s


class RootPair:
    """The scalar q * zeta_n^k as the pair (q, k) on the grid n: q > 0
    rational (an int, usually 1, or a Fraction) and 0 <= k < n.

    The grid is not reduced, so values built on one grid multiply by
    adding exponents, invert by negating them and take powers by
    multiplying them; a product of two grids lies on their lcm.
    Equality compares the value, whatever the grids.  The canonical
    r-th root is that of `canonical_root`.  `scalar()` builds the
    CycScalar, and that is where CONDUCTOR_CAP applies: nothing else
    here meets it."""

    __slots__ = ("q", "k", "n")

    def __init__(self, q, k: int, n: int):
        if n < 1:
            raise ScalarError("root order must be positive")
        if q <= 0:
            raise ScalarError("the rational part must be positive")
        self.q = q
        self.k = k % n
        self.n = n

    @staticmethod
    def of(x):
        """x = q * zeta_M^j as a pair on the grid M, or None when x is
        not a positive rational times a root of unity."""
        x = as_scalar(x)
        parts = _positive_root_parts(x)
        if parts is None:
            return None
        c, m, j = parts
        return _pair(c if x.den == 1 else Fraction(c, x.den), j, m)

    def __mul__(self, other) -> RootPair:
        n = self.n
        if other.n == n:
            k = self.k + other.k
            return _pair(self.q * other.q, k - n if k >= n else k, n)
        m = n * other.n // math.gcd(n, other.n)
        return _pair(self.q * other.q,
                     (self.k * (m // n) + other.k * (m // other.n)) % m, m)

    def inverse(self) -> RootPair:
        q = self.q
        return _pair(q if q == 1 else 1 / Fraction(q), -self.k % self.n,
                     self.n)

    def __truediv__(self, other) -> RootPair:
        return self * other.inverse()

    def __pow__(self, e: int) -> RootPair:
        q = self.q
        return _pair(q if q == 1 else Fraction(q) ** e, self.k * e % self.n,
                     self.n)

    def __eq__(self, other) -> bool:
        if type(other) is not RootPair:
            return NotImplemented
        if self.n == other.n:
            return self.k == other.k and self.q == other.q
        return self.k * other.n == other.k * self.n and self.q == other.q

    def __hash__(self):
        return hash((self.q,) + self.lowest())

    def lowest(self):
        """(M, j) with zeta_n^k = zeta_M^j in lowest terms."""
        return _lowest(self.k, self.n)

    def root(self, r: int) -> RootPair:
        """The canonical r-th root q^(1/r) * zeta_(rM)^j of
        q * zeta_M^j (lowest terms), on the grid lcm(n, rM): no new grid
        when r divides gcd(n, k).  Raises ScalarError when q has no
        exact rational r-th root."""
        if r < 1:
            raise ScalarError("root index must be positive")
        q = self.q if self.q == 1 else _rational_nth_root(Fraction(self.q), r)
        m, j = self.lowest()
        rm = r * m
        n = self.n if self.n % rm == 0 else self.n * rm // math.gcd(self.n, rm)
        return _pair(q, j * (n // rm), n)

    def scalar(self) -> CycScalar:
        """The CycScalar of the value; raises ConductorOverflow when the
        order of its root of unity, in lowest terms, exceeds
        CONDUCTOR_CAP."""
        m, j = self.lowest()
        if self.q == 1:
            return root_of_unity(m, j)
        return CycScalar.rational(self.q) * root_of_unity(m, j)

    def __repr__(self):
        return f"RootPair({self.q}, {self.k}, {self.n})"

    def __str__(self):
        return str(self.scalar())


def canonical_root(a: CycScalar, r: int) -> CycScalar:
    """The canonical r-th root of a = q * zeta_M^k: q^(1/r) * zeta_(rM)^k.

    Requires a to be a positive rational times a root of unity, with the
    rational part admitting an exact rational r-th root.
    """
    if r < 1:
        raise ScalarError("root index must be positive")
    a = as_scalar(a)
    pair = RootPair.of(a)
    if pair is None:
        raise ScalarError(f"{a} is not a positive rational times a root of unity")
    return pair.root(r).scalar()


_TERM_RE = re.compile(
    r"^(?:(?P<q>\d+(?:/\d+)?)\*)?z\((?P<n>\d+)\)\^(?P<k>\d+)$|^(?P<plain>\d+(?:/\d+)?)$"
)


def parse_scalar(text: str) -> CycScalar:
    """Parse the report serialization produced by CycScalar.to_string."""
    text = text.strip()
    if text == "0":
        return ZERO
    tokens = re.split(r"\s*([+-])\s*", text)
    if tokens[0] == "":
        tokens = tokens[1:]
    if tokens and tokens[0] in "+-":
        sign = -1 if tokens[0] == "-" else 1
        tokens = tokens[1:]
    else:
        sign = 1
    if len(tokens) % 2 != 1:
        raise ScalarError(f"malformed scalar string: {text!r}")
    total = ZERO
    i = 0
    while i < len(tokens):
        term = tokens[i]
        m = _TERM_RE.match(term)
        if not m:
            raise ScalarError(f"malformed scalar term: {term!r}")
        try:
            q = Fraction(m.group("plain") or m.group("q") or 1)
        except ZeroDivisionError:
            raise ScalarError(f"zero denominator in scalar term: {term!r}")
        value = CycScalar.rational(q)
        if m.group("plain") is None:
            value = value * root_of_unity(int(m.group("n")),
                                          int(m.group("k")))
        total = total + (value if sign == 1 else -value)
        if i + 1 < len(tokens):
            sign = -1 if tokens[i + 1] == "-" else 1
        i += 2
    return total
