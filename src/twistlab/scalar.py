"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in a canonical form: the coefficient vector is reduced
modulo the N-th cyclotomic polynomial and the conductor N is minimized, so
two equal elements always have identical representations.
"""
from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from functools import lru_cache

DEFAULT_CONDUCTOR_CAP = 720


class ScalarError(Exception):
    pass


class ConductorOverflow(ScalarError):
    pass


def conductor_cap() -> int:
    value = os.environ.get("TWISTLAB_CONDUCTOR_CAP")
    return int(value) if value else DEFAULT_CONDUCTOR_CAP


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


def _reduce_mod_phi(n: int, dense: list[Fraction]) -> dict[int, Fraction]:
    """Reduce a polynomial in zeta_n (dense coeff list) mod Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    dense = list(dense)
    # first fold exponents mod n (zeta_n^n = 1)
    if len(dense) > n:
        folded = [Fraction(0)] * n
        for k, c in enumerate(dense):
            folded[k % n] += c
        dense = folded
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            for j in range(deg + 1):
                dense[i - deg + j] -= c * phi[j]
    return {k: c for k, c in enumerate(dense[:deg]) if c}


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve rows * x = rhs over Q; return solution list or None."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


@lru_cache(maxsize=None)
def _subfield_basis_images(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Images of the power basis of Q(zeta_d) inside Q(zeta_n), d | n.

    Row i = coefficient vector (length phi(n)) of zeta_d^k for column k.
    Returned as rows of the matrix M with M[i][k].
    """
    degn = len(cyclotomic_poly(n)) - 1
    degd = len(cyclotomic_poly(d)) - 1
    cols = []
    step = n // d
    for k in range(degd):
        red = _reduce_mod_phi(n, [Fraction(0)] * (k * step) + [Fraction(1)])
        cols.append([red.get(i, Fraction(0)) for i in range(degn)])
    rows = tuple(
        tuple(cols[k][i] for k in range(degd)) for i in range(degn)
    )
    return rows


def _minimize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    while n > 1:
        if not coeffs or set(coeffs) == {0}:
            return 1, coeffs
        degn = len(cyclotomic_poly(n)) - 1
        vec = [coeffs.get(i, Fraction(0)) for i in range(degn)]
        descended = False
        for q in {p for p in _prime_factors(n)}:
            d = n // q
            rows = [list(r) for r in _subfield_basis_images(n, d)]
            sol = _solve_linear(rows, vec)
            if sol is not None:
                n = d
                coeffs = {k: c for k, c in enumerate(sol) if c}
                descended = True
                break
        if not descended:
            return n, coeffs
    return n, coeffs


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
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
    return tuple(out)


class CycScalar:
    """An element of Q(zeta_N) in canonical (conductor-minimal) form."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, dense: list[Fraction], _canonical: bool = False):
        if _canonical:
            self.n = n
            self.c = dense  # already a reduced dict
            return
        coeffs = _reduce_mod_phi(n, [Fraction(x) for x in dense])
        n, coeffs = _minimize(n, coeffs)
        self.n = n
        self.c = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q) -> CycScalar:
        q = Fraction(q)
        return CycScalar(1, {0: q} if q else {}, _canonical=True)

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_rational(self) -> bool:
        return self.n == 1

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ScalarError(f"not rational: {self}")
        return self.c.get(0, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, frozenset(self.c.items())))

    # -- arithmetic ---------------------------------------------------

    def _promoted(self, m: int) -> list[Fraction]:
        """Dense coefficient list of self viewed in Q(zeta_m), n | m."""
        step = m // self.n
        dense = [Fraction(0)] * m
        for k, c in self.c.items():
            dense[k * step] += c
        return dense

    def __add__(self, other) -> CycScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return _rational_sum(self, other.c.get(0, 0))
        m = _lcm_checked(self.n, other.n)
        a = self._promoted(m)
        for k, c in enumerate(other._promoted(m)):
            a[k] += c
        return CycScalar(m, a)

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return CycScalar(self.n, {k: -c for k, c in self.c.items()}, _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return _rational_sum(self, -other.c.get(0, 0))
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> CycScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.n == 1:
            q = other.c.get(0, Fraction(0))
            if not q:
                return ZERO
            return CycScalar(self.n, {k: c * q for k, c in self.c.items()},
                             _canonical=True)
        if self.n == 1:
            return other * self
        m = _lcm_checked(self.n, other.n)
        a = self._promoted(m)
        b = other._promoted(m)
        out = [Fraction(0)] * (2 * m)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return CycScalar(m, out)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        if not self.c:
            raise ZeroDivisionError("inverse of zero scalar")
        if self.n == 1:
            return CycScalar.rational(1 / self.c[0])
        phi = [Fraction(x) for x in cyclotomic_poly(self.n)]
        deg = len(phi) - 1
        a = [self.c.get(i, Fraction(0)) for i in range(deg)]
        # extended Euclid in Q[x]: s*a + t*phi = gcd = const
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0, t1 = [Fraction(1)], [Fraction(0)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        # r0 is a nonzero constant gcd; inverse of a mod phi is s0/r0
        const = r0[0]
        inv = [x / const for x in s0]
        return CycScalar(self.n, inv)

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
        if not self.c:
            return None
        bound = self.n if self.n % 2 == 0 else 2 * self.n
        if self ** bound != ONE:
            return None
        for d in _divisors(bound):
            if self ** d == ONE:
                return d
        return bound

    def decompose_positive_root(self):
        """Write self = q * u with q > 0 rational and u a root of unity.

        Returns (q, M, k) with u = zeta_M^k in lowest form, or None if
        self is not of that shape.
        """
        if not self.c:
            return None
        if self.n == 1:
            q = self.c[0]
            if q > 0:
                return q, 1, 0
            return -q, 2, 1
        n = self.n
        units = [(j, False) for j in range(n)]
        if n % 2 == 1:
            units += [(j, True) for j in range(n)]
        for j, negate in units:
            u = root_of_unity(n, j)
            if negate:
                u = -u
            b = self * u.inverse()
            if b.n == 1:
                q = b.c.get(0, Fraction(0))
                if q > 0:
                    m = u.order()
                    for k in range(m):
                        if math.gcd(k, m) == 1 or (k == 0 and m == 1):
                            if root_of_unity(m, k) == u:
                                return q, m, k
        return None

    # -- conversions --------------------------------------------------

    def __complex__(self) -> complex:
        tau = 2.0 * math.pi / self.n
        out = 0j
        for k, c in self.c.items():
            out += float(c) * complex(math.cos(tau * k), math.sin(tau * k))
        return out

    def __repr__(self):
        return f"CycScalar({self.to_string()})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c):
            q = self.c[k]
            if k == 0:
                body = str(abs(q))
            else:
                mag = abs(q)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}z({self.n})^{k}"
            parts.append(("-" if q < 0 else "+", body))
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


def _rational_sum(a: CycScalar, q) -> CycScalar:
    """a + q for rational a and q: a conductor-1 result needs no
    reduction, no conductor minimization and no cap."""
    q = a.c.get(0, 0) + q
    return CycScalar(1, {0: q} if q else {}, _canonical=True)


def as_scalar(x) -> CycScalar:
    s = _coerce(x)
    if s is None:
        raise ScalarError(f"cannot interpret {x!r} as a scalar")
    return s


def _lcm_checked(a: int, b: int) -> int:
    m = a * b // math.gcd(a, b)
    cap = conductor_cap()
    if m > cap:
        raise ConductorOverflow(f"conductor {m} exceeds cap {cap}")
    return m


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    db = max(i for i, c in enumerate(b) if c)
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - db)
    lead = b[db]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / lead
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return q, a


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


@lru_cache(maxsize=None)
def root_of_unity(n: int, k: int = 1) -> CycScalar:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ScalarError("root order must be positive")
    if n > conductor_cap():
        raise ConductorOverflow(f"conductor {n} exceeds cap {conductor_cap()}")
    k %= n
    dense = [Fraction(0)] * (k + 1)
    dense[k] = Fraction(1)
    return CycScalar(n, dense)


ZERO = CycScalar.rational(0)
ONE = CycScalar.rational(1)


def _rational_nth_root(q: Fraction, r: int) -> Fraction:
    def int_root(m: int) -> int:
        if m in (0, 1):
            return m
        x = round(m ** (1.0 / r))
        for cand in (x - 1, x, x + 1):
            if cand >= 0 and cand ** r == m:
                return cand
        raise ScalarError(f"{m} has no exact integer {r}-th root")

    return Fraction(int_root(q.numerator), int_root(q.denominator))


def canonical_root(a: CycScalar, r: int) -> CycScalar:
    """The canonical r-th root of a = q * zeta_M^k: q^(1/r) * zeta_(rM)^k.

    Requires a to be a positive rational times a root of unity, with the
    rational part admitting an exact rational r-th root.
    """
    if r < 1:
        raise ScalarError("root index must be positive")
    a = as_scalar(a)
    data = a.decompose_positive_root()
    if data is None:
        raise ScalarError(f"{a} is not a positive rational times a root of unity")
    q, m, k = data
    qr = _rational_nth_root(q, r)
    return CycScalar.rational(qr) * root_of_unity(r * m, k)


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
    if tokens[0] in "+-":
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
        if m.group("plain") is not None:
            value = CycScalar.rational(Fraction(m.group("plain")))
        else:
            q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
            value = CycScalar.rational(q) * root_of_unity(
                int(m.group("n")), int(m.group("k"))
            )
        total = total + (value if sign == 1 else -value)
        if i + 1 < len(tokens):
            sign = -1 if tokens[i + 1] == "-" else 1
        i += 2
    return total
