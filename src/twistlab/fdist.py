"""Generalized formal-distribution calculus.

Series with rational exponents (denominator dividing a conductor) whose
coefficients live either in a presented Lie algebra (the twisted affine
case) or act as operators on a truncated Fock module.  Products are
computed componentwise through the homogeneous decomposition; the
integral products use the explicit two-sum coefficient formula with
super-signs.  The module also houses the Delta / F_p kernels and the
coefficientwise axiom checker.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalar import CycScalar, ONE, ZERO, as_scalar


class FdistError(Exception):
    pass


class WindowUnderflow(FdistError):
    pass


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()
# memo sentinel: no series coefficient is this object
_MISSING = object()


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _residue(n: Fraction) -> Fraction:
    return n - (n.numerator // n.denominator)


@lru_cache(maxsize=None)
def gen_binom(lam: Fraction, j: int) -> Fraction:
    """Generalized binomial coefficient lam(lam-1)...(lam-j+1)/j!."""
    if j < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(j):
        out *= (lam - i)
        out /= (i + 1)
    return out


# ---------------------------------------------------------------------
# Coefficient algebra (a): linear combinations in a presented Lie algebra
# ---------------------------------------------------------------------

class QuadraticSpace:
    """Graded space with invariant pairing and optional bracket table,
    the input datum for a twisted affine Lie algebra.

    generators: list of names; degrees: list of Fractions in [0, 1);
    pairing: matrix of CycScalar with (g_i|g_j) = 0 unless deg_i+deg_j
    is an integer; bracket: mapping (i, j) -> sequence of (k, CycScalar)
    giving [g_i, g_j] (empty = abelian).
    """

    def __init__(self, names, degrees, pairing, bracket=None):
        self.names = tuple(names)
        self.degrees = tuple(_residue(_frac(d)) for d in degrees)
        self.pairing = tuple(
            tuple(as_scalar(x) for x in row) for row in pairing
        )
        k = len(self.names)
        for i in range(k):
            for j in range(k):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise FdistError("pairing must be symmetric")
                if self.pairing[i][j] and (
                    (self.degrees[i] + self.degrees[j]).denominator != 1
                ):
                    raise FdistError(
                        "pairing must vanish unless degrees sum to an integer"
                    )
        self.bracket_table = {
            key: tuple((k2, as_scalar(c)) for k2, c in val)
            for key, val in (bracket or {}).items()
        }
        for (i, j), val in self.bracket_table.items():
            if i == j and any(c for _, c in val):
                raise FdistError("bracket table must satisfy [g, g] = 0")
            rev = dict(self.bracket_table.get((j, i), ()))
            for k2, c in val:
                if rev.get(k2, ZERO) != -c:
                    raise FdistError("bracket table must be antisymmetric")


class LieElement:
    """Element of the twisted affine Lie algebra: a combination of
    symbols g_i(n) and the central element c."""

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadraticSpace, terms=None):
        self.space = space
        clean = {}
        for key, val in (terms or {}).items():
            val = as_scalar(val)
            if val:
                clean[key] = clean.get(key, ZERO) + val if key in clean else val
        self.terms = {k: v for k, v in clean.items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and self.space is other.space
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return LieElement(self.space, out)

    def __neg__(self):
        return LieElement(self.space, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = as_scalar(s) if not isinstance(s, CycScalar) else s
        if not s:
            return LieElement(self.space)
        return LieElement(self.space, {k: v * s for k, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=str):
            v = self.terms[key]
            if key == "c":
                bits.append(f"({v})*c")
            else:
                i, n = key
                bits.append(f"({v})*{self.space.names[i]}({n})")
        return " + ".join(bits)


class LieAlg:
    """Coefficient algebra of twisted affine symbols over a QuadraticSpace."""

    is_fock = False

    def __init__(self, space: QuadraticSpace):
        self.space = space

    def zero(self) -> LieElement:
        return LieElement(self.space)

    def gen_mode(self, i: int, n) -> LieElement:
        """g_i(n); zero unless n is congruent to the degree of g_i mod 1."""
        n = _frac(n)
        if _residue(n) != self.space.degrees[i]:
            return self.zero()
        return LieElement(self.space, {(i, n): ONE})

    def remember(self, x) -> LieElement:
        """Series coefficients are values here: nothing to remember."""
        return x

    def central(self) -> LieElement:
        return LieElement(self.space, {"c": ONE})

    def bracket(self, x, y):
        if x is UNKNOWN or y is UNKNOWN:
            return UNKNOWN
        out = self.zero()
        sp = self.space
        for kx, cx in x.terms.items():
            if kx == "c":
                continue
            for ky, cy in y.terms.items():
                if ky == "c":
                    continue
                (i, m), (j, n) = kx, ky
                coeff = cx * cy
                for k2, c2 in sp.bracket_table.get((i, j), ()):
                    out = out + self.gen_mode(k2, m + n).scale(coeff * c2)
                if m + n == 0 and sp.pairing[i][j]:
                    out = out + self.central().scale(
                        coeff * sp.pairing[i][j] * Fraction(m)
                    )
        return out

    def integral_product_coeff(self, a, b, ra, rb, n: int, m: int):
        """Coefficient (a0 [n] b0)(m) of the degree-ra and degree-rb
        components a0(k) = a(k + ra), b0(k) = b(k + rb), with Lie
        coefficients: sum_s (-1)^s binom(n,s) [a0(n-s), b0(m+s)]."""
        if n < 0:
            raise FdistError(
                "normal ordering is undefined for Lie-algebra coefficients"
            )
        total = self.zero()
        for s in range(n + 1):
            c = gen_binom(Fraction(n), s)
            if not c:
                continue
            x = a.coeff(n - s + ra)
            y = b.coeff(m + s + rb)
            if x is UNKNOWN or y is UNKNOWN:
                return UNKNOWN
            term = self.bracket(x, y)
            total = total + term.scale(c if s % 2 == 0 else -c)
        return total


# ---------------------------------------------------------------------
# Generalized series
# ---------------------------------------------------------------------

class GenSeries:
    """A series sum_n a(n) z^(-n-1) with exponents on a fractional grid.

    Coefficients are produced lazily by a slot function and memoized,
    each passed once through the coefficient algebra's `remember` (a
    Fock operator then keeps its result per input vector); slots whose
    residue mod 1 is outside `residues` are exactly zero.
    A slot function may return UNKNOWN (outside a truncation window).
    For operator-valued series, `shift_base` c records that the
    coefficient at slot n shifts module degree by exactly c - n; it is
    required for the normally-ordered infinite sums to terminate.
    """

    def __init__(self, alg, fn, residues, parity: int = 0, shift_base=None):
        self.alg = alg
        self._fn = fn
        self.residues = frozenset(_residue(_frac(r)) for r in residues)
        self.parity = parity % 2
        self.shift_base = _frac(shift_base) if shift_base is not None else None
        self._memo = {}

    def coeff(self, n):
        n = _frac(n)
        # off-residue slots never enter the memo, so a hit is on a residue
        x = self._memo.get(n, _MISSING)
        if x is not _MISSING:
            return x
        if _residue(n) not in self.residues:
            return self.alg.zero()
        x = self._fn(n)
        if x is not UNKNOWN:
            x = self.alg.remember(x)
        self._memo[n] = x
        return x

    @classmethod
    def from_dict(cls, alg, entries, lo=None, hi=None, parity=0,
                  shift_base=None):
        """Windowed series: explicit coefficients, zero elsewhere inside
        [lo, hi] (on the listed residues), UNKNOWN outside the window."""
        entries = {_frac(k): v for k, v in entries.items()}
        residues = {_residue(k) for k in entries} or {Fraction(0)}
        lo = _frac(lo) if lo is not None else None
        hi = _frac(hi) if hi is not None else None

        def fn(n):
            if (lo is not None and n < lo) or (hi is not None and n > hi):
                return UNKNOWN
            return entries.get(n, alg.zero())

        return cls(alg, fn, residues, parity=parity, shift_base=shift_base)

    def shift(self, e):
        """z^e times the series."""
        e = _frac(e)
        return GenSeries(
            self.alg,
            lambda n: self.coeff(n + e),
            {r - e for r in self.residues},
            parity=self.parity,
            shift_base=self.shift_base - e if self.shift_base is not None else None,
        )

    def _combine(self, other, op):
        if self.alg is not other.alg:
            raise FdistError("series live over different coefficient algebras")
        if self.parity != other.parity:
            raise FdistError("cannot add series of different parity")
        sb = None
        if self.shift_base is not None and other.shift_base is not None:
            if self.shift_base != other.shift_base:
                raise FdistError(
                    "cannot add operator series with different degree shifts"
                )
            sb = self.shift_base

        def fn(n):
            x, y = self.coeff(n), other.coeff(n)
            if x is UNKNOWN or y is UNKNOWN:
                return UNKNOWN
            return op(x, y)

        return GenSeries(self.alg, fn, self.residues | other.residues,
                         parity=self.parity, shift_base=sb)

    def __add__(self, other):
        return self._combine(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._combine(other, lambda x, y: x - y)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = s if isinstance(s, CycScalar) else as_scalar(s)

        def fn(n):
            x = self.coeff(n)
            return x if x is UNKNOWN else x.scale(s)

        return GenSeries(self.alg, fn, self.residues, parity=self.parity,
                         shift_base=self.shift_base)


def zero_series(alg, parity: int = 0):
    return GenSeries(alg, lambda n: alg.zero(), {Fraction(0)}, parity=parity,
                     shift_base=None)


def sum_series(alg, terms, parity: int = 0):
    """Fold a possibly empty list of series into one."""
    out = None
    for t in terms:
        out = t if out is None else out + t
    return out if out is not None else zero_series(alg, parity)


def nth_product(a: GenSeries, b: GenSeries, n: int, locality: int) -> GenSeries:
    """The n-th product via the homogeneous-component expansion:
    contributions binom(-rho_a, j) (a_0 [n+j] b_0) shifted by
    z^(-rho_a - rho_b - j), the j-sum cut off by the locality order."""
    alg = a.alg
    if a.alg is not b.alg:
        raise FdistError("series live over different coefficient algebras")
    pairs = [(ra, rb) for ra in sorted(a.residues) for rb in sorted(b.residues)]
    residues = {_residue(ra + rb) for ra, rb in pairs} or {Fraction(0)}
    parity = (a.parity + b.parity) % 2
    if a.shift_base is not None and b.shift_base is not None:
        shift_base = a.shift_base + b.shift_base - n
    else:
        shift_base = None

    def fn(t):
        total = alg.zero()
        for ra, rb in pairs:
            for j in range(max(0, locality - n)):
                mp = t - ra - rb - j
                if mp.denominator != 1:
                    continue
                coef = gen_binom(-ra, j)
                if not coef:
                    continue
                term = alg.integral_product_coeff(a, b, ra, rb, n + j, int(mp))
                if term is UNKNOWN:
                    return UNKNOWN
                total = total + term.scale(coef)
        return total

    return GenSeries(alg, fn, residues, parity=parity, shift_base=shift_base)


def derive(a: GenSeries) -> GenSeries:
    """d/dz of the series: (Da)(m) = -m a(m-1)."""
    def fn(m):
        x = a.coeff(m - 1)
        if x is UNKNOWN:
            return UNKNOWN
        return x.scale(-m)

    sb = a.shift_base + 1 if a.shift_base is not None else None
    return GenSeries(a.alg, fn, a.residues, parity=a.parity, shift_base=sb)


def iterated_derive(a: GenSeries, i: int) -> GenSeries:
    for _ in range(i):
        a = derive(a)
    return a


def lie_from_products(a: GenSeries, b: GenSeries, m, n, locality: int):
    """Bracket recovery: returns ([a(m), b(n)] direct,
    sum_s binom(m,s) (a [s] b)(m+n-s))."""
    m, n = _frac(m), _frac(n)
    direct = a.alg.bracket(a.coeff(m), b.coeff(n))
    total = a.alg.zero()
    for s in range(max(0, locality)):
        c = gen_binom(m, s)
        if not c:
            continue
        term = nth_product(a, b, s, locality).coeff(m + n - s)
        if term is UNKNOWN or total is UNKNOWN:
            total = UNKNOWN
            break
        total = total + term.scale(c)
    return direct, total


def locality_test(a: GenSeries, b: GenSeries, N: int, slots, probes=None) -> bool:
    """True iff sum_s (-1)^s binom(N,s) [a(n-s), b(m+s)] = 0 for every
    sampled (n, m); raises WindowUnderflow on untestable slots."""
    alg = a.alg
    for n, m in slots:
        n, m = _frac(n), _frac(m)
        total = alg.zero()
        for s in range(N + 1):
            c = gen_binom(Fraction(N), s)
            x, y = a.coeff(n - s), b.coeff(m + s)
            if x is UNKNOWN or y is UNKNOWN:
                raise WindowUnderflow(f"locality sum untestable at ({n},{m})")
            term = alg.bracket(x, y)
            total = total + term.scale(c if s % 2 == 0 else -c)
        verdict = coeff_is_zero(alg, total, probes)
        if verdict == "untestable":
            raise WindowUnderflow(f"locality sum untestable at ({n},{m})")
        if verdict == "fail":
            return False
    return True


# ---------------------------------------------------------------------
# Verdicts and comparison helpers
# ---------------------------------------------------------------------

def worst_status(statuses) -> str:
    """The worst of the verdicts, ranked fail > untestable > pass
    ('pass' for none); stops at the first 'fail'."""
    out = "pass"
    for s in statuses:
        if s == "fail":
            return s
        if s == "untestable":
            out = s
    return out


def vector_status(v) -> str:
    """Verdict that a Fock vector is exactly zero: 'untestable' if it is
    poisoned (it left the truncation window), else 'fail' if nonzero."""
    if v.poisoned:
        return "untestable"
    return "pass" if v.is_zero() else "fail"


def coeff_is_zero(alg, x, probes=None) -> str:
    """'pass' / 'fail' / 'untestable' verdict that x is exactly zero."""
    if x is UNKNOWN:
        return "untestable"
    if not alg.is_fock:
        return "pass" if x.is_zero() else "fail"
    if probes is None:
        raise FdistError("operator comparison requires probe vectors")
    return worst_status(vector_status(x.apply(v)) for v in probes)


def series_compare(s1: GenSeries, s2: GenSeries, slots, probes=None):
    """Per-slot verdicts that s1 and s2 agree; returns list of
    (slot, verdict)."""
    out = []
    for t in slots:
        t = _frac(t)
        x, y = s1.coeff(t), s2.coeff(t)
        if x is UNKNOWN or y is UNKNOWN:
            out.append((t, "untestable"))
            continue
        out.append((t, coeff_is_zero(s1.alg, x - y, probes)))
    return out


def compare_status(pairs) -> str:
    """The worst verdict of series_compare's (slot, verdict) pairs."""
    return worst_status(v for _, v in pairs)


# ---------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------

def verify_axioms(family, which, slots, locality, probes=None):
    """Coefficientwise axiom checks on a family of named series.

    family: list of (name, GenSeries); which: iterable of axiom tags
    among C1, C2, C3, C4, V2, V3, V4; slots: exponents to test;
    locality: callable (name_a, name_b) -> locality order.
    Returns a list of (tag, instance, status) lines; slots outside
    windows yield 'untestable', never 'passed'.
    """
    report = []
    named = list(family)

    def prod(sa, sb, n, na, nb):
        return nth_product(sa, sb, n, locality(na, nb))

    for tag in which:
        if tag == "C1":
            for na, sa in named:
                for nb, sb in named:
                    n0 = locality(na, nb)
                    for n in (n0, n0 + 1):
                        # compute with a larger cutoff so vanishing at the
                        # claimed locality order is a real check
                        pairs = series_compare(
                            nth_product(sa, sb, n, n0 + 3),
                            zero_series(sa.alg), slots, probes)
                        report.append(
                            (tag, f"{na}[{n}]{nb} = 0", compare_status(pairs)))
        elif tag == "C2":
            for na, sa in named:
                for nb, sb in named:
                    for n in range(0, locality(na, nb) + 1):
                        lhs = derive(prod(sa, sb, n, na, nb))
                        rhs = (prod(derive(sa), sb, n, na, nb)
                               + prod(sa, derive(sb), n, na, nb))
                        pairs = series_compare(lhs, rhs, slots, probes)
                        report.append(
                            (tag, f"D({na}[{n}]{nb}) Leibniz",
                             compare_status(pairs)))
        elif tag == "C3":
            for na, sa in named:
                for nb, sb in named:
                    nloc = locality(na, nb)
                    for n in range(0, nloc + 1):
                        lhs = prod(sa, sb, n, na, nb)
                        sign = -1 if (sa.parity and sb.parity) else 1
                        terms = []
                        for i in range(nloc - n + 1):
                            term = iterated_derive(
                                prod(sb, sa, n + i, nb, na), i
                            ).scale(Fraction(
                                (-1) ** (n + i + 1) * sign, _factorial(i)))
                            terms.append(term)
                        rhs = sum_series(sa.alg, terms, parity=lhs.parity)
                        pairs = series_compare(lhs, rhs, slots, probes)
                        report.append(
                            (tag, f"quasisymmetry {na}[{n}]{nb}",
                             compare_status(pairs)))
        elif tag in ("C4", "V3"):
            for na, sa in named:
                for nb, sb in named:
                    for nc, sc in named:
                        low = 0 if tag == "C4" else -1
                        for n in range(low, locality(na, nb) + 1):
                            for m in range(0, 2):
                                status = _assoc_check(
                                    sa, sb, sc, n, m, locality, na, nb, nc,
                                    slots, probes)
                                report.append(
                                    (tag,
                                     f"({na}[{n}]{nb})[{m}]{nc}", status))
        elif tag == "V4":
            for na, sa in named:
                for nb, sb in named:
                    for nc, sc in named:
                        for m in range(0, 2):
                            for n in range(0, 2):
                                status = _comm_check(
                                    sa, sb, sc, m, n, locality, na, nb, nc,
                                    slots, probes)
                                report.append(
                                    (tag,
                                     f"[{na}({m}),{nb}({n})]{nc}", status))
        else:
            raise FdistError(f"unknown axiom tag {tag}")
    return report


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _assoc_check(sa, sb, sc, n, m, loc, na, nb, nc, slots, probes):
    """V3 / C4: (a[n]b)[m]c = sum_i (-1)^i binom(n,i) a[n-i](b[m+i]c)
    - (-1)^(p_a p_b) sum_{i<=n} (-1)^i binom(n, n-i) b[m+i](a[n-i]c)."""
    nab = loc(na, nb)
    nac = loc(na, nc)
    nbc = loc(nb, nc)
    lhs_inner = nth_product(sa, sb, n, nab)
    # locality of a[n]b with c: bounded by nac + nbc (safe overestimate)
    lhs = nth_product(lhs_inner, sc, m, nac + nbc)
    alg = sa.alg
    sign = -1 if (sa.parity and sb.parity) else 1
    terms = []
    # first sum: binom(n,i) vanishes for i > n when n >= 0; for n < 0 the
    # cutoff comes from b[m+i]c = 0 once m + i >= nbc.
    imax = n if n >= 0 else max(0, nbc - m - 1)
    for i in range(0, imax + 1):
        c1 = gen_binom(Fraction(n), i)
        if not c1:
            continue
        term = nth_product(sa, nth_product(sb, sc, m + i, nbc), n - i, nac)
        terms.append(term.scale(c1 if i % 2 == 0 else -c1))
    # second sum: i <= n; for n < 0 cut off by a[n-i]c = 0 once n-i >= nac
    low = n - nac + 1 if n < 0 else 0
    for i in range(low, n + 1):
        c2 = gen_binom(Fraction(n), n - i)
        if not c2:
            continue
        term = nth_product(sb, nth_product(sa, sc, n - i, nac), m + i, nbc)
        terms.append(term.scale(-sign * (c2 if i % 2 == 0 else -c2)))
    rhs = sum_series(alg, terms, parity=lhs.parity)
    pairs = series_compare(lhs, rhs, slots, probes)
    return compare_status(pairs)


def _comm_check(sa, sb, sc, m, n, loc, na, nb, nc, slots, probes):
    """V4: a[m](b[n]c) - (-1)^(p_a p_b) b[n](a[m]c)
    = sum_i binom(m,i) (a[i]b)[m+n-i]c, for m, n >= 0."""
    nab = loc(na, nb)
    nac = loc(na, nc)
    nbc = loc(nb, nc)
    sign = -1 if (sa.parity and sb.parity) else 1
    lhs = nth_product(sa, nth_product(sb, sc, n, nbc), m, nac)
    second = nth_product(sb, nth_product(sa, sc, m, nac), n, nbc)
    lhs = lhs - second.scale(sign)
    alg = sa.alg
    terms = []
    for i in range(0, nab):
        c1 = gen_binom(Fraction(m), i)
        if not c1:
            continue
        term = nth_product(nth_product(sa, sb, i, nab), sc, m + n - i,
                           nac + nbc)
        terms.append(term.scale(c1))
    rhs = sum_series(alg, terms, parity=lhs.parity)
    pairs = series_compare(lhs, rhs, slots, probes)
    return compare_status(pairs)


# ---------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------

class KernelPoly:
    """Laurent polynomial in w^(1/p), z^(1/p) with rational coefficients.
    Keys are pairs (i, j) meaning w^(i/p) z^(j/p)."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        self.terms = {k: _frac(v) for k, v in (terms or {}).items() if v}

    @classmethod
    def monomial(cls, p, i, j, coeff=1):
        return cls(p, {(i, j): _frac(coeff)})

    def __eq__(self, other):
        return (
            isinstance(other, KernelPoly)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return KernelPoly(self.p, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - v
        return KernelPoly(self.p, out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return KernelPoly(self.p, out)

    def __pow__(self, e: int):
        if e < 0:
            raise FdistError("kernel polynomials only admit nonnegative powers")
        out = KernelPoly(self.p, {(0, 0): 1})
        for _ in range(e):
            out = out * self
        return out

    def scale(self, s):
        return KernelPoly(self.p, {k: v * _frac(s) for k, v in self.terms.items()})

    def restrict_diagonal(self):
        """Substitute w^(1/p) = z^(1/p); returns dict j -> coefficient of
        z^(j/p)."""
        out = {}
        for (i, j), v in self.terms.items():
            out[i + j] = out.get(i + j, Fraction(0)) + v
        return {k: v for k, v in out.items() if v}

    def exponents(self):
        """Terms as (w-exponent, z-exponent, coeff) with Fraction exponents."""
        return [
            (Fraction(i, self.p), Fraction(j, self.p), v)
            for (i, j), v in sorted(self.terms.items())
        ]


def kernel_F(p: int, m: int) -> KernelPoly:
    """The polynomial F_p(m), from its displayed double-sum formula."""
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
            # exponents in 1/p units: w^((m-l+1)/p - 1), z^(l/p - m)
            out[(m - l + 1 - p, l - m * p)] = total
    return KernelPoly(p, out)


def _binom_expand_w_minus_z(p: int, j: int) -> KernelPoly:
    """(w - z)^j as a KernelPoly, j >= 0."""
    out = {}
    for i in range(j + 1):
        c = gen_binom(Fraction(j), i) * ((-1) ** i)
        out[((j - i) * p, i * p)] = c
    return KernelPoly(p, out)


def kernel_Delta(p: int, n: int, N: int) -> KernelPoly:
    """Delta(w, z) from its definition: sum over degrees q/p and
    0 <= j <= N-n-1 of binom(-q/p, j) w^(q/p) z^(-q/p-j) (w-z)^j."""
    out = KernelPoly(p)
    for q in range(p):
        for j in range(0, N - n):
            c = gen_binom(Fraction(-q, p), j)
            if not c:
                continue
            mono = KernelPoly.monomial(p, q, -q - j * p, c)
            out = out + mono * _binom_expand_w_minus_z(p, j)
    return out


def prefactor(p: int) -> KernelPoly:
    """(w - z)/(w^(1/p) - z^(1/p)) = sum_i w^(i/p) z^((p-1-i)/p)."""
    return KernelPoly(p, {(i, p - 1 - i): 1 for i in range(p)})


def kernel_Delta_via_F(p: int, n: int, N: int) -> KernelPoly:
    """Delta(w, z) through the F_p factorization."""
    m = N - n - 1
    if m < 0:
        return KernelPoly(p)
    return prefactor(p) ** (m + 1) * kernel_F(p, m)


def kernel_delta_check(p: int, n: int, N: int):
    """Cross-check the two Delta computations; returns (agree, d1, d2)."""
    d1 = kernel_Delta(p, n, N)
    d2 = kernel_Delta_via_F(p, n, N)
    return d1 == d2, d1, d2


def nth_product_kernel(a: GenSeries, b: GenSeries, n: int, locality: int,
                       kernel: KernelPoly) -> GenSeries:
    """Product through the residue formula with an explicit kernel:
    (a [n] b)(z) = Res_w (a(w)b(z) i_{w,z}(w-z)^n
                          - (-1)^(p_a p_b) b(z)a(w) i_{z,w}(w-z)^n) K(w,z).

    The slot-t coefficient applied to a vector terminates because the
    inner i-sums hit annihilation bounds (operator case); for Lie
    coefficients a brackets-free composition is meaningless, so this
    route requires operator coefficients.
    """
    alg = a.alg
    if not alg.is_fock:
        raise FdistError("kernel product route requires operator coefficients")
    terms = kernel.exponents()
    parity = (a.parity + b.parity) % 2
    sign = -1 if (a.parity and b.parity) else 1
    if a.shift_base is None or b.shift_base is None:
        raise FdistError("kernel product route requires degree shifts")
    shift_base = a.shift_base + b.shift_base - n
    residues = {
        _residue(ra + rb) for ra in a.residues for rb in b.residues
    }
    # kernel may move slots off the naive grid; include its shifts
    residues = {
        _residue(r - u - v) for r in residues for (u, v, _c) in terms
    } | residues

    def fn(t):
        return alg.residue_product_coeff(a, b, n, t, terms, sign)

    return GenSeries(alg, fn, residues, parity=parity, shift_base=shift_base)


def weight(phi: GenSeries, d_op, slots, probes):
    """Weight of an operator series against a module operator D:
    the scalar lam with (d/dz)phi - [D, phi] = lam z^(-1) phi, slotwise
    on the probes; returns the string 'not homogeneous' on failure."""
    alg = phi.alg
    if not alg.is_fock:
        raise FdistError("weight requires operator coefficients")
    dphi = derive(phi)
    lam = None
    tested = False
    for n in slots:
        n = _frac(n)
        pc = phi.coeff(n)
        delta = dphi.coeff(n) + pc.compose(d_op) - d_op.compose(pc)
        rhs_op = phi.coeff(n - 1)
        for v in probes:
            lv = delta.apply(v)
            rv = rhs_op.apply(v)
            if lv.poisoned or rv.poisoned:
                continue
            if rv.is_zero():
                if not lv.is_zero():
                    return "not homogeneous"
                continue
            ratio = lv.ratio_to(rv)
            if ratio is None:
                return "not homogeneous"
            if lam is None:
                lam = ratio
            elif lam != ratio:
                return "not homogeneous"
            tested = True
    if not tested and lam is None:
        raise WindowUnderflow("no slot/probe pair determines the weight")
    return lam
