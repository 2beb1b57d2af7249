"""Generalized formal-distribution calculus.

Series with rational exponents (denominator dividing a conductor) whose
coefficients act as operators on a truncated Fock module: a series
holds its module, the operators on it are the one coefficient algebra,
and a verdict on a coefficient is read on probe vectors.  Every
exponent a series meets lies on one grid (1/D)Z, fixed by the module,
so inside a series a slot n is the integer n*D: a series is built on
that grid, residues, shift and slot function alike, and only `coeff`
and `shift` take a rational.  Products are computed componentwise
through the homogeneous decomposition; the integral products use the
explicit two-sum coefficient formula with super-signs.  The module
also houses the Delta / F_p kernels and the coefficientwise axiom
checker.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalar import CycScalar, ONE, as_scalar


class FdistError(Exception):
    pass


# memo sentinel: no series coefficient is this object
_MISSING = object()


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def grid_slot(x, grid: int):
    """x times grid as an int, for an int or Fraction x on the grid
    (1/grid)Z; None for x off it.  Every rational slot, shift or mode
    becomes an integer here."""
    if type(x) is int:
        return x * grid
    x = _frac(x)
    q, off = divmod(grid, x.denominator)
    return None if off else x.numerator * q


def _on_grid(x, grid: int) -> int:
    """grid_slot, refusing an x off the grid: a series has no other."""
    k = grid_slot(x, grid)
    if k is None:
        raise FdistError(
            f"{x} is off the grid (1/{grid})Z of the module")
    return k


def _int_binom(n: int, k: int) -> int:
    """binom(n, k) for integers n and k: zero for k < 0, and
    (-1)^k binom(k - n - 1, k) for n < 0."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    c = math.comb(k - n - 1, k)
    return -c if k % 2 else c


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
# Generalized series
# ---------------------------------------------------------------------

class GenSeries:
    """A series sum_n a(n) z^(-n-1) with exponents on a fractional grid.

    Coefficients are operators on the series' Fock module, produced
    lazily by a slot function and memoized, each remembered once
    (FockOp.remembered: it then keeps its result per input vector).

    Slots live on the module's grid (1/grid)Z, and inside a series a
    slot n is the integer k = n*grid (grid_slot).  The one constructor
    takes everything on that grid: the slot function `fn` gets k, the
    residues `res_k` are the k mod grid of the slots that may be
    nonzero (every other slot is exactly zero), and `shift_k`, when
    given, records that the coefficient at slot k shifts module degree
    by exactly (shift_k - k)/grid; it is required for the
    normally-ordered infinite sums to terminate.  The memo is keyed by
    k, and `_at(k)` reads a coefficient.  Fraction enters only at the
    edge: `coeff` takes an int or a Fraction slot, and `shift` an int
    or a Fraction exponent, refused when it is off the grid.
    """

    def __init__(self, module, fn, res_k, parity: int = 0, shift_k=None):
        self.module = module
        self.grid = module.grid
        self._fn = fn
        self.res_k = frozenset(res_k)
        self.parity = parity % 2
        self.shift_k = shift_k
        # a memo by hand: the benchmark's tracer reads series._memo
        self._memo = {}

    def coeff(self, n):
        """The coefficient at slot n, an int or a Fraction; a slot off
        the grid has no residue of the series, so it is zero."""
        k = grid_slot(n, self.grid)
        if k is None:
            return self.module.zero_op(self.parity)
        return self._at(k)

    def _at(self, k):
        """The coefficient at the integer slot k on the grid."""
        # off-residue slots never enter the memo, so a hit is on a residue
        x = self._memo.get(k, _MISSING)
        if x is not _MISSING:
            return x
        if k % self.grid not in self.res_k:
            return self.module.zero_op(self.parity)
        x = self._memo[k] = self._fn(k).remembered()
        return x

    def shift(self, e):
        """z^e times the series, for e on the module's grid."""
        grid = self.grid
        ek = _on_grid(e, grid)
        return GenSeries(
            self.module, lambda k: self._at(k + ek),
            {(r - ek) % grid for r in self.res_k}, self.parity,
            self.shift_k - ek if self.shift_k is not None else None)

    def _combine(self, other, op):
        mod = _one_module(self, other)
        if self.parity != other.parity:
            raise FdistError("cannot add series of different parity")
        sb = None
        if self.shift_k is not None and other.shift_k is not None:
            if self.shift_k != other.shift_k:
                raise FdistError(
                    "cannot add operator series with different degree shifts"
                )
            sb = self.shift_k

        return GenSeries(mod, lambda k: op(self._at(k), other._at(k)),
                         self.res_k | other.res_k, self.parity, sb)

    def __add__(self, other):
        return self._combine(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._combine(other, lambda x, y: x - y)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = s if isinstance(s, CycScalar) else as_scalar(s)
        return GenSeries(self.module, lambda k: self._at(k).scale(s),
                         self.res_k, self.parity, self.shift_k)


def zero_series(module, parity: int = 0):
    return GenSeries(module, lambda k: module.zero_op(parity), {0}, parity)


def sum_series(module, terms, parity: int = 0):
    """Fold a possibly empty list of series into one."""
    out = None
    for t in terms:
        out = t if out is None else out + t
    return out if out is not None else zero_series(module, parity)


def _one_module(a: GenSeries, b: GenSeries):
    """The module, and so the grid, that a and b share."""
    if a.module is not b.module:
        raise FdistError("series live over different modules")
    return a.module


def _neg_binoms(r: int, D: int, J: int):
    """The nonzero binom(-r/D, j) for 0 <= j < J, as (j, scalar) pairs:
    the integer numerator prod_(t<j) (-r - tD) over D^j j!.  The unit
    binom(-r/D, 0) is the object ONE, which scales nothing."""
    out = []
    num, den = 1, 1
    for j in range(J):
        if not num:
            break
        out.append((j, ONE if num == den else
                    CycScalar.from_ints(1, [num], den)))
        num *= -r - j * D
        den *= D * (j + 1)
    return out


def nth_product(a: GenSeries, b: GenSeries, n: int, locality: int) -> GenSeries:
    """The n-th product via the homogeneous-component expansion:
    contributions binom(-rho_a, j) (a_0 [n+j] b_0) shifted by
    z^(-rho_a - rho_b - j), the j-sum cut off by the locality order."""
    mod = _one_module(a, b)
    D = mod.grid
    # per residue of a, the nonzero binom(-rho_a, j) of the j-sum
    coefs = {ra: _neg_binoms(ra, D, locality - n) for ra in a.res_k}
    pairs = [(ra, rb, coefs[ra])
             for ra in sorted(a.res_k) for rb in sorted(b.res_k)]
    residues = {(ra + rb) % D for ra, rb, _c in pairs} or {0}
    parity = (a.parity + b.parity) % 2
    if a.shift_k is not None and b.shift_k is not None:
        shift_k = a.shift_k + b.shift_k - n * D
    else:
        shift_k = None

    def fn(t):
        total = mod.zero_op()
        for ra, rb, cj in pairs:
            mp, off = divmod(t - ra - rb, D)
            if off:
                continue
            for j, coef in cj:
                term = mod.integral_product_coeff(a, b, ra, rb, n + j, mp - j)
                total = total + term.scale(coef)
        return total

    return GenSeries(mod, fn, residues, parity, shift_k)


def derive(a: GenSeries) -> GenSeries:
    """d/dz of the series: (Da)(m) = -m a(m-1)."""
    D = a.grid
    sb = a.shift_k + D if a.shift_k is not None else None
    return GenSeries(
        a.module, lambda k: a._at(k - D).scale(Fraction(-k, D)), a.res_k,
        a.parity, sb)


def iterated_derive(a: GenSeries, i: int) -> GenSeries:
    for _ in range(i):
        a = derive(a)
    return a


def lie_from_products(a: GenSeries, b: GenSeries, m, n, locality: int):
    """Bracket recovery: returns ([a(m), b(n)] direct,
    sum_s binom(m,s) (a [s] b)(m+n-s))."""
    m, n = _frac(m), _frac(n)
    direct = a.coeff(m).bracket(b.coeff(n))
    total = a.module.zero_op()
    for s in range(max(0, locality)):
        c = gen_binom(m, s)
        if not c:
            continue
        term = nth_product(a, b, s, locality).coeff(m + n - s)
        total = total + term.scale(c)
    return direct, total


def locality_test(a: GenSeries, b: GenSeries, N: int, slots, probes) -> str:
    """'pass' / 'fail' / 'untestable' verdict that
    sum_s (-1)^s binom(N,s) [a(n-s), b(m+s)] = 0 for every sampled
    (n, m): the worst_status of coeff_is_zero over the slot sums."""

    def total(n, m):
        n, m = _frac(n), _frac(m)
        out = a.module.zero_op()
        for s in range(N + 1):
            c = _int_binom(N, s)
            term = a.coeff(n - s).bracket(b.coeff(m + s))
            out = out + term.scale(c if s % 2 == 0 else -c)
        return out

    return worst_status(coeff_is_zero(total(n, m), probes) for n, m in slots)


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


def coeff_is_zero(x, probes) -> str:
    """'pass' / 'fail' / 'untestable' verdict that the operator x is
    exactly zero on the probes; only a poisoned probe result is
    'untestable'."""
    return worst_status(vector_status(x.apply(v)) for v in probes)


def series_compare(s1: GenSeries, s2: GenSeries, slots, probes):
    """Per-slot verdicts that s1 and s2 agree; returns list of
    (slot, verdict)."""
    out = []
    for t in slots:
        t = _frac(t)
        out.append((t, coeff_is_zero(s1.coeff(t) - s2.coeff(t), probes)))
    return out


def compare_status(pairs) -> str:
    """The worst verdict of series_compare's (slot, verdict) pairs."""
    return worst_status(v for _, v in pairs)


# ---------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------

def verify_axioms(family, which, slots, locality, probes):
    """Coefficientwise axiom checks on a family of named series.

    family: list of (name, GenSeries); which: iterable of axiom tags
    among C1, C2, C3, C4, V3, V4; slots: exponents to test;
    locality: callable (name_a, name_b) -> locality order; probes:
    the Fock vectors each comparison is read on.
    Returns a list of (tag, instance, status) lines; a probe that
    leaves the truncation yields 'untestable', never 'pass'.
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
                            zero_series(sa.module), slots, probes)
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
                            ).scale(Fraction((-1) ** (n + i + 1) * sign,
                                             math.factorial(i)))
                            terms.append(term)
                        rhs = sum_series(sa.module, terms, parity=lhs.parity)
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


def _assoc_check(sa, sb, sc, n, m, loc, na, nb, nc, slots, probes):
    """V3 / C4: (a[n]b)[m]c = sum_i (-1)^i binom(n,i) a[n-i](b[m+i]c)
    - (-1)^(p_a p_b) sum_{i<=n} (-1)^i binom(n, n-i) b[m+i](a[n-i]c)."""
    nab = loc(na, nb)
    nac = loc(na, nc)
    nbc = loc(nb, nc)
    lhs_inner = nth_product(sa, sb, n, nab)
    # locality of a[n]b with c: bounded by nac + nbc (safe overestimate)
    lhs = nth_product(lhs_inner, sc, m, nac + nbc)
    sign = -1 if (sa.parity and sb.parity) else 1
    terms = []
    # first sum: binom(n,i) vanishes for i > n when n >= 0; for n < 0 the
    # cutoff comes from b[m+i]c = 0 once m + i >= nbc.
    imax = n if n >= 0 else max(0, nbc - m - 1)
    for i in range(0, imax + 1):
        c1 = _int_binom(n, i)
        if not c1:
            continue
        term = nth_product(sa, nth_product(sb, sc, m + i, nbc), n - i, nac)
        terms.append(term.scale(c1 if i % 2 == 0 else -c1))
    # second sum: i <= n; for n < 0 cut off by a[n-i]c = 0 once n-i >= nac
    low = n - nac + 1 if n < 0 else 0
    for i in range(low, n + 1):
        c2 = _int_binom(n, n - i)
        if not c2:
            continue
        term = nth_product(sb, nth_product(sa, sc, n - i, nac), m + i, nbc)
        terms.append(term.scale(-sign * (c2 if i % 2 == 0 else -c2)))
    rhs = sum_series(sa.module, terms, parity=lhs.parity)
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
    terms = []
    for i in range(0, nab):
        c1 = _int_binom(m, i)
        if not c1:
            continue
        term = nth_product(nth_product(sa, sb, i, nab), sc, m + n - i,
                           nac + nbc)
        terms.append(term.scale(c1))
    rhs = sum_series(sa.module, terms, parity=lhs.parity)
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


def _F_numerators(p: int, m: int):
    """F_p(m) as integer numerators over one denominator p^m m!: a
    term of the double sum is (-1)^(l+q+kp) binom(-q/p + k, m)
    binom(m + 1, l + q - kp), and binom(-q/p + k, m) is
    prod_(t<m) (-q + (k - t) p) / (p^m m!)."""
    out = {}
    for l in range(1 - p, 1 - p + m + 1):
        total = 0
        for q in range(p):
            k = 0
            while l + q - k * p >= 0:
                inner = l + q - k * p
                if inner <= m + 1:
                    num = math.comb(m + 1, inner)
                    for t in range(m):
                        num *= -q + (k - t) * p
                    total += -num if (l + q + k * p) % 2 else num
                k += 1
        if total:
            # exponents in 1/p units: w^((m-l+1)/p - 1), z^(l/p - m)
            out[(m - l + 1 - p, l - m * p)] = total
    return out, p ** m * math.factorial(m)


def kernel_F(p: int, m: int) -> KernelPoly:
    """The polynomial F_p(m), from its displayed double-sum formula."""
    num, den = _F_numerators(p, m)
    return KernelPoly(p, {key: Fraction(c, den) for key, c in num.items()})


def kernel_Delta(p: int, n: int, N: int) -> KernelPoly:
    """Delta(w, z) from its definition: sum over degrees q/p and
    0 <= j <= N-n-1 of binom(-q/p, j) w^(q/p) z^(-q/p-j) (w-z)^j.
    With J = N-n-1, binom(-q/p, j) = prod_(t<j) (-q - tp) / (p^j j!)
    is an integer numerator over the one denominator p^J J!."""
    J = N - n - 1
    if J < 0:
        return KernelPoly(p)
    out = {}
    for q in range(p):
        c = 1  # prod_(t<j) (-q - tp), zero from j = 1 on when q = 0
        for j in range(J + 1):
            scaled = c * p ** (J - j) * (math.factorial(J) //
                                         math.factorial(j))
            # w^(q/p) z^(-q/p-j) times (w-z)^j, term by term
            for i in range(j + 1):
                key = (q + (j - i) * p, -q - (j - i) * p)
                term = scaled * math.comb(j, i)
                out[key] = out.get(key, 0) + (-term if i % 2 else term)
            c *= -q - j * p
            if not c:
                break
    den = p ** J * math.factorial(J)
    return KernelPoly(p, {key: Fraction(c, den) for key, c in out.items()})


def kernel_Delta_via_F(p: int, n: int, N: int) -> KernelPoly:
    """Delta(w, z) through the F_p factorization: the prefactor
    (w - z)/(w^(1/p) - z^(1/p)) = sum_i w^(i/p) z^((p-1-i)/p) to the
    power m + 1, times F_p(m), with m = N-n-1."""
    m = N - n - 1
    if m < 0:
        return KernelPoly(p)
    # the prefactor's power: the coefficient of w^(a/p) counts the ways
    # to write a as m + 1 parts in 0..p-1
    power = [1]
    for _ in range(m + 1):
        nxt = [0] * (len(power) + p - 1)
        for a, c in enumerate(power):
            for i in range(p):
                nxt[a + i] += c
        power = nxt
    top = (m + 1) * (p - 1)
    num, den = _F_numerators(p, m)
    out = {}
    for a, c in enumerate(power):
        for (i, j), f in num.items():
            key = (a + i, top - a + j)
            out[key] = out.get(key, 0) + c * f
    return KernelPoly(p, {key: Fraction(c, den) for key, c in out.items()})


def kernel_delta_check(p: int, n: int, N: int) -> bool:
    """Whether the two Delta computations agree."""
    return kernel_Delta(p, n, N) == kernel_Delta_via_F(p, n, N)


def nth_product_kernel(a: GenSeries, b: GenSeries, n: int, locality: int,
                       kernel: KernelPoly) -> GenSeries:
    """Product through the residue formula with an explicit kernel:
    (a [n] b)(z) = Res_w (a(w)b(z) i_{w,z}(w-z)^n
                          - (-1)^(p_a p_b) b(z)a(w) i_{z,w}(w-z)^n) K(w,z).

    The slot-t coefficient applied to a vector terminates because the
    inner i-sums hit annihilation bounds.
    """
    mod = _one_module(a, b)
    parity = (a.parity + b.parity) % 2
    sign = -1 if (a.parity and b.parity) else 1
    if a.shift_k is None or b.shift_k is None:
        raise FdistError("kernel product route requires degree shifts")
    D = mod.grid
    # kernel exponents i/p, j/p on the grid, in sorted order
    step = _on_grid(Fraction(1, kernel.p), D)
    terms = [(i * step, j * step, as_scalar(c))
             for (i, j), c in sorted(kernel.terms.items())]
    shift_k = a.shift_k + b.shift_k - n * D
    residues = {(ra + rb) % D for ra in a.res_k for rb in b.res_k}
    # kernel may move slots off the naive grid; include its shifts
    residues = {
        (r - u - v) % D for r in residues for (u, v, _c) in terms
    } | residues

    def fn(t):
        return mod.residue_product_coeff(a, b, n, t, terms, sign)

    return GenSeries(mod, fn, residues, parity, shift_k)


def weight(phi: GenSeries, d_op, slots, probes):
    """Weight of an operator series against a module operator D:
    the scalar lam with (d/dz)phi - [D, phi] = lam z^(-1) phi, slotwise
    on the probes; returns the string 'not homogeneous' on failure, and
    None when no slot and probe decide it (every pair left the
    truncation or read zero on both sides)."""
    dphi = derive(phi)
    lam = None
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
    return lam
