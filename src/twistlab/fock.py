"""Truncated twisted Heisenberg Fock modules and vertex operators.

The module carrier is M(1) tensor Omega: creation words in eigenmodes of
the lattice automorphism times a vacuum-space basis element carrying a
weight functional and a group-algebra action e(alpha).  All operators
act exactly; creations beyond the truncation degree flag the result as
poisoned, which downstream checks report as untestable rather than
passed.
"""
from __future__ import annotations

from fractions import Fraction

from .cocycle import TwistData, locality_order
from .fdist import (
    GenSeries,
    WindowUnderflow,
    _factorial,
    _frac,
    _residue,
    coeff_is_zero,
    compare_status,
    derive,
    gen_binom,
    kernel_Delta,
    nth_product,
    nth_product_kernel,
    series_compare,
    sum_series,
    vector_status,
    weight,
    worst_status,
    zero_series,
)
from .linalg import field_inverse, field_rref, field_solve
from .scalar import CycScalar, ONE, ZERO, ScalarError, as_scalar, root_of_unity


class FockError(Exception):
    pass


def _floor_int(x: Fraction) -> int:
    return x.numerator // x.denominator


def _scaled(m, p: int):
    """The mode m times p: an int when m lies on the grid (1/p)Z, else
    the non-integral Fraction, which matches no residue mod p."""
    if type(m) is int:
        return m * p
    ms = _frac(m) * p
    return ms.numerator if ms.denominator == 1 else ms


# ---------------------------------------------------------------------
# Eigenbasis of the automorphism
# ---------------------------------------------------------------------

class GradedBasis:
    """Eigenbasis h_1..h_l of the complexified lattice space with
    sigma h_j = omega^(q_j) h_j, the pairing matrix in that basis, and
    dual bases for the Virasoro sums."""

    def __init__(self, lattice):
        self.lattice = lattice
        p, l = lattice.p, lattice.rank
        self.p = p
        omega = root_of_unity(p) if p > 1 else ONE
        pows = lattice.sigma_pows
        inv_p = CycScalar.rational(Fraction(1, p))
        qs, vecs = [], []
        for q in range(p):
            # the transposed eigenprojector (1/p) sum_s omega^(-qs) sigma^s
            rows = [[sum((omega ** ((-q * s) % p) * pows[s][i][k]
                          for s in range(p)), ZERO) * inv_p
                     for i in range(l)] for k in range(l)]
            rref, pivots = field_rref(rows, ONE)
            for r in rref[:len(pivots)]:
                qs.append(q)
                vecs.append(tuple(r))
        if len(vecs) != l:
            raise FockError("automorphism is not semisimple over Q(omega)")
        self.qs = tuple(qs)
        self.vecs = tuple(vecs)
        g = lattice.gram
        self.pairing = [
            [sum((vecs[i][a] * as_scalar(g[a][b]) * vecs[j][b]
                  for a in range(l) for b in range(l)), ZERO)
             for j in range(l)] for i in range(l)]
        for i in range(l):
            for j in range(l):
                if (qs[i] + qs[j]) % p != 0 and self.pairing[i][j]:
                    raise FockError(
                        "pairing must vanish across incompatible degrees")
        try:
            minv = field_inverse(self.pairing, ONE)
        except ValueError:
            raise FockError("degenerate pairing on the eigenbasis")
        # dual basis in eigenbasis coefficients: beta_j = sum_i
        # minv[i][j] h_i, so that (h_i | beta_j) = delta_ij
        self.duals = tuple(
            tuple(minv[i][j] for i in range(l)) for j in range(l))
        self.residues = tuple(Fraction(q, p) for q in qs)
        self._decomp_cache = {}

    def decompose(self, vec):
        """Coordinates of a lattice-basis vector in the eigenbasis."""
        key = tuple(vec)
        if key not in self._decomp_cache:
            l = self.lattice.rank
            h = [[self.vecs[j][k] for j in range(l)] for k in range(l)]
            b = [as_scalar(x) for x in vec]
            sol = field_solve(h, b, ONE)
            if sol is None:
                raise FockError("eigenbasis does not span")
            self._decomp_cache[key] = tuple(sol)
        return self._decomp_cache[key]


# ---------------------------------------------------------------------
# Vacuum-space specifications
# ---------------------------------------------------------------------

class RegularOmega:
    """Vacuum space spanned by symbols indexed by lattice vectors in a
    box window; e(alpha) acts by the 2-cocycle and shifts the index.
    Leaving the window poisons the computation."""

    def __init__(self, twist: TwistData, bound: int):
        self.twist = twist
        lat = twist.lattice
        self.bound = bound
        import itertools

        self.index = list(
            itertools.product(range(-bound, bound + 1), repeat=lat.rank))
        self.lookup = {b: i for i, b in enumerate(self.index)}
        self.size = len(self.index)
        self._xi = [tuple(as_scalar(x) for x in lat.nu(b))
                    for b in self.index]

    def xi(self, i):
        return self._xi[i]

    def e_act(self, alpha, i):
        beta = self.index[i]
        target = tuple(a + b for a, b in zip(alpha, beta))
        j = self.lookup.get(target)
        if j is None:
            return None
        return [(j, self.twist.epsilon(alpha, beta))]


# ---------------------------------------------------------------------
# Vectors and operators
# ---------------------------------------------------------------------

class FockVector:
    """A vector of the truncated module: terms {(word, iota): scalar}.

    Vectors are values: only __init__ writes `terms`, so a vector can
    key the memo of a series coefficient (FockAlg.remember)."""

    __slots__ = ("module", "terms", "poisoned", "_hash")

    def __init__(self, module, terms=None, poisoned=False):
        self.module = module
        self._hash = None
        self.terms = {}
        # a poisoned vector is untestable wherever it is consumed, so
        # its terms can never influence a verdict: drop them and spare
        # all downstream work
        if not poisoned:
            for key, val in (terms or {}).items():
                if val:
                    self.terms[key] = val
        self.poisoned = poisoned

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return FockVector(self.module, out,
                          self.poisoned or other.poisoned)

    def __sub__(self, other):
        return self + other.scale(CycScalar.rational(-1))

    def scale(self, s):
        s = s if isinstance(s, CycScalar) else as_scalar(s)
        if not s:
            return FockVector(self.module, {}, self.poisoned)
        return FockVector(self.module,
                          {k: v * s for k, v in self.terms.items()},
                          self.poisoned)

    def __eq__(self, other):
        return (isinstance(other, FockVector)
                and self.terms == other.terms
                and self.poisoned == other.poisoned)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.poisoned))
        return self._hash

    def max_degree(self):
        return max(self.module.term_degree(k) for k in self.terms)

    def ratio_to(self, other):
        """Scalar r with self = r * other, or None."""
        if other.is_zero():
            return None
        key = next(iter(other.terms))
        r = self.terms.get(key, ZERO) / other.terms[key]
        if self == other.scale(r):
            return r
        return None

    def __repr__(self):
        bits = []
        p = self.module.p
        for (word, iota), v in sorted(self.terms.items(), key=str):
            w = "*".join(f"h{j}({Fraction(m, p)})" for m, j in word) or "1"
            bits.append(f"({v})*{w}|{iota}>")
        tag = " [poisoned]" if self.poisoned else ""
        return (" + ".join(bits) or "0") + tag


def _absorbing_sum(out: FockVector, summands) -> FockVector:
    """out plus the vectors that summands yields, taken one at a time.
    A poisoned vector has no terms and poisons every sum it enters, so
    the first poisoned partial sum is the result: the summands after it
    are never evaluated."""
    if out.poisoned:
        return out
    for w in summands:
        out = out + w
        if out.poisoned:
            break
    return out


def _applied(op, v: FockVector, negate: bool = False):
    """op applied to v, or its negative, evaluated only when the sum
    asks for it."""
    w = op.apply(v)
    yield w.scale(CycScalar.rational(-1)) if negate else w


class FockOp:
    __slots__ = ("module", "fn", "parity")

    def __init__(self, module, fn, parity=0):
        self.module = module
        self.fn = fn
        self.parity = parity % 2

    def apply(self, v: FockVector) -> FockVector:
        return self.fn(v)

    def compose(self, other):
        return FockOp(self.module, lambda v: self.apply(other.apply(v)),
                      self.parity + other.parity)

    def __add__(self, other):
        return FockOp(self.module,
                      lambda v: _absorbing_sum(self.apply(v),
                                               _applied(other, v)),
                      self.parity)

    def __sub__(self, other):
        return FockOp(self.module,
                      lambda v: _absorbing_sum(self.apply(v),
                                               _applied(other, v, True)),
                      self.parity)

    def __neg__(self):
        return self.scale(CycScalar.rational(-1))

    def scale(self, s):
        s = s if isinstance(s, CycScalar) else as_scalar(s)
        return FockOp(self.module, lambda v: self.apply(v).scale(s),
                      self.parity)


class FockAlg:
    """Coefficient-algebra adapter: operators on a FockModule."""

    is_fock = True

    def __init__(self, module):
        self.module = module

    def zero(self):
        m = self.module
        return FockOp(m, lambda v: FockVector(m, {}, v.poisoned), 0)

    def remember(self, op):
        """op with its result on each vector kept for the life of op.
        GenSeries.coeff hands out these, so a product applying the same
        coefficient to the same vector on every slot and probe computes
        the operator tree below it once."""
        fn = op.fn
        seen = {}

        def apply(v):
            out = seen.get(v)
            if out is None:
                out = seen[v] = fn(v)
            return out

        return FockOp(op.module, apply, op.parity)

    def bracket(self, x, y):
        sign = -1 if (x.parity and y.parity) else 1
        out = x.compose(y) - y.compose(x).scale(sign)
        out.parity = (x.parity + y.parity) % 2
        return out

    def integral_product_coeff(self, a, b, ra, rb, n: int, m: int):
        """Coefficient (a0 [n] b0)(m) of the degree-ra and degree-rb
        components a0(k) = a(k + ra), b0(k) = b(k + rb)."""
        mod = self.module
        if a.shift_base is None or b.shift_base is None:
            raise FockError("operator products need degree-shift data")
        ca0, cb0 = a.shift_base - ra, b.shift_base - rb
        super_sign = -1 if (a.parity and b.parity) else 1

        def summands(v):
            d = v.max_degree()
            fl = mod.floor
            smax = _floor_int(d + cb0 - fl - m)
            if n >= 0:
                smax = min(smax, n)
            for s in range(smax + 1):
                c = gen_binom(n, s)
                if not c:
                    continue
                w = a.coeff(n - s + ra).apply(b.coeff(m + s + rb).apply(v))
                yield w.scale(c if s % 2 == 0 else -c)
            low = n - _floor_int(d + ca0 - fl)
            if n >= 0:
                low = max(low, 0)
            for s in range(low, n + 1):
                c = gen_binom(n, n - s)
                if not c:
                    continue
                w = b.coeff(m + s + rb).apply(a.coeff(n - s + ra).apply(v))
                sgn = -super_sign * (1 if s % 2 == 0 else -1)
                yield w.scale(sgn * c)

        def fn(v):
            out = FockVector(mod, {}, v.poisoned)
            return _absorbing_sum(out, summands(v)) if v.terms else out

        return FockOp(mod, fn, a.parity + b.parity)

    def residue_product_coeff(self, a, b, n: int, t, terms, sign):
        """Slot-t coefficient of the residue-form product with explicit
        kernel terms (w-exponent, z-exponent, coefficient)."""
        mod = self.module
        ca, cb = a.shift_base, b.shift_base

        def summands(v):
            d = v.max_degree()
            fl = mod.floor
            for (u, ve, kc) in terms:
                imax = _floor_int(d + cb - fl - t - ve)
                if n >= 0:
                    imax = min(imax, n)
                for i in range(imax + 1):
                    c = gen_binom(n, i) * kc
                    if not c:
                        continue
                    w = a.coeff(n - i + u).apply(b.coeff(t + i + ve).apply(v))
                    yield w.scale(c if i % 2 == 0 else -c)
                imax2 = _floor_int(d + ca - fl - u)
                if n >= 0:
                    imax2 = min(imax2, n)
                for i in range(imax2 + 1):
                    c = gen_binom(n, i) * kc
                    if not c:
                        continue
                    w = b.coeff(t + n - i + ve).apply(
                        a.coeff(i + u).apply(v))
                    sgn = -sign * (1 if (n + i) % 2 == 0 else -1)
                    yield w.scale(sgn * c)

        def fn(v):
            out = FockVector(mod, {}, v.poisoned)
            return _absorbing_sum(out, summands(v)) if v.terms else out

        return FockOp(mod, fn, a.parity + b.parity)


# ---------------------------------------------------------------------
# The module itself
# ---------------------------------------------------------------------

class FockModule:
    """M(1) tensor Omega, truncated at creation degree T."""

    def __init__(self, twist: TwistData, omega, trunc):
        self.twist = twist
        self.lattice = twist.lattice
        self.basis = GradedBasis(self.lattice)
        self.omega = omega
        self.trunc = _frac(trunc)
        self.alg = FockAlg(self)
        self.p = self.lattice.p
        # the largest creation degree of a term, in modes scaled by p
        self.cap = _floor_int(self.trunc * self.p)
        l = self.lattice.rank
        degs = []
        for i in range(omega.size):
            xi = omega.xi(i)
            total = ZERO
            for j in range(l):
                if self.basis.qs[j] % self.p != 0:
                    continue
                xa = sum((self.basis.vecs[j][k] * xi[k] for k in range(l)),
                         ZERO)
                xb = sum((self.basis.duals[j][i]
                          * self.basis.vecs[i][k] * xi[k]
                          for i in range(l) for k in range(l)), ZERO)
                total = total + xa * xb
            try:
                degs.append(total.rational_value() / 2)
            except ScalarError:
                raise FockError("vacuum-space degrees must be rational")
        self.omega_degrees = degs
        self._vertex_exps = {}
        self.floor = min(degs) if degs else Fraction(0)

    # -- vectors ------------------------------------------------------

    def zero_vec(self):
        return FockVector(self, {})

    def vacuum(self, i=0):
        return FockVector(self, {((), i): ONE})

    def term_degree(self, key):
        # inside this module a Heisenberg mode m is the integer m*p:
        # word keys store it, and the mode grids, residue tests and
        # creation caps work on it; Fraction enters only at heis_act,
        # mode_op and the degrees returned here
        word, iota = key
        return Fraction(-sum(m for m, _ in word), self.p) + \
            self.omega_degrees[iota]

    def basis_vectors(self, max_degree):
        """All monomial basis vectors of creation degree <= max_degree."""
        out = []
        modes = []
        l = self.lattice.rank
        cap = max_degree * self.p
        for j in range(l):
            # the creation mode nearest zero: (q_j - p)/p, scaled by p
            m = self.basis.qs[j] - self.p
            while -m <= cap:
                modes.append((m, j))
                m -= self.p
        def rec(start, word, left):
            for iota in range(self.omega.size):
                out.append(FockVector(self, {(tuple(sorted(word)), iota): ONE}))
            for k in range(start, len(modes)):
                m, j = modes[k]
                if -m <= left:
                    rec(k, word + [(m, j)], left + m)
        rec(0, [], cap)
        return out

    # -- Heisenberg action --------------------------------------------

    def heis_act(self, j: int, m, v: FockVector) -> FockVector:
        """h_j(m) applied to v, for an int or Fraction mode m."""
        return self._heis_act(j, _scaled(m, self.p), v)

    def _heis_act(self, j: int, ms, v: FockVector) -> FockVector:
        """h_j(ms/p) applied to v, for the mode scaled by p (_scaled)."""
        p = self.p
        if ms % p != self.basis.qs[j]:
            return FockVector(self, {}, v.poisoned)
        out = {}
        poisoned = v.poisoned
        pairing = self.basis.pairing
        cap = self.cap
        fm = None
        for (word, iota), coeff in v.terms.items():
            if ms < 0:
                if -sum(mm for mm, _ in word) - ms > cap:
                    poisoned = True
                    continue
                key = (tuple(sorted(word + ((ms, j),))), iota)
                out[key] = out.get(key, ZERO) + coeff
            elif ms > 0:
                if fm is None:
                    fm = CycScalar.rational(Fraction(ms, p))
                for pos, (mm, jj) in enumerate(word):
                    if mm != -ms:
                        continue
                    fac = pairing[j][jj]
                    if not fac:
                        continue
                    key = (word[:pos] + word[pos + 1:], iota)
                    val = coeff * fac * fm
                    out[key] = out.get(key, ZERO) + val
            else:
                xi = self.omega.xi(iota)
                l = self.lattice.rank
                val = sum((self.basis.vecs[j][k] * xi[k] for k in range(l)),
                          ZERO)
                if val:
                    key = (word, iota)
                    out[key] = out.get(key, ZERO) + coeff * val
        return FockVector(self, out, poisoned)

    def mode_apply(self, coords, ms, v: FockVector) -> FockVector:
        """(sum_j coords_j h_j)(ms/p) applied to v, for the mode scaled
        by p (_scaled)."""
        res = ms % self.p
        qs = self.basis.qs
        out = {}
        poisoned = v.poisoned
        for j, c in enumerate(coords):
            if not c or res != qs[j]:
                continue
            w = self._heis_act(j, ms, v)
            poisoned = poisoned or w.poisoned
            for k, val in w.terms.items():
                s = out.get(k, ZERO) + val * c
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return FockVector(self, out, poisoned)

    def lattice_coords(self, alpha):
        return self.basis.decompose(alpha)

    def mode_op(self, coords, m) -> FockOp:
        ms = _scaled(m, self.p)
        return FockOp(self, lambda v: self.mode_apply(coords, ms, v), 0)

    def e_op(self, alpha) -> FockOp:
        alpha = tuple(alpha)

        def fn(v):
            out = {}
            poisoned = v.poisoned
            for (word, iota), coeff in v.terms.items():
                images = self.omega.e_act(alpha, iota)
                if images is None:
                    poisoned = True
                    continue
                for iota2, s in images:
                    key = (word, iota2)
                    val = coeff * s
                    out[key] = out.get(key, ZERO) + val
            return FockVector(self, out, poisoned)

        par = self.lattice.pairing(alpha, alpha) % 2
        return FockOp(self, fn, par)

    # -- series builders ----------------------------------------------

    def tilde(self, alpha) -> GenSeries:
        """The Heisenberg series of a lattice vector."""
        return self.eigen_tilde(self.lattice_coords(alpha))

    def eigen_tilde(self, coords) -> GenSeries:
        residues = {self.basis.residues[j]
                    for j, c in enumerate(coords) if c} or {Fraction(0)}
        return GenSeries(self.alg, lambda m: self.mode_op(coords, m),
                         residues, parity=0, shift_base=Fraction(0))

    def identity_series(self) -> GenSeries:
        ident = FockOp(self, lambda v: v, 0)

        def fn(m):
            return ident if m == -1 else self.alg.zero()

        return GenSeries(self.alg, fn, {Fraction(0)}, parity=0,
                         shift_base=Fraction(-1))

    def upsilon(self) -> GenSeries:
        """Virasoro series (1/2) sum_i alpha~_i [-1] beta~_i."""
        l = self.lattice.rank
        terms = []
        for i in range(l):
            unit = tuple(ONE if j == i else ZERO for j in range(l))
            a = self.eigen_tilde(unit)
            b = self.eigen_tilde(self.basis.duals[i])
            terms.append(nth_product(a, b, -1, 2))
        return sum_series(self.alg, terms).scale(Fraction(1, 2))

    def weight_anomaly(self) -> Fraction:
        """Constant by which the series coefficient upsilon(1) exceeds
        the degree grading on a twisted module: sum of r(1-r)/4 over
        the eigenbasis residues r."""
        return sum(
            (r * (1 - r) / 4 for r in self.basis.residues), Fraction(0))

    # -- direct Virasoro coefficients (independent formulas) ----------

    def _mode_grid(self, q: int, lo: int, hi: int):
        """The scaled modes ms = q mod p with lo <= ms <= hi."""
        p = self.p
        return range(lo + (q - lo) % p, hi + 1, p)

    def _normal_ordered_sum(self, v: FockVector, k: int):
        """(1/2) sum_i sum_s :alpha_i(s) beta_i(-s-k): applied to v, over
        the eigenbasis alpha_i and its duals beta_i, each pair normally
        ordered.  The bilinear sum over dual bases counts each pair
        twice, hence the 1/2.  Offset k = 0 gives the degree operator,
        k = 1 the translation operator D."""
        out = FockVector(self, {}, v.poisoned)
        if not v.terms:
            return out
        p = self.p
        # the largest d - fl and the offset k, in modes scaled by p
        top = _floor_int((v.max_degree() - self.floor) * p)
        kp = k * p
        l = self.lattice.rank

        def summands():
            for i in range(l):
                unit = tuple(ONE if j == i else ZERO for j in range(l))
                dual = self.basis.duals[i]
                q = self.basis.qs[i]
                # s < 0: alpha_i(s) beta_i(-s-k); beta annihilates once
                # -s-k > d-fl, i.e. keep s >= -(d-fl)-k
                for s in self._mode_grid(q, -top - kp, -1):
                    w = self.mode_apply(dual, -s - kp, v)
                    yield self.mode_apply(unit, s, w)
                # s >= 0: beta_i(-s-k) alpha_i(s); alpha annihilates,
                # s <= d-fl
                for s in self._mode_grid(q, 0, top):
                    w = self.mode_apply(unit, s, v)
                    yield self.mode_apply(dual, -s - kp, w)

        return _absorbing_sum(out, summands()).scale(Fraction(1, 2))

    def virasoro_one(self, v: FockVector):
        """Degree operator from its normally-ordered double sum."""
        return self._normal_ordered_sum(v, 0)

    def upsilon_zero_op(self) -> FockOp:
        """Translation operator D from its normally-ordered double sum;
        it matches the series coefficient of the Virasoro element
        exactly (checked in the tests)."""
        return FockOp(self, lambda v: self._normal_ordered_sum(v, 1), 0)

    # -- exponential factors and vertex operators ---------------------

    def _ann_expand(self, coords, v: FockVector, sign: int = -1):
        """Expansion of exp(sum_(n>0) sign*coords(n)/n z^(-n)) on v:
        list of (vector, total annihilation degree times p)."""
        if not v.terms:
            return [(v, 0)]
        p = self.p
        qs = self.basis.qs
        top = _floor_int((v.max_degree() - self.floor) * p)
        results = [(v, 0)]
        for n in range(1, top + 1):
            if any(c and qs[j] == n % p for j, c in enumerate(coords)):
                # sign / (n/p), the factor of each mode applied
                ratio = Fraction(sign * p, n)
                new = []
                for (v0, e) in results:
                    new.append((v0, e))
                    cur = v0
                    k = 1
                    while True:
                        cur = self.mode_apply(coords, n, cur)
                        if cur.is_zero() and not cur.poisoned:
                            break
                        coef = ratio ** k / _factorial(k)
                        new.append((cur.scale(coef), e + k * n))
                        k += 1
                results = new
        return results

    def _cre_expand(self, coords, v: FockVector, target: int,
                    sign: int = 1):
        """Coefficient of z^(target/p) of exp(sum_(n<0) -sign*coords(n)/n
        z^(-n)) applied to v (creation side); target is scaled by p."""
        if target == 0:
            return v
        if not v.terms:
            return FockVector(self, {}, v.poisoned)
        used = max(-sum(m for m, _ in word) for (word, _i) in v.terms)
        if used + target > self.cap:
            return FockVector(self, {}, True)
        p = self.p
        qs = self.basis.qs
        modes = [u for u in range(1, target + 1)
                 if any(c and qs[j] == -u % p for j, c in enumerate(coords))]
        out = FockVector(self, {})

        def rec(idx, cur, left, scale):
            nonlocal out
            if left == 0:
                out = out + cur.scale(scale)
                return
            if idx >= len(modes):
                return
            u = modes[idx]
            rec(idx + 1, cur, left, scale)
            ratio = Fraction(sign * p, u)
            k = 1
            acc = cur
            while k * u <= left:
                acc = self.mode_apply(coords, -u, acc)
                if acc.is_zero() and not acc.poisoned:
                    break
                rec(idx + 1, acc, left - k * u,
                    scale * ratio ** k / _factorial(k))
                k += 1

        rec(0, v, target, Fraction(1))
        return out

    def vertex_exponent(self, alpha, iota) -> Fraction:
        """xi(alpha(0)) - (alpha'|alpha')/2 on the iota-th vacuum line,
        kept per (alpha, line)."""
        key = (tuple(alpha), iota)
        out = self._vertex_exps.get(key)
        if out is None:
            xi = self.omega.xi(iota)
            val = sum((as_scalar(a) * xi[k] for k, a in enumerate(alpha)),
                      ZERO)
            try:
                x0 = val.rational_value()
            except ScalarError:
                raise FockError(
                    "z-exponent of a vertex operator must be rational")
            out = x0 - self.lattice.prime_pairing(alpha, alpha) / 2
            self._vertex_exps[key] = out
        return out

    def vertex_coeff(self, alpha, m) -> FockOp:
        alpha = tuple(alpha)
        m = _frac(m)
        coords = self.lattice_coords(alpha)
        e_alpha = self.e_op(alpha)

        def summands(v):
            for (word, iota), coeff in v.terms.items():
                # creation degree = -m - 1 - a_exp + annihilation
                # degree; scaled by p it must be an integer
                low = (-m - 1 - self.vertex_exponent(alpha, iota)) * self.p
                if low.denominator != 1:
                    continue
                low = low.numerator
                base = FockVector(self, {(word, iota): coeff})
                for (v1, eplus) in self._ann_expand(coords, base):
                    if low + eplus >= 0:
                        v2 = self._cre_expand(coords, v1, low + eplus)
                        yield e_alpha.apply(v2)

        def fn(v):
            return _absorbing_sum(FockVector(self, {}, v.poisoned),
                                  summands(v))

        par = self.lattice.pairing(alpha, alpha) % 2
        return FockOp(self, fn, par)

    def vertex_series(self, alpha) -> GenSeries:
        alpha = tuple(alpha)
        residues = set()
        for iota in range(self.omega.size):
            a_exp = self.vertex_exponent(alpha, iota)
            for t in range(self.p):
                residues.add(_residue(-1 - a_exp + Fraction(t, self.p)))
        norm = self.lattice.pairing(alpha, alpha)
        return GenSeries(
            self.alg, lambda m: self.vertex_coeff(alpha, m), residues,
            parity=norm % 2, shift_base=Fraction(norm, 2) - 1)


# ---------------------------------------------------------------------
# Verification layer
# ---------------------------------------------------------------------

def _partitions(m: int):
    """All partitions of m as {part: multiplicity} dicts."""
    out = []

    def rec(rem, maxp, cur):
        if rem == 0:
            out.append(dict(cur))
            return
        for j in range(min(rem, maxp), 0, -1):
            cur[j] = cur.get(j, 0) + 1
            rec(rem - j, j, cur)
            cur[j] -= 1
            if not cur[j]:
                del cur[j]

    rec(m, m, {})
    return out


def partition_rhs(M: FockModule, alpha, beta, n: int):
    """The creation-partition closed form of X_alpha [n] X_beta:
    kappa(alpha, beta) sum over partitions r of m = -(alpha|beta)-n-1
    of prod_j ((alpha~ [-j] .)/j)^(r_j)/r_j! applied to X_{alpha+beta}.
    Returns None when m < 0 (the product vanishes)."""
    alpha, beta = tuple(alpha), tuple(beta)
    m = -M.lattice.pairing(alpha, beta) - n - 1
    if m < 0:
        return None
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    base = M.vertex_series(gamma)
    at = M.tilde(alpha)
    pieces = []
    for part in _partitions(m):
        s = base
        coef = Fraction(1)
        for j in sorted(part):
            r = part[j]
            for _ in range(r):
                s = nth_product(at, s, -j, 2)
            coef *= Fraction(1, j) ** r / _factorial(r)
        pieces.append(s.scale(coef))
    out = sum_series(M.alg, pieces, parity=base.parity)
    return out.scale(M.twist.kappa(alpha, beta))


def product_check(M: FockModule, alpha, beta, n: int, slots, probes):
    """Triangulate X_alpha [n] X_beta three ways: the component
    binomial expansion, the residue form with the explicit Delta
    kernel, and the creation-partition closed form (zero when
    n >= -(alpha|beta)).  Returns a dict of pairwise statuses."""
    alpha, beta = tuple(alpha), tuple(beta)
    N = locality_order(M.lattice, alpha, beta)
    sa, sb = M.vertex_series(alpha), M.vertex_series(beta)
    expand = nth_product(sa, sb, n, N)
    nk = max(N, n + 1)
    kernel = nth_product_kernel(sa, sb, n, nk, kernel_Delta(M.p, n, nk))
    rhs = partition_rhs(M, alpha, beta, n)
    if rhs is None:
        rhs = zero_series(M.alg, parity=(sa.parity + sb.parity) % 2)
    return {
        "expand_vs_kernel": compare_status(
            series_compare(expand, kernel, slots, probes)),
        "expand_vs_closed": compare_status(
            series_compare(expand, rhs, slots, probes)),
        "kernel_vs_closed": compare_status(
            series_compare(kernel, rhs, slots, probes)),
    }


def virasoro_element_checks(M: FockModule, alphas, slots, probes):
    """Report on the Virasoro element: its self-products, its action
    on the vertex operators, and the degree grading."""
    ups = M.upsilon()
    report = []
    report.append(("ups[2]ups = 0", compare_status(series_compare(
        nth_product(ups, ups, 2, 4), zero_series(M.alg), slots, probes))))
    report.append(("ups[3]ups = (rank/2)id", compare_status(series_compare(
        nth_product(ups, ups, 3, 4),
        M.identity_series().scale(Fraction(M.lattice.rank, 2)),
        slots, probes))))

    d_op = M.upsilon_zero_op()
    report.append(("ups(0) = D", coeff_is_zero(
        M.alg, ups.coeff(Fraction(0)) - d_op, probes)))

    direct, series = [], []
    c1 = ups.coeff(Fraction(1))
    shift = M.weight_anomaly()
    deep_cap = M.trunc - 1
    series_cap = (M.trunc + M.floor) / 2
    for v in M.basis_vectors(deep_cap):
        deg = v.max_degree()
        direct.append(vector_status(M.virasoro_one(v) - v.scale(deg)))
        if deg - M.floor <= series_cap:
            series.append(
                vector_status(c1.apply(v) - v.scale(deg + shift)))
    report.append(("ups(1) = degree", worst_status(direct)))
    report.append(("ups(1) series = degree + anomaly", worst_status(series)))

    for alpha in alphas:
        alpha = tuple(alpha)
        x = M.vertex_series(alpha)
        nrm = Fraction(M.lattice.pairing(alpha, alpha))
        report.append((f"ups[0]X{alpha} = DX", compare_status(
            series_compare(nth_product(ups, x, 0, 2), derive(x),
                           slots, probes))))
        report.append((f"ups[1]X{alpha} = ((a|a)/2)X", compare_status(
            series_compare(nth_product(ups, x, 1, 2), x.scale(nrm / 2),
                           slots, probes))))
        try:
            lam = weight(x, d_op, slots, probes)
            st = "pass" if lam == ZERO else "fail"
        except WindowUnderflow:
            st = "untestable"
        report.append((f"weight X{alpha} = 0", st))
    return report


def heisenberg_commutation_check(M: FockModule, alphas, hs, modes, probes):
    """[h(n), e(alpha)] = delta_{n,0} (h|alpha) e(alpha) as operator
    identities on the probes."""
    report = []
    for alpha in alphas:
        alpha = tuple(alpha)
        ea = M.e_op(alpha)
        for h in hs:
            coords = M.lattice_coords(h)
            for n in modes:
                n = _frac(n)
                hop = M.mode_op(coords, n)
                comm = hop.compose(ea) - ea.compose(hop)
                if n == 0:
                    # only the sigma-fixed part of h has a zero mode:
                    # (h^0 | alpha) = sum_k nu(h)_k alpha_k
                    pair0 = sum(x * a for x, a in zip(M.lattice.nu(h), alpha))
                    comm = comm - ea.scale(pair0)
                st = coeff_is_zero(M.alg, comm, probes)
                report.append((f"[{tuple(h)}({n}), e{alpha}]", st))
    return report


def e_group_checks(M: FockModule, pairs, probes):
    """Group law e(a)e(b) = eps(a,b) e(a+b) and commutation
    e(a)e(b) = C(a,b) e(b)e(a) on the probes."""
    td = M.twist
    report = []
    for alpha, beta in pairs:
        alpha, beta = tuple(alpha), tuple(beta)
        ab = tuple(x + y for x, y in zip(alpha, beta))
        ea, eb = M.e_op(alpha), M.e_op(beta)
        lhs = ea.compose(eb)
        st1 = coeff_is_zero(
            M.alg, lhs - M.e_op(ab).scale(td.epsilon(alpha, beta)), probes)
        st2 = coeff_is_zero(
            M.alg, lhs - eb.compose(ea).scale(td.commutator(alpha, beta)),
            probes)
        report.append((f"e{alpha}e{beta}", st1, st2))
    return report


def _reconstruct_coeff(M: FockModule, alpha, coords, e, v: FockVector):
    """z^e coefficient of E_-^(-1) X_alpha(z) E_+^(-1) z^(-alpha(0))
    z^((alpha'|alpha')/2) applied to v."""
    out = FockVector(M, {}, v.poisoned)
    p = M.p
    for (word, iota), coeff in v.terms.items():
        base = FockVector(M, {(word, iota): coeff})
        b_exp = -M.vertex_exponent(alpha, iota)
        # e1 and f2 are scaled by p
        for (v1, e1) in M._ann_expand(coords, base, sign=1):
            if v1.is_zero():
                continue
            bound = _floor_int((e + v1.max_degree() - M.floor) * p) + e1
            for f2 in range(bound + 1):
                if f2 > M.cap:
                    # genuinely contributing creations past the
                    # truncation cannot be evaluated
                    out = FockVector(M, out.terms, True)
                    break
                m = -1 - e + b_exp + Fraction(f2 - e1, p)
                v2 = M.vertex_coeff(alpha, m).apply(v1)
                v3 = M._cre_expand(coords, v2, f2, sign=-1)
                out = out + v3
    return out


def reconstruct_e(M: FockModule, alpha, exps, probes):
    """Recover e(alpha) by stripping the exponential and scalar factors
    off X_alpha(z): the z^e coefficient of the stripped series must
    equal e(alpha) at e = 0 and vanish at every other sampled e."""
    alpha = tuple(alpha)
    coords = M.lattice_coords(alpha)
    e_alpha = M.e_op(alpha)
    report = []
    for e in exps:
        e = _frac(e)
        statuses = []
        for v in probes:
            got = _reconstruct_coeff(M, alpha, coords, e, v)
            expect = e_alpha.apply(v) if e == 0 else M.zero_vec()
            statuses.append(vector_status(got - expect))
        report.append((e, worst_status(statuses)))
    return report


def _pair_kernel_terms(M: FockModule, alpha, beta, kz_max):
    """Expansion of i_{w,z} prod_s (w^(1/p) - om^s z^(1/p))^(m_s) as
    (w-exponent, z-exponent, coeff) terms with z-exponent <= kz_max."""
    p = M.p
    ms = M.lattice.m_values(alpha, beta)
    terms = {(Fraction(0), Fraction(0)): ONE}
    minus_one = CycScalar.rational(-1)
    for s in range(p):
        m = ms[s]
        om = root_of_unity(p, s) if p > 1 else ONE
        kmax = m if m >= 0 else max(0, _floor_int(kz_max * p))
        fac = {}
        for k in range(kmax + 1):
            c = gen_binom(Fraction(m), k)
            if not c:
                continue
            fac[(Fraction(m - k, p), Fraction(k, p))] = \
                as_scalar(c) * (minus_one * om) ** k
        new = {}
        for (uw, uz), c1 in terms.items():
            for (vw, vz), c2 in fac.items():
                if uz + vz > kz_max:
                    continue
                key = (uw + vw, uz + vz)
                val = new.get(key, ZERO) + c1 * c2
                if val:
                    new[key] = val
                elif key in new:
                    del new[key]
        terms = new
    return [(k[0], k[1], v) for k, v in terms.items()]


def pair_expansion_check(M: FockModule, alpha, beta, wslots, zslots, probes):
    """Two-variable product identity: the w^(-ws-1) z^(-zs-1)
    coefficient of X_alpha(w)X_beta(z) equals that of
    eps(alpha,beta) X_{alpha,beta}(w,z) i_{w,z}
    prod_s (w^(1/p) - om^s z^(1/p))^((sigma^(-s) alpha | beta))."""
    alpha, beta = tuple(alpha), tuple(beta)
    ca = M.lattice_coords(alpha)
    cb = M.lattice_coords(beta)
    eps = M.twist.epsilon(alpha, beta)
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    e_ab = M.e_op(gamma)
    azs = [M.vertex_exponent(beta, i) for i in range(M.omega.size)]
    aws = [M.vertex_exponent(alpha, i) for i in range(M.omega.size)]
    maxdeg = max((v.max_degree() for v in probes if v.terms),
                 default=Fraction(0))
    kz_bound = max(
        [Fraction(0)]
        + [-_frac(zs) - 1 - az + (maxdeg - M.floor)
           for zs in zslots for az in azs])
    kterms = _pair_kernel_terms(M, alpha, beta, kz_bound)
    p = M.p
    report = []
    for ws in wslots:
        for zs in zslots:
            wsf, zsf = _frac(ws), _frac(zs)
            statuses = []
            for v in probes:
                lhs = M.vertex_coeff(alpha, wsf).apply(
                    M.vertex_coeff(beta, zsf).apply(v))
                rhs = FockVector(M, {}, v.poisoned)
                for (word, iota), coeff in v.terms.items():
                    base = FockVector(M, {(word, iota): coeff})
                    az, aw = azs[iota], aws[iota]
                    # e1, e2, f1, f2 are scaled by p
                    for (v1, e1) in M._ann_expand(cb, base):
                        for (v2, e2) in M._ann_expand(ca, v1):
                            for (kw, kz, kc) in kterms:
                                f1 = (-zsf - 1 - az - kz) * p + e1
                                if f1 < 0 or f1.denominator != 1:
                                    continue
                                f2 = (-wsf - 1 - aw - kw) * p + e2
                                if f2 < 0 or f2.denominator != 1:
                                    continue
                                v3 = M._cre_expand(cb, v2, f1.numerator)
                                v4 = M._cre_expand(ca, v3, f2.numerator)
                                rhs = rhs + e_ab.apply(v4).scale(kc)
                statuses.append(vector_status(lhs - rhs.scale(eps)))
            report.append(((wsf, zsf), worst_status(statuses)))
    return report
