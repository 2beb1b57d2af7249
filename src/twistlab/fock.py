"""Truncated twisted Heisenberg Fock modules and vertex operators.

The module carrier is M(1) tensor Omega: creation words in eigenmodes of
the lattice automorphism times a vacuum-space basis element carrying a
weight functional and a group-algebra action e(alpha).  All operators
act exactly; creations beyond the truncation degree flag the result as
poisoned, which downstream checks report as untestable rather than
passed.

A vector with no terms, zero or poisoned, is a fixed point of every
operator: FockOp.apply and FockModule.mode_apply return it unchanged.
Every Fock linear combination (an operator sum, difference or multiple,
a product coefficient, a vertex-operator coefficient, the Virasoro
double sum, the creation exponential, the reconstruction and
pair-expansion sums) adds its scaled summands into one dict (_summed);
the first poisoned summand is the result, and the summands after it are
never evaluated.  Operator sums are flat lists of (operator,
coefficient) parts, not nested closures, and add no empty layer: a sum
with the empty sum (FockModule.zero_op) is the other operand, with its
parity, and a scale by one is the operator itself.

The Heisenberg modes h(n), n in (1/p)Z, are the module's kernel: every
operator above reduces to them.  Inside the module a mode is the int
n*p (grid_slot), and a mode off (1/p)Z is the empty operator (mode_op).
The module keeps the plan of each (coordinates, mode) for its own life:
the acting eigenvectors of a creation, the nonzero contraction factors
of an annihilation, and the zero mode's weight xi(h) on every vacuum
line; a factor equal to one multiplies nothing.  A remembered operator
keeps its results itself (FockOp.remembered, FockOp.seen).  An
annihilation mode that no word of a vector holds sends it to zero,
exactly and never poisoned (_held_modes): the annihilation exponential
tries only the held modes, and the Virasoro double sums (the degree
operator and D) skip each term whose first operator annihilates an
unheld mode and stop at the largest held one, so a line of high degree
costs no more than the lowest.

Both exponentials of a vertex operator are products of mode
exponentials on bare creation words, which read only the eigenbasis
(its qs, pairing and p), so the eigenbasis keeps them as tables
(GradedBasis.creation_terms and annihilation_terms): the z^degree
coefficient of the creation exponential as the words it adds, and the
annihilation exponential on one word, path by path.  A module merges
them into the words of a vector on every call (FockModule._cre_expand
and _ann_expand, which keep no memo of their own: one keyed by the
vector would hash its scalars), so every job, truncation and vacuum
space of a content reads the same tables.  A vertex coefficient reads
only what can reach its slot: no annihilation path of a word passes
the word's own creation degree, so a word below the slot's reach reads
no table, and _ann_expand builds only the paths of at least the degree
its caller asks for.  The eigen-coordinates the
eigenbasis hands out (decompose, units, duals) hash their scalars once,
so a memo keyed by them, the plans and the tables, hashes no scalar on
a read.

Vectors are values, so a vector keeps its hash and its degree
(max_degree_k) beside its terms once computed.  Both vacuum spaces,
RegularOmega and classify.ClassOmega, state their size without listing
anything, list their lines, lookup and weights (integer rows over one
denominator: a weight lies in a rational coset of the dual of the
sigma-fixed lattice) and read the lattice's eigenbasis (`basis`, which
the module reads) on first use, and keep e(alpha) per (alpha, line),
exits included.

What depends only on the twist's content has one owner, the
enumeration memo's entry for that content (`_kept.kept_value`): the
regular vacuum space of each bound (RegularOmega(T, bound) returns the
kept one) and the eigenbasis every vacuum space of the content reads,
with its exponential tables.
A vacuum space keeps the module's tables (`_ModuleTables`) per creation
cap.  A module of more than MAX_BASIS basis vectors up to its
truncation, creation words (counted in integers) times vacuum lines, is
refused (SizeCapExceeded) before any line or vector is built, on every
construction, a kept word count included; a refusal keeps no tables.
Otherwise the module reads each weight once, as an integer on its
grid.  Each value has one face, the integer one the module computes
with: a degree is max_degree_k or floor_k, a vertex exponent is
vertex_exponents_k, all times the grid, and the eigen-coordinates of
a lattice vector are basis.decompose.  Vertex exponents and the
Heisenberg series (tilde) are made on each call, not kept.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._kept import kept, kept_value
from .classify import SizeCapExceeded
from .cocycle import TwistData, locality_order
from .fdist import (
    GenSeries,
    _frac,
    _int_binom,
    coeff_is_zero,
    compare_status,
    derive,
    grid_slot,
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
from .linalg import field_inverse
from .scalar import CycScalar, ONE, ZERO, as_scalar, root_of_unity


MINUS_ONE = CycScalar.rational(-1)
# a bound on the basis vectors of a Fock module up to its truncation,
# creation words times vacuum lines, the product `check` lists: the
# slowest specs measured under it (rank 1 at trunc 35 or sigma = -1 at
# trunc 29, bound 1) check in about 50 s on a 2-core machine
MAX_BASIS = 2 ** 18


class FockError(Exception):
    pass


def _integer_rows(rows):
    """(D, the rows times D) for rows of rationals, D their least common
    denominator."""
    D = math.lcm(*(x.denominator for r in rows for x in r))
    return D, [[x.numerator * (D // x.denominator) for x in r] for r in rows]


def _held_modes(v) -> set:
    """The annihilation modes, scaled by p, that can act on v: the
    creations its words hold, negated; any other sends v to zero."""
    return {-mm for word, _iota in v.terms for mm, _j in word}


class _Coords(tuple):
    """Eigen-coordinates, a tuple of CycScalar that hashes its items
    once (`_coords`): a memo keyed by coordinates (the mode plans, the
    exponential tables) hashes no scalar on a read."""

    def __hash__(self):
        return self._hash


def _coords(items) -> _Coords:
    out = _Coords(items)
    out._hash = tuple.__hash__(out)
    return out


def _word_mode(terms: dict, ms: int, plan) -> dict:
    """h(ms/p) on {creation word: scalar}, the plan being
    GradedBasis._mode_factors: FockModule.mode_apply on bare words, with
    no cap."""
    out = {}
    if ms < 0:
        for word, x in terms.items():
            for j, c in plan:
                _add_term(out, tuple(sorted(word + ((ms, j),))), _times(x, c))
    else:
        for word, x in terms.items():
            for pos, (mm, jj) in enumerate(word):
                if mm == -ms:
                    fac = plan.get(jj)
                    if fac is not None:
                        _add_term(out, word[:pos] + word[pos + 1:],
                                  _times(x, fac))
    return out


# ---------------------------------------------------------------------
# Eigenbasis of the automorphism
# ---------------------------------------------------------------------

def _projector_sum(p: int, q: int, entries) -> CycScalar:
    """(1/p) sum_s omega^(-qs) entries[s] for integers entries[s]."""
    dense = [0] * p
    for s, x in enumerate(entries):
        dense[(-q * s) % p] += x
    return CycScalar.from_ints(p, dense, p)


def _eigenspace_rref(lattice, q: int, mult: int):
    """The RREF rows of the omega^q-eigenspace of sigma, of dimension
    mult > 0, as (pivot, row) pairs.  Row k of the transposed
    eigenprojector P = (1/p) sum_s omega^(-qs) sigma^s is P e_k, an
    eigenvector; the rows are taken in order, each reduced at the
    pivots found so far and kept when it is not in their span, until
    mult are found.  The kept rows, each with a one at its pivot and
    zeros at the others', sorted by pivot, are the RREF, which is
    unique: the same rows a full elimination of P gives, with no row
    reduced past the last one needed."""
    p, l, pows = lattice.p, lattice.rank, lattice.sigma_pows
    found = {}
    for k in range(l):
        row = [_projector_sum(p, q, [m[i][k] for m in pows])
               for i in range(l)]
        for c, b in found.items():
            f = row[c]
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None:
            continue
        inv = row[c].inverse()
        row = [x * inv for x in row]
        for c2, b in found.items():
            f = b[c]
            if f:
                found[c2] = [x - f * y for x, y in zip(b, row)]
        found[c] = row
        if len(found) == mult:
            break
    return [(c, tuple(found[c])) for c in sorted(found)]


class GradedBasis:
    """Eigenbasis h_1..h_l of the complexified lattice space with
    sigma h_j = omega^(q_j) h_j, the pairing matrix in that basis, and
    dual bases for the Virasoro sums.  Everything is built once from
    the lattice's integer tables.  The multiplicity of each eigenvalue
    omega^q is the trace of its eigenprojector, (1/p) sum_s omega^(-qs)
    tr sigma^s, from the integer traces; an eigenvalue of multiplicity
    zero costs nothing more, and each other eigenspace is read off as
    many projector rows as its multiplicity needs (`_eigenspace_rref`).
    Each h_j is one at its pivot and zero at the other pivots of its
    eigenspace, so the eigen-coordinates of a vector are entries of its
    projections: the coordinate rows are projector rows.  The one full
    elimination is the inverse of the pairing, for the duals.

    It keeps the two exponential factors of the vertex operators as
    tables on creation words (`creation_terms`, `annihilation_terms`),
    for its own life: the enumeration memo keeps one eigenbasis per
    twist content, so every module of the content reads them.  A
    creation table holds at most one term per creation word of its
    degree, and an annihilation table one per sub-word of its word on
    each of at most 2^(creations in the word) paths; there is one table
    per (coordinates, degree or word, sign) asked for, and they are not
    weighed against `_kept.MAX_WORK`."""

    def __init__(self, lattice):
        self.lattice = lattice
        p, l = lattice.p, lattice.rank
        self.p = p
        traces = [sum(m[i][i] for i in range(l)) for m in lattice.sigma_pows]
        qs, vecs, pivots = [], [], []
        for q in range(p):
            # the trace of a projector: an integer, its rank
            mult = _projector_sum(p, q, traces)
            if not mult:
                continue
            for c, r in _eigenspace_rref(lattice, q, mult.num[0]):
                qs.append(q)
                pivots.append(c)
                vecs.append(r)
        if len(vecs) != l:
            raise FockError("automorphism is not semisimple over Q(omega)")
        self.qs = tuple(qs)
        self.vecs = tuple(vecs)
        # G h_j, each entry the lattice pairing (e_a | h_j)
        g = lattice.gram
        gh = [[sum((h[b] * g[a][b] for b in range(l) if g[a][b]), ZERO)
               for a in range(l)] for h in vecs]
        # (h_i|h_j) is symmetric, and zero unless q_i + q_j = 0 mod p,
        # since sigma preserves the form (the lattice checks that)
        self.pairing = [[ZERO] * l for _ in range(l)]
        for i in range(l):
            for j in range(i, l):
                if (qs[i] + qs[j]) % p == 0:
                    self.pairing[i][j] = self.pairing[j][i] = sum(
                        (vecs[i][a] * gh[j][a] for a in range(l)), ZERO)
        try:
            minv = field_inverse(self.pairing, ONE)
        except ValueError:
            raise FockError("degenerate pairing on the eigenbasis")
        # dual basis in eigenbasis coefficients: beta_j = sum_i
        # minv[i][j] h_i, so that (h_i | beta_j) = delta_ij
        self.duals = tuple(
            _coords(minv[i][j] for i in range(l)) for j in range(l))
        # a lattice vector v = sum_j c_j h_j has c_j = (P_(q_j) v)_(pivot
        # of h_j), P_q the eigenprojector: row j holds that row of
        # P_(q_j), an integer sum over the sigma powers
        pows = lattice.sigma_pows
        self.coord_rows = tuple(
            tuple(_projector_sum(p, q, [m[c][a] for m in pows])
                  for a in range(l)) for q, c in zip(qs, pivots))
        self.residues = tuple(Fraction(q, p) for q in qs)
        # the eigen-coordinates of each h_j alone
        self.units = tuple(_coords(ONE if j == i else ZERO for j in range(l))
                           for i in range(l))

    @kept
    def decompose(self, vec):
        """Coordinates of a lattice-basis vector in the eigenbasis, kept
        per vector."""
        return _coords(sum((c * x for c, x in zip(row, vec) if x), ZERO)
                       for row in self.coord_rows)

    # -- the exponential factors of a vertex operator ------------------

    def _mode_factors(self, coords, ms):
        """What h(ms/p) does to a creation word, for h = sum_j coords_j
        h_j and a nonzero int mode ms scaled by p: () when no h_j acts
        (no coordinate on the residue of ms); for a creation the acting
        (j, c) pairs; for an annihilation the nonzero factors
        (h|h_jj) ms/p, keyed by jj.  A value equal to one is the object
        ONE, so an action can skip its multiply."""
        qs, p = self.qs, self.p
        res = ms % p
        active = tuple((j, _unit(c)) for j, c in enumerate(coords)
                       if c and qs[j] == res)
        if ms < 0 or not active:
            return active
        fm = CycScalar.from_ints(1, [ms], p)
        facs = {}
        for jj, q in enumerate(qs):
            if (q + res) % p == 0:
                fac = fm * sum((c * self.pairing[j][jj] for j, c in active),
                               ZERO)
                if fac:
                    facs[jj] = _unit(fac)
        return facs or ()

    def _exp_words(self, coords, word, sign, modes, bound):
        """The terms of prod_m exp(sign (p/|m|) h(m/p)) on a creation
        word, for the scaled modes m in order, as (degree, path, terms):
        per path, the powers k_m of the modes applied, ((m, k_m), ...)
        for k_m > 0, of degree sum_m k_m |m| <= bound, in lexicographic
        order of the powers; terms {word: scalar}, the path's factor
        prod_m (sign p/|m|)^(k_m)/k_m! applied.  A path whose terms
        vanish is left out, and so are its extensions."""
        p = self.p
        paths = [({word: ONE}, 0, (), 1, 1)]
        for m in modes:
            plan = self._mode_factors(coords, m)
            if not plan:
                continue
            u, new = abs(m), []
            for cur, deg, path, num, den in paths:
                new.append((cur, deg, path, num, den))
                k = 1
                while deg + k * u <= bound:
                    cur = _word_mode(cur, m, plan)
                    if not cur:
                        break
                    num, den = num * sign * p, den * u * k
                    new.append((cur, deg + k * u, path + ((m, k),), num, den))
                    k += 1
            paths = new
        out = []
        for cur, deg, path, num, den in paths:
            if num != den:
                s = CycScalar.from_ints(1, [num], den)
                cur = {w: x * s for w, x in cur.items()}
            out.append((deg, path, cur))
        return out

    @kept(tally="creation")
    def creation_terms(self, coords, degree, sign):
        """The z^(degree/p) coefficient of the creation exponential
        exp(sum_(n<0) -sign h(n)/n z^(-n)), for h = sum_j coords_j h_j
        and the int degree > 0 scaled by p, as (added word, scalar)
        pairs.  Creation modes only add to a word, so one table serves
        every vector: the coefficient on a word w is sum x (w + added).
        Kept per (coords, degree, sign) for the life of the eigenbasis."""
        out = {}
        for deg, _path, terms in self._exp_words(
                coords, (), sign, range(-1, -degree - 1, -1), degree):
            if deg == degree:
                for w, x in terms.items():
                    _add_term(out, w, x)
        return tuple(out.items())

    @kept(tally="annihilation")
    def annihilation_terms(self, coords, word, sign):
        """The annihilation exponential exp(sum_(n>0) sign h(n)/n
        z^(-n)) on one creation word, for h = sum_j coords_j h_j, path
        by path (_exp_words) over the modes the word holds (no other
        acts): (degree scaled by p, path, ((word, scalar), ...)) in
        lexicographic order of the powers, the empty path first.  Kept
        per (coords, word, sign) for the life of the eigenbasis."""
        modes = sorted({-m for m, _j in word})
        return tuple(
            (deg, path, tuple(terms.items())) for deg, path, terms in
            self._exp_words(coords, word, sign, modes,
                            -sum(m for m, _j in word)))


def _content_basis(twist: TwistData) -> GradedBasis:
    """The lattice's eigenbasis, the one kept for the twist's content and
    read by every vacuum space of it."""
    return kept_value(twist, ("basis",), lambda: GradedBasis(twist.lattice))


# ---------------------------------------------------------------------
# Vacuum-space specifications
# ---------------------------------------------------------------------

class RegularOmega:
    """Vacuum space spanned by symbols indexed by the lattice vectors of
    a box window, |b_k| <= bound; e(alpha) acts by the 2-cocycle and
    shifts the index, mapping a line to one line times a scalar, (line,
    scalar), or to None when the shift leaves the window, which poisons
    the computation.  Its size is (2 bound + 1)^rank; its lines, lookup,
    weights and the lattice's eigenbasis are made on first use, and it
    keeps the module tables of each creation cap (`tables`, which
    FockModule fills).

    It depends only on the twist's content and the bound, so
    `RegularOmega(T, bound)` returns the one kept in the enumeration
    memo's entry for T's content (`_kept.kept_value`), built on the
    first twist that asked for it, with its e-action memo."""

    def __new__(cls, twist: TwistData, bound: int):
        def build():
            omega = object.__new__(cls)
            omega.twist = twist
            omega.bound = bound
            omega.size = (2 * bound + 1) ** twist.lattice.rank
            omega.tables = {}
            return omega

        return kept_value(twist, ("regular", bound), build)

    @cached_property
    def basis(self):
        """The eigenbasis of the lattice, which every Fock module on this
        vacuum space reads."""
        return _content_basis(self.twist)

    @cached_property
    def lines(self):
        b = self.bound
        return list(itertools.product(range(-b, b + 1),
                                      repeat=self.twist.lattice.rank))

    @cached_property
    def lookup(self):
        return {b: i for i, b in enumerate(self.lines)}

    @cached_property
    def weights(self):
        """(D, rows): xi(e_k(0)) on the line i is rows[i][k] / D; on the
        line of b it is (e_k^0|b) = nu_p(b)_k / p."""
        lat = self.twist.lattice
        return lat.p, [lat.nu_p(b) for b in self.lines]

    @kept
    def e_act(self, alpha, i):
        """e(alpha) on the line i: (line, scalar), or None when the
        shift leaves the window; kept per (alpha, line) for the life of
        the vacuum space, exits included."""
        beta = self.lines[i]
        target = tuple(a + b for a, b in zip(alpha, beta))
        j = self.lookup.get(target)
        if j is None:
            return None
        return j, self.twist.epsilon(alpha, beta).scalar()


# ---------------------------------------------------------------------
# Vectors and operators
# ---------------------------------------------------------------------

class FockVector:
    """A vector of the truncated module: terms {(word, iota): scalar}.

    Vectors are values: nothing writes `terms` once the vector is
    built, so a vector can key the memo of a series coefficient
    (FockOp.remembered), and a sum or scale that changes nothing hands
    back its operand itself, and a vector keeps its hash and its
    degree (max_degree_k) once computed."""

    __slots__ = ("module", "terms", "poisoned", "_hash", "_degree")

    def __init__(self, module, terms=None, poisoned=False):
        self.module = module
        self._hash = self._degree = None
        self.terms = {}
        # a poisoned vector is untestable wherever it is consumed, so
        # its terms can never influence a verdict: drop them and spare
        # all downstream work
        if not poisoned:
            for key, val in (terms or {}).items():
                if val:
                    self.terms[key] = val
        self.poisoned = poisoned

    @classmethod
    def _of(cls, module, terms, poisoned=False):
        """The vector owning terms, a fresh dict of nonzero values (empty
        when poisoned): __init__ without its copy and zero test."""
        out = object.__new__(cls)
        out.module = module
        out.terms = terms
        out.poisoned = poisoned
        out._hash = out._degree = None
        return out

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if other.poisoned or not self.terms:
            return self if self.poisoned else other
        if not other.terms:
            return self
        return _summed(self.module, ((self, ONE), (other, ONE)))

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def scale(self, s):
        if not self.terms:
            return self
        s = s if isinstance(s, CycScalar) else as_scalar(s)
        if not s:
            return FockVector._of(self.module, {})
        if s == ONE:
            return self
        out = FockVector._of(self.module,
                             {k: v * s for k, v in self.terms.items()})
        # a nonzero multiple has the same terms, so the same degree
        out._degree = self._degree
        return out

    def __eq__(self, other):
        return (isinstance(other, FockVector)
                and self.terms == other.terms
                and self.poisoned == other.poisoned)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.poisoned))
        return self._hash

    def max_degree_k(self) -> int:
        """The largest degree of a term, times the module's grid, kept
        on the vector."""
        d = self._degree
        if d is None:
            d = self._degree = max(map(self.module.term_degree_k,
                                       self.terms))
        return d

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


def _add_term(out: dict, key, x) -> None:
    """Add the nonzero scalar x at key of out, dropping a zero sum."""
    y = out.get(key)
    if y is None:
        out[key] = x
    else:
        y = y + x
        if y:
            out[key] = y
        else:
            del out[key]


def _unit(x: CycScalar) -> CycScalar:
    """x, or the object ONE when x equals one."""
    return ONE if x == ONE else x


def _times(x: CycScalar, c: CycScalar) -> CycScalar:
    """x * c, with no multiply when either factor is the object ONE."""
    if c is ONE:
        return x
    if x is ONE:
        return c
    return x * c


def _summed(module, pairs, poisoned=False) -> FockVector:
    """The linear combination of the (vector, coefficient) pairs that
    pairs yields, summed in one dict.  A poisoned vector has no terms
    and poisons every sum it enters, so the first poisoned vector is
    the result and the pairs after it are never drawn; poisoned=True
    stops the sum before the first.  A coefficient that is the object
    ONE multiplies nothing."""
    if poisoned:
        return FockVector._of(module, {}, True)
    out = {}
    for w, c in pairs:
        if w.poisoned:
            return w
        if c:
            for key, x in w.terms.items():
                _add_term(out, key, x if c is ONE else x * c)
    return FockVector._of(module, out)


def _word_count(qs, p: int, cap: int, limit: int) -> int:
    """The number of creation words of degree at most cap, scaled by p,
    or a number above limit once they pass it.  The modes of h_j weigh
    p - q_j + t p, t >= 0, scaled; the words of degree s are counted
    in integers by n a(n) = sum_(k=1..n) c(k) a(n - k), c(k) the sum of
    the mode weights that divide k."""
    rs = [(p - q) % p for q in qs]
    a, c, total = [1], [0], 1
    for s in range(1, cap + 1):
        c.append(sum(d for d in range(1, s + 1) if s % d == 0
                     for r in rs if d % p == r))
        a.append(sum(c[k] * a[s - k] for k in range(1, s + 1)) // s)
        total += a[s]
        if total > limit:
            break
    return total


class FockOp:
    """An operator on a FockModule: a function of vectors (fn), or a
    flat linear combination (parts, a list of (operator, coefficient)
    pairs) that +, -, scale and negation build.  A vector with no
    terms, zero or poisoned, is a fixed point of every operator, so
    apply hands it back without evaluating anything.  Operators are
    values: a sum with the empty sum (FockModule.zero_op) is the other
    operand, and a scale by one the operator itself.  A remembered
    operator (remembered) keeps its result per vector in seen."""

    __slots__ = ("module", "fn", "parts", "parity", "seen")

    def __init__(self, module, fn, parity=0):
        self.module = module
        self.fn = fn
        self.parts = None
        self.parity = parity % 2
        self.seen = None

    @classmethod
    def _combination(cls, module, parts, parity):
        out = cls(module, None, parity)
        out.parts = parts
        return out

    def _as_parts(self):
        # a remembered operator stays one part, so that sums keep its memo
        plain = self.parts is not None and self.seen is None
        return self.parts if plain else [(self, ONE)]

    def apply(self, v: FockVector) -> FockVector:
        seen = self.seen
        if seen is None or not v.terms:
            return self._eval(v) if v.terms else v
        out = seen.get(v)
        if out is None:
            out = seen[v] = self._eval(v)
        return out

    def _eval(self, v: FockVector) -> FockVector:
        """The operator on v, with no fixed-point shortcut."""
        parts = self.parts
        if parts is None:
            return self.fn(v)
        return _summed(self.module, ((op.apply(v), c) for op, c in parts),
                       v.poisoned)

    def remembered(self):
        """The operator itself, keeping its result per vector for its
        own life (seen).  GenSeries.coeff hands out these, so a product
        applying the same coefficient to the same vector on every slot
        and probe computes the operator tree below it once.  The empty
        sum stays as it is, and a second call keeps the one memo."""
        if self.parts != [] and self.seen is None:
            self.seen = {}
        return self

    def compose(self, other):
        return FockOp(self.module, lambda v: self.apply(other.apply(v)),
                      self.parity + other.parity)

    def bracket(self, other):
        """The super bracket [self, other]."""
        sign = -1 if (self.parity and other.parity) else 1
        return self.compose(other) - other.compose(self).scale(sign)

    def __add__(self, other):
        # the empty sum (FockModule.zero_op) adds no layer: the sum is the
        # other operand, with its parity
        if other.parts == []:
            return self
        if self.parts == []:
            return other
        return FockOp._combination(
            self.module, self._as_parts() + other._as_parts(), self.parity)

    def __sub__(self, other):
        if other.parts == []:
            return self
        if self.parts == []:
            return -other
        return FockOp._combination(
            self.module,
            self._as_parts() + [(op, -c) for op, c in other._as_parts()],
            self.parity)

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, s):
        s = s if isinstance(s, CycScalar) else as_scalar(s)
        if s == ONE:
            return self
        return FockOp._combination(
            self.module,
            [(op, s if c is ONE else c * s) for op, c in self._as_parts()],
            self.parity)


# ---------------------------------------------------------------------
# The module itself
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class _ModuleTables:
    """What a module reads off its vacuum space, its eigenbasis and its
    creation cap alone (`FockModule._tables`), kept by the vacuum space
    per cap (its `tables`): the creation-word count, xi(h_j) on each
    vacuum line for the sigma-fixed h_j, the grid, the degree of a mode
    step 1/p, the line degrees and their least, and the xi entries, all
    on the grid.  Every module on the vacuum space reads the same lists,
    so none may change them."""
    words: int
    zero_weights: list
    grid: int
    mode_step: int
    degree_k: list
    floor_k: int
    xi_k: list


class FockModule:
    """M(1) tensor Omega, truncated at creation degree T.  Its tables
    (`_ModuleTables`) are those its vacuum space keeps for its creation
    cap; the module and its memos are its own."""

    def __init__(self, twist: TwistData, omega, trunc):
        self.twist = twist
        self.lattice = twist.lattice
        self.basis = omega.basis
        self.omega = omega
        self.trunc = _frac(trunc)
        self.p = self.lattice.p
        # the largest creation degree of a term, in modes scaled by p
        self.cap = math.floor(self.trunc * self.p)
        tables = omega.tables.get(self.cap)
        if tables is None:
            tables = omega.tables.setdefault(self.cap, self._tables())
        # a kept count meets the cap of this construction too
        self._refuse(tables.words)
        self.zero_weights = tables.zero_weights
        self.grid = tables.grid
        self.mode_step = tables.mode_step
        self.degree_k = tables.degree_k
        self.floor_k = tables.floor_k
        self._xi_k = tables.xi_k

    def _refuse(self, words):
        lines = self.omega.size
        if words * lines > MAX_BASIS:
            raise SizeCapExceeded(
                f"a module of degree at most {self.trunc} in rank "
                f"{self.lattice.rank} on {lines} vacuum lines has more "
                f"than {MAX_BASIS} basis vectors, the cap")

    def _tables(self) -> _ModuleTables:
        """The tables of this module, computed afresh; the word count is
        refused against MAX_BASIS before any line is listed."""
        omega, basis, p = self.omega, self.basis, self.p
        l = self.lattice.rank
        words = _word_count(basis.qs, p, self.cap, MAX_BASIS // omega.size)
        self._refuse(words)
        fixed = [j for j in range(l) if basis.qs[j] == 0]
        # the lines' xi entries, integer rows over X, and the rational
        # sigma-fixed h_j and their duals, made integer rows over V, U
        X, xis = omega.weights
        V, vecs = _integer_rows(
            [[x.rational_value() for x in basis.vecs[j]] for j in fixed])
        U, duals = _integer_rows([[basis.duals[j][t].rational_value()
                                   for t in fixed] for j in fixed])
        # xi(h_j) on each vacuum line, for the sigma-fixed h_j, over V X:
        # the zero mode h_j(0) multiplies the line by it, and the line's
        # degree, half of sum_j xi(h_j) xi(beta_j), is over 2 U (V X)^2
        nums = [[sum(v * x for v, x in zip(row, xi) if v) for row in vecs]
                for xi in xis]
        zero_weights = [{j: Fraction(n, V * X) for j, n in zip(fixed, ns)}
                        for ns in nums]
        dd = 2 * U * (V * X) ** 2
        degs = [sum(n * sum(d * m for d, m in zip(row, ns) if d)
                    for n, row in zip(ns, duals)) for ns in nums]
        # the grid (1/grid)Z of every slot and degree: 2p holds
        # (alpha'|alpha')/2, the xi entries xi(alpha(0)), the degrees the rest
        grid = math.lcm(
            2 * p, *(X // math.gcd(x, X) for xi in xis for x in xi),
            *(dd // math.gcd(n, dd) for n in degs))
        degree_k = [n * grid // dd for n in degs]
        return _ModuleTables(
            words, zero_weights, grid, grid // p, degree_k,
            min(degree_k, default=0),
            [tuple(x * grid // X for x in xi) for xi in xis])

    # -- vectors and operators ----------------------------------------

    def zero_vec(self):
        return FockVector(self, {})

    def zero_op(self, parity: int = 0) -> FockOp:
        """The empty sum, of the given parity."""
        return FockOp._combination(self, [], parity)

    def vacuum(self, i=0):
        return FockVector(self, {((), i): ONE})

    def term_degree_k(self, key) -> int:
        # inside this module a Heisenberg mode m is the integer m*p:
        # word keys store it, and the mode grids, residue tests and
        # creation caps work on it; a degree is the integer degree*grid
        # (term_degree_k, max_degree_k, floor_k); Fraction enters only
        # at mode_op
        word, iota = key
        return -sum(m for m, _ in word) * self.mode_step + \
            self.degree_k[iota]

    def basis_vectors(self, max_degree):
        """All monomial basis vectors of creation degree <= max_degree,
        each word in depth-first order of its modes, with every vacuum
        line."""
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
        # (first mode index, word, degree left); a word's extensions are
        # pushed last first, so they are popped in mode order
        stack = [(0, (), cap)]
        while stack:
            start, word, left = stack.pop()
            key = tuple(sorted(word))
            for iota in range(self.omega.size):
                out.append(FockVector(self, {(key, iota): ONE}))
            for k in range(len(modes) - 1, start - 1, -1):
                m, j = modes[k]
                if -m <= left:
                    stack.append((k, word + ((m, j),), left + m))
        return out

    # -- Heisenberg action --------------------------------------------

    @kept
    def _mode_plan(self, coords, ms):
        """What h(ms/p) does, for h = sum_j coords_j h_j: for the zero
        mode xi(h) on each vacuum line (zero_weights), or () when no
        sigma-fixed h_j acts; for any other mode the eigenbasis's plan
        (GradedBasis._mode_factors).  A value equal to one is the object
        ONE, so mode_apply can skip its multiply."""
        if ms:
            return self.basis._mode_factors(coords, ms)
        qs = self.basis.qs
        active = [(j, c) for j, c in enumerate(coords) if c and qs[j] == 0]
        if not active:
            return ()
        return tuple(_unit(sum((c * w[j] for j, c in active), ZERO))
                     for w in self.zero_weights)

    def mode_apply(self, coords, ms, v: FockVector) -> FockVector:
        """h(ms/p) applied to v for h = sum_j coords_j h_j and the int
        mode ms scaled by p: the one Heisenberg action of the module.
        Only the h_j with ms = q_j mod p act.  A creation (ms < 0) adds
        the mode to each word, an annihilation (ms > 0) removes each
        creation (-ms/p, h_jj), once per occurrence, with the factor
        (h|h_jj) ms/p, and the zero mode multiplies each line by xi(h).
        The module keeps the plan of each (coords, ms) (_mode_plan)."""
        if not v.terms:
            return v
        plan = self._mode_plan(coords, ms)
        out = {}
        if not plan:
            return FockVector._of(self, out)
        if ms < 0:
            cap = self.cap
            for (word, iota), coeff in v.terms.items():
                if -sum(mm for mm, _ in word) - ms > cap:
                    return FockVector._of(self, {}, True)
                for j, c in plan:
                    key = (tuple(sorted(word + ((ms, j),))), iota)
                    _add_term(out, key, _times(coeff, c))
        elif ms > 0:
            for (word, iota), coeff in v.terms.items():
                for pos, (mm, jj) in enumerate(word):
                    if mm == -ms:
                        fac = plan.get(jj)
                        if fac is not None:
                            key = (word[:pos] + word[pos + 1:], iota)
                            _add_term(out, key, _times(coeff, fac))
        else:
            for (word, iota), coeff in v.terms.items():
                x = plan[iota]
                if x:
                    out[(word, iota)] = _times(coeff, x)
        return FockVector._of(self, out)

    def mode_op(self, coords, m) -> FockOp:
        """h(m) as an operator, for an int or Fraction mode m; off the
        grid (1/p)Z no h_j acts, so it is the empty operator."""
        ms = grid_slot(m, self.p)
        if ms is None:
            return self.zero_op()
        return self._mode_op(coords, ms)

    def _mode_op(self, coords, ms) -> FockOp:
        """h(ms/p) as an operator, the int mode ms scaled by p."""
        return FockOp(self, lambda v: self.mode_apply(coords, ms, v), 0)

    def e_op(self, alpha) -> FockOp:
        """e(alpha): each line moved by the vacuum space's action, which
        maps a line to one line times a scalar, (line, scalar), or to
        None when it leaves the window; such a line poisons the result.
        Distinct lines have distinct images, so no two terms meet and
        the image is written into one dict."""
        alpha = tuple(alpha)

        def fn(v):
            out = {}
            for (word, iota), coeff in v.terms.items():
                image = self.omega.e_act(alpha, iota)
                if image is None:
                    return FockVector._of(self, {}, True)
                iota2, s = image
                out[(word, iota2)] = coeff * s
            return FockVector._of(self, out, v.poisoned)

        return FockOp(self, fn, self.lattice.pairing(alpha, alpha) % 2)

    # -- product coefficients -----------------------------------------

    def integral_product_coeff(self, a, b, ra, rb, n: int, m: int):
        """Coefficient (a0 [n] b0)(m) of the degree-ra and degree-rb
        components a0(k) = a(k + ra), b0(k) = b(k + rb).  The residues
        ra, rb are on the module's grid D, and so are the degree bounds
        below."""
        if a.shift_k is None or b.shift_k is None:
            raise FockError("operator products need degree-shift data")
        D = self.grid
        fl = self.floor_k
        ca0, cb0 = a.shift_k - ra - fl, b.shift_k - rb - fl
        super_sign = -1 if (a.parity and b.parity) else 1

        def summands(v):
            d = v.max_degree_k()
            smax = (d + cb0) // D - m
            if n >= 0:
                smax = min(smax, n)
            for s in range(smax + 1):
                c = _int_binom(n, s)
                if not c:
                    continue
                w = a._at((n - s) * D + ra).apply(
                    b._at((m + s) * D + rb).apply(v))
                yield w, (c if s % 2 == 0 else -c)
            low = n - (d + ca0) // D
            if n >= 0:
                low = max(low, 0)
            for s in range(low, n + 1):
                c = _int_binom(n, n - s)
                if not c:
                    continue
                w = b._at((m + s) * D + rb).apply(
                    a._at((n - s) * D + ra).apply(v))
                sgn = -super_sign * (1 if s % 2 == 0 else -1)
                yield w, (c if sgn > 0 else -c)

        def fn(v):
            return _summed(self, summands(v)) if v.terms else v

        return FockOp(self, fn, a.parity + b.parity)

    def residue_product_coeff(self, a, b, n: int, t, terms, sign):
        """Slot-t coefficient of the residue-form product with explicit
        kernel terms (w-exponent, z-exponent, coefficient); the slot
        and the exponents are on the module's grid D."""
        D = self.grid
        fl = self.floor_k
        ca, cb = a.shift_k - fl, b.shift_k - fl

        def summands(v):
            d = v.max_degree_k()
            for (u, ve, kc) in terms:
                imax = (d + cb - t - ve) // D
                if n >= 0:
                    imax = min(imax, n)
                for i in range(imax + 1):
                    c = kc * _int_binom(n, i)
                    if not c:
                        continue
                    w = a._at((n - i) * D + u).apply(
                        b._at(t + i * D + ve).apply(v))
                    yield w, (c if i % 2 == 0 else -c)
                imax2 = (d + ca - u) // D
                if n >= 0:
                    imax2 = min(imax2, n)
                for i in range(imax2 + 1):
                    c = kc * _int_binom(n, i)
                    if not c:
                        continue
                    w = b._at(t + (n - i) * D + ve).apply(
                        a._at(i * D + u).apply(v))
                    sgn = -sign * (1 if (n + i) % 2 == 0 else -1)
                    yield w, (c if sgn > 0 else -c)

        def fn(v):
            return _summed(self, summands(v)) if v.terms else v

        return FockOp(self, fn, a.parity + b.parity)

    # -- series builders ----------------------------------------------

    def tilde(self, alpha) -> GenSeries:
        """The Heisenberg series of a lattice vector."""
        return self.eigen_tilde(self.basis.decompose(alpha))

    def eigen_tilde(self, coords) -> GenSeries:
        step = self.mode_step
        residues = {q * step for q, c in zip(self.basis.qs, coords) if c}

        def fn(k):
            return self._mode_op(coords, k // step)

        return GenSeries(self, fn, residues or {0}, shift_k=0)

    def identity_series(self) -> GenSeries:
        ident = FockOp(self, lambda v: v, 0)
        grid = self.grid

        def fn(k):
            return ident if k == -grid else self.zero_op()

        return GenSeries(self, fn, {0}, shift_k=-grid)

    def upsilon(self) -> GenSeries:
        """Virasoro series (1/2) sum_i alpha~_i [-1] beta~_i."""
        l = self.lattice.rank
        terms = []
        for i in range(l):
            a = self.eigen_tilde(self.basis.units[i])
            b = self.eigen_tilde(self.basis.duals[i])
            terms.append(nth_product(a, b, -1, 2))
        return sum_series(self, terms).scale(Fraction(1, 2))

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
        k = 1 the translation operator D.  A term whose first operator
        annihilates a mode that no word of v holds is exactly zero, and
        not poisoned, so it is skipped, and the scans stop at the largest
        held mode: a line of high degree costs no more than the lowest."""
        if not v.terms:
            return v
        p = self.p
        held = _held_modes(v)
        top = max(held, default=0)
        kp = k * p
        l = self.lattice.rank

        def summands():
            for i in range(l):
                unit = self.basis.units[i]
                dual = self.basis.duals[i]
                q = self.basis.qs[i]
                # s < 0: alpha_i(s) beta_i(-s-k); beta annihilates once
                # -s-k > 0, only a held mode, so keep s >= -top-k
                for s in self._mode_grid(q, -top - kp, -1):
                    m = -s - kp
                    if m > 0 and m not in held:
                        continue
                    w = self.mode_apply(dual, m, v)
                    yield self.mode_apply(unit, s, w), ONE
                # s >= 0: beta_i(-s-k) alpha_i(s); alpha annihilates a
                # held mode, s <= top
                for s in self._mode_grid(q, 0, top):
                    if s and s not in held:
                        continue
                    w = self.mode_apply(unit, s, v)
                    yield self.mode_apply(dual, -s - kp, w), ONE

        return _summed(self, summands()).scale(Fraction(1, 2))

    def virasoro_one(self, v: FockVector):
        """Degree operator from its normally-ordered double sum."""
        return self._normal_ordered_sum(v, 0)

    def upsilon_zero_op(self) -> FockOp:
        """Translation operator D from its normally-ordered double sum;
        it matches the series coefficient of the Virasoro element
        exactly (checked in the tests).  D keeps its result on each
        vector for its own life (FockOp.remembered)."""
        return FockOp(self, lambda v: self._normal_ordered_sum(v, 1),
                      0).remembered()

    # -- exponential factors and vertex operators ---------------------

    def _ann_expand(self, alpha, v: FockVector, sign: int, least: int = 0):
        """exp(sum_(n>0) sign*alpha(n)/n z^(-n)) on v, for the lattice
        vector alpha (an int tuple), as (vector, annihilation degree
        times p) pairs, one per path of mode powers of degree e >= least
        (scaled by p too): only those paths are built.
        Each word that holds a mode reads its table
        (GradedBasis.annihilation_terms); on several words a path sums
        their terms, a path with no sum is left out, and the paths are
        in lexicographic order of the powers over the modes v holds.
        The empty path, v itself, comes first when least <= 0; a v that
        holds no mode has no other path."""
        head = ((v, 0),) if least <= 0 else ()
        held = _held_modes(v)
        if not held:
            return head
        coords = self.basis.decompose(alpha)
        table = self.basis.annihilation_terms
        paths = {}
        for (word, iota), coeff in v.terms.items():
            if not word:
                continue
            for e, path, terms in table(coords, word, sign)[1:]:
                if e < least:
                    continue
                out = paths.setdefault(path, (e, {}))[1]
                for w, x in terms:
                    _add_term(out, (w, iota), _times(coeff, x))
        modes = sorted(held)
        order = sorted(paths.items(), key=lambda item: [
            dict(item[0]).get(m, 0) for m in modes])
        return head + tuple((FockVector._of(self, terms), e)
                            for _path, (e, terms) in order if terms)

    def _cre_expand(self, coords, v: FockVector, target: int,
                    sign: int = 1):
        """Coefficient of z^(target/p) of exp(sum_(n<0) -sign*coords(n)/n
        z^(-n)) applied to v (creation side), target scaled by p: the
        eigenbasis's table (GradedBasis.creation_terms) added to each
        word of v, or poisoned when a word of v would pass the cap."""
        if target == 0 or not v.terms:
            return v
        used = max(-sum(m for m, _ in word) for (word, _i) in v.terms)
        if used + target > self.cap:
            return FockVector._of(self, {}, True)
        table = self.basis.creation_terms(coords, target, sign)
        out = {}
        for (word, iota), coeff in v.terms.items():
            for added, x in table:
                _add_term(out, (tuple(sorted(word + added)), iota),
                          _times(coeff, x))
        return FockVector._of(self, out)

    def vertex_exponents_k(self, alpha) -> tuple:
        """xi(alpha(0)) - (alpha'|alpha')/2 on every vacuum line, times
        the module's grid."""
        half_norm = self.lattice.prime_pairing_p(alpha, alpha) * (
            self.grid // (2 * self.p))
        reads = [(k, a) for k, a in enumerate(alpha) if a]
        return tuple(sum((a * xi[k] for k, a in reads), -half_norm)
                     for xi in self._xi_k)

    @kept
    def vertex_series(self, alpha) -> GenSeries:
        """The vertex series X_alpha(z), built once per lattice vector:
        its coefficient memo serves every check on the module."""
        p, D, step = self.p, self.grid, self.mode_step
        exps = self.vertex_exponents_k(alpha)
        residues = {(-D - e + t * step) % D for e in set(exps)
                    for t in range(p)}
        coords = self.basis.decompose(alpha)
        e_alpha = self.e_op(alpha)
        norm = self.lattice.pairing(alpha, alpha)

        def summands(v, k):
            for (word, iota), coeff in v.terms.items():
                # creation degree = -m - 1 - a_exp + annihilation
                # degree; scaled by p it must be an integer
                low, off = divmod(-k - D - exps[iota], step)
                # no path of a word passes its own creation degree
                if off or low - sum(m for m, _j in word) < 0:
                    continue
                base = FockVector._of(self, {(word, iota): coeff})
                for (v1, eplus) in self._ann_expand(alpha, base, -1, -low):
                    v2 = self._cre_expand(coords, v1, low + eplus)
                    yield e_alpha.apply(v2), ONE

        def fn(k):
            return FockOp(
                self, lambda v: _summed(self, summands(v, k), v.poisoned),
                norm)

        return GenSeries(self, fn, residues, norm, norm * D // 2 - D)


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
            coef *= Fraction(1, j) ** r / math.factorial(r)
        pieces.append(s.scale(coef))
    out = sum_series(M, pieces, parity=base.parity)
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
        rhs = zero_series(M, parity=(sa.parity + sb.parity) % 2)
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
        nth_product(ups, ups, 2, 4), zero_series(M), slots, probes))))
    report.append(("ups[3]ups = (rank/2)id", compare_status(series_compare(
        nth_product(ups, ups, 3, 4),
        M.identity_series().scale(Fraction(M.lattice.rank, 2)),
        slots, probes))))

    d_op = M.upsilon_zero_op()
    report.append(("ups(0) = D", coeff_is_zero(
        ups.coeff(Fraction(0)) - d_op, probes)))

    direct, series = [], []
    c1 = ups.coeff(Fraction(1))
    shift = M.weight_anomaly()
    deep_cap = M.trunc - 1
    floor = Fraction(M.floor_k, M.grid)
    series_cap = (M.trunc + floor) / 2
    for v in M.basis_vectors(deep_cap):
        deg = Fraction(v.max_degree_k(), M.grid)
        direct.append(vector_status(M.virasoro_one(v) - v.scale(deg)))
        if deg - floor <= series_cap:
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
        lam = weight(x, d_op, slots, probes)
        st = ("untestable" if lam is None
              else "pass" if lam == ZERO else "fail")
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
            coords = M.basis.decompose(h)
            for n in modes:
                n = _frac(n)
                hop = M.mode_op(coords, n)
                comm = hop.compose(ea) - ea.compose(hop)
                if n == 0:
                    # only the sigma-fixed part of h has a zero mode:
                    # (h^0 | alpha) = sum_k nu(h)_k alpha_k
                    pair0 = Fraction(
                        sum(x * a for x, a in zip(M.lattice.nu_p(h), alpha)),
                        M.lattice.p)
                    comm = comm - ea.scale(pair0)
                st = coeff_is_zero(comm, probes)
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
        eps = td.epsilon(alpha, beta).scalar()
        comm = td.commutator(alpha, beta).scalar()
        st1 = coeff_is_zero(lhs - M.e_op(ab).scale(eps), probes)
        st2 = coeff_is_zero(lhs - eb.compose(ea).scale(comm), probes)
        report.append((f"e{alpha}e{beta}", st1, st2))
    return report


def _reconstruct_coeff(M: FockModule, alpha, coords, e, v: FockVector):
    """z^e coefficient of E_-^(-1) X_alpha(z) E_+^(-1) z^(-alpha(0))
    z^((alpha'|alpha')/2) applied to v, for a Fraction e."""
    p, grid = M.p, M.grid
    series = M.vertex_series(alpha)
    exps = M.vertex_exponents_k(alpha)
    en, ed = e.numerator, e.denominator
    # off the grid no vertex coefficient is nonzero
    ek = grid_slot(e, grid)

    def summands():
        for (word, iota), coeff in v.terms.items():
            base = FockVector._of(M, {(word, iota): coeff})
            a_exp = exps[iota]
            # e1 and f2 are scaled by p, the slot and degrees by grid
            for (v1, e1) in M._ann_expand(alpha, base, 1):
                if v1.is_zero():
                    continue
                # floor(p (e + deg v1 - floor)) + e1
                bound = p * (en * grid + (v1.max_degree_k() - M.floor_k) * ed)
                bound = bound // (grid * ed) + e1
                for f2 in range(bound + 1):
                    if f2 > M.cap:
                        # genuinely contributing creations past the
                        # truncation cannot be evaluated
                        yield FockVector._of(M, {}, True), ONE
                        return
                    if ek is None:
                        continue
                    # the slot -1 - e - a_exp + (f2 - e1)/p
                    k = -grid - ek - a_exp + (f2 - e1) * M.mode_step
                    v2 = series._at(k).apply(v1)
                    yield M._cre_expand(coords, v2, f2, sign=-1), ONE

    return _summed(M, summands(), v.poisoned)


def reconstruct_e(M: FockModule, alpha, exps, probes):
    """Recover e(alpha) by stripping the exponential and scalar factors
    off X_alpha(z): the z^e coefficient of the stripped series must
    equal e(alpha) at e = 0 and vanish at every other sampled e."""
    alpha = tuple(alpha)
    coords = M.basis.decompose(alpha)
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


def _pair_kernel_terms(M: FockModule, alpha, beta, kz_max: int):
    """Expansion of i_{w,z} prod_s (w^(1/p) - om^s z^(1/p))^(m_s) as
    (w-exponent, z-exponent, coeff) terms, the exponents in 1/p units
    (times p, as KernelPoly keys them), with z-exponent <= kz_max >= 0,
    in 1/p units too."""
    p = M.p
    ms = M.lattice.m_values(alpha, beta)
    terms = {(0, 0): ONE}
    for s in range(p):
        m = ms[s]
        kmax = m if m >= 0 else kz_max
        fac = {}
        for k in range(kmax + 1):
            c = _int_binom(m, k)
            if not c:
                continue
            # binom(m, k) (-om^s)^k
            fac[(m - k, k)] = root_of_unity(p, s * k % p) * (
                -c if k % 2 else c)
        new = {}
        for (uw, uz), c1 in terms.items():
            for (vw, vz), c2 in fac.items():
                if uz + vz > kz_max:
                    continue
                _add_term(new, (uw + vw, uz + vz), c1 * c2)
        terms = new
    return [(k[0], k[1], v) for k, v in terms.items()]


def pair_expansion_check(M: FockModule, alpha, beta, wslots, zslots, probes):
    """Two-variable product identity: the w^(-ws-1) z^(-zs-1)
    coefficient of X_alpha(w)X_beta(z) equals that of
    eps(alpha,beta) X_{alpha,beta}(w,z) i_{w,z}
    prod_s (w^(1/p) - om^s z^(1/p))^((sigma^(-s) alpha | beta))."""
    alpha, beta = tuple(alpha), tuple(beta)
    ca = M.basis.decompose(alpha)
    cb = M.basis.decompose(beta)
    eps = M.twist.epsilon(alpha, beta).scalar()
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    e_ab = M.e_op(gamma)
    p, grid, step = M.p, M.grid, M.mode_step
    # the exponents and degrees below are on the module's grid
    azs = M.vertex_exponents_k(beta)
    aws = M.vertex_exponents_k(alpha)
    top = max((v.max_degree_k() for v in probes if v.terms),
              default=0) - M.floor_k
    # the largest z-exponent of a kernel term that can contribute,
    # floor(p max(0, -zs - 1 - az + top)), in 1/p units
    kz_bound = 0
    for zs in zslots:
        zs = _frac(zs)
        zn, zd = zs.numerator, zs.denominator
        for az in azs:
            kz_bound = max(kz_bound, p * (zd * (top - az - grid) - zn * grid)
                           // (zd * grid))
    kterms = _pair_kernel_terms(M, alpha, beta, kz_bound)
    xa, xb = M.vertex_series(alpha), M.vertex_series(beta)

    def summands(v, wk, zk):
        if wk is None or zk is None:
            # a slot off the grid: no f1 or f2 below is an integer
            return
        for (word, iota), coeff in v.terms.items():
            # f1 = g1 - kz + e1 and f2 = g2 - kw + e2 are the creation
            # degrees, scaled by p like e1, e2 and the kernel exponents
            g1, r1 = divmod(-zk - grid - azs[iota], step)
            g2, r2 = divmod(-wk - grid - aws[iota], step)
            if r1 or r2:
                continue
            base = FockVector._of(M, {(word, iota): coeff})
            for (v1, e1) in M._ann_expand(beta, base, -1):
                for (v2, e2) in M._ann_expand(alpha, v1, -1):
                    for (kw, kz, kc) in kterms:
                        f1 = g1 - kz + e1
                        if f1 < 0:
                            continue
                        f2 = g2 - kw + e2
                        if f2 < 0:
                            continue
                        v3 = M._cre_expand(cb, v2, f1)
                        v4 = M._cre_expand(ca, v3, f2)
                        yield e_ab.apply(v4), kc

    report = []
    for ws in wslots:
        for zs in zslots:
            wsf, zsf = _frac(ws), _frac(zs)
            wk, zk = grid_slot(wsf, grid), grid_slot(zsf, grid)
            statuses = []
            for v in probes:
                lhs = xa.coeff(wsf).apply(xb.coeff(zsf).apply(v))
                rhs = _summed(M, summands(v, wk, zk), v.poisoned)
                statuses.append(vector_status(lhs - rhs.scale(eps)))
            report.append(((wsf, zsf), worst_status(statuses)))
    return report
