"""Classification machinery for twisted modules: lifts of the lattice
automorphism and their eigendata, the relation-quotient algebra A, its
graded block decomposition, and enumeration of simple-module classes."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import _kept
# the enumeration memo's counts and clear are public here
from ._kept import (
    clear_enumeration_memo, enumeration_memo_counts, kept, kept_value,
    vacuum_key)
from .fdist import vector_status, worst_status
from .lattice import TwistedLattice
from .linalg import (
    IntegerCoords,
    SmithForm,
    hnf_columns,
    kernel_basis,
    mat_mul,
    mat_vec,
    snf,
    transpose,
)
from .scalar import (
    CycScalar,
    ONE,
    RootPair,
    ScalarError,
)

if TYPE_CHECKING:
    from .cocycle import TwistData

# the degree window of a class vacuum space: lifts k with |k_i| <= WINDOW
WINDOW = 2


class ClassifyError(Exception):
    pass


class SizeCapExceeded(ClassifyError):
    """Raised when the work over the root choices of an enumeration,
    root choices times |E|^2 or root choices times the eta cosets,
    would exceed `_kept.MAX_WORK`, or when the basis
    vectors of a Fock module up to its truncation, creation words times
    vacuum lines, would exceed `twistlab.fock.MAX_BASIS`."""


class UnsupportedScalar(ClassifyError):
    """Raised when an exact classification step needs a scalar outside
    the roots-of-unity domain (for example a weight exponent that is
    not rational)."""


def _root_parts(mu: RootPair):
    """(r, k) with mu = zeta_k^r in lowest terms, 0 <= r < k, for mu a
    root of unity."""
    if mu.q != 1:
        raise UnsupportedScalar(f"{mu} is not a root of unity")
    k, r = mu.lowest()
    return r, k


def root_exponent(mu: RootPair) -> Fraction:
    """The rational r/k in [0, 1) with mu = zeta_k^r, for mu a root of
    unity."""
    return Fraction(*_root_parts(mu))


def _unit(l: int, k: int):
    return tuple(1 if i == k else 0 for i in range(l))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_scale(a, c):
    return tuple(c * x for x in a)


# ---------------------------------------------------------------------
# Finite quotients of lattices
# ---------------------------------------------------------------------

class FiniteQuotient:
    """The finite quotient of two full-rank lattices, given by ambient
    basis columns and sublattice columns inside the ambient span, both
    as numerators over `den` (rationals allowed).  The columns are kept
    as integers over one denominator D (`self.den`): coordinates come
    from one integer Smith form of the ambient columns, and a lift is an
    integer sum divided by D at the end.  Provides cyclic-factor
    divisors, generator vectors, canonical coordinates and lifts."""

    def __init__(self, ambient_cols, sub_cols, dim: int, den: int = 1):
        self.dim = dim
        self.rank = len(ambient_cols)
        if self.rank == 0:
            self.den = den
            self.divisors = ()
            self.gens = ()
            self._gen_nums = ()
            self.size = 1
            return
        try:
            self._solver = IntegerCoords(ambient_cols, dim)
        except ValueError:
            raise ClassifyError("quotient is infinite") from None
        self._den_in = den
        self.den = den * self._solver.scale
        w_cols = []
        for col in sub_cols:
            x = self._solver.solve(col)
            if x is None:
                raise ClassifyError("sublattice not contained in the ambient")
            w_cols.append(x)
        w = [[c[i] for c in w_cols] for i in range(self.rank)]
        d, u, v = snf(w)
        divisors = []
        for i in range(self.rank):
            di = d[i][i] if i < len(d) and i < len(d[i]) else 0
            if di == 0:
                raise ClassifyError("quotient is infinite")
            divisors.append(di)
        self.divisors = tuple(divisors)
        # generator i is column i of u^-1 in ambient coordinates; from
        # u w v = d, w v = u^-1 d, so that column is (w v)_i / d_i
        wv = mat_mul(w, v)
        ambient = self._solver.columns
        self._gen_nums = tuple(
            tuple(sum(wv[j][i] // divisors[i] * ambient[j][k]
                      for j in range(self.rank))
                  for k in range(dim))
            for i in range(self.rank))
        self.gens = tuple(self._divide(g) for g in self._gen_nums)
        self._u = u
        self.size = math.prod(divisors)

    def _divide(self, nums):
        """The vector nums / den: integers when integral, else Fractions."""
        den = self.den
        if den == 1 or all(x % den == 0 for x in nums):
            return tuple(x // den for x in nums)
        return tuple(Fraction(x, den) for x in nums)

    def coords(self, vec):
        """Canonical coordinates of vec + sub in the cyclic factors."""
        if self.rank == 0:
            return ()
        x = self._solver.solve(vec, self._den_in)
        if x is None:
            raise ClassifyError("vector outside the ambient lattice")
        return tuple(
            sum(self._u[i][j] * x[j] for j in range(self.rank))
            % self.divisors[i]
            for i in range(self.rank)
        )

    def __contains__(self, vec) -> bool:
        """Whether vec lies in the ambient lattice, so names an element."""
        return self.rank == 0 or \
            self._solver.solve(vec, self._den_in) is not None

    def lift_nums(self, coords):
        """den * sum_i coords_i gens_i, as integers."""
        out = [0] * self.dim
        for c, g in zip(coords, self._gen_nums):
            if c:
                for k, x in enumerate(g):
                    out[k] += c * x
        return out

    @kept
    def lift(self, coords):
        """The vector sum_i coords_i gens_i (integers when integral),
        kept per coordinate tuple."""
        return self._divide(self.lift_nums(coords))

    def elements(self):
        return itertools.product(*(range(d) for d in self.divisors))


# ---------------------------------------------------------------------
# The relation-quotient algebra A
# ---------------------------------------------------------------------

class Presentation:
    """The part of the algebra A that does not depend on the root choice
    mu, on the lattice's generating set of orbits; the twist keeps it
    (`TwistData.presentation`).

    The relation lattice K is spanned by the difference vectors
    d = sigma^s a - a of the orbits; this object keeps them with their
    factors epsilon(d, a), the HNF of K, the one Smith form of the
    matrix of the d (its kernel and every `k_parts` solve read it),
    the prime-pairing diagonal of the base weight, the commutation
    constants and degrees of the orbit representatives, the degree-zero
    component E = Lambda_0 / K and the radical of its commutator
    bicharacter, whose one exponent rule is `bichar_exponent`.
    Its scalars are `RootPair`s on the twist's grid.  The collapse every
    root choice shares is decided here: `witness` is the commutator
    obstruction of the generating set or a non-central relation, else
    None.  The commutation constants, E and the radical are computed
    when first asked for and raise their errors each time they are
    asked for, so a root choice that collapses earlier never meets their
    checks or caps.  It keeps what the root choices share: the algebra
    of each root choice (`algebra`), and the mu-independent parts of
    the relation scalars (`k_parts`) and derived roots (`mu_parts`)."""

    def __init__(self, twist: TwistData):
        self.twist = twist
        self.lattice = lat = twist.lattice
        self.dec = lat.reduce_generating_set()
        self.obstructed, wit = twist.obstruction_check()
        self.witness = None
        if self.obstructed:
            self.witness = ("commutator obstruction", wit)
            return
        l = lat.rank
        self.dvecs = []
        self.dslots = []
        self.deps = []
        for j, orb in enumerate(self.dec.orbits):
            for s in range(1, len(orb)):
                d = _vec_sub(orb[s], orb[0])
                self.dvecs.append(d)
                self.dslots.append((j, s))
                self.deps.append(twist.epsilon(d, orb[0]))
        self._dmat = [[d[i] for d in self.dvecs] for i in range(l)]
        self._khnf = []
        if self.dvecs:
            cols, _u = hnf_columns(self._dmat)
            for jc in range(len(self.dvecs)):
                col = [cols[i][jc] for i in range(l)]
                if any(col):
                    self._khnf.append(tuple(col))
        # scalar relations must commute with the whole group algebra:
        # C(sigma^s a - a, e_k) = zeta_p^(-s (a^T G N)_k), so the first
        # orbit whose rep has (a^T G N)_k != 0 mod p fails at s = 1
        for orb in self.dec.orbits:
            if len(orb) > 1:
                k = next((k for k, x in enumerate(lat.nu_p(orb[0]))
                          if x % lat.p), None)
                if k is not None:
                    self.witness = ("non-central relation",
                                    (_vec_sub(orb[1], orb[0]), k))
                    return
        # the kernel vectors, with the mu-independent factor of the
        # A-image of e(sum_i ker_i d_i), which must be one for every mu
        self.kernel = [(ker, self._fold(ker))
                       for ker in (self._dsmith.kernel()
                                   if self.dvecs else [])]

    @kept
    def algebra(self, mu_choice) -> PresentedAlgebraA:
        """The algebra A of one root choice, kept once built, with the
        block decomposition it certifies."""
        return PresentedAlgebraA(self.twist, self.dec, mu_choice)

    # -- scalar bookkeeping -------------------------------------------

    def _fold(self, combo) -> RootPair:
        """The mu-independent factor of the A-image of
        e(sum_i combo_i d_i), folded stepwise: the epsilon factors of
        the partial sums, and epsilon(d, -d) for each negative step.
        The image is this factor times prod_i e(d_i)^combo_i."""
        twist = self.twist
        cur = (0,) * self.lattice.rank
        cfold = sprod = twist.one
        for idx, mult in enumerate(combo):
            if not mult:
                continue
            d = self.dvecs[idx]
            v = d if mult > 0 else _vec_scale(d, -1)
            for _ in range(abs(mult)):
                cfold = cfold * twist.epsilon(cur, v)
                cur = _vec_add(cur, v)
                if mult < 0:
                    sprod = sprod * twist.epsilon(d, v)
        return sprod / cfold

    @cached_property
    def _dsmith(self) -> SmithForm:
        """The Smith form of the relation matrix (columns d_i), which
        gives both the kernel and every `k_parts` combination."""
        return SmithForm(self._dmat)

    @kept
    def k_parts(self, kvec):
        """(combo, factor) for a nonzero kvec = sum_i combo_i d_i, or
        None when kvec is not in K."""
        combo = self._dsmith.solve(list(kvec))
        return None if combo is None else (combo, self._fold(combo))

    def rep_of(self, gamma):
        """Canonical representative of gamma + K."""
        g = list(gamma)
        for col in self._khnf:
            pr = next(i for i, x in enumerate(col) if x)
            q = g[pr] // col[pr]
            if q:
                for i in range(len(g)):
                    g[i] -= q * col[i]
        return tuple(g)

    @kept
    def mu_parts(self, gamma):
        """(factor, d, length, product) with the root forced at gamma
        equal to factor * e(d), d = sigma gamma - gamma in K (None when
        gamma is fixed), and mu^length = product over its orbit."""
        twist, lat = self.twist, self.lattice
        d = _vec_sub(lat.apply_sigma(gamma), gamma)
        factor = twist.phi(gamma)
        if any(d):
            factor = twist.epsilon(d, gamma).inverse() * factor
        else:
            d = None
        orb = lat.orbit(gamma)
        return factor, d, len(orb), twist.orbit_product(orb)

    # -- generating-set invariants, computed on first use --------------

    @cached_property
    def c(self):
        """Commutation constants of the orbit representatives."""
        reps = self.dec.reps
        n = len(reps)
        c = [[self.twist.commutator(reps[i], reps[j]) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            for j in range(n):
                if c[i][j] * c[j][i] != self.twist.one:
                    raise ClassifyError("commutation constants not antisymmetric")
                if (i >= self.dec.m or j >= self.dec.m) and \
                        c[i][j] ** self.lattice.p != self.twist.one:
                    raise ClassifyError(
                        "degree-zero commutation constant is not a p-th root")
        return c

    @cached_property
    def grading(self):
        """The degrees of the orbit representatives on the grid p:
        p * nu(rep), as integers."""
        return tuple(self.lattice.nu_p(rep) for rep in self.dec.reps)

    @cached_property
    def prime_diagonal(self):
        """p (e_k'|e_k') per standard basis vector e_k: the part of the
        base weight's right-hand side that no root choice changes."""
        lat = self.lattice
        units = [_unit(lat.rank, k) for k in range(lat.rank)]
        return tuple(lat.prime_pairing_p(e, e) for e in units)

    @cached_property
    def E(self) -> FiniteQuotient:
        """The degree-zero component E = Lambda_0 / K, with Lambda_0 the
        kernel of the norm map, refused when the work over all root
        choices is too large."""
        lat = self.lattice
        E = FiniteQuotient(
            [tuple(v) for v in kernel_basis([list(r) for r in lat.norm])],
            self._khnf, lat.rank)
        choices = math.prod(self.dec.lengths)
        if choices * E.size ** 2 > _kept.MAX_WORK:
            raise SizeCapExceeded(
                f"{choices} root choices times the squared size "
                f"{E.size}^2 of the degree-zero component exceed the "
                f"work cap {_kept.MAX_WORK}")
        return E

    def bichar_exponent(self, g, h) -> int:
        """k with b(g, h) = zeta_(2p)^k, 0 <= k < 2p."""
        return self.lattice.commutator_exponent(self.E.lift(g), self.E.lift(h))

    @cached_property
    def radical(self) -> FiniteQuotient:
        """Radical of the commutator bicharacter on E, via Smith normal
        form of the exponent matrix b(g_i, g_j) = zeta_P^(b_ij), P the
        least common order."""
        E = self.E
        r = E.rank
        units = [_unit(r, i) for i in range(r)]
        exps = [[self.bichar_exponent(g, h) for h in units] for g in units]
        two_p = 2 * self.lattice.p
        g = math.gcd(two_p, *(k for row in exps for k in row))
        P = two_p // g
        b = [[k // g for k in row] for row in exps]
        stacked = [b[i] + [P if k == i else 0 for k in range(r)]
                   for i in range(r)]
        basis = kernel_basis(stacked)
        cols = [tuple(v[:r]) for v in basis]
        sub = [tuple(E.divisors[i] if k == i else 0 for k in range(r))
               for i in range(r)]
        return FiniteQuotient(cols, sub, r)


class PresentedAlgebraA:
    """The algebra A of one root choice mu: the quotient of the
    extended-lattice group algebra by the twist relations
    e(sigma^s a) = k_s^(-1) e(a) on a generating set of orbits.

    Concretely the algebra has basis indexed by Lambda/K, where K is
    spanned by the difference vectors sigma^s a - a of the generating
    orbits; each e(d), d in K, is identified with an explicit scalar.
    The generating set is the lattice's own (`reduce_generating_set`).
    What does not depend on mu lives on the twist's Presentation
    (`presentation`), which keeps this object per root choice
    (`Presentation.algebra`).  This object holds the root choice
    `mu_choice`, the coefficients k_s of each orbit (`ks`), the relation
    scalars, the scalars k_image and tau, kept per argument, and its
    certified block decomposition; e_image, y_scalar and derived_mu are
    computed on each call.  Each of those scalars is a `RootPair` on the
    twist's grid; `bichar` and the block idempotents, which go to
    CycScalar code or hold sums, are CycScalars.  Normalizing roots in
    B_0 are taken only by the lifts of subgroups of E (`_GroupScalars`,
    `radical_lifts`).  The zero marker is set when the relations force
    1 = theta for some scalar theta != 1 (the obstructed case)."""

    def __init__(self, twist: TwistData, decomposition, mu_choice):
        self.twist = twist
        self.lattice = twist.lattice
        P = self.presentation = twist.presentation
        if decomposition is not P.dec:
            raise ClassifyError(
                "the algebra is presented on the lattice's generating set")
        self.dec = decomposition
        self.mu_choice = tuple(mu_choice)
        self.zero = False
        self.witness = None
        if len(self.mu_choice) != len(decomposition.orbits):
            raise ClassifyError("one root choice per generating orbit required")
        if P.obstructed:
            self.zero, self.witness = True, P.witness
            return
        self.reps = decomposition.reps
        self.lengths = decomposition.lengths
        self.m = decomposition.m
        self.ks = []
        for orb, mu in zip(decomposition.orbits, self.mu_choice):
            if mu ** len(orb) != twist.orbit_product(orb):
                raise ClassifyError("mu choice is not an orbit root")
            self.ks.append(twist.k_coeffs(orb, mu))
        if P.witness is not None:
            self.zero, self.witness = True, P.witness
            return
        # the scalar images e(d) of the difference vectors
        self._dscalars = [eps * self.ks[j][s].inverse()
                          for eps, (j, s) in zip(P.deps, P.dslots)]
        # the scalar image of a K-vector must not depend on the combo
        for ker, factor in P.kernel:
            if self._image(ker, factor) != twist.one:
                self.zero = True
                self.witness = ("inconsistent relation scalars", ker)
                return
        self.c = P.c
        self.grading = P.grading
        self.E = P.E
        self.dim_B0 = self.E.size

    # -- scalar bookkeeping -------------------------------------------

    def _image(self, combo, factor) -> RootPair:
        """A-image scalar of e(sum_i combo_i d_i), given the
        mu-independent factor of its fold."""
        out = factor
        for s, mult in zip(self._dscalars, combo):
            if mult:
                out = out * s ** mult
        return out

    @kept
    def k_image(self, kvec) -> RootPair:
        """The scalar that e(kvec) equals in A, for kvec in K."""
        if not any(kvec):
            return self.twist.one
        parts = self.presentation.k_parts(kvec)
        if parts is None:
            raise ClassifyError(f"{kvec} is not in the relation lattice")
        return self._image(*parts)

    def e_image(self, gamma):
        """(scalar, rep) with e(gamma) = scalar * e(rep) in A."""
        rep = self.presentation.rep_of(gamma)
        d = _vec_sub(gamma, rep)
        return self.twist.epsilon(d, rep).inverse() * self.k_image(d), rep

    def derived_mu(self, gamma) -> RootPair:
        """The root mu(gamma) forced by the relations, for any gamma."""
        factor, d, length, product = self.presentation.mu_parts(gamma)
        mu = factor if d is None else factor * self.k_image(d)
        if mu ** length != product:
            raise ClassifyError(f"derived root at {gamma} is not an orbit root")
        return mu

    # -- degree-zero component arithmetic -----------------------------

    def y_scalar(self, g) -> RootPair:
        """Scalar s with y_g = s^(-1) * [rep], the normalized basis of
        the degree-zero component (y_g = image of e(lift(g)))."""
        s, _rep = self.e_image(self.E.lift(g))
        return s

    @kept
    def tau(self, g, h) -> RootPair:
        """Multiplication scalar: y_g y_h = tau(g, h) y_(g+h)."""
        E, twist = self.presentation.E, self.twist
        tg, th = E.lift(g), E.lift(h)
        tgh = E.lift(_e_add(g, h, E.divisors))
        delta = _vec_sub(_vec_add(tg, th), tgh)
        return (twist.epsilon(tg, th) * twist.epsilon(delta, tgh).inverse()
                * self.k_image(delta))

    def bichar(self, g, h) -> CycScalar:
        """Commutator bicharacter on E: b(g, h) with
        y_g y_h = b(g, h) y_h y_g, the root of
        `Presentation.bichar_exponent`."""
        return RootPair(1, self.presentation.bichar_exponent(g, h),
                        2 * self.lattice.p).scalar()

    @cached_property
    def radical_lifts(self) -> _GroupScalars:
        """The lift psi of the bicharacter radical into B_0, whose
        characters label the blocks; the class vacuum spaces read the
        block's character off it."""
        return _GroupScalars(self, self.presentation.radical)

    @cached_property
    def block_decomposition(self) -> ADecomposition:
        """Simple blocks of the degree-zero component B_0, one per
        character of the bicharacter radical, each of dimension
        sqrt(|E| / |radical|).  The blocks' central idempotents are the
        character projectors over the radical, certified exactly: the
        radical is central, the lift psi is a homomorphism (so each
        projector is idempotent), the projectors sum to one, and
        |E| / |radical| is a square; a failed certificate raises
        ClassifyError.  Homogeneous invertible elements carry the block
        decomposition to graded ideals of the algebra."""
        if self.zero:
            raise ClassifyError("the zero algebra has no block decomposition")
        E, lifts = self.E, self.radical_lifts
        quotient, rest = divmod(E.size, lifts.q.size)
        blocks = [Block(label, math.isqrt(quotient), lifts)
                  for label in lifts.labels()]
        total = {}
        for block in blocks:
            for g, c in block.idempotent.items():
                s = total.pop(g, None)
                s = c if s is None else s + c
                if s:
                    total[g] = s
        # Orthogonality needs no check of its own: the projectors lie in
        # the commutative semisimple span of the y_r, r in the radical,
        # where idempotents that sum to one are orthogonal.
        certified = {
            "central": all(
                self.presentation.bichar_exponent(rk, _unit(E.rank, i)) == 0
                for rk, _ok, _nk in lifts.gens for i in range(E.rank)),
            "idempotent": lifts.is_homomorphism,
            "sum_to_one": total == {tuple(0 for _ in E.divisors): ONE},
            "dims_square": not rest and blocks[0].dim ** 2 == quotient,
        }
        failed = [k for k, ok in certified.items() if not ok]
        if failed:
            raise ClassifyError(
                f"block decomposition at mu {self.mu_choice} fails its "
                f"certificate: {', '.join(failed)}")
        return ADecomposition(blocks, certified)


# ---------------------------------------------------------------------
# Block decomposition of the degree-zero component
# ---------------------------------------------------------------------

def _e_add(g, h, divisors):
    return tuple((a + b) % d for a, b, d in zip(g, h, divisors))


def _e_sub(g, h, divisors):
    return tuple((a - b) % d for a, b, d in zip(g, h, divisors))


def _b0_mul(A: PresentedAlgebraA, x: dict, y: dict) -> dict:
    out = {}
    for g, cx in x.items():
        for h, cy in y.items():
            c = cx * cy * A.tau(g, h).scalar()
            if not c:
                continue
            key = _e_add(g, h, A.E.divisors)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


class _GroupScalars:
    """Multiplicative lift of a subgroup S of E on which the y-basis
    commutes: normalized generators (n_k y_(r_k))^(o_k) = 1 give a
    homomorphism psi with psi(a) = scalar(a) * y_(elem(a)), the scalars
    `RootPair`s."""

    def __init__(self, A: PresentedAlgebraA, quotient: FiniteQuotient):
        self.A = A
        self.q = quotient
        self.gens = []
        for i in range(quotient.rank):
            rk = tuple(
                x % d for x, d in zip(quotient.gens[i], A.E.divisors))
            ok = quotient.divisors[i]
            c = A.twist.one
            g = tuple(0 for _ in A.E.divisors)
            for _ in range(ok):
                c = c * A.tau(g, rk)
                g = _e_add(g, rk, A.E.divisors)
            if any(g):
                raise ClassifyError("subgroup generator order mismatch")
            try:
                nk = c.root(ok).inverse()
            except ScalarError as exc:
                raise UnsupportedScalar(
                    f"group scalar {c} has no canonical {ok}-th root") from exc
            self.gens.append((rk, ok, nk))

    def psi(self, coords):
        """(element of E, scalar) of the normalized product for the
        given subgroup coordinates."""
        A = self.A
        g = tuple(0 for _ in A.E.divisors)
        s = A.twist.one
        for (rk, ok, nk), a in zip(self.gens, coords):
            for _ in range(a % ok):
                s = s * nk * A.tau(g, rk)
                g = _e_add(g, rk, A.E.divisors)
        return g, s

    @cached_property
    def table(self) -> dict:
        """psi of every element of the subgroup, by its coordinates."""
        return {a: self.psi(a) for a in self.q.elements()}

    @cached_property
    def is_homomorphism(self) -> bool:
        """psi(a) psi(b) = psi(a + b) in B_0 for all a, b, checked once:
        |S|^2 products, and then every character projector is idempotent."""
        A = self.A
        divisors = A.E.divisors
        table = self.table
        for a, (ga, sa) in table.items():
            for b, (gb, sb) in table.items():
                gc, sc = table[_e_add(a, b, self.q.divisors)]
                if _e_add(ga, gb, divisors) != gc or \
                        sa * sb * A.tau(ga, gb) != sc:
                    return False
        return True

    def character(self, label, coords) -> RootPair:
        """chi_label(coords) = prod_k zeta_(o_k)^(t_k a_k), one exponent
        on the grid lcm(o_k)."""
        n = math.lcm(*(ok for _rk, ok, _nk in self.gens))
        return RootPair(1, sum(t * a * (n // ok) for (_rk, ok, _nk), t, a
                               in zip(self.gens, label, coords)), n)

    def labels(self):
        return itertools.product(*(range(ok) for _rk, ok, _nk in self.gens))

    def projector(self, label) -> dict:
        """The character idempotent (1/|S|) sum_a chi_label(a)^(-1) psi(a),
        as coefficients over E: S embeds in E, so each element a gives
        the one nonzero coefficient at elem(a)."""
        inv_size = RootPair(Fraction(1, self.q.size), 0, 1)
        return {g: (self.character(label, a).inverse() * s * inv_size).scalar()
                for a, (g, s) in self.table.items()}


@dataclass
class Block:
    label: tuple
    dim: int
    lifts: _GroupScalars = field(repr=False)

    @cached_property
    def idempotent(self) -> dict:
        return self.lifts.projector(self.label)


@dataclass
class ADecomposition:
    blocks: list
    certified: dict


# ---------------------------------------------------------------------
# Weight admissibility and eta cosets
# ---------------------------------------------------------------------

def admissible_base_weight(A: PresentedAlgebraA):
    """A weight xi with xi(alpha(0)) = (alpha'|alpha')/2 - lambda(alpha)
    mod Z over an integer basis, or a witness that none exists.

    The right-hand sides are integer numerators over one denominator D
    (the lcm of 2p and the root orders), solved through the Smith form
    of the fixed pairing; Fractions are built only for the result.

    Returns (True, xi values at the standard basis) or (False, witness)."""
    lat = A.lattice
    l, p = lat.rank, lat.p
    roots = [_root_parts(A.derived_mu(_unit(l, k))) for k in range(l)]
    D = math.lcm(2 * p, *(k for _r, k in roots))
    c = [x * (D // (2 * p)) - r * (D // q)
         for x, (r, q) in zip(A.presentation.prime_diagonal, roots)]
    f = len(lat.fixed_basis)
    M = lat.fixed_pairing
    d, u, v = lat.fixed_pairing_snf
    uc = mat_vec(u, c)
    diag = [d[i][i] if i < min(l, f) else 0 for i in range(l)]
    for i in range(l):
        if not diag[i] and uc[i] % D:
            return False, ("no weight satisfies the congruence", i,
                           Fraction(uc[i], D))
    # z_i = uc_i / d_i, on the grid D * L with L the lcm of the d_i
    L = math.lcm(*(x for x in diag if x))
    z = [uc[i] * (L // diag[i]) if diag[i] else 0 for i in range(f)]
    y = mat_vec(v, z)
    return True, tuple(
        Fraction(sum(M[k][i] * y[i] for i in range(f)), D * L)
        for k in range(l))


def eta_cosets(lat: TwistedLattice, choices: int = 1):
    """Representatives of the quotient of the fixed sublattice's dual
    by the degree lattice nu(Lambda), as weight-value tuples at the
    standard basis.  Representatives use the canonical cyclic-factor
    coordinates of the Smith decomposition.

    In the fixed basis F with Gram matrix G_F, the dual is spanned by
    the columns of G_F^-1 and the projection e_k^0 = N e_k / p onto the
    sigma-fixed space has coordinates G_F^-1 F^T G N e_k / p.  With
    u G_F v = d its Smith form and L its last invariant factor,
    L G_F^-1 = v (L / d) u is an integer matrix, so the quotient is
    built over the one denominator L p.  Its size, read off its Smith
    form, times the `choices` root choices is refused above MAX_WORK
    (SizeCapExceeded) before any coset is listed."""
    F = lat.fixed_basis
    f = len(F)
    l = lat.rank
    if f == 0:
        return [tuple(Fraction(0) for _ in range(l))], FiniteQuotient([], [], 0)
    p = lat.p
    gf = [[lat.pairing(F[i], F[j]) for j in range(f)] for i in range(f)]
    d, u, v = snf(gf)
    L = d[f - 1][f - 1]
    ginv = mat_mul(v, [[(L // d[i][i]) * x for x in u[i]] for i in range(f)])
    ambient = [tuple(p * ginv[i][j] for i in range(f)) for j in range(f)]
    sub = transpose(mat_mul(ginv, mat_mul(
        [list(b) for b in F], [list(r) for r in lat.gram_norm])))
    Q = FiniteQuotient(ambient, sub, f, L * p)
    if choices * Q.size > _kept.MAX_WORK:
        raise SizeCapExceeded(
            f"{choices} root choices times the {Q.size} eta cosets exceed "
            f"the work cap {_kept.MAX_WORK}")
    M = lat.fixed_pairing
    reps = []
    for cds in Q.elements():
        y = Q.lift_nums(cds)
        reps.append(tuple(
            Fraction(sum(M[k][i] * y[i] for i in range(f)), Q.den)
            for k in range(l)))
    return reps, Q


# ---------------------------------------------------------------------
# Simple twisted-module classes
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleModuleClass:
    mu_choice: tuple
    ideal_index: int
    eta: tuple
    dimension: int
    base_weight: tuple
    eta_index: int = 0


@dataclass(frozen=True)
class MuEntry:
    mu_choice: tuple
    admissible: bool
    detail: object
    dim_B0: int = 0
    block_count: int = 0
    block_dims: tuple = ()
    classes: tuple = ()


@dataclass(frozen=True)
class EnumerationResult:
    """The classes of one twist, a value shared by every caller that
    asks for the same twist: it and its entries and classes are frozen,
    and its sequences are tuples.  `witness` and each entry's `detail`
    are held as the enumeration made them, since the reports print
    them."""
    obstructed: bool
    witness: object
    eta_reps: tuple
    eta_count: int
    entries: tuple
    classes: tuple
    order: int
    orbit_lengths: tuple


def enumerate_simple_twisted(T: TwistData) -> EnumerationResult:
    """All simple twisted-module classes of the twist (`_enumerate`),
    kept with the twist's content (`_kept.kept_value`): a second twist
    with the same lattice, seeds and caps gets the same frozen result
    back without enumerating.  A content whose other values are kept
    before it is enumerated misses once, and the result joins them."""
    return kept_value(T, ("result",), lambda: _enumerate(T))


def _enumerate(T: TwistData) -> EnumerationResult:
    """The enumeration itself, with no memo: root choices per generating
    orbit, filtered by weight admissibility, crossed with the simple
    blocks of A and with the eta cosets.  The obstructed case returns
    no classes together with the commutator witness.

    Classes are deduplicated only by their explicit (roots, block, eta)
    data; coincidences across different root choices are reported as
    separate entries.  A block decomposition that fails its
    certificate raises ClassifyError (`block_decomposition`)."""
    lat = T.lattice
    decomposition = lat.reduce_generating_set()
    obstructed, wit = T.obstruction_check()
    lengths = decomposition.lengths
    if obstructed:
        return EnumerationResult(True, wit, (), 0, (), (), lat.p, lengths)
    reps, _Q = eta_cosets(lat, math.prod(lengths))
    entries = []
    classes = []
    for mu_choice in itertools.product(
            *(T.mu_roots(orb) for orb in decomposition.orbits)):
        A = T.presentation.algebra(mu_choice)
        if A.zero:
            entries.append(MuEntry(mu_choice, False, A.witness))
            continue
        ok, detail = admissible_base_weight(A)
        if not ok:
            entries.append(MuEntry(mu_choice, False, detail))
            continue
        xi0 = detail
        dec_A = A.block_decomposition
        own = tuple(SimpleModuleClass(mu_choice, ideal_index, eta, block.dim,
                                      xi0, ei)
                    for ideal_index, block in enumerate(dec_A.blocks)
                    for ei, eta in enumerate(reps))
        classes.extend(own)
        entries.append(MuEntry(mu_choice, True, xi0, A.dim_B0,
                               len(dec_A.blocks),
                               tuple(b.dim for b in dec_A.blocks), own))
    return EnumerationResult(False, None, tuple(reps), len(reps),
                             tuple(entries), tuple(classes), lat.p, lengths)


# ---------------------------------------------------------------------
# Concrete vacuum spaces and module instantiation
# ---------------------------------------------------------------------

def _subgroup_quotient(A: PresentedAlgebraA, gens) -> FiniteQuotient:
    """The subgroup of E generated by the given E-coordinate columns."""
    E = A.E
    r = E.rank
    sub = [tuple(E.divisors[i] if k == i else 0 for k in range(r))
           for i in range(r)]
    cols = [tuple(g) for g in gens] + sub
    h, _u = hnf_columns([[c[i] for c in cols] for i in range(r)])
    return FiniteQuotient([col for col in zip(*h) if any(col)], sub, r)


def _maximal_isotropic(A: PresentedAlgebraA):
    """A maximal subgroup H of E containing the radical on which the
    bicharacter is trivial, and its lift: one pass over E in order adds
    each element outside H that pairs trivially with the elements added
    so far.  The radical pairs trivially with all of E and the
    bicharacter is multiplicative, so that is pairing trivially with
    all of H.  With nothing added, H is the algebra's radical and the
    lift its own."""
    rad = A.presentation.radical
    H, added = rad, []
    for g in A.E.elements():
        if g in H or any(A.presentation.bichar_exponent(g, h)
                         for h in added):
            continue
        added.append(g)
        H = _subgroup_quotient(A, list(rad.gens) + added)
    if not added:
        return rad, A.radical_lifts
    return H, _GroupScalars(A, H)


def _block_character(A: PresentedAlgebraA, block, H: FiniteQuotient,
                     h_lifts: _GroupScalars):
    """The first label, in h_lifts.labels() order, of a character chi
    of H (a subgroup of E containing the radical, lifted by h_lifts)
    whose projector f lies under the block's idempotent e, confirmed
    by one product e f = f.  On a radical generator r,
    psi_H(r) = (s_H / s_rad)(r) psi_rad(r), so f lies under e exactly
    when (s_rad / s_H)(r) chi(r) = chi_block(r) for each r: exponent
    arithmetic on the block's label, with no projector per label.
    When H is the radical with its own lift, chi is the block's label
    and f = e, idempotent by the block decomposition's certificate."""
    rad = A.radical_lifts
    if h_lifts is rad:
        return block.label
    tests = []
    for i in range(len(rad.gens)):
        unit = _unit(len(rad.gens), i)
        rk, s_rad = rad.psi(unit)
        hc = H.coords(rk)
        tests.append((hc, s_rad / h_lifts.table[hc][1],
                      rad.character(block.label, unit)))
    label = next((label for label in h_lifts.labels()
                  if all(ratio * h_lifts.character(label, hc) == target
                         for hc, ratio, target in tests)), None)
    if label is None:
        raise ClassifyError("no subgroup character matches the block")
    f = h_lifts.projector(label)
    if _b0_mul(A, block.idempotent, f) != f:
        raise ClassifyError(
            "the subgroup character's projector is not in the block")
    return label


class ClassOmega:
    """Vacuum space of an enumerated class: a window of degree lifts
    tensored with a simple module of the degree-zero component, induced
    from a character of a maximal isotropic subgroup H of E, one line
    per coset of H.  The e-action, computed through the
    relation-quotient algebra, maps a line to one line times a scalar,
    (line, scalar), and poisons (returns None) when it leaves the
    degree window |k_i| <= WINDOW.  Its size is stated without listing
    anything; its lines, lookup, weights and the lattice's eigenbasis
    are made on first use, and it keeps the module tables of each
    creation cap (`tables`, which `fock.FockModule` fills).  Its block
    is the certified `A.block_decomposition`'s."""

    def __init__(self, A: PresentedAlgebraA, ideal_index: int, xi0, eta):
        self.A = A
        lat = A.lattice
        E = A.E
        self.block = A.block_decomposition.blocks[ideal_index]
        self.H, self.h_lifts = _maximal_isotropic(A)
        if E.size % self.H.size:
            raise ClassifyError("isotropic subgroup size does not divide |E|")
        self.d = E.size // self.H.size
        if self.d != self.block.dim:
            raise ClassifyError("isotropic index does not match the block dim")
        # the cosets of H, each represented by its least element: E's
        # elements come in sorted order, so a coset's first is its least
        self.coset_rep = {}
        self.transversal = []
        members = [g for g, _s in self.h_lifts.table.values()]
        for g in E.elements():
            if g not in self.coset_rep:
                self.transversal.append(g)
                for h in members:
                    self.coset_rep[_e_add(g, h, E.divisors)] = g
        # pick a character of H whose induced module lies in the block
        self.h_label = _block_character(A, self.block, self.H, self.h_lifts)
        self.mm = A.m
        self.size = (2 * WINDOW + 1) ** self.mm * self.d
        self.base = [x + y for x, y in zip(xi0, eta)]
        self.tables = {}
        # degree coordinates: p * nu over that of the nonzero-degree reps
        self._degrees = IntegerCoords(
            [A.grading[i] for i in range(self.mm)], lat.rank)

    def _lift_vec(self, k):
        lat = self.A.lattice
        out = (0,) * lat.rank
        for i, c in enumerate(k):
            out = _vec_add(out, _vec_scale(self.A.reps[i], c))
        return out

    def _grading_coords(self, alpha):
        lat = self.A.lattice
        nu = lat.nu_p(alpha)
        if self.mm == 0:
            if any(nu):
                raise ClassifyError("nonzero degree in a trivially graded case")
            return ()
        x = self._degrees.solve(nu)
        if x is None:
            raise ClassifyError("degree outside the grading lattice")
        return tuple(x)

    @cached_property
    def basis(self):
        """The eigenbasis of the lattice, which every Fock module on this
        vacuum space reads (`fock._content_basis`)."""
        from .fock import _content_basis

        return _content_basis(self.A.twist)

    @cached_property
    def lines(self):
        window = itertools.product(
            *(range(-WINDOW, WINDOW + 1) for _ in range(self.mm)))
        return [(tuple(k), t) for k in window for t in self.transversal]

    @cached_property
    def lookup(self):
        return {line: i for i, line in enumerate(self.lines)}

    @cached_property
    def weights(self):
        """(D, rows) as for the regular vacuum space: the line (k, t) is
        shifted from the base weight by nu_p(the lift of k) / p."""
        p = self.A.lattice.p
        D = math.lcm(p, *(b.denominator for b in self.base))
        base = [b.numerator * (D // b.denominator) for b in self.base]
        nu = [self.A.lattice.nu_p(self._lift_vec(k)) for k, _t in self.lines]
        return D, [[b + x * (D // p) for b, x in zip(base, n)] for n in nu]

    def _y_act(self, g, t):
        """y_g applied to the module line v_t: (t', scalar)."""
        A = self.A
        E = A.E
        gt = _e_add(g, t, E.divisors)
        t2 = self.coset_rep[gt]
        h = _e_sub(gt, t2, E.divisors)
        hc = self.H.coords(h)
        gh, sh = self.h_lifts.table[hc]
        if gh != h:
            raise ClassifyError("subgroup lift mismatch")
        lam = self.h_lifts.character(self.h_label, hc) / sh
        return t2, A.tau(g, t) * A.tau(t2, h).inverse() * lam

    @kept
    def e_act(self, alpha, i):
        """e(alpha) on the line i: (line, scalar), or None when the
        image leaves the window; kept per (alpha, line) for the life of
        the vacuum space, exits included."""
        A = self.A
        twist = A.twist
        k, t = self.lines[i]
        a = self._grading_coords(alpha)
        k2 = tuple(x + y for x, y in zip(k, a))
        if any(abs(x) > WINDOW for x in k2):
            return None
        lk = self._lift_vec(k)
        lk2 = self._lift_vec(k2)
        delta = _vec_sub(_vec_add(alpha, lk), lk2)
        g = A.E.coords(delta)
        s1, _rep = A.e_image(delta)
        sg = A.y_scalar(g)
        t2, smod = self._y_act(g, t)
        total = twist.epsilon(alpha, lk) * \
            twist.epsilon(lk2, delta).inverse() * s1 / sg * smod
        return self.lookup[(k2, t2)], total.scalar()


def _class_vacuum(T: TwistData, cls: SimpleModuleClass) -> ClassOmega:
    """The class's vacuum space on the twist's algebra of the class's
    root choice, built afresh."""
    A = T.presentation.algebra(cls.mu_choice)
    if A.zero:
        raise ClassifyError(f"algebra collapsed: {A.witness}")
    return ClassOmega(A, cls.ideal_index, cls.base_weight, cls.eta)


def instantiate_class(T: TwistData, cls: SimpleModuleClass, trunc):
    """A truncated Fock module realizing an enumerated class, on the
    class's vacuum space for the twist's content.

    That vacuum space is kept in the enumeration memo's entry for the
    twist's content (`_kept.kept_value`, under `vacuum_key`), and built
    on the twist's own algebra the first time it is asked for: every later
    twist of the same content gets the same vacuum space, and with it
    its e-action memo, its eigenbasis and its module tables.  A vacuum
    space of more lines than `_kept.MAX_WORK` is built and not kept."""
    from .fock import FockModule

    key = vacuum_key(cls.mu_choice, cls.ideal_index, cls.base_weight,
                      cls.eta)
    omega = kept_value(T, key, lambda: _class_vacuum(T, cls))
    return FockModule(T, omega, trunc)


# ---------------------------------------------------------------------
# The twisted-module conditions
# ---------------------------------------------------------------------

def _check_relation_i(T, module, gamma, mu, probes):
    """Relation (i) on the probes.  Unlike the identity checks, one
    deciding probe is enough for 'pass': the probes at the edges of a
    class module's degree window always leave it under e-shifts, so
    requiring every probe to decide would leave (i) untestable on
    every module."""
    lat = T.lattice
    orb = lat.orbit(gamma)
    ks = T.k_coeffs(orb, mu)
    status, wit = "pass", None
    for s in range(1, len(orb)):
        diff = module.e_op(orb[s]) - module.e_op(gamma).scale(
            ks[s].inverse().scalar())
        decided = False
        for v in probes:
            st = vector_status(diff.apply(v))
            if st == "fail":
                return "fail", (gamma, s)
            decided = decided or st == "pass"
        if not decided:
            status = "untestable"
            wit = wit or (gamma, s)
    return status, wit


def _check_weight_ii(T, module, gamma, mu):
    lat = T.lattice
    try:
        lam = root_exponent(mu)
    except UnsupportedScalar:
        return "fail", (gamma, "irrational exponent")
    target = Fraction(lat.prime_pairing_p(gamma, gamma), 2 * lat.p) - lam
    D, rows = module.omega.weights
    for i, row in enumerate(rows):
        q = Fraction(sum(a * x for a, x in zip(gamma, row)), D)
        if (q - target).denominator != 1:
            return "fail", (gamma, i, q - target)
    return "pass", None


def twisted_conditions(T: TwistData, module):
    """Checks, for alpha over an integer basis grouped by orbit, that
    some orbit root mu makes (i) e(sigma^s a) = k_s^(-1) e(a) hold on
    the module and (ii) every weight satisfies
    xi(alpha(0)) = (alpha'|alpha')/2 - lambda mod Z with
    lambda the exact exponent of mu.

    Both the orbit length and the global automorphism order are
    reported, since either could serve as the root degree; the root
    candidates come from the orbit length.

    Returns a list of per-orbit report dicts with keys orbit, length,
    order, mu, cond_i, cond_ii, witness."""
    lat = T.lattice
    l = lat.rank
    probes = [module.vacuum(i) for i in range(module.omega.size)]
    groups = {}
    for k in range(l):
        e = _unit(l, k)
        key = min(lat.orbit(e))
        groups.setdefault(key, []).append(e)
    reports = []
    for key in sorted(groups):
        vectors = groups[key]
        orb0 = lat.orbit(vectors[0])
        best = None
        for mu in T.mu_roots(orb0):
            ci, cii, wit = "pass", "pass", None
            for gamma in vectors:
                # the witness is the first one of the worst status so
                # far: every status but pass comes with one
                s1, w1 = _check_relation_i(T, module, gamma, mu, probes)
                if _worse(s1, worst_status([ci, cii])):
                    wit = ("(i)",) + w1
                ci = worst_status([ci, s1])
                s2, w2 = _check_weight_ii(T, module, gamma, mu)
                if _worse(s2, worst_status([ci, cii])):
                    wit = ("(ii)",) + w2
                cii = worst_status([cii, s2])
            entry = {
                "orbit": key,
                "length": len(orb0),
                "order": lat.p,
                "mu": mu,
                "cond_i": ci,
                "cond_ii": cii,
                "witness": wit,
            }
            status = worst_status([ci, cii])
            # keep the first candidate with the best status
            if best is None or _worse(_entry_status(best), status):
                best = entry
            if status == "pass":
                break
        reports.append(best)
    return reports


def _worse(status, than) -> bool:
    """Whether the verdict status ranks strictly worse than `than`."""
    return worst_status([status, than]) != than


def _entry_status(entry):
    return worst_status([entry["cond_i"], entry["cond_ii"]])


def conditions_status(reports) -> str:
    return worst_status([_entry_status(r) for r in reports])
