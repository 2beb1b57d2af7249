"""Classification machinery for twisted modules: lifts of the lattice
automorphism and their eigendata, the relation-quotient algebra A, its
graded block decomposition, and enumeration of simple-module classes."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cocycle import TwistData, commutator_map
from .fdist import vector_status, worst_status
from .lattice import TwistedLattice
from .linalg import (
    IntegerCoords,
    field_inverse,
    field_rank,
    field_solve,
    hnf_columns,
    kernel_basis,
    lcm_list,
    snf,
    solve_int,
)
from .scalar import (
    CycScalar,
    ONE,
    ScalarError,
    as_scalar,
    canonical_root,
    root_of_unity,
)

# a bound on the work of one enumeration: root choices times |E|^2, the
# number of multiplication scalars tau over all root choices
MAX_WORK = 2 ** 16
# the degree window of a class vacuum space: lifts k with |k_i| <= WINDOW
WINDOW = 2


class ClassifyError(Exception):
    pass


class SizeCapExceeded(ClassifyError):
    """Raised when the work over the root choices of an enumeration,
    root choices times |E|^2, would exceed MAX_WORK."""


class UnsupportedScalar(ClassifyError):
    """Raised when an exact classification step needs a scalar outside
    the roots-of-unity domain (for example a weight exponent that is
    not rational)."""


def root_exponent(mu: CycScalar) -> Fraction:
    """The rational r/k in [0, 1) with mu = zeta_k^r, for mu a root of
    unity."""
    mu = as_scalar(mu)
    k = mu.order()
    if k is None:
        raise UnsupportedScalar(f"{mu} is not a root of unity")
    for r in range(k):
        if root_of_unity(k, r) == mu:
            return Fraction(r, k)
    raise UnsupportedScalar(f"{mu} has no discrete logarithm")  # pragma: no cover


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
    basis columns (rationals allowed) and sublattice columns inside the
    ambient span.  Provides cyclic-factor divisors, generator vectors,
    canonical coordinates and lifts."""

    def __init__(self, ambient_cols, sub_cols, dim: int):
        self.dim = dim
        self.rank = len(ambient_cols)
        self._lifts = {}
        self.ambient = [tuple(Fraction(x) for x in col) for col in ambient_cols]
        if self.rank == 0:
            self.divisors = ()
            self.gens = ()
            self.size = 1
            self._u = []
            return
        try:
            self._solver = IntegerCoords(self.ambient, dim)
        except ValueError:
            raise ClassifyError("quotient is infinite") from None
        w_cols = []
        for col in sub_cols:
            x = self._solver.solve(col)
            if x is None:
                raise ClassifyError("sublattice not contained in the ambient")
            w_cols.append(x)
        w = [[c[i] for c in w_cols] for i in range(self.rank)]
        d, u, _v = snf(w)
        divisors = []
        for i in range(self.rank):
            di = d[i][i] if i < len(d) and i < len(d[i]) else 0
            if di == 0:
                raise ClassifyError("quotient is infinite")
            divisors.append(di)
        self.divisors = tuple(divisors)
        uinv = field_inverse([[Fraction(x) for x in row] for row in u],
                             Fraction(1))
        self.gens = tuple(
            tuple(
                sum(uinv[j][i] * self.ambient[j][k] for j in range(self.rank))
                for k in range(dim)
            )
            for i in range(self.rank)
        )
        self._u = u
        self.size = math.prod(divisors)

    def coords(self, vec):
        """Canonical coordinates of vec + sub in the cyclic factors."""
        if self.rank == 0:
            return ()
        x = self._solver.solve(vec)
        if x is None:
            raise ClassifyError("vector outside the ambient lattice")
        return tuple(
            sum(self._u[i][j] * x[j] for j in range(self.rank))
            % self.divisors[i]
            for i in range(self.rank)
        )

    def lift(self, coords):
        """The vector sum_i coords_i gens_i (integers when integral),
        remembered per coordinate tuple."""
        key = tuple(coords)
        out = self._lifts.get(key)
        if out is None:
            out = tuple(
                sum(Fraction(c) * self.gens[i][k] for i, c in enumerate(key))
                for k in range(self.dim)
            )
            if all(v.denominator == 1 for v in out):
                out = tuple(int(v) for v in out)
            self._lifts[key] = out
        return out

    def elements(self):
        return itertools.product(*(range(d) for d in self.divisors))


# ---------------------------------------------------------------------
# The relation-quotient algebra A
# ---------------------------------------------------------------------

@dataclass
class PowerRelation:
    index: int
    power: int
    theta: CycScalar
    normalizer: CycScalar


class Presentation:
    """The part of the algebra A that does not depend on the root choice
    mu, on the lattice's generating set of orbits; the twist keeps it
    (`TwistData.presentation`).

    The relation lattice K is spanned by the difference vectors
    d = sigma^s a - a of the orbits; this object keeps them with their
    factors epsilon(d, a), the HNF of K and its kernel, the commutation
    constants and degrees of the orbit representatives, the epsilon
    folds of the power relations, the degree-zero component
    E = Lambda_0 / K and the radical of its commutator bicharacter.
    The collapse every root choice shares is decided here: `witness` is
    the commutator obstruction of the generating set or a non-central
    relation, else None.  The commutation constants, E and the radical
    are computed when first asked for and raise their errors each time
    they are asked for, so a root choice that collapses earlier never
    meets their checks or caps.  `algebra` keeps the algebra of each
    root choice."""

    def __init__(self, twist: TwistData):
        self.twist = twist
        self.lattice = lat = twist.lattice
        self.dec = lat.reduce_generating_set()
        self._algebras = {}
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
        self._k_parts = {}
        self._e_parts = {}
        self._tau_parts = {}
        # scalar relations must commute with the whole group algebra
        for d in self.dvecs:
            for k in range(l):
                if commutator_map(lat, d, _unit(l, k)) != ONE:
                    self.witness = ("non-central relation", (d, k))
                    return
        # the kernel vectors, with the mu-independent factor of the
        # A-image of e(sum_i ker_i d_i), which must be one for every mu
        self.kernel = [(ker, self._fold(ker))
                       for ker in (kernel_basis(self._dmat)
                                   if self.dvecs else [])]

    def algebra(self, mu_choice) -> PresentedAlgebraA:
        """The algebra A of one root choice, kept once built."""
        mu_choice = tuple(mu_choice)
        A = self._algebras.get(mu_choice)
        if A is None:
            A = self._algebras[mu_choice] = PresentedAlgebraA(
                self.twist, self.dec, mu_choice)
        return A

    # -- scalar bookkeeping -------------------------------------------

    def _fold(self, combo) -> CycScalar:
        """The mu-independent factor of the A-image of
        e(sum_i combo_i d_i), folded stepwise: the epsilon factors of
        the partial sums, and epsilon(d, -d) for each negative step.
        The image is this factor times prod_i e(d_i)^combo_i."""
        twist = self.twist
        cur = (0,) * self.lattice.rank
        cfold = ONE
        sprod = ONE
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

    def k_parts(self, kvec):
        """(combo, factor) for a nonzero kvec = sum_i combo_i d_i, or
        None when kvec is not in K."""
        if kvec not in self._k_parts:
            combo = solve_int(self._dmat, list(kvec))
            self._k_parts[kvec] = None if combo is None else \
                (combo, self._fold(combo))
        return self._k_parts[kvec]

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

    def e_parts(self, gamma):
        """(factor, d, rep) with e(gamma) = factor * e(d) * e(rep), d in
        K and rep the canonical representative."""
        if gamma not in self._e_parts:
            rep = self.rep_of(gamma)
            d = _vec_sub(gamma, rep)
            self._e_parts[gamma] = (self.twist.epsilon(d, rep).inverse(),
                                    d, rep)
        return self._e_parts[gamma]

    def tau_parts(self, g, h):
        """(factor, delta) with tau(g, h) = factor * e(delta), delta in K."""
        key = (g, h)
        if key not in self._tau_parts:
            E = self.E
            tg, th = E.lift(g), E.lift(h)
            tgh = E.lift(_e_add(g, h, E.divisors))
            delta = _vec_sub(_vec_add(tg, th), tgh)
            self._tau_parts[key] = (
                self.twist.epsilon(tg, th)
                * self.twist.epsilon(delta, tgh).inverse(), delta)
        return self._tau_parts[key]

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
                if c[i][j] * c[j][i] != ONE:
                    raise ClassifyError("commutation constants not antisymmetric")
                if (i >= self.dec.m or j >= self.dec.m) and \
                        c[i][j] ** self.lattice.p != ONE:
                    raise ClassifyError(
                        "degree-zero commutation constant is not a p-th root")
        return c

    @cached_property
    def grading(self):
        return tuple(self.lattice.nu(rep) for rep in self.dec.reps)

    @cached_property
    def efolds(self):
        """prod_(0<i<p_j) epsilon(i a_j, a_j) per degree-zero orbit j."""
        out = []
        for j in range(self.dec.m, len(self.dec.reps)):
            rep = self.dec.reps[j]
            efold = ONE
            for i in range(1, self.dec.lengths[j]):
                efold = efold * self.twist.epsilon(_vec_scale(rep, i), rep)
            out.append(efold)
        return out

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
        if choices * E.size ** 2 > MAX_WORK:
            raise SizeCapExceeded(
                f"{choices} root choices times the squared size "
                f"{E.size}^2 of the degree-zero component exceed the "
                f"work cap {MAX_WORK}")
        return E

    def bichar(self, g, h) -> CycScalar:
        """Commutator bicharacter on E: b(g, h) with
        y_g y_h = b(g, h) y_h y_g."""
        return commutator_map(self.lattice, self.E.lift(g), self.E.lift(h))

    @cached_property
    def radical(self) -> FiniteQuotient:
        """Radical of the commutator bicharacter on E, via Smith normal
        form of the exponent matrix."""
        E = self.E
        r = E.rank
        gens = [_unit(r, i) for i in range(r)]
        exps = [[root_exponent(self.bichar(gens[i], gens[j]))
                 for j in range(r)] for i in range(r)]
        P = lcm_list([e.denominator for row in exps for e in row])
        b = [[int(e * P) for e in row] for row in exps]
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
    (`Presentation.algebra`).  This object holds the coefficients k_s,
    the relation scalars, the power relations, the scalars k_image,
    e_image and tau, and its block decomposition.  The zero marker is
    set when the relations force 1 = theta for some scalar theta != 1
    (the obstructed case)."""

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
            if mu ** len(orb) != twist.orbit_phi_product(orb):
                raise ClassifyError("mu choice is not an orbit root")
            self.ks.append(twist.k_coeffs(orb, mu))
        self._k_cache = {}
        self._e_cache = {}
        self._tau_cache = {}
        if P.witness is not None:
            self.zero, self.witness = True, P.witness
            return
        # the scalar images e(d) of the difference vectors
        self._dscalars = [eps * self.ks[j][s].inverse()
                          for eps, (j, s) in zip(P.deps, P.dslots)]
        # the scalar image of a K-vector must not depend on the combo
        for ker, factor in P.kernel:
            if self._image(ker, factor) != ONE:
                self.zero = True
                self.witness = ("inconsistent relation scalars", ker)
                return
        self.c = P.c
        self.grading = P.grading
        # power relations on the degree-zero generators
        self.power_relations = []
        for j, efold in zip(range(self.m, len(self.reps)), P.efolds):
            pj = self.lengths[j]
            theta = efold * self.k_image(_vec_scale(self.reps[j], pj))
            try:
                normalizer = canonical_root(theta, pj).inverse()
            except ScalarError as exc:
                raise UnsupportedScalar(
                    f"power relation scalar {theta} has no canonical "
                    f"{pj}-th root") from exc
            self.power_relations.append(PowerRelation(j, pj, theta, normalizer))
        self.E = P.E
        self.dim_B0 = self.E.size

    # -- scalar bookkeeping -------------------------------------------

    def _image(self, combo, factor) -> CycScalar:
        """A-image scalar of e(sum_i combo_i d_i), given the
        mu-independent factor of its fold."""
        out = factor
        for s, mult in zip(self._dscalars, combo):
            if mult:
                out = out * s ** mult
        return out

    def k_image(self, kvec) -> CycScalar:
        """The scalar that e(kvec) equals in A, for kvec in K."""
        kvec = tuple(kvec)
        if kvec not in self._k_cache:
            if not any(kvec):
                self._k_cache[kvec] = ONE
            else:
                parts = self.presentation.k_parts(kvec)
                if parts is None:
                    raise ClassifyError(f"{kvec} is not in the relation lattice")
                self._k_cache[kvec] = self._image(*parts)
        return self._k_cache[kvec]

    def e_image(self, gamma):
        """(scalar, rep) with e(gamma) = scalar * e(rep) in A."""
        gamma = tuple(gamma)
        if gamma not in self._e_cache:
            factor, d, rep = self.presentation.e_parts(gamma)
            self._e_cache[gamma] = (factor * self.k_image(d), rep)
        return self._e_cache[gamma]

    def derived_mu(self, gamma) -> CycScalar:
        """The root mu(gamma) forced by the relations, for any gamma."""
        lat = self.lattice
        d = _vec_sub(lat.apply_sigma(gamma), gamma)
        if any(d):
            mu = self.twist.epsilon(d, gamma).inverse() * self.k_image(d) \
                * self.twist.phi(gamma)
        else:
            mu = self.twist.phi(gamma)
        orb = lat.orbit(gamma)
        if mu ** len(orb) != self.twist.orbit_phi_product(orb):
            raise ClassifyError(f"derived root at {gamma} is not an orbit root")
        return mu

    # -- degree-zero component arithmetic -----------------------------

    def y_scalar(self, g) -> CycScalar:
        """Scalar s with y_g = s^(-1) * [rep], the normalized basis of
        the degree-zero component (y_g = image of e(lift(g)))."""
        s, _rep = self.e_image(self.E.lift(g))
        return s

    def tau(self, g, h) -> CycScalar:
        """Multiplication scalar: y_g y_h = tau(g, h) y_(g+h)."""
        key = (tuple(g), tuple(h))
        if key not in self._tau_cache:
            factor, delta = self.presentation.tau_parts(*key)
            self._tau_cache[key] = factor * self.k_image(delta)
        return self._tau_cache[key]

    def bichar(self, g, h) -> CycScalar:
        """Commutator bicharacter on E: b(g, h) with
        y_g y_h = b(g, h) y_h y_g."""
        return self.presentation.bichar(g, h)

    @cached_property
    def block_decomposition(self) -> ADecomposition:
        """Simple blocks of the degree-zero component B_0, as explicit
        central idempotents indexed by characters of the bicharacter
        radical, with exact certification that they are orthogonal
        idempotents summing to one and that the block dimensions square-sum
        to dim B_0.  Homogeneous invertible elements carry the block
        decomposition from B_0 to graded ideals of the whole algebra."""
        if self.zero:
            raise ClassifyError("the zero algebra has no block decomposition")
        E = self.E
        rad = self.presentation.radical
        lifts = _GroupScalars(self, rad)
        blocks = []
        zero_g = tuple(0 for _ in E.divisors)
        one = {zero_g: ONE}
        total = {}
        certified = {
            "idempotent": True,
            "orthogonal": True,
            "sum_to_one": True,
            "dims_square": True,
        }
        elements = list(E.elements())
        dims = []
        for label in lifts.labels():
            coeffs = lifts.projector(label)
            if _b0_mul(self, coeffs, coeffs) != coeffs:
                certified["idempotent"] = False
            for g, c in coeffs.items():
                s = total.get(g)
                s = c if s is None else s + c
                if s:
                    total[g] = s
                elif g in total:
                    del total[g]
            rows = []
            for h in elements:
                prod = _b0_mul(self, coeffs, {h: ONE})
                rows.append([prod.get(g, as_scalar(0)) for g in elements])
            rank = field_rank(rows, ONE)
            d = math.isqrt(rank)
            if d * d != rank:
                certified["dims_square"] = False
            dims.append(d)
            blocks.append(Block(label, coeffs, d, rank))
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if _b0_mul(self, blocks[i].idempotent, blocks[j].idempotent):
                    certified["orthogonal"] = False
        if total != one:
            certified["sum_to_one"] = False
        if sum(b.rank for b in blocks) != E.size:
            certified["dims_square"] = False
        return ADecomposition(self, rad, blocks, len(blocks), tuple(dims),
                              certified)


def build_algebra_A(T: TwistData, mu_choice=None) -> PresentedAlgebraA:
    """The twist's algebra A of mu_choice, by default the first roots."""
    if mu_choice is None:
        mu_choice = tuple(T.mu_roots(orb)[0]
                          for orb in T.lattice.reduce_generating_set().orbits)
    return T.presentation.algebra(mu_choice)


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
            c = cx * cy * A.tau(g, h)
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
    homomorphism psi with psi(a) = scalar(a) * y_(elem(a))."""

    def __init__(self, A: PresentedAlgebraA, quotient: FiniteQuotient):
        self.A = A
        self.q = quotient
        self.gens = []
        for i in range(quotient.rank):
            rk = tuple(
                int(x) % d for x, d in zip(
                    quotient.gens[i], A.E.divisors))
            ok = quotient.divisors[i]
            c = ONE
            g = tuple(0 for _ in A.E.divisors)
            for _ in range(ok):
                c = c * A.tau(g, rk)
                g = _e_add(g, rk, A.E.divisors)
            if any(g):
                raise ClassifyError("subgroup generator order mismatch")
            try:
                nk = canonical_root(c, ok).inverse()
            except ScalarError as exc:
                raise UnsupportedScalar(
                    f"group scalar {c} has no canonical {ok}-th root") from exc
            self.gens.append((rk, ok, nk))

    def psi(self, coords):
        """(element of E, scalar) of the normalized product for the
        given subgroup coordinates."""
        A = self.A
        g = tuple(0 for _ in A.E.divisors)
        s = ONE
        for (rk, ok, nk), a in zip(self.gens, coords):
            for _ in range(a % ok):
                s = s * nk * A.tau(g, rk)
                g = _e_add(g, rk, A.E.divisors)
        return g, s

    def character(self, label, coords) -> CycScalar:
        out = ONE
        for (rk, ok, nk), t, a in zip(self.gens, label, coords):
            out = out * root_of_unity(ok, (t * a) % ok)
        return out

    def labels(self):
        return itertools.product(*(range(ok) for _rk, ok, _nk in self.gens))

    def projector(self, label) -> dict:
        """The character idempotent (1/|S|) sum_a chi_label(a)^(-1) psi(a),
        as coefficients over E."""
        inv_size = CycScalar.rational(Fraction(1, self.q.size))
        coeffs = {}
        for a in self.q.elements():
            g, s = self.psi(a)
            c = self.character(label, a).inverse() * s * inv_size
            coeffs[g] = coeffs.get(g, as_scalar(0)) + c
        return {g: c for g, c in coeffs.items() if c}


@dataclass
class Block:
    label: tuple
    idempotent: dict
    dim: int
    rank: int


@dataclass
class ADecomposition:
    algebra: PresentedAlgebraA
    radical: FiniteQuotient
    blocks: list
    count: int
    dims: tuple
    certified: dict


def decompose_A(A: PresentedAlgebraA) -> ADecomposition:
    """A's block decomposition (`PresentedAlgebraA.block_decomposition`)."""
    return A.block_decomposition


# ---------------------------------------------------------------------
# Weight admissibility and eta cosets
# ---------------------------------------------------------------------

def admissible_base_weight(A: PresentedAlgebraA):
    """A weight xi with xi(alpha(0)) = (alpha'|alpha')/2 - lambda(alpha)
    mod Z over an integer basis, or a witness that none exists.

    Returns (True, xi values at the standard basis) or (False, witness)."""
    T = A.twist
    lat = A.lattice
    l = lat.rank
    c = []
    for k in range(l):
        e = _unit(l, k)
        lam = root_exponent(A.derived_mu(e))
        c.append(lat.prime_pairing(e, e) / 2 - lam)
    F = lat.fixed_basis
    f = len(F)
    if f == 0:
        for k in range(l):
            if c[k].denominator != 1:
                return False, ("no weight satisfies the congruence", k, c[k])
        return True, tuple(Fraction(0) for _ in range(l))
    M = lat.fixed_pairing
    d, u, v = snf([list(r) for r in M])
    uc = [sum(Fraction(u[i][j]) * c[j] for j in range(l)) for i in range(l)]
    z = [Fraction(0)] * f
    for i in range(l):
        di = d[i][i] if i < min(l, f) else 0
        if di:
            z[i] = uc[i] / di
        elif uc[i].denominator != 1:
            return False, ("no weight satisfies the congruence", i, uc[i])
    y = [sum(Fraction(v[i][j]) * z[j] for j in range(f)) for i in range(f)]
    xi0 = tuple(
        sum(M[k][i] * y[i] for i in range(f)) for k in range(l))
    return True, xi0


def eta_cosets(lat: TwistedLattice):
    """Representatives of the quotient of the fixed sublattice's dual
    by the degree lattice nu(Lambda), as weight-value tuples at the
    standard basis.  Representatives use the canonical cyclic-factor
    coordinates of the Smith decomposition."""
    F = lat.fixed_basis
    f = len(F)
    l = lat.rank
    if f == 0:
        return [tuple(Fraction(0) for _ in range(l))], FiniteQuotient([], [], 0)
    gf = [[lat.pairing(F[i], F[j]) for j in range(f)] for i in range(f)]
    gf_inv = field_inverse([[Fraction(x) for x in row] for row in gf],
                           Fraction(1))
    ambient = [tuple(gf_inv[i][j] for i in range(f)) for j in range(f)]
    fmat = [[Fraction(F[i][j]) for i in range(f)] for j in range(l)]
    sub = []
    for k in range(l):
        x = field_solve(fmat, [Fraction(v) for v in lat.proj0(_unit(l, k))],
                        Fraction(1))
        if x is None:
            raise ClassifyError("projection outside the fixed span")
        sub.append(tuple(x))
    Q = FiniteQuotient(ambient, sub, f)
    M = lat.fixed_pairing
    reps = []
    for cds in Q.elements():
        y = Q.lift(cds)
        reps.append(tuple(
            sum(Fraction(M[k][i]) * Fraction(y[i]) for i in range(f))
            for k in range(l)))
    return reps, Q


# ---------------------------------------------------------------------
# Simple twisted-module classes
# ---------------------------------------------------------------------

@dataclass
class SimpleModuleClass:
    mu_choice: tuple
    ideal_index: int
    eta: tuple
    dimension: int
    base_weight: tuple
    eta_index: int = 0


@dataclass
class MuEntry:
    mu_choice: tuple
    admissible: bool
    detail: object
    dim_B0: int = 0
    block_count: int = 0
    block_dims: tuple = ()
    classes: list = field(default_factory=list)


@dataclass
class EnumerationResult:
    obstructed: bool
    witness: object
    eta_reps: list
    eta_count: int
    entries: list
    classes: list
    order: int
    orbit_lengths: tuple


def enumerate_simple_twisted(T: TwistData) -> EnumerationResult:
    """All simple twisted-module classes: root choices per generating
    orbit, filtered by weight admissibility, crossed with the simple
    blocks of A and with the eta cosets.  The obstructed case returns
    no classes together with the commutator witness.

    Classes are deduplicated only by their explicit (roots, block, eta)
    data; coincidences across different root choices are reported as
    separate entries.  A block decomposition that fails its
    certificate raises ClassifyError."""
    lat = T.lattice
    decomposition = lat.reduce_generating_set()
    obstructed, wit = T.obstruction_check()
    lengths = decomposition.lengths
    if obstructed:
        return EnumerationResult(True, wit, [], 0, [], [], lat.p, lengths)
    reps, _Q = eta_cosets(lat)
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
        failed = [k for k, ok in dec_A.certified.items() if not ok]
        if failed:
            raise ClassifyError(
                f"block decomposition at mu {mu_choice} fails its "
                f"certificate: {', '.join(failed)}")
        entry = MuEntry(mu_choice, True, xi0, A.dim_B0, dec_A.count,
                        dec_A.dims)
        for ideal_index in range(dec_A.count):
            for ei, eta in enumerate(reps):
                cls = SimpleModuleClass(
                    mu_choice, ideal_index, eta,
                    dec_A.blocks[ideal_index].dim, xi0, ei)
                entry.classes.append(cls)
                classes.append(cls)
        entries.append(entry)
    return EnumerationResult(False, None, reps, len(reps), entries, classes,
                             lat.p, lengths)


# ---------------------------------------------------------------------
# Concrete vacuum spaces and module instantiation
# ---------------------------------------------------------------------

def _maximal_isotropic(A: PresentedAlgebraA, rad: FiniteQuotient):
    """A maximal subgroup of E containing the radical on which the
    bicharacter is trivial, as a set of E-coordinates."""
    E = A.E
    members = set()
    for a in rad.elements():
        vec = rad.lift(a)
        members.add(tuple(int(x) % d for x, d in zip(vec, E.divisors)))
    changed = True
    elements = list(E.elements())
    while changed:
        changed = False
        for g in elements:
            if g in members:
                continue
            if all(A.bichar(g, h) == ONE for h in members):
                # close under the subgroup operation
                new = set(members)
                frontier = {g}
                while frontier:
                    x = frontier.pop()
                    if x in new:
                        continue
                    new.add(x)
                    for h in list(new):
                        frontier.add(_e_add(x, h, E.divisors))
                members = new
                changed = True
                break
    return members


def _subgroup_quotient(A: PresentedAlgebraA, members) -> FiniteQuotient:
    """Structure of a subgroup of E given by its coordinate set."""
    E = A.E
    r = E.rank
    cols = [tuple(g) for g in sorted(members)]
    cols += [tuple(E.divisors[i] if k == i else 0 for k in range(r))
             for i in range(r)]
    mat = [[c[i] for c in cols] for i in range(r)]
    h, _u = hnf_columns(mat)
    basis = []
    for j in range(len(cols)):
        col = tuple(h[i][j] for i in range(r))
        if any(col):
            basis.append(col)
    sub = [tuple(E.divisors[i] if k == i else 0 for k in range(r))
           for i in range(r)]
    return FiniteQuotient(basis, sub, r)


class ClassOmega:
    """Vacuum space of an enumerated class: a window of degree lifts
    tensored with a simple module of the degree-zero component, with
    the e-action computed through the relation-quotient algebra.  The
    action poisons (returns None) when it leaves the degree window
    |k_i| <= WINDOW."""

    def __init__(self, A: PresentedAlgebraA, ideal_index: int, xi0, eta):
        self.A = A
        lat = A.lattice
        E = A.E
        self.block = A.block_decomposition.blocks[ideal_index]
        members = _maximal_isotropic(A, A.presentation.radical)
        self.H = _subgroup_quotient(A, members)
        self.h_lifts = _GroupScalars(A, self.H)
        if E.size % len(members):
            raise ClassifyError("isotropic subgroup size does not divide |E|")
        self.d = E.size // len(members)
        if self.d != self.block.dim:
            raise ClassifyError("isotropic index does not match the block dim")
        # transversal of the subgroup in E, canonical minimal representatives
        self.coset_rep = {
            g: min(_e_add(g, h, E.divisors) for h in members)
            for g in E.elements()}
        self.transversal = sorted(set(self.coset_rep.values()))
        self.members = members
        # pick a character of H whose induced module lies in the block
        self.h_label = None
        for label in self.h_lifts.labels():
            f = self.h_lifts.projector(label)
            if _b0_mul(A, self.block.idempotent, f) == f:
                self.h_label = label
                self.f = f
                break
        if self.h_label is None:
            raise ClassifyError("no subgroup character matches the block")
        self.mm = A.m
        grid = itertools.product(
            *(range(-WINDOW, WINDOW + 1) for _ in range(self.mm)))
        self.lines = [(tuple(k), t) for k in grid for t in self.transversal]
        self.lookup = {line: i for i, line in enumerate(self.lines)}
        self.size = len(self.lines)
        lat_rank = lat.rank
        self._xis = []
        for (k, t) in self.lines:
            lk = self._lift_vec(k)
            nu = lat.nu(lk)
            self._xis.append(tuple(
                as_scalar(xi0[i] + eta[i] + nu[i]) for i in range(lat_rank)))
        # degree coordinates: nu over the nonzero-degree reps
        self._degrees = IntegerCoords(
            [lat.nu(A.reps[i]) for i in range(self.mm)], lat_rank)

    def _lift_vec(self, k):
        lat = self.A.lattice
        out = (0,) * lat.rank
        for i, c in enumerate(k):
            out = _vec_add(out, _vec_scale(self.A.reps[i], c))
        return out

    def _grading_coords(self, alpha):
        lat = self.A.lattice
        nu = lat.nu(alpha)
        if self.mm == 0:
            if any(nu):
                raise ClassifyError("nonzero degree in a trivially graded case")
            return ()
        x = self._degrees.solve(nu)
        if x is None:
            raise ClassifyError("degree outside the grading lattice")
        return tuple(x)

    def xi(self, i):
        return self._xis[i]

    def _y_act(self, g, t):
        """y_g applied to the module line v_t: (t', scalar)."""
        A = self.A
        E = A.E
        gt = _e_add(g, t, E.divisors)
        t2 = self.coset_rep[gt]
        h = _e_sub(gt, t2, E.divisors)
        hc = self.H.coords(h)
        gh, sh = self.h_lifts.psi(hc)
        if gh != h:
            raise ClassifyError("subgroup lift mismatch")
        lam = self.h_lifts.character(self.h_label, hc) / sh
        scalar = A.tau(g, t) * A.tau(t2, h).inverse() * lam
        return t2, scalar

    def e_act(self, alpha, i):
        A = self.A
        twist = A.twist
        k, t = self.lines[i]
        a = self._grading_coords(alpha)
        k2 = tuple(x + y for x, y in zip(k, a))
        if any(abs(x) > WINDOW for x in k2):
            return None
        lk = self._lift_vec(k)
        lk2 = self._lift_vec(k2)
        delta = _vec_sub(_vec_add(tuple(alpha), lk), lk2)
        g = A.E.coords(delta)
        s1, _rep = A.e_image(delta)
        sg = A.y_scalar(g)
        t2, smod = self._y_act(g, t)
        total = twist.epsilon(alpha, lk) * \
            twist.epsilon(lk2, delta).inverse() * s1 / sg * smod
        return [(self.lookup[(k2, t2)], total)]


def instantiate_class(T: TwistData, cls: SimpleModuleClass, trunc):
    """A truncated Fock module realizing an enumerated class, on the
    twist's algebra of the class's root choice."""
    from .fock import FockModule

    A = T.presentation.algebra(cls.mu_choice)
    if A.zero:
        raise ClassifyError(f"algebra collapsed: {A.witness}")
    omega = ClassOmega(A, cls.ideal_index, cls.base_weight, cls.eta)
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
        diff = module.e_op(orb[s]) - module.e_op(gamma).scale(ks[s].inverse())
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
    target = lat.prime_pairing(gamma, gamma) / 2 - lam
    for i in range(module.omega.size):
        xi = module.omega.xi(i)
        val = sum(
            (as_scalar(a) * xi[k] for k, a in enumerate(gamma)), as_scalar(0))
        try:
            q = val.rational_value()
        except ScalarError:
            return "fail", (gamma, i, "irrational weight")
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
                s1, w1 = _check_relation_i(T, module, gamma, mu, probes)
                ci = worst_status([ci, s1])
                if s1 == "fail":
                    wit = wit or ("(i)",) + w1
                s2, w2 = _check_weight_ii(T, module, gamma, mu)
                cii = worst_status([cii, s2])
                if s2 == "fail":
                    wit = wit or ("(ii)",) + w2
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
            if best is None or \
                    worst_status([status, _entry_status(best)]) != status:
                best = entry
            if status == "pass":
                break
        reports.append(best)
    return reports


def _entry_status(entry):
    return worst_status([entry["cond_i"], entry["cond_ii"]])


def conditions_status(reports) -> str:
    return worst_status([_entry_status(r) for r in reports])
