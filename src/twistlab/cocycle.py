"""Central-extension cocycle epsilon, commutator map C, structure
constants kappa, the extension cocycle phi, and the obstruction test."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._kept import kept
from .classify import Presentation, _unit
from .lattice import TwistedLattice, _IntegerTables
from .linalg import _bilinear, mat_mul
from .scalar import (
    CycScalar,
    ONE,
    RootPair,
    root_of_unity,
)


class CocycleError(Exception):
    pass


def commutator_map(lattice: TwistedLattice, alpha, beta) -> CycScalar:
    """C(alpha, beta) = (-1)^((a|a)(b|b) + sum m_s) * omega^(-sum s*m_s)."""
    return RootPair(1, lattice.commutator_exponent(alpha, beta),
                    2 * lattice.p).scalar()


def locality_order(lattice: TwistedLattice, alpha, beta) -> int:
    """N(alpha, beta) = max({-m_s : m_s < 0} u {0})."""
    ms = lattice.m_values(alpha, beta)
    return max([-m for m in ms if m < 0] + [0])


def build_epsilon(lattice: TwistedLattice) -> dict:
    """Seed values of epsilon on basis pairs: 1 on and above the diagonal,
    C(e_i, e_j) below, so the bimultiplicative extension realizes C."""
    l = lattice.rank
    return {(i, j): ONE if i <= j else
            commutator_map(lattice, _unit(l, i), _unit(l, j))
            for i in range(l) for j in range(l)}


class TwistData:
    """Cocycle data attached to a twisted lattice: the epsilon seed and
    the 1-cocycle phi defining the lift of sigma, as integer exponents.

    epsilon(a, b) = zeta_N^(a^T E b), with N (`eps_order`) the lcm of
    the seed orders and E (`eps_exponents`) the seeds' exponents.  Each
    value is returned, by one method, as a `RootPair` on one grid per
    twist, `grid` = p * lcm(2, eps_order, the root orders of the phi
    seeds): it holds C, every epsilon and phi value (`phi_basis` holds
    phi(e_i)), every orbit product of phi, every root mu of one and
    every k_s.  A caller that sums values, or hands one to CycScalar
    code, converts it with `RootPair.scalar()`.

    Without an eps seed, epsilon is `build_epsilon`'s, read off the
    lattice's `commutator_exponents`; a basis vector without a phi seed
    takes `phi_zero(e_i)`, read off sigma^T E sigma - E.  Given seeds
    are validated here; `eps_seed` and `phi_seed` are CycScalar views
    made when first read.  The seeds are fixed at construction: phi
    keeps its value per vector and its product per orbit, the
    obstruction scan its one verdict, and `presentation` is the
    classifier's presentation of the algebra A, built once.

    Without seeds the twist is a function of its lattice, so on a
    lattice read from the enumeration memo's tables (`TwistedLattice`)
    it reads `eps_order`, `eps_exponents`, `grid` and `phi_basis` there too
    (`_kept.kept_value`); a twist with seeds builds its own.  Each
    construction is still its own twist, with its own memos; only
    tuples and `RootPair`s are shared."""

    def __init__(self, lattice: TwistedLattice, eps_seed=None, phi_seed=None):
        self.lattice = lattice
        self._default_seeds = eps_seed is None and not phi_seed
        tables = lattice._integer_tables
        if self._default_seeds and tables is not None:
            n, self.eps_exponents, grid, self.phi_basis = tables.twist
            self.eps_order, self.grid, self._eps_step = n, grid, grid // n
            self.one = RootPair(1, 0, grid)
            return
        l = lattice.rank
        # epsilon on basis pairs as (M, j), zeta_M^j in lowest terms
        logs = {}
        if eps_seed is None:
            two_p = 2 * lattice.p
            for i, row in enumerate(lattice.commutator_exponents):
                for j, k in enumerate(row):
                    k = k if i > j else 0
                    g = math.gcd(two_p, k)
                    logs[(i, j)] = (two_p // g, k // g)
        else:
            for (i, j), v in eps_seed.items():
                if not (0 <= i < l and 0 <= j < l):
                    raise CocycleError(f"eps_seed[{i},{j}] is outside the basis")
                root = RootPair.of(v)
                if root is None or root.q != 1:
                    raise CocycleError(f"eps_seed[{i},{j}] must be a root of unity")
                logs[(i, j)] = root.lowest()
            for i in range(l):
                for j in range(l):
                    if (i, j) not in logs:
                        raise CocycleError(f"eps_seed[{i},{j}] is missing")
        n = self.eps_order = math.lcm(*(m for m, _ in logs.values()))
        self.eps_exponents = tuple(
            tuple(logs[(i, j)][1] * (n // logs[(i, j)][0]) for j in range(l))
            for i in range(l))
        # phi(e_i) as (q, M, j): seed or phi_zero(e_i), e_i = sigma^0 row i
        phi, seeds = [], phi_seed or {}
        if any(not 0 <= i < l for i in seeds):
            raise CocycleError("phi_seed keys must be basis indices")
        for i, s_i in enumerate(zip(*lattice.sigma)):
            if i in seeds:
                pair = RootPair.of(seeds[i])
                if pair is None:
                    raise CocycleError("phi values must be positive "
                                       "rationals times roots of unity")
                phi.append((pair.q,) + pair.lowest())
            else:
                k = self._phi_zero_exponent(lattice.sigma_pows[0][i], s_i)
                g = math.gcd(2 * n, k)
                phi.append((1, 2 * n // g, k // g))
        grid = self.grid = lattice.p * math.lcm(2, n, *(m for _q, m, _j in phi))
        self._eps_step = grid // n
        self.one = RootPair(1, 0, grid)
        self.phi_basis = tuple(RootPair(q, j * (grid // m), grid)
                               for q, m, j in phi)

    def _integer_tables(self) -> _IntegerTables:
        """The tables the enumeration memo keeps for the content of this
        twist, which has default seeds: its lattice's and its own."""
        lat = self.lattice
        if lat._integer_tables is not None:
            return lat._integer_tables
        return _IntegerTables(lat.gram, lat.sigma, lat.p, lat.sigma_pows,
                              lat.commutator_exponents,
                              (self.eps_order, self.eps_exponents,
                               self.grid, self.phi_basis))

    @cached_property
    def eps_seed(self) -> dict:
        return {(i, j): RootPair(1, k, self.eps_order).scalar()
                for i, row in enumerate(self.eps_exponents)
                for j, k in enumerate(row)}

    @cached_property
    def phi_seed(self) -> dict:
        return {i: x.scalar() for i, x in enumerate(self.phi_basis)}

    # -- epsilon and friends ------------------------------------------

    def epsilon(self, alpha, beta) -> RootPair:
        """epsilon(a, b) = zeta_N^(a^T E b) on the twist's grid."""
        return RootPair(1, _bilinear(self.eps_exponents, alpha, beta)
                        * self._eps_step, self.grid)

    def commutator(self, alpha, beta) -> RootPair:
        """C(a, b) on the twist's grid."""
        grid = self.grid
        return RootPair(1, self.lattice.commutator_exponent(alpha, beta)
                        * (grid // (2 * self.lattice.p)), grid)

    def kappa(self, alpha, beta) -> CycScalar:
        """kappa(a,b) = eps(a,b) p^-(a|b) prod_s (1 - omega^s)^(m_s)."""
        lat = self.lattice
        ms = lat.m_values(alpha, beta)
        out = self.epsilon(alpha, beta).scalar() * (
            Fraction(lat.p) ** (-lat.pairing(alpha, beta))
        )
        omega = root_of_unity(lat.p)
        for s in range(1, lat.p):
            out = out * (ONE - omega ** s) ** ms[s]
        return out

    # -- the cocycle phi ----------------------------------------------

    @cached_property
    def _ratio_exponents(self):
        """R = sigma^T E sigma - E: eps(sigma a, sigma b)/eps(a, b) =
        zeta_N^(a^T R b)."""
        sig, e = self.lattice.sigma, self.eps_exponents
        ses = mat_mul(tuple(zip(*sig)), mat_mul(e, sig))
        return tuple(tuple(x - y for x, y in zip(rs, re))
                     for rs, re in zip(ses, e))

    def _phi_zero_exponent(self, a, sa) -> int:
        """k: eps(sa, sa)/eps(a, a) = zeta_N^k, 0 <= k < N, sa = sigma a."""
        e = self.eps_exponents
        k = _bilinear(e, sa, sa) - _bilinear(e, a, a)
        return k % self.eps_order

    def phi_zero(self, alpha) -> CycScalar:
        """Canonical square root of eps(sigma a, sigma a)/eps(a, a) =
        zeta_N^k, 0 <= k < N: zeta_(2N)^k."""
        k = self._phi_zero_exponent(alpha, self.lattice.apply_sigma(alpha))
        return RootPair(1, k, 2 * self.eps_order).scalar()

    @kept
    def phi(self, alpha) -> RootPair:
        """The 1-cocycle on the twist's grid, kept per vector: the
        extension of the seed values with dphi(a,b) =
        eps(sigma a, sigma b)/eps(a, b), that is prod_i phi(e_i)^(a_i)
        times g(e_i, e_i)^(a_i (a_i - 1)/2) and g(e_i, e_j)^(a_i a_j)
        for i < j, all of it one exponent sum on the grid and one
        rational product."""
        r = self._ratio_exponents
        q = 1
        k = 0
        g = 0
        for i, a in enumerate(alpha):
            if not a:
                continue
            seed = self.phi_basis[i]
            k += seed.k * a
            if seed.q != 1:
                q *= Fraction(seed.q) ** a
            g += r[i][i] * (a * (a - 1) // 2)
            for j in range(i + 1, len(alpha)):
                if alpha[j]:
                    g += r[i][j] * a * alpha[j]
        return RootPair(q, k + g * self._eps_step, self.grid)

    # -- roots mu and eigen-coefficients k_s --------------------------

    @kept
    def orbit_product(self, orbit) -> RootPair:
        """prod_s phi(sigma^s a) on the twist's grid, kept per orbit."""
        out = self.one
        for v in orbit:
            out = out * self.phi(v)
        return out

    def mu_roots(self, orbit):
        """All p_alpha-th roots mu with mu^p_alpha = prod_s phi(sigma^s a)
        on the twist's grid: the canonical root of the orbit product
        times the p_alpha-th roots of one."""
        p_a = len(orbit)
        base = self.orbit_product(orbit).root(p_a)
        step = self.grid // p_a
        return tuple(base * RootPair(1, j * step, self.grid)
                     for j in range(p_a))

    def k_coeffs(self, orbit, mu: RootPair):
        """k_s = mu^-s phi(a) phi(sigma a) ... phi(sigma^(s-1) a), k_0 = 1,
        each from the last: k_s = k_(s-1) mu^-1 phi(sigma^(s-1) a)."""
        out = [self.one]
        if len(orbit) > 1:
            inv = mu.inverse()
            for v in orbit[:-1]:
                out.append(out[-1] * inv * self.phi(v))
        return tuple(out)

    # -- obstruction --------------------------------------------------

    def obstruction_check(self):
        """Scan for C(alpha, sigma^j alpha) != 1; returns (obstructed, witness).

        Scanning pi and pairwise sums of pi elements suffices: the
        quadratic map a -> C(a, sigma^j a) is generated by its values on
        generators and generator sums.  Since C(a, a) = 1 and
        C(sigma^j a - a, b) = zeta_p^(-j a^T G N b), C(a, sigma^j a) =
        zeta_p^(j a^T G N a): it is never 1 for j = 0 and differs from 1
        for some j exactly when it does for j = 1, that is when
        a^T G N a != 0 mod p.  The witness is the first such candidate
        with j = 1.  The verdict is computed once.
        """
        return self._obstruction

    @cached_property
    def _obstruction(self):
        lat = self.lattice
        p = lat.p
        pi = lat.reduce_generating_set().pi
        candidates = list(pi) + [
            tuple(u + v for u, v in zip(pi[x], pi[y]))
            for x in range(len(pi)) for y in range(x + 1, len(pi))]
        for a in candidates:
            if sum(x * y for x, y in zip(a, lat.nu_p(a))) % p:
                return True, (a, 1)
        return False, None

    @cached_property
    def presentation(self) -> Presentation:
        """The classifier's presentation of the algebra A on the
        lattice's generating set."""
        return Presentation(self)
