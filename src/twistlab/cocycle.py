"""Central-extension cocycle epsilon, commutator map C, structure
constants kappa, the extension cocycle phi, and the obstruction test."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._kept import kept
from .classify import Presentation
from .lattice import TwistedLattice
from .linalg import _bilinear
from .scalar import (
    CycScalar,
    ONE,
    RootPair,
    as_scalar,
    root_of_unity,
)


class CocycleError(Exception):
    pass


def _zeta(n: int, k: int) -> CycScalar:
    """zeta_n^k, looked up in lowest terms."""
    g = math.gcd(n, k)
    return root_of_unity(n // g, k // g)


def commutator_map(lattice: TwistedLattice, alpha, beta) -> CycScalar:
    """C(alpha, beta) = (-1)^((a|a)(b|b) + sum m_s) * omega^(-sum s*m_s)."""
    return _zeta(2 * lattice.p, lattice.commutator_exponent(alpha, beta))


def locality_order(lattice: TwistedLattice, alpha, beta) -> int:
    """N(alpha, beta) = max({-m_s : m_s < 0} u {0})."""
    ms = lattice.m_values(alpha, beta)
    return max([-m for m in ms if m < 0] + [0])


def build_epsilon(lattice: TwistedLattice) -> dict:
    """Seed values of epsilon on basis pairs: 1 on and above the diagonal,
    C(e_i, e_j) below, so the bimultiplicative extension realizes C."""
    l = lattice.rank

    def e(i):
        return tuple(1 if k == i else 0 for k in range(l))

    seed = {}
    for i in range(l):
        for j in range(l):
            seed[(i, j)] = ONE if i <= j else commutator_map(lattice, e(i), e(j))
    return seed


class TwistData:
    """Cocycle data attached to a twisted lattice: the epsilon seed and
    the 1-cocycle phi defining the lift of sigma.

    epsilon is bimultiplicative with root-of-unity seeds, so it is kept
    as one integer matrix: epsilon(a, b) = zeta_N^(a^T E b), with N
    (`eps_order`) the lcm of the seed orders and E (`eps_exponents`)
    the seeds' exponents on that grid.  Each value is a positive
    rational times a root of unity and is returned, by one method, as a
    `RootPair` on one grid per twist, `grid` = p * lcm(2, eps_order,
    the root orders of the phi seeds): it holds C (a 2p-th root), every
    epsilon and phi value, every orbit product of phi, every root mu of
    one (mu^p_a = product, p_a | p) and every k_s.  A caller that sums
    values, or hands one to CycScalar code, converts it with
    `RootPair.scalar()`; kappa, a product of sums, is a CycScalar.  The
    seeds are fixed at construction and must not be changed afterwards:
    phi keeps its value per vector and its product per orbit, the
    obstruction scan keeps its one verdict on the lattice's
    generating set, and `presentation` is the classifier's presentation
    of the algebra A, built once, for as long as the object lives."""

    def __init__(self, lattice: TwistedLattice, eps_seed=None, phi_seed=None):
        self.lattice = lattice
        l = lattice.rank
        seeds = dict(eps_seed) if eps_seed is not None else build_epsilon(lattice)
        # validate each seed and take its discrete log in one pass
        self.eps_seed = {}
        logs = {}
        for (i, j), v in seeds.items():
            value = as_scalar(v)
            root = RootPair.of(value)
            if root is None or root.q != 1:
                raise CocycleError(f"eps_seed[{i},{j}] must be a root of unity")
            self.eps_seed[(i, j)] = value
            logs[(i, j)] = root.lowest()
        for i in range(l):
            for j in range(l):
                if (i, j) not in logs:
                    raise CocycleError(f"eps_seed[{i},{j}] is missing")
        n = self.eps_order = math.lcm(*(m for m, _ in logs.values()))
        self.eps_exponents = tuple(
            tuple(logs[(i, j)][1] * (n // logs[(i, j)][0]) for j in range(l))
            for i in range(l))
        # a basis vector without a phi seed takes the default phi_zero(e_i)
        seeds = dict(phi_seed or {})
        for i in range(l):
            if i not in seeds:
                seeds[i] = self.phi_zero(self._basis_vector(i))
        self.phi_seed = {}
        pairs = {}
        for i, v in seeds.items():
            self.phi_seed[i] = as_scalar(v)
            pairs[i] = self._check_phi_value(v)
        self.grid = lattice.p * math.lcm(2, n, *(x.n for x in pairs.values()))
        self._eps_step = self.grid // n
        # the value 1 on the grid
        self.one = RootPair(1, 0, self.grid)
        self._phi_seeds = {i: x * self.one for i, x in pairs.items()}

    @staticmethod
    def _check_phi_value(v) -> RootPair:
        """The seed value v as a pair in lowest terms."""
        pair = RootPair.of(v)
        if pair is None:
            raise CocycleError(
                "phi values must be positive rationals times roots of unity"
            )
        return pair

    def _basis_vector(self, i):
        return tuple(1 if k == i else 0 for k in range(self.lattice.rank))

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
        l = self.lattice.rank
        return tuple(
            tuple(sum(sig[x][i] * e[x][y] * sig[y][j]
                      for x in range(l) for y in range(l)) - e[i][j]
                  for j in range(l))
            for i in range(l))

    def _ratio_exponent(self, alpha, beta) -> int:
        return _bilinear(self._ratio_exponents, alpha, beta) % self.eps_order

    def phi_zero(self, alpha) -> CycScalar:
        """Canonical square root of eps(sigma a, sigma a)/eps(a, a): of
        zeta_M^k in lowest terms, zeta_(2M)^k."""
        n = self.eps_order
        k = self._ratio_exponent(alpha, alpha)
        g = math.gcd(n, k)
        return root_of_unity(2 * n // g, k // g)

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
            seed = self._phi_seeds[i]
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
