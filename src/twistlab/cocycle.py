"""Central-extension cocycle epsilon, commutator map C, structure
constants kappa, the extension cocycle phi, and the obstruction test."""
from __future__ import annotations

from fractions import Fraction

from .lattice import OrbitDecomposition, TwistedLattice
from .scalar import CycScalar, ONE, as_scalar, canonical_root, root_of_unity


class CocycleError(Exception):
    pass


def commutator_map(lattice: TwistedLattice, alpha, beta) -> CycScalar:
    """C(alpha, beta) = (-1)^((a|a)(b|b) + sum m_s) * omega^(-sum s*m_s)."""
    ms = lattice.m_values(alpha, beta)
    sign_exp = lattice.pairing(alpha, alpha) * lattice.pairing(beta, beta) + sum(ms)
    weighted = sum(s * ms[s] for s in range(1, lattice.p))
    value = root_of_unity(lattice.p, (-weighted) % lattice.p)
    if sign_exp % 2:
        value = -value
    return value


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

    The seeds are fixed at construction and must not be changed
    afterwards: phi keeps its value per vector, and the obstruction scan
    keeps its verdict per generating set, for as long as the object
    lives."""

    def __init__(self, lattice: TwistedLattice, eps_seed=None, phi_seed=None):
        self.lattice = lattice
        self.eps_seed = dict(eps_seed) if eps_seed is not None else build_epsilon(lattice)
        for (i, j), v in self.eps_seed.items():
            value = as_scalar(v)
            if value.order() is None:
                raise CocycleError(f"eps_seed[{i},{j}] must be a root of unity")
            self.eps_seed[(i, j)] = value
        if phi_seed is None:
            phi_seed = {
                i: self.phi_zero(self._basis_vector(i))
                for i in range(lattice.rank)
            }
        self.phi_seed = {i: self._check_phi_value(v) for i, v in phi_seed.items()}
        self._phi = {}
        self._obstruction = {}

    @staticmethod
    def _check_phi_value(v) -> CycScalar:
        v = as_scalar(v)
        if v.decompose_positive_root() is None:
            raise CocycleError(
                "phi values must be positive rationals times roots of unity"
            )
        return v

    def _basis_vector(self, i):
        return tuple(1 if k == i else 0 for k in range(self.lattice.rank))

    # -- epsilon and friends ------------------------------------------

    def epsilon(self, alpha, beta) -> CycScalar:
        out = ONE
        for i, a in enumerate(alpha):
            if not a:
                continue
            for j, b in enumerate(beta):
                if not b:
                    continue
                out = out * self.eps_seed[(i, j)] ** (a * b)
        return out

    def commutator(self, alpha, beta) -> CycScalar:
        return commutator_map(self.lattice, alpha, beta)

    def kappa(self, alpha, beta) -> CycScalar:
        """kappa(a,b) = eps(a,b) p^-(a|b) prod_s (1 - omega^s)^(m_s)."""
        lat = self.lattice
        ms = lat.m_values(alpha, beta)
        out = self.epsilon(alpha, beta) * (
            Fraction(lat.p) ** (-lat.pairing(alpha, beta))
        )
        omega = root_of_unity(lat.p)
        for s in range(1, lat.p):
            out = out * (ONE - omega ** s) ** ms[s]
        return out

    # -- the cocycle phi ----------------------------------------------

    def sigma_ratio(self, alpha, beta) -> CycScalar:
        """g(a,b) = eps(sigma a, sigma b)/eps(a,b) = kappa(sigma a, sigma b)/kappa(a,b)."""
        sa = self.lattice.apply_sigma(alpha)
        sb = self.lattice.apply_sigma(beta)
        return self.epsilon(sa, sb) / self.epsilon(alpha, beta)

    def phi_zero(self, alpha) -> CycScalar:
        """Canonical square root of eps(sigma a, sigma a)/eps(a, a)."""
        ratio = self.sigma_ratio(alpha, alpha)
        if ratio.decompose_positive_root() is None:
            raise CocycleError(f"unsupported scalar form for phi_zero at {alpha}")
        return canonical_root(ratio, 2)

    def phi(self, alpha) -> CycScalar:
        """The 1-cocycle: extension of the seed values with dphi(a,b) =
        eps(sigma a, sigma b)/eps(a, b)."""
        alpha = tuple(alpha)
        if alpha not in self._phi:
            self._phi[alpha] = self._phi_from_seeds(alpha)
        return self._phi[alpha]

    def _phi_from_seeds(self, alpha) -> CycScalar:
        l = self.lattice.rank
        out = ONE
        for i in range(l):
            a = alpha[i]
            if not a:
                continue
            out = out * self.phi_seed[i] ** a
            gii = self.sigma_ratio(self._basis_vector(i), self._basis_vector(i))
            out = out * gii ** (a * (a - 1) // 2)
        for i in range(l):
            if not alpha[i]:
                continue
            for j in range(i + 1, l):
                if not alpha[j]:
                    continue
                gij = self.sigma_ratio(self._basis_vector(i), self._basis_vector(j))
                out = out * gij ** (alpha[i] * alpha[j])
        return out

    # -- roots mu and eigen-coefficients k_s --------------------------

    def orbit_phi_product(self, orbit) -> CycScalar:
        out = ONE
        for v in orbit:
            out = out * self.phi(v)
        return out

    def mu_roots(self, orbit):
        """All p_alpha-th roots mu with mu^p_alpha = prod_s phi(sigma^s a)."""
        p_a = len(orbit)
        base = canonical_root(self.orbit_phi_product(orbit), p_a)
        return tuple(base * root_of_unity(p_a, j) for j in range(p_a))

    def k_coeffs(self, orbit, mu: CycScalar):
        """k_s = mu^-s phi(a) phi(sigma a) ... phi(sigma^(s-1) a), k_0 = 1."""
        out = [ONE]
        acc = ONE
        for s in range(1, len(orbit)):
            acc = acc * self.phi(orbit[s - 1])
            out.append(mu ** (-s) * acc)
        return tuple(out)

    # -- obstruction --------------------------------------------------

    def obstruction_check(self, decomposition: OrbitDecomposition | None = None):
        """Scan for C(alpha, sigma^j alpha) != 1; returns (obstructed, witness).

        Scanning pi and pairwise sums of pi elements suffices: the
        quadratic map a -> C(a, sigma^j a) is generated by its values on
        generators and generator sums.
        """
        if decomposition is None:
            decomposition = self.lattice.reduce_generating_set()
        pi = decomposition.pi
        if pi not in self._obstruction:
            self._obstruction[pi] = self._scan_obstruction(pi)
        return self._obstruction[pi]

    def _scan_obstruction(self, pi):
        lat = self.lattice
        for j in range(lat.p):
            for a in pi:
                if commutator_map(lat, a, lat.apply_sigma(a, j)) != ONE:
                    return True, (a, j)
            for x in range(len(pi)):
                for y in range(x + 1, len(pi)):
                    s = tuple(u + v for u, v in zip(pi[x], pi[y]))
                    if commutator_map(lat, s, lat.apply_sigma(s, j)) != ONE:
                        return True, (s, j)
        return False, None
