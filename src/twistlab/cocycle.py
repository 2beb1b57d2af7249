"""Central-extension cocycle epsilon, commutator map C, structure
constants kappa, the extension cocycle phi, and the obstruction test."""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .lattice import TwistedLattice
from .scalar import CycScalar, ONE, as_scalar, canonical_root, root_of_unity


class CocycleError(Exception):
    pass


def _commutator_value(p: int, norms: int, ms) -> CycScalar:
    """C = (-1)^(norms + sum m_s) * omega^(-sum s*m_s), where
    norms = (a|a)(b|b) and ms are the m-values of (a, b)."""
    weighted = sum(s * ms[s] for s in range(1, p))
    value = root_of_unity(p, (-weighted) % p)
    return -value if (norms + sum(ms)) % 2 else value


def commutator_map(lattice: TwistedLattice, alpha, beta) -> CycScalar:
    """C(alpha, beta) = (-1)^((a|a)(b|b) + sum m_s) * omega^(-sum s*m_s)."""
    return _commutator_value(
        lattice.p,
        lattice.pairing(alpha, alpha) * lattice.pairing(beta, beta),
        lattice.m_values(alpha, beta))


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
    afterwards: phi keeps its value per vector, the obstruction scan
    keeps its one verdict on the lattice's generating set, and
    `presentation` is the classifier's presentation of the algebra A,
    built once, for as long as the object lives."""

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

    def obstruction_check(self):
        """Scan for C(alpha, sigma^j alpha) != 1; returns (obstructed, witness).

        Scanning pi and pairwise sums of pi elements suffices: the
        quadratic map a -> C(a, sigma^j a) is generated by its values on
        generators and generator sums.  Since
        m_s(a, sigma^j a) = (a | sigma^(s+j) a), the m-values of
        (a, sigma^j a) are those of (a, a) rotated by j, so each
        candidate needs them once.  The verdict is computed once.
        """
        return self._obstruction

    @cached_property
    def _obstruction(self):
        lat = self.lattice
        pi = lat.reduce_generating_set().pi
        candidates = list(pi) + [
            tuple(u + v for u, v in zip(pi[x], pi[y]))
            for x in range(len(pi)) for y in range(x + 1, len(pi))]
        ms = []
        for j in range(lat.p):
            for i, a in enumerate(candidates):
                if i == len(ms):
                    ms.append(lat.m_values(a, a))
                m = ms[i]
                if _commutator_value(lat.p, m[0] * m[0],
                                     m[j:] + m[:j]) != ONE:
                    return True, (a, j)
        return False, None

    @cached_property
    def presentation(self):
        """The classifier's presentation of the algebra A on the
        lattice's generating set (`classify.Presentation`)."""
        from .classify import Presentation

        return Presentation(self)
