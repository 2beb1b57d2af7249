"""Integer lattices with a finite-order form-preserving automorphism and
the derived pairing data used by the twisted-operator machinery."""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .linalg import det_int, hnf_columns, identity, kernel_basis, mat_mul, mat_vec

MAX_ORDER_SEARCH = 10000


class LatticeError(Exception):
    pass


class TwistedLattice:
    """Lattice Z^l with symmetric nondegenerate integer form and an
    automorphism sigma of finite order p preserving the form.

    The lattice keeps its sigma data for its lifetime: the powers
    `sigma_pows` (sigma^s for 0 <= s < p), the norm map
    N = sum_s sigma^s, so that alpha^0 = N alpha / p, `gram_norm`
    = G N, whose column j is p * nu(e_j), and its reduced generating
    set (`reduce_generating_set`) once first asked for."""

    def __init__(self, gram, sigma):
        gram = [list(map(int, row)) for row in gram]
        sigma = [list(map(int, row)) for row in sigma]
        l = len(gram)
        if any(len(row) != l for row in gram):
            raise LatticeError("gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(l) for j in range(l)):
            raise LatticeError("gram matrix must be symmetric")
        if det_int(gram) == 0:
            raise LatticeError("gram matrix must be nondegenerate")
        if len(sigma) != l or any(len(row) != l for row in sigma):
            raise LatticeError("sigma must be square of the same rank")
        st_g_s = mat_mul([list(col) for col in zip(*sigma)], mat_mul(gram, sigma))
        if st_g_s != gram:
            raise LatticeError("sigma does not preserve the form")
        self.rank = l
        self.gram = tuple(tuple(row) for row in gram)
        self.sigma = tuple(tuple(row) for row in sigma)
        powers = [identity(l)]
        for _ in range(MAX_ORDER_SEARCH):
            powers.append(mat_mul(sigma, powers[-1]))
            if powers[-1] == powers[0]:
                powers.pop()
                break
        else:
            raise LatticeError("sigma does not have finite order")
        self.p = len(powers)
        self.sigma_pows = tuple(tuple(tuple(r) for r in m) for m in powers)
        norm = [[sum(m[i][j] for m in powers) for j in range(l)]
                for i in range(l)]
        self.norm = tuple(tuple(r) for r in norm)
        self.gram_norm = tuple(tuple(r) for r in mat_mul(gram, norm))

    # -- basic pairings -----------------------------------------------

    def pairing(self, a, b) -> int:
        return sum(
            self.gram[i][j] * a[i] * b[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if a[i] and b[j]
        )

    def apply_sigma(self, v, s: int = 1):
        m = self.sigma_pows[s % self.p]
        return tuple(sum(c * x for c, x in zip(row, v)) for row in m)

    def m_values(self, alpha, beta):
        """(m_0, ..., m_{p-1}) with
        m_s = (sigma^{-s} alpha | beta) = (alpha | sigma^s beta)."""
        g_alpha = tuple(
            sum(g * a for g, a in zip(row, alpha)) for row in self.gram)
        return tuple(
            sum(ga * sum(c * b for c, b in zip(row, beta))
                for ga, row in zip(g_alpha, m))
            for m in self.sigma_pows)

    def prime_pairing(self, alpha, beta) -> Fraction:
        """Pairing of the components orthogonal to the fixed space:
        (alpha|beta) - (alpha|N beta)/p."""
        gnb = mat_vec(self.gram_norm, beta)
        return Fraction(self.pairing(alpha, beta)) - Fraction(
            sum(a * x for a, x in zip(alpha, gnb)), self.p)

    def proj0(self, alpha):
        """Projection onto the sigma-fixed subspace, rational coords."""
        return tuple(Fraction(x, self.p) for x in mat_vec(self.norm, alpha))

    def nu(self, alpha):
        """Degree of alpha: values (alpha^[0] | e_k) over the standard basis."""
        return tuple(Fraction(x, self.p)
                     for x in mat_vec(self.gram_norm, alpha))

    @cached_property
    def fixed_basis(self):
        """Integer basis of the sigma-fixed sublattice."""
        s_minus_id = [
            [self.sigma[i][j] - (1 if i == j else 0) for j in range(self.rank)]
            for i in range(self.rank)
        ]
        return tuple(tuple(v) for v in kernel_basis(s_minus_id))

    @cached_property
    def fixed_pairing(self):
        """M[k][i] = (F_i | e_k) over the fixed-sublattice basis F."""
        F = self.fixed_basis
        return tuple(
            tuple(sum(f[j] * self.gram[j][k] for j in range(self.rank))
                  for f in F)
            for k in range(self.rank))

    def orbit(self, alpha):
        """The sigma-orbit of alpha as a tuple, starting at alpha."""
        out = [tuple(alpha)]
        cur = self.apply_sigma(alpha)
        while cur != out[0]:
            out.append(cur)
            cur = self.apply_sigma(cur)
        return tuple(out)

    def reduce_generating_set(self) -> "OrbitDecomposition":
        """Generating set closed under sigma with the minimal number of
        nonzero-degree orbits; the nonzero degrees form a Z-basis of nu(Lambda).
        Computed once: every caller shares the lattice's one object."""
        return self._generating_set

    @cached_property
    def _generating_set(self) -> "OrbitDecomposition":
        l = self.rank
        # the integer degree matrix G N: column j = p * nu(e_j)
        h, u = hnf_columns([list(r) for r in self.gram_norm])
        nonzero_cols = [
            j for j in range(l) if any(h[i][j] for i in range(l))
        ]
        generators = [tuple(u[i][j] for i in range(l)) for j in range(l)]
        # orbits in generator order, nonzero-degree generators first
        order = nonzero_cols + [j for j in range(l) if j not in nonzero_cols]
        seen = set()
        orbits = []
        for j in order:
            orb = self.orbit(generators[j])
            if any(v in seen for v in orb):
                continue
            seen.update(orb)
            orbits.append(orb)
        return OrbitDecomposition(self, tuple(orbits))


class OrbitDecomposition:
    """A sigma-closed generating set partitioned into orbits."""

    def __init__(self, lattice: TwistedLattice, orbits):
        self.lattice = lattice
        # canonical representative: lexicographically smallest orbit element
        canon = []
        for orb in orbits:
            rep = min(orb)
            k = orb.index(rep)
            canon.append(tuple(orb[(k + s) % len(orb)] for s in range(len(orb))))
        self.orbits = tuple(canon)
        self.reps = tuple(orb[0] for orb in self.orbits)
        self.lengths = tuple(len(orb) for orb in self.orbits)
        self.pi = tuple(v for orb in self.orbits for v in orb)
        self.m = sum(
            1 for orb in self.orbits if any(lattice.nu(orb[0]))
        )

    def __repr__(self):
        return f"OrbitDecomposition(reps={self.reps}, lengths={self.lengths}, m={self.m})"
