"""Integer lattices with a finite-order form-preserving automorphism and
the derived pairing data used by the twisted-operator machinery."""
from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
from typing import NamedTuple

from ._kept import read_tables
from .linalg import (
    _bilinear, det_int, hnf_columns, identity, kernel_basis, mat_mul, snf)


class LatticeError(Exception):
    pass


class _IntegerTables(NamedTuple):
    """The immutable integer tables of a default-seed twist whose
    content the enumeration memo keeps (`_kept.kept_value`), shared by
    every lattice and twist read from them: the lattice's validated
    Gram matrix and sigma, p, `sigma_pows` and `commutator_exponents`,
    and `twist`, the twist's (eps_order, eps_exponents, grid,
    phi_basis)."""
    gram: tuple
    sigma: tuple
    p: int
    sigma_pows: tuple
    commutator_exponents: tuple
    twist: tuple


def _integer_matrix(rows, name):
    """rows as a tuple of integer tuples; an entry x with int(x) != x is
    refused rather than truncated, and so is anything that is not rows
    of numbers (a row that is a number, a string, a NaN or an infinity),
    all with one message.  Rows of ints, the usual input, are taken as
    they are, without a conversion to compare against."""
    try:
        given = tuple(map(tuple, rows))
        if set(map(type, chain.from_iterable(given))) <= {int}:
            return given
        out = tuple([tuple(map(int, row)) for row in given])
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != given:
        raise LatticeError(f"{name} entries must be integers")
    return out


@cache
def _max_order(l: int) -> int:
    """The largest finite order of an element of GL_l(Z).  An order m
    occurs exactly when the sum of phi(q) over the prime powers q
    exactly dividing m is at most l, with one less when m = 2 mod 4
    (Kuzmanovich and Pavlichenkov, Amer. Math. Monthly 109, 2002): the
    largest product of prime powers within that budget, a knapsack over
    the primes up to l + 1, in which 2 costs nothing and 2^a, a > 1,
    costs 2^(a-1).  A constant per rank, computed once: about 15 us at
    rank 4, a fifth of a lattice's validation."""
    best = [1] * (l + 1)
    for q in range(2, l + 2):
        if any(q % d == 0 for d in range(2, q)):
            continue
        # (cost, factor) of each power of q within the budget
        powers, cost, f = [], 0 if q == 2 else q - 1, q
        while cost <= l:
            powers.append((cost, f))
            cost, f = max(cost * q, 2), f * q
        best = [max(best[c - k] * f for k, f in [(0, 1)] + powers if k <= c)
                for c in range(l + 1)]
    return best[l]


class TwistedLattice:
    """Lattice Z^l with symmetric nondegenerate integer form and an
    automorphism sigma of finite order p preserving the form.

    Construction validates the form and sigma and keeps the powers
    `sigma_pows` (sigma^s for 0 <= s < p).  The derived matrices are
    computed when first read and kept for the lattice's lifetime: the
    norm map `norm` N = sum_s sigma^s, p times the projection alpha ->
    alpha^0 onto the sigma-fixed space, `gram_norm` = G N, whose column
    j is p * nu(e_j), `gram_prime` = p G - G N, the primed pairing on
    the grid p, and `commutator_exponents`, the commutator phase on
    basis pairs as integers mod 2p; so is the reduced generating set
    (`reduce_generating_set`).

    The entries must be integers (an entry x with int(x) != x is
    refused, not truncated, and so is anything that is not rows of
    numbers), and sigma's order is searched through at most as many
    powers as the largest finite order in GL_l(Z) (`_max_order`).
    While the enumeration memo keeps the content of the default-seed
    twist on the same integer Gram matrix and sigma, the lattice reads
    that twist's tables (`_kept.read_tables`, None on a miss): the
    validated Gram matrix and sigma, p, `sigma_pows` and
    `commutator_exponents`, with no validation left to do.  Each
    construction is still its own lattice, with its own derived values;
    only the tables' tuples are shared."""

    def __init__(self, gram, sigma):
        gram = _integer_matrix(gram, "gram")
        sigma = _integer_matrix(sigma, "sigma")
        tables = self._integer_tables = read_tables(gram, sigma)
        if tables is not None:
            self.rank = len(gram)
            self.gram, self.sigma = tables.gram, tables.sigma
            self.p, self.sigma_pows = tables.p, tables.sigma_pows
            self.__dict__["commutator_exponents"] = \
                tables.commutator_exponents
            return
        l = len(gram)
        if any(len(row) != l for row in gram):
            raise LatticeError("gram matrix must be square")
        if gram != tuple(zip(*gram)):
            raise LatticeError("gram matrix must be symmetric")
        if det_int(gram) == 0:
            raise LatticeError("gram matrix must be nondegenerate")
        if len(sigma) != l or any(len(row) != l for row in sigma):
            raise LatticeError("sigma must be square of the same rank")
        st_g_s = mat_mul(tuple(zip(*sigma)), mat_mul(gram, sigma))
        if any(map(tuple.__ne__, map(tuple, st_g_s), gram)):
            raise LatticeError("sigma does not preserve the form")
        self.rank = l
        self.gram, self.sigma = gram, sigma
        powers = [identity(l)]
        # no element of finite order has a larger order
        for _ in range(_max_order(l)):
            powers.append(mat_mul(sigma, powers[-1]))
            if powers[-1] == powers[0]:
                powers.pop()
                break
        else:
            raise LatticeError("sigma does not have finite order")
        self.p = len(powers)
        self.sigma_pows = tuple([tuple(map(tuple, m)) for m in powers])

    @cached_property
    def norm(self):
        return tuple(tuple(map(sum, zip(*rows)))
                     for rows in zip(*self.sigma_pows))

    @cached_property
    def gram_norm(self):
        return tuple(tuple(r) for r in mat_mul(self.gram, self.norm))

    @cached_property
    def gram_prime(self):
        return tuple(tuple(self.p * g - x for g, x in zip(rg, rn))
                     for rg, rn in zip(self.gram, self.gram_norm))

    @cached_property
    def commutator_exponents(self):
        """K with C(e_i, e_j) = zeta_(2p)^(K_ij), 0 <= K_ij < 2p.  The
        exponent of C(a, b) = (-1)^((a|a)(b|b) + sum_s m_s)
        omega^(-sum_s s m_s) is bilinear mod 2p, since (a|a) = sum_i a_i
        G_ii mod 2: K = p d d^T + G sum_s (p - 2s) sigma^s mod 2p, with d
        the diagonal of G."""
        p, g = self.p, self.gram
        weighted = [[sum((p - 2 * s) * x for s, x in enumerate(col))
                     for col in zip(*rows)] for rows in zip(*self.sigma_pows)]
        return tuple(
            tuple((p * g[i][i] * g[j][j] + x) % (2 * p) for j, x in enumerate(row))
            for i, row in enumerate(mat_mul(g, weighted)))

    # -- basic pairings -----------------------------------------------

    def pairing(self, a, b) -> int:
        """(a|b) = a^T G b."""
        return _bilinear(self.gram, a, b)

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

    def commutator_exponent(self, alpha, beta) -> int:
        """k mod 2p with C(alpha, beta) = zeta_(2p)^k: the bilinear form
        `commutator_exponents`."""
        return _bilinear(self.commutator_exponents, alpha, beta) % (2 * self.p)

    def prime_pairing_p(self, alpha, beta) -> int:
        """p times the primed pairing (alpha'|beta'), the pairing of the
        components orthogonal to the sigma-fixed space, (alpha|beta) -
        (alpha|N beta)/p; an integer, alpha^T (p G - G N) beta, one form
        of the kept matrix."""
        return _bilinear(self.gram_prime, alpha, beta)

    def nu_p(self, alpha):
        """p times the degree nu(alpha), the values (alpha^0|e_k) over
        the standard basis; integers for an integer alpha: G N alpha."""
        return tuple(sum(g * a for g, a in zip(row, alpha) if a)
                     for row in self.gram_norm)

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

    @cached_property
    def fixed_pairing_snf(self):
        """The Smith form (d, u, v) of `fixed_pairing`: u M v = d."""
        return snf([list(r) for r in self.fixed_pairing])

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
            1 for orb in self.orbits if any(lattice.nu_p(orb[0]))
        )

    def __repr__(self):
        return f"OrbitDecomposition(reps={self.reps}, lengths={self.lengths}, m={self.m})"
