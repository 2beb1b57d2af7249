"""Slow, independent cross-check routines.

Each oracle recomputes a quantity that the main code paths produce,
using a deliberately different algorithm: the product oracle expands
its projection kernel monomial by monomial straight from the defining
double sum (no kernel-polynomial arithmetic, no closed forms), in
Fraction arithmetic on the integer grid data it reads, the
block oracle reads the structure of a twisted group algebra off its
full multiplication table, and the coset oracle counts the sigma-fixed
dual-lattice cosets by a breadth-first search over all cosets.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .fdist import FdistError, GenSeries, gen_binom
from .fock import FockOp, FockVector
from .linalg import field_inverse
from .scalar import ONE, as_scalar


class OracleError(Exception):
    pass


def _floor_int(x: Fraction) -> int:
    return x.numerator // x.denominator


# ---------------------------------------------------------------------
# Residue-form product oracle
# ---------------------------------------------------------------------

def projection_monomials(p: int, m: int):
    """Monomials (w_exp, z_exp, coeff) of the projection kernel

        sum_{q=0}^{p-1} sum_{j=0}^{m} binom(-q/p, j)
            w^{q/p} z^{-q/p-j} (w-z)^j,

    with each (w-z)^j opened by the plain binomial theorem."""
    acc = {}
    for q in range(p):
        for j in range(m + 1):
            cqj = gen_binom(Fraction(-q, p), j)
            if not cqj:
                continue
            for i in range(j + 1):
                c = cqj * math.comb(j, i)
                if i % 2:
                    c = -c
                key = (Fraction(q, p) + (j - i), Fraction(-q, p) - j + i)
                acc[key] = acc.get(key, Fraction(0)) + c
    return [(u, x, c) for (u, x), c in sorted(acc.items()) if c]


def oracle_product(a: GenSeries, b: GenSeries, n: int,
                   locality: int) -> GenSeries:
    """The n-th product by literal residue extraction in w^(1/p), z^(1/p):

        Res_w (a(w)b(z) i_{w,z}(w-z)^n - (-1)^(p_a p_b)
               b(z)a(w) i_{z,w}(w-z)^n) K(w,z),

    with K the projection kernel of slack locality - n - 1, expanded by
    projection_monomials.  The inner sums terminate at the annihilation
    bounds of the two factors.  The series keep their residues, shifts
    and degrees as integers on the module's grid; the oracle turns each
    into a Fraction as it reads it, and computes in Fractions."""
    mod = a.module
    if b.module is not mod:
        raise FdistError("series live over different modules")
    if a.shift_k is None or b.shift_k is None:
        raise FdistError("the product oracle requires degree shifts")
    D = mod.grid
    terms = projection_monomials(mod.p, max(locality - n - 1, 0))
    ca, cb = Fraction(a.shift_k, D), Fraction(b.shift_k, D)
    fl = Fraction(mod.floor_k, D)
    sign = -1 if (a.parity and b.parity) else 1
    res_k = {(ra + rb) % D for ra in a.res_k for rb in b.res_k}

    def fn(t):
        def act(v):
            out = FockVector(mod, {}, v.poisoned)
            if not v.terms:
                return out
            d = Fraction(v.max_degree_k(), D)
            for (u, x, c) in terms:
                kmax = _floor_int(d + cb - fl - t - x)
                if n >= 0:
                    kmax = min(kmax, n)
                for k in range(kmax + 1):
                    coef = gen_binom(Fraction(n), k) * c
                    if not coef:
                        continue
                    w = a.coeff(n - k + u).apply(b.coeff(t + k + x).apply(v))
                    out = out + w.scale(coef if k % 2 == 0 else -coef)
                kmax = _floor_int(d + ca - fl - u)
                if n >= 0:
                    kmax = min(kmax, n)
                for k in range(kmax + 1):
                    coef = gen_binom(Fraction(n), k) * c
                    if not coef:
                        continue
                    w = b.coeff(t + n - k + x).apply(a.coeff(k + u).apply(v))
                    sgn = -sign * (1 if (n + k) % 2 == 0 else -1)
                    out = out + w.scale(sgn * coef)
            return out

        return FockOp(mod, act, a.parity + b.parity)

    return GenSeries(mod, lambda k: fn(Fraction(k, D)), res_k,
                     (a.parity + b.parity) % 2, a.shift_k + b.shift_k - n * D)


# ---------------------------------------------------------------------
# Twisted group algebra block oracle
# ---------------------------------------------------------------------

MAX_GROUP_SIZE = 4096


def oracle_bicharacter_blocks(orders, comm):
    """Block structure of the twisted group algebra of E = prod Z/d_i.

    orders: the cyclic factor orders d_i; comm[i][j]: the scalar with
    x_i x_j = comm[i][j] x_j x_i (and x_i^{d_i} = 1).  Works on the
    normal-form basis x^g = x_1^{g_1} ... x_r^{g_r}, whose products are
    x^g x^h = tau(g, h) x^{g+h} with tau(g, h) = prod_{i>j}
    comm[i][j]^{g_i h_j}.  The center is found by comparing rows of the
    full multiplication table; the blocks of a twisted group algebra of
    an abelian group all share one dimension (the character group
    permutes them transitively), so the block dimension is pinned down
    by count * dim^2 = |E|, certified to be an exact integer square.

    Returns (block_count, block_dim, dim) with dim = |E|."""
    r = len(orders)
    size = 1
    for d in orders:
        if d < 1:
            raise OracleError("cyclic factor orders must be positive")
        size *= d
    if size > MAX_GROUP_SIZE:
        raise OracleError(f"group size {size} exceeds cap {MAX_GROUP_SIZE}")
    comm = [[as_scalar(x) for x in row] for row in comm]
    for i in range(r):
        if comm[i][i] != ONE:
            raise OracleError("generators must commute with themselves")
        for j in range(r):
            if comm[i][j] * comm[j][i] != ONE:
                raise OracleError("commutation constants must be antisymmetric")
            if comm[i][j] ** orders[i] != ONE or comm[i][j] ** orders[j] != ONE:
                raise OracleError(
                    "commutation constants must respect the factor orders")

    def tau(g, h):
        out = ONE
        for i in range(r):
            if not g[i]:
                continue
            for j in range(i):
                if h[j]:
                    out = out * comm[i][j] ** (g[i] * h[j])
        return out

    elements = list(itertools.product(*[range(d) for d in orders]))

    def add(g, h):
        return tuple((x + y) % d for x, y, d in zip(g, h, orders))

    # full multiplication table: table[g][h] = (g+h, tau(g, h))
    table = {
        g: {h: (add(g, h), tau(g, h)) for h in elements} for g in elements
    }
    # generator coordinates reduced mod the factor orders: a factor of
    # order 1 has the single element 0
    gens = [tuple(1 % orders[i] if k == i else 0 for k in range(r))
            for i in range(r)]
    central = []
    for g in elements:
        ok = True
        for e in gens:
            left = table[e][g]
            right = table[g][e]
            if left[0] != right[0] or left[1] != right[1]:
                ok = False
                break
        if ok:
            central.append(g)
    count = len(central)
    # the central basis elements must close under multiplication
    cset = set(central)
    for g in central:
        for h in central:
            if table[g][h][0] not in cset:
                raise OracleError("center is not spanned by group elements")
    dim = math.isqrt(size // count)
    if dim * dim * count != size:
        raise OracleError("block count does not divide |E| into squares")
    return count, dim, size


# ---------------------------------------------------------------------
# Dual-coset counting oracle
# ---------------------------------------------------------------------

def oracle_dual_coset_count(gram, sigma) -> int:
    """|(Lambda' / Lambda)^sigma|, the number of cosets of the dual
    lattice that sigma fixes, by breadth-first search.

    The dual lattice is spanned by the columns of the inverse Gram
    matrix, so its cosets are the sums of those columns mod Z^l.  They
    are kept in integers: scaled by the exponent D of the dual quotient
    (the lcm of the inverse's denominators), a coset is an integer
    vector mod D, and it is fixed when sigma x - x is 0 mod D."""
    l = len(gram)
    inv = field_inverse([[Fraction(x) for x in row] for row in gram],
                        Fraction(1))
    D = math.lcm(*(x.denominator for row in inv for x in row))
    cols = [tuple(int(inv[i][j] * D) for i in range(l)) for j in range(l)]
    queue = [(0,) * l]
    seen = set(queue)
    for x in queue:
        for col in cols:
            y = tuple((a + b) % D for a, b in zip(x, col))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sum(
        all((sum(s * v for s, v in zip(row, x)) - xi) % D == 0
            for row, xi in zip(sigma, x))
        for x in seen)
