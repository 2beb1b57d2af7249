"""Integer lattice arithmetic for building inputs and checking outputs,
written apart from twistlab so the checks do not share its code."""
from __future__ import annotations


def identity(l):
    return [[1 if i == j else 0 for j in range(l)] for i in range(l)]


def transpose(a):
    return [list(r) for r in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt]
            for row in a]


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def powers(sigma):
    """[sigma^0, sigma^1, ..., sigma^(p-1)] for sigma of finite order p."""
    l = len(sigma)
    out = [identity(l)]
    while True:
        nxt = mat_mul([list(r) for r in sigma], out[-1])
        if nxt == out[0]:
            return out
        out.append(nxt)
        if len(out) > 64:
            raise ValueError("sigma has no small finite order")


def det(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pairing(gram, a, b) -> int:
    return sum(gram[i][j] * a[i] * b[j]
               for i in range(len(a)) for j in range(len(b)))


def commutator_exponent(gram, pows, a, b) -> int:
    """C(a, b) as the exponent e in Z/2p with C(a, b) = zeta_(2p)^e,
    from the defining formula
        C(a, b) = (-1)^((a|a)(b|b) + sum_s m_s) * omega^(-sum_s s m_s),
    m_s = (sigma^(-s) a | b), omega = zeta_p = zeta_(2p)^2."""
    p = len(pows)
    ms = [pairing(gram, mat_vec(pows[(-s) % p], a), b) for s in range(p)]
    sign = (pairing(gram, a, a) * pairing(gram, b, b) + sum(ms)) % 2
    weighted = sum(s * m for s, m in enumerate(ms))
    return (p * sign - 2 * weighted) % (2 * p)


def obstruction_witness(gram, sigma):
    """(a, j) with C(a, sigma^j a) != 1 over the vectors with entries in
    {-1, 0, 1} (the generators and their pairwise sums and differences,
    on which the quadratic map a -> C(a, sigma^j a) is determined), or
    None."""
    pows = powers(sigma)
    l = len(gram)
    vecs = [()]
    for _ in range(l):
        vecs = [v + (x,) for v in vecs for x in (-1, 0, 1)]
    for a in vecs:
        if not any(a):
            continue
        for j in range(len(pows)):
            if commutator_exponent(gram, pows, a, mat_vec(pows[j], a)):
                return a, j
    return None
