"""Small exact linear algebra: integer normal forms, integer coordinates
in a lattice and generic field elimination used throughout the package."""
from __future__ import annotations

import math


# -- integer matrices (lists of lists of int) -------------------------

def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def _bilinear(m, a, b) -> int:
    """a^T m b over the nonzero entries of a and b."""
    out = 0
    for i, x in enumerate(a):
        if not x:
            continue
        row = m[i]
        for j, y in enumerate(b):
            if y:
                out += x * y * row[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def det_int(a) -> int:
    """Determinant by fraction-free Bareiss elimination; the rows may be
    lists or tuples."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
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
    return sign * m[n - 1][n - 1] if n else 1


def hnf_columns(a):
    """Column-style Hermite reduction.

    Returns (h, u) with a·u = h, u unimodular, and the nonzero columns of
    h forming a triangular basis of the column lattice (zero columns last).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = [row[:] for row in a]
    u = identity(cols)

    def combine(j, k, x, y, z, w):
        # (col_j, col_k) <- (x*col_j + y*col_k, z*col_j + w*col_k)
        for i in range(rows):
            h[i][j], h[i][k] = x * h[i][j] + y * h[i][k], z * h[i][j] + w * h[i][k]
        for i in range(cols):
            u[i][j], u[i][k] = x * u[i][j] + y * u[i][k], z * u[i][j] + w * u[i][k]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        piv = next((j for j in range(pivot_col, cols) if h[r][j]), None)
        if piv is None:
            continue
        if piv != pivot_col:
            combine(pivot_col, piv, 0, 1, 1, 0)
        for j in range(pivot_col + 1, cols):
            while h[r][j]:
                a0, b0 = h[r][pivot_col], h[r][j]
                q = b0 // a0
                combine(pivot_col, j, 1, 0, -q, 1)
                if h[r][j]:
                    combine(pivot_col, j, 0, 1, 1, 0)
        pivot_col += 1
    # fix sign pass: make pivot entries positive
    for j in range(cols):
        lead = next((h[i][j] for i in range(rows) if h[i][j]), 0)
        if lead < 0:
            for i in range(rows):
                h[i][j] = -h[i][j]
            for i in range(cols):
                u[i][j] = -u[i][j]
    return h, u


def snf(a):
    """Smith normal form: returns (d, u, v) with u·a·v = d diagonal,
    u and v unimodular, diagonal entries nonnegative with d_i | d_{i+1}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = identity(rows)
    v = identity(cols)

    def row_op(i, k, x, y, z, w):
        d[i], d[k] = (
            [x * p + y * q for p, q in zip(d[i], d[k])],
            [z * p + w * q for p, q in zip(d[i], d[k])],
        )
        u[i], u[k] = (
            [x * p + y * q for p, q in zip(u[i], u[k])],
            [z * p + w * q for p, q in zip(u[i], u[k])],
        )

    def col_op(j, k, x, y, z, w):
        for m in (d, v):
            for r in m:
                r[j], r[k] = x * r[j] + y * r[k], z * r[j] + w * r[k]

    def smallest_nonzero(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    k = min(rows, cols)
    while t < k:
        pos = smallest_nonzero(t)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            row_op(t, i0, 0, 1, 1, 0)
        if j0 != t:
            col_op(t, j0, 0, 1, 1, 0)
        piv = d[t][t]
        changed = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // piv
                row_op(i, t, 1, -q, 0, 1)
                if d[i][t]:
                    changed = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // piv
                col_op(j, t, 1, -q, 0, 1)
                if d[t][j]:
                    changed = True
        if changed:
            continue  # a smaller element appeared; re-pick the pivot
        bad = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
             if d[i][j] % piv),
            None,
        )
        if bad is not None:
            # fold the offending row into row t so the pivot shrinks
            row_op(t, bad[0], 1, 1, 0, 1)
            continue
        t += 1
    for i in range(k):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return d, u, v


class SmithForm:
    """The Smith form u·a·v = d of an integer matrix a, made once: its
    integer kernel and the integer solutions of a·x = b are read off
    it, for as many right-hand sides as asked."""

    def __init__(self, a):
        rows = len(a)
        self.cols = len(a[0]) if rows else 0
        d, self._u, self._v = snf(a)
        self._diag = [d[i][i] for i in range(min(rows, self.cols))]

    def kernel(self):
        """Basis of the integer kernel {x : a·x = 0} as a list of
        vectors."""
        v, r = self._v, len(self._diag)
        return [[v[i][j] for i in range(self.cols)] for j in range(self.cols)
                if j >= r or not self._diag[j]]

    def solve(self, b):
        """An integer solution x of a·x = b, or None."""
        y = [0] * self.cols
        for i, row in enumerate(self._u):
            x = sum(c * v for c, v in zip(row, b) if c)
            diag = self._diag[i] if i < len(self._diag) else 0
            if diag:
                if x % diag:
                    return None
                y[i] = x // diag
            elif x:
                return None
        return mat_vec(self._v, y)


def kernel_basis(a):
    """Basis of the integer kernel {x : a·x = 0} as a list of vectors."""
    if not a or not a[0]:
        return []
    return SmithForm(a).kernel()


def solve_int(a, b):
    """An integer solution x of a·x = b, or None."""
    return SmithForm(a).solve(b)


# -- generic field elimination ---------------------------------------

def field_rref(rows, one):
    """Reduced row echelon form over any exact field.

    rows: list of lists of field elements (modified copy returned).
    Returns (rref, pivot column list).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def field_solve(a, b, one):
    """Solve a·x = b over an exact field; returns x or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    rref, pivots = field_rref(aug, one)
    zero = one - one
    for i in range(len(pivots), nrows):
        if rref[i][ncols]:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = rref[i][ncols]
    return x


def field_inverse(a, one):
    """Inverse of a square matrix over an exact field."""
    n = len(a)
    aug = [list(a[i]) + [one if i == j else one - one for j in range(n)]
           for i in range(n)]
    rref, pivots = field_rref(aug, one)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def _numerators(values, scale: int):
    """The integers scale * x for rationals x (int or Fraction), or None
    when one of them is not an integer."""
    out = []
    for x in values:
        num, den = x.numerator * scale, x.denominator
        if num % den:
            return None
        out.append(num // den)
    return out


class IntegerCoords:
    """Integer coordinates of vectors in linearly independent rational
    columns C, from one integer Smith form.  With s the common
    denominator of the entries of C, A = s C is integer; w = C x has an
    integer solution exactly when b = s w is integer and A x = b has
    one, which the Smith form of A gives.  Columns and vectors given as
    integer numerators over one common denominator are solved in
    integers throughout."""

    def __init__(self, cols, n: int):
        if len(cols) > n:
            raise ValueError("columns are linearly dependent")
        self.scale = math.lcm(*(x.denominator for c in cols for x in c))
        # the integer columns s C
        self.columns = [_numerators(c, self.scale) for c in cols]
        self._smith = SmithForm(
            [[c[i] for c in self.columns] for i in range(n)])
        if self._smith.kernel():
            raise ValueError("columns are linearly dependent")

    def solve(self, vec, den: int = 1):
        """The integer x with C·x = den·vec, or None when den·vec is
        outside the span or its coordinates are not integers."""
        b = _numerators(vec, self.scale * den)
        if b is None:
            return None
        return self._smith.solve(b)


def field_rank(a, one) -> int:
    if not a:
        return 0
    _, pivots = field_rref(a, one)
    return len(pivots)
