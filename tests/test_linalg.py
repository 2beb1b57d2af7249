import random
from fractions import Fraction

import pytest

from twistlab.linalg import (
    IntegerCoords,
    det_int,
    field_inverse,
    field_rank,
    field_solve,
    hnf_columns,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    snf,
    solve_int,
)


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_det_known():
    assert det_int([[2, 1], [1, 2]]) == 3
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5


def test_det_on_tuple_rows():
    # the rows are copied as lists, so tuple rows (a lattice's gram)
    # work too; the second needs a row swap at its zero pivot
    assert det_int(((2, 1), (1, 2))) == 3
    assert det_int(((0, 1, 0), (1, 0, 0), (0, 0, 5))) == -5
    assert det_int(((0, 2), (3, 1))) == -6
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=3)
        assert det_int(tuple(map(tuple, a))) == det_int(a)


def test_hnf_properties():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        h, u = hnf_columns(a)
        assert mat_mul(a, u) == h
        assert abs(det_int(u)) == 1
        # zero columns come last
        nz = [any(h[i][j] for i in range(rows)) for j in range(cols)]
        assert nz == sorted(nz, reverse=True)


def test_snf_properties():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        d, u, v = snf(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_kernel_and_solve():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        for k in kernel_basis(a):
            assert mat_vec(a, k) == [0] * rows
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = mat_vec(a, x0)
        x = solve_int(a, b)
        assert x is not None
        assert mat_vec(a, x) == b
    assert solve_int([[2]], [1]) is None


def test_field_ops():
    one = Fraction(1)
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = field_inverse(a, one)
    assert mat_mul(a, inv) == identity(2)
    assert field_rank(a, one) == 2
    x = field_solve(a, [Fraction(3), Fraction(2)], one)
    assert x == [Fraction(1), Fraction(1)]
    assert field_solve([[Fraction(1)], [Fraction(1)]], [one, one + one], one) is None


def test_integer_coords_agree_with_field_solve():
    rng = random.Random(5)
    one = Fraction(1)
    for _ in range(30):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        cols = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(r)]
        mat = [[c[i] for c in cols] for i in range(n)]
        if r and field_rank(mat, one) < r:
            with pytest.raises(ValueError):
                IntegerCoords(cols, n)
            continue
        solver = IntegerCoords(cols, n)
        for _ in range(5):
            vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                   for _ in range(n)]
            x = field_solve(mat, vec, one) if r else \
                ([] if not any(vec) else None)
            if x is not None and any(v.denominator != 1 for v in x):
                x = None
            assert solver.solve(vec) == x
            # every integer combination is found again
            y = [rng.randint(-3, 3) for _ in range(r)]
            assert solver.solve(mat_vec(mat, y) if r else [0] * n) == y


def test_integer_coords_exact_membership():
    solver = IntegerCoords([(1, 1)], 2)
    assert solver.solve((3, 3)) == [3]
    assert solver.solve((1, 0)) is None  # outside the span
    assert solver.solve((Fraction(1, 2), Fraction(1, 2))) is None
    half = IntegerCoords([(Fraction(1, 2),)], 1)
    assert half.solve((Fraction(3, 2),)) == [3]
    assert half.solve((Fraction(1, 4),)) is None
