import random
from fractions import Fraction

import pytest

from twistlab.lattice import LatticeError, TwistedLattice

A1x2 = [[2, 0], [0, 2]]
ROT4 = [[0, -1], [1, 0]]


def neg_identity(l):
    return [[-1 if i == j else 0 for j in range(l)] for i in range(l)]


def random_twisted_lattice(rng, rank_max=3):
    """Random nondegenerate lattice with a random signed permutation sigma."""
    while True:
        l = rng.randint(1, rank_max)
        perm = list(range(l))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(l)]
        sigma = [[0] * l for _ in range(l)]
        for j in range(l):
            sigma[perm[j]][j] = signs[j]
        # build a sigma-invariant symmetric form: average a random one over sigma
        base = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(l)]
        base = [[base[i][j] + base[j][i] for j in range(l)] for i in range(l)]
        # average base over the cyclic group generated by sigma
        from twistlab.linalg import mat_mul, identity

        pows = [identity(l)]
        while True:
            nxt = mat_mul(sigma, pows[-1])
            if nxt == pows[0]:
                break
            pows.append(nxt)
        g = [[0] * l for _ in range(l)]
        for m in pows:
            mt = [list(r) for r in zip(*m)]
            term = mat_mul(mt, mat_mul(base, m))
            g = [[g[i][j] + term[i][j] for j in range(l)] for i in range(l)]
        try:
            return TwistedLattice(g, sigma)
        except LatticeError:
            continue


def test_constructor_validation():
    with pytest.raises(LatticeError):
        TwistedLattice([[2, 1], [0, 2]], [[1, 0], [0, 1]])  # not symmetric
    with pytest.raises(LatticeError):
        TwistedLattice([[1, 1], [1, 1]], [[1, 0], [0, 1]])  # singular
    with pytest.raises(LatticeError):
        TwistedLattice([[2, 0], [0, 4]], [[0, 1], [1, 0]])  # not form-preserving


def test_order_detection():
    assert TwistedLattice([[2]], [[1]]).p == 1
    assert TwistedLattice([[2]], [[-1]]).p == 2
    assert TwistedLattice(A1x2, ROT4).p == 4


def test_m_values_examples():
    l1 = TwistedLattice([[4]], [[1]])
    assert l1.m_values((1,), (1,)) == (4,)
    l2 = TwistedLattice(A1x2, neg_identity(2))
    assert l2.m_values((1, 0), (1, 0)) == (2, -2)


def test_m_values_sum_and_shift():
    rng = random.Random(5)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        a = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        ms = lat.m_values(a, b)
        total = sum(ms)
        proj_pair = sum(
            x * y_gram
            for x, y_gram in zip(
                lat.proj0(a),
                [sum(Fraction(lat.gram[i][j]) * lat.proj0(b)[j]
                     for j in range(lat.rank)) for i in range(lat.rank)],
            )
        )
        assert Fraction(total, lat.p) == proj_pair
        assert lat.m_values(lat.apply_sigma(a), lat.apply_sigma(b)) == ms


def test_prime_pairing():
    l1 = TwistedLattice([[4]], [[1]])
    assert l1.prime_pairing((1,), (1,)) == 0
    l2 = TwistedLattice([[2]], [[-1]])
    assert l2.prime_pairing((1,), (1,)) == 2
    rng = random.Random(6)
    for _ in range(20):
        lat = random_twisted_lattice(rng)
        a = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        c = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        assert lat.prime_pairing(a, b) == lat.prime_pairing(b, a)
        ab = tuple(x + y for x, y in zip(a, c))
        assert lat.prime_pairing(ab, b) == (
            lat.prime_pairing(a, b) + lat.prime_pairing(c, b)
        )


def test_nu():
    l2 = TwistedLattice(A1x2, neg_identity(2))
    assert l2.nu((1, 0)) == (0, 0)
    l1 = TwistedLattice([[2, 1], [1, 2]], [[1, 0], [0, 1]])
    assert l1.nu((1, 0)) == (2, 1)
    lat = TwistedLattice(A1x2, ROT4)
    a = (1, 2)
    for s in range(lat.p):
        assert lat.nu(lat.apply_sigma(a, s)) == lat.nu(a)


def test_reduce_generating_set_identity_sigma():
    lat = TwistedLattice([[2, 1], [1, 2]], [[1, 0], [0, 1]])
    dec = lat.reduce_generating_set()
    assert dec.m == 2
    assert dec.lengths == (1, 1)
    assert len(dec.pi) == 2


def test_reduce_generating_set_negation():
    lat = TwistedLattice(A1x2, neg_identity(2))
    dec = lat.reduce_generating_set()
    assert dec.m == 0
    assert sorted(dec.pi) == sorted(
        [(1, 0), (-1, 0), (0, 1), (0, -1)]
    )
    assert dec.lengths == (2, 2)


def test_reduce_generating_set_rotation():
    lat = TwistedLattice(A1x2, ROT4)
    dec = lat.reduce_generating_set()
    assert dec.m == 0
    assert len(dec.orbits) == 1
    assert sorted(dec.pi) == sorted([(1, 0), (0, 1), (-1, 0), (0, -1)])


def test_generating_set_is_built_once(monkeypatch):
    # the lattice keeps one generating set: the obstruction scan, the
    # presentation and the enumeration all read it, and its Hermite
    # reduction runs once
    from twistlab import lattice
    from twistlab.classify import enumerate_simple_twisted
    from twistlab.cocycle import TwistData

    calls = []
    real = lattice.hnf_columns

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(lattice, "hnf_columns", counting)
    lat = TwistedLattice([[2, 0], [0, 4]], [[1, 0], [0, -1]])
    dec = lat.reduce_generating_set()
    T = TwistData(lat)
    assert enumerate_simple_twisted(T).classes
    assert lat.reduce_generating_set() is dec
    assert T.presentation.dec is dec
    assert len(calls) == 1


def test_reduced_degrees_form_basis():
    rng = random.Random(9)
    for _ in range(20):
        lat = random_twisted_lattice(rng)
        dec = lat.reduce_generating_set()
        # spans: every basis vector degree is an integer combination
        from twistlab.linalg import solve_int

        degrees = [lat.nu(orb[0]) for orb in dec.orbits[:dec.m]]
        if not degrees:
            for j in range(lat.rank):
                e = tuple(1 if i == j else 0 for i in range(lat.rank))
                assert not any(lat.nu(e))
            continue
        denom = lat.p
        cols = [[int(x * denom) for x in d] for d in degrees]
        a = [[cols[j][k] for j in range(len(cols))] for k in range(lat.rank)]
        for j in range(lat.rank):
            e = tuple(1 if i == j else 0 for i in range(lat.rank))
            target = [int(x * denom) for x in lat.nu(e)]
            assert solve_int(a, target) is not None


def _plain_power(m, s):
    """m^s by repeated products; a negative s uses the rational inverse."""
    from twistlab.linalg import field_inverse, mat_mul

    if s < 0:
        m = field_inverse([[Fraction(x) for x in row] for row in m], Fraction(1))
        s = -s
    out = [[1 if i == j else 0 for j in range(len(m))] for i in range(len(m))]
    for _ in range(s):
        out = mat_mul(m, out)
    return out


@pytest.mark.parametrize("gram,sigma,order", [
    ([[2, 1], [1, 2]], [[0, 1], [1, 0]], 2),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 4]], neg_identity(3), 2),
    ([[2, -1], [-1, 2]], [[0, -1], [1, -1]], 3),
    (A1x2, ROT4, 4),
    ([[-8, 3, 0, 0], [3, 0, 2, 0], [0, 2, 0, -3], [0, 0, -3, -8]],
     [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], 2),
    ([[2, -1], [-1, 2]], [[1, -1], [1, 0]], 6),
])
def test_apply_sigma_and_m_values_match_matrices(gram, sigma, order):
    lat = TwistedLattice(gram, sigma)
    p = lat.p
    l = lat.rank
    assert p == order
    powers = {s: _plain_power(sigma, s) for s in range(-p, 2 * p + 1)}

    def plain_apply(v, s):
        return tuple(sum(c * x for c, x in zip(row, v)) for row in powers[s])

    def plain_pairing(v, w):
        return sum(v[i] * gram[i][j] * w[j]
                   for i in range(l) for j in range(l))

    def plain_proj0(v):
        return tuple(Fraction(sum(plain_apply(v, s)[i] for s in range(p)), p)
                     for i in range(l))

    def plain_nu(v):
        pr = plain_proj0(v)
        return tuple(sum(gram[k][j] * pr[j] for j in range(l))
                     for k in range(l))

    assert lat.norm == tuple(
        tuple(sum(powers[s][i][j] for s in range(p)) for j in range(l))
        for i in range(l))
    # the degree matrix: column j is p * nu(e_j)
    for j in range(l):
        e = tuple(1 if i == j else 0 for i in range(l))
        assert tuple(row[j] for row in lat.gram_norm) == tuple(
            p * x for x in plain_nu(e))
    F = lat.fixed_basis
    for f in F:
        assert plain_apply(f, 1) == f
    assert lat.fixed_pairing == tuple(
        tuple(plain_pairing(f, tuple(1 if i == k else 0 for i in range(l)))
              for f in F)
        for k in range(l))

    rng = random.Random(order)
    vectors = [tuple(rng.randint(-2, 2) for _ in range(lat.rank))
               for _ in range(12)]
    for v in vectors:
        for s in range(-p, 2 * p + 1):
            assert lat.apply_sigma(v, s) == plain_apply(v, s)
        for w in vectors:
            plain = tuple(
                sum(plain_apply(v, -s)[i] * gram[i][j] * w[j]
                    for i in range(lat.rank) for j in range(lat.rank))
                for s in range(p))
            assert lat.m_values(v, w) == plain
            assert lat.prime_pairing(v, w) == \
                plain_pairing(v, w) - Fraction(sum(plain), p)
        assert lat.proj0(v) == plain_proj0(v)
        assert lat.nu(v) == plain_nu(v)
