import itertools
import math
import random
from fractions import Fraction

import pytest

from twistlab import lattice
from twistlab.lattice import LatticeError, TwistedLattice, _max_order

A1x2 = [[2, 0], [0, 2]]
ROT4 = [[0, -1], [1, 0]]


def neg_identity(l):
    return [[-1 if i == j else 0 for j in range(l)] for i in range(l)]


def random_twisted_lattice(rng, rank_max=3, odd=False, conjugate=False):
    """Random nondegenerate lattice with a random signed permutation sigma.

    The form is even.  With odd=True a diagonal shift of +-1, constant
    on each orbit of the permutation and so sigma-invariant, makes every
    diagonal entry odd.  With conjugate=True the lattice is written in
    a random basis U, unimodular: G becomes U^T G U and sigma U^-1 sigma
    U, which is no longer a signed permutation in general.  The draws
    made without either option are unchanged."""
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
        if odd:
            shift = [None] * l
            for j in range(l):
                if shift[j] is None:
                    d, k = rng.choice([1, -1]), j
                    while shift[k] is None:
                        shift[k] = d
                        k = perm[k]
            for j in range(l):
                g[j][j] += shift[j]
        try:
            lat = TwistedLattice(g, sigma)
        except LatticeError:
            continue
        if not conjugate:
            return lat
        u, u_inv = _random_unimodular(rng, l)
        ut = [list(r) for r in zip(*u)]
        return TwistedLattice(mat_mul(ut, mat_mul(g, u)),
                              mat_mul(u_inv, mat_mul(sigma, u)))


def _random_unimodular(rng, l):
    """(U, U^-1) for a random integer U of determinant +-1: a product of
    2 l elementary steps, each adding +-1 times one column to another
    or negating a column, with the inverse steps in reverse order."""
    from twistlab.linalg import identity, mat_mul

    u, u_inv = identity(l), identity(l)
    for _ in range(2 * l):
        i, j = rng.randrange(l), rng.randrange(l)
        step = identity(l)
        back = identity(l)
        if i == j:
            step[i][i] = back[i][i] = -1
        else:
            c = rng.choice([1, -1])
            step[j][i], back[j][i] = c, -c
        u, u_inv = mat_mul(u, step), mat_mul(back, u_inv)
    return u, u_inv


def test_odd_draws_are_odd_and_invariant():
    # the odd variant keeps sigma's invariance (the constructor checks
    # it) and makes each diagonal entry odd; the default draws are even
    rng = random.Random(12)
    for _ in range(40):
        lat = random_twisted_lattice(rng, rank_max=4, odd=True)
        assert all(lat.gram[i][i] % 2 for i in range(lat.rank))
    rng = random.Random(12)
    for _ in range(40):
        lat = random_twisted_lattice(rng, rank_max=4)
        assert not any(lat.gram[i][i] % 2 for i in range(lat.rank))


def test_constructor_validation():
    with pytest.raises(LatticeError):
        TwistedLattice([[2, 1], [0, 2]], [[1, 0], [0, 1]])  # not symmetric
    with pytest.raises(LatticeError):
        TwistedLattice([[1, 1], [1, 1]], [[1, 0], [0, 1]])  # singular
    with pytest.raises(LatticeError):
        TwistedLattice([[2, 0], [0, 4]], [[0, 1], [1, 0]])  # not form-preserving


@pytest.mark.parametrize("gram, sigma, name", [
    ([[2.5]], [[1]], "gram"),
    ([[2]], [[1.5]], "sigma"),
    ([[2, 0.5], [0.5, 2]], [[1, 0], [0, 1]], "gram"),
    ([[Fraction(5, 2)]], [[-1]], "gram"),
    ([[2]], [["1"]], "sigma"),
])
def test_non_integral_entries_are_refused(gram, sigma, name):
    # int() would truncate them to another lattice: refused instead
    with pytest.raises(LatticeError, match=f"^{name} entries must be "
                                           "integers$"):
        TwistedLattice(gram, sigma)


@pytest.mark.parametrize("gram, sigma, name", [
    ([2], [[1]], "gram"),
    ([[2]], [1], "sigma"),
    (2, [[1]], "gram"),
    ([["a"]], [[1]], "gram"),
    ([[float("nan")]], [[1]], "gram"),
    ([[2]], [[float("inf")]], "sigma"),
    ([[None]], [[1]], "gram"),
    ([[2]], [[1j]], "sigma"),
])
def test_malformed_matrices_are_refused(gram, sigma, name):
    # Python's own TypeError, ValueError or OverflowError from the
    # conversion becomes the one message of a non-integral entry
    with pytest.raises(LatticeError, match=f"^{name} entries must be "
                                           "integers$"):
        TwistedLattice(gram, sigma)


def test_integral_entries_of_other_types_are_integers():
    lat = TwistedLattice([[2.0, Fraction(1)], [1, True + 1]],
                         [[-1.0, 0], [0, -1]])
    assert lat.gram == ((2, 1), (1, 2)) and lat.sigma == ((-1, 0), (0, -1))
    assert all(type(x) is int for row in lat.gram + lat.sigma for x in row)


def test_order_detection():
    assert TwistedLattice([[2]], [[1]]).p == 1
    assert TwistedLattice([[2]], [[-1]]).p == 2
    assert TwistedLattice(A1x2, ROT4).p == 4


def _signed_permutations(l):
    for perm in itertools.permutations(range(l)):
        for signs in itertools.product((1, -1), repeat=l):
            yield [[signs[i] if perm[i] == j else 0 for j in range(l)]
                   for i in range(l)]


def _brute_order(sigma):
    l = len(sigma)
    eye = [[int(i == j) for j in range(l)] for i in range(l)]
    cur, k = sigma, 1
    while cur != eye:
        cur = [[sum(cur[i][t] * sigma[t][j] for t in range(l))
                for j in range(l)] for i in range(l)]
        k += 1
    return k


def _largest_order_by_scan(l, limit=1000):
    # psi(m) <= l, psi the sum of phi over the prime powers exactly
    # dividing m, one less when m = 2 mod 4, scanned over m
    def psi(m):
        total, rest, q = 0, m, 2
        while rest > 1:
            a = 0
            while rest % q == 0:
                rest //= q
                a += 1
            if a:
                total += (q - 1) * q ** (a - 1)
            q += 1
        return total - (m % 4 == 2)

    return max(m for m in range(1, limit) if psi(m) <= l)


def test_the_order_bound_is_the_largest_order_in_gl_l_z():
    # 2, 6, 6, 12, 12, 30, 30, 60: the knapsack agrees with a scan of
    # the criterion, and bounds the order of every signed permutation of
    # rank <= 4, found by brute force and by the lattice alike
    assert [_max_order(l) for l in range(1, 9)] == \
        [_largest_order_by_scan(l) for l in range(1, 9)] == \
        [2, 6, 6, 12, 12, 30, 30, 60]
    seen = set()
    for l in range(1, 5):
        eye = [[2 * int(i == j) for j in range(l)] for i in range(l)]
        for sigma in _signed_permutations(l):
            order = _brute_order(sigma)
            assert order <= _max_order(l)
            assert TwistedLattice(eye, sigma).p == order
            seen.add((l, order))
    assert max(order for l, order in seen if l == 4) == 8


def test_infinite_order_is_refused_after_the_order_bound(monkeypatch):
    # diag(1, -2) is preserved by [[3, 4], [2, 3]], of infinite order:
    # two products check the form, and six powers of sigma, the largest
    # order in rank 2, end the search
    products = []
    real = lattice.mat_mul

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(lattice, "mat_mul", counted)
    with pytest.raises(LatticeError, match="^sigma does not have finite "
                                           "order$"):
        TwistedLattice([[1, 0], [0, -2]], [[3, 4], [2, 3]])
    assert len(products) == 2 + 6
    # an order-6 sigma is found within the same number of products
    products.clear()
    assert TwistedLattice([[2, -1], [-1, 2]], [[1, -1], [1, 0]]).p == 6
    assert len(products) == 2 + 6


def test_m_values_examples():
    l1 = TwistedLattice([[4]], [[1]])
    assert l1.m_values((1,), (1,)) == (4,)
    l2 = TwistedLattice(A1x2, neg_identity(2))
    assert l2.m_values((1, 0), (1, 0)) == (2, -2)


def _fixed_part(lat, v):
    """The projection v^0 = N v / p onto the sigma-fixed space, from
    the kept norm map N."""
    return tuple(Fraction(sum(n * x for n, x in zip(row, v)), lat.p)
                 for row in lat.norm)


def test_m_values_sum_and_shift():
    rng = random.Random(5)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        a = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        ms = lat.m_values(a, b)
        total = sum(ms)
        a0, b0 = _fixed_part(lat, a), _fixed_part(lat, b)
        proj_pair = sum(
            x * y_gram
            for x, y_gram in zip(
                a0,
                [sum(Fraction(lat.gram[i][j]) * b0[j]
                     for j in range(lat.rank)) for i in range(lat.rank)],
            )
        )
        assert Fraction(total, lat.p) == proj_pair
        assert lat.m_values(lat.apply_sigma(a), lat.apply_sigma(b)) == ms


def test_prime_pairing():
    # p times the primed pairing: (1'|1') is 0 on [4], sigma = 1, and
    # 2 on [2], sigma = -1, where p = 2
    l1 = TwistedLattice([[4]], [[1]])
    assert l1.prime_pairing_p((1,), (1,)) == 0
    l2 = TwistedLattice([[2]], [[-1]])
    assert l2.prime_pairing_p((1,), (1,)) == 4
    rng = random.Random(6)
    for _ in range(20):
        lat = random_twisted_lattice(rng)
        a = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        c = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        assert lat.prime_pairing_p(a, b) == lat.prime_pairing_p(b, a)
        ab = tuple(x + y for x, y in zip(a, c))
        assert lat.prime_pairing_p(ab, b) == (
            lat.prime_pairing_p(a, b) + lat.prime_pairing_p(c, b)
        )


def _double_sum_pairing(gram, a, b):
    """(a|b) as the double sum over the Gram entries."""
    l = len(gram)
    return sum(gram[i][j] * a[i] * b[j] for i in range(l) for j in range(l))


def test_pairing_bilinear_form_matches_the_double_sum():
    # on random vectors of ranks 1 to 4, zero and sparse ones included,
    # the pairing and p times the primed pairing against the double sums
    # p (a|b) - (a | N b)
    rng = random.Random(2718)
    ranks = set()
    for _ in range(60):
        lat = random_twisted_lattice(rng, rank_max=4)
        l, p, g = lat.rank, lat.p, lat.gram
        ranks.add(l)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(l)) for _ in range(6)]
        vecs += [(0,) * l, tuple(int(i == l - 1) for i in range(l))]
        for a in vecs:
            for b in vecs:
                assert lat.pairing(a, b) == _double_sum_pairing(g, a, b)
                nb = [sum(lat.norm[i][j] * b[j] for j in range(l))
                      for i in range(l)]
                assert lat.prime_pairing_p(a, b) == \
                    p * _double_sum_pairing(g, a, b) \
                    - _double_sum_pairing(g, a, nb)
    assert ranks == {1, 2, 3, 4}


def test_nu():
    # p times the degree; p = 1 on the second lattice
    l2 = TwistedLattice(A1x2, neg_identity(2))
    assert l2.nu_p((1, 0)) == (0, 0)
    l1 = TwistedLattice([[2, 1], [1, 2]], [[1, 0], [0, 1]])
    assert l1.nu_p((1, 0)) == (2, 1)
    lat = TwistedLattice(A1x2, ROT4)
    a = (1, 2)
    for s in range(lat.p):
        assert lat.nu_p(lat.apply_sigma(a, s)) == lat.nu_p(a)


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

        # the degrees times p, integers
        cols = [lat.nu_p(orb[0]) for orb in dec.orbits[:dec.m]]
        if not cols:
            for j in range(lat.rank):
                e = tuple(1 if i == j else 0 for i in range(lat.rank))
                assert not any(lat.nu_p(e))
            continue
        a = [[cols[j][k] for j in range(len(cols))] for k in range(lat.rank)]
        for j in range(lat.rank):
            e = tuple(1 if i == j else 0 for i in range(lat.rank))
            assert solve_int(a, list(lat.nu_p(e))) is not None


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

    def plain_fixed_part(v):
        return tuple(Fraction(sum(plain_apply(v, s)[i] for s in range(p)), p)
                     for i in range(l))

    def plain_nu(v):
        pr = plain_fixed_part(v)
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
            assert lat.prime_pairing_p(v, w) == \
                p * plain_pairing(v, w) - sum(plain)
        assert _fixed_part(lat, v) == plain_fixed_part(v)
        assert lat.nu_p(v) == tuple(p * x for x in plain_nu(v))
