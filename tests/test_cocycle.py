import itertools
import random
from fractions import Fraction

import pytest

from twistlab.cocycle import (
    CocycleError,
    TwistData,
    build_epsilon,
    commutator_map,
    locality_order,
)
from twistlab.classify import enumerate_simple_twisted
from twistlab.lattice import LatticeError, TwistedLattice
from twistlab.linalg import identity, mat_mul, transpose
from twistlab.scalar import (
    CycScalar,
    ONE,
    RootPair,
    canonical_root,
    root_of_unity,
)

from test_lattice import A1x2, ROT4, neg_identity, random_twisted_lattice


def rnd_vec(rng, l, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(l))


def test_commutator_p1():
    lat = TwistedLattice([[2, 1], [1, 4]], [[1, 0], [0, 1]])
    rng = random.Random(0)
    for _ in range(20):
        a, b = rnd_vec(rng, 2), rnd_vec(rng, 2)
        expect = (-1) ** (
            lat.pairing(a, a) * lat.pairing(b, b) + lat.pairing(a, b)
        )
        assert commutator_map(lat, a, b) == CycScalar.rational(expect)


def test_commutator_properties():
    rng = random.Random(1)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        c_ab = commutator_map(lat, a, b)
        c_ba = commutator_map(lat, b, a)
        assert c_ab * c_ba == ONE
        assert commutator_map(lat, a, a) == ONE


def test_build_epsilon_convention_and_comm():
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        lat = random_twisted_lattice(rng, rank_max=4)
        td = TwistData(lat)
        for i in range(lat.rank):
            for j in range(i, lat.rank):
                assert td.eps_seed[(i, j)] == ONE
        for _ in range(5):
            a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
            assert td.epsilon(a, b) / td.epsilon(b, a) == td.commutator(a, b)
            checked += 1
    zero = (0,) * lat.rank
    assert td.epsilon(zero, b).scalar() == ONE


def test_commutator_properties_on_odd_lattices():
    # odd lattices: C(a, a) = 1 and C(a, b) C(b, a) = 1 still hold, and
    # with sigma = 1 C(a, b) is the super sign (-1)^((a|a)(b|b) + (a|b))
    rng = random.Random(13)
    for _ in range(25):
        lat = random_twisted_lattice(rng, odd=True)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        c_ab = commutator_map(lat, a, b)
        assert c_ab * commutator_map(lat, b, a) == ONE
        assert commutator_map(lat, a, a) == ONE
        if lat.p == 1:
            expect = (-1) ** (lat.pairing(a, a) * lat.pairing(b, b)
                              + lat.pairing(a, b))
            assert c_ab == CycScalar.rational(expect)


def test_build_epsilon_on_odd_lattices():
    # the twist's integer epsilon against build_epsilon's scalars, and
    # the commutator ratio, on odd draws
    rng = random.Random(14)
    checked = 0
    while checked < 100:
        lat = random_twisted_lattice(rng, rank_max=4, odd=True)
        td = TwistData(lat)
        assert td.eps_seed == build_epsilon(lat)
        for i in range(lat.rank):
            for j in range(i, lat.rank):
                assert td.eps_seed[(i, j)] == ONE
        for _ in range(5):
            a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
            assert td.epsilon(a, b) / td.epsilon(b, a) == td.commutator(a, b)
            checked += 1


def test_epsilon_bimultiplicative():
    rng = random.Random(3)
    for _ in range(20):
        lat = random_twisted_lattice(rng)
        td = TwistData(lat)
        a, b, c = (rnd_vec(rng, lat.rank) for _ in range(3))
        ac = tuple(x + y for x, y in zip(a, c))
        assert td.epsilon(ac, b) == td.epsilon(a, b) * td.epsilon(c, b)
        assert td.epsilon(b, ac) == td.epsilon(b, a) * td.epsilon(b, c)


def test_kappa_p1_reduces_to_epsilon():
    lat = TwistedLattice([[2, 1], [1, 2]], [[1, 0], [0, 1]])
    td = TwistData(lat)
    rng = random.Random(4)
    for _ in range(10):
        a, b = rnd_vec(rng, 2), rnd_vec(rng, 2)
        assert td.kappa(a, b) == td.epsilon(a, b).scalar()


def test_kappa_commutator_identity():
    rng = random.Random(5)
    for _ in range(30):
        lat = random_twisted_lattice(rng)
        td = TwistData(lat)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        lhs = td.kappa(a, b) / td.kappa(b, a)
        expect = (-1) ** (
            lat.pairing(a, a) * lat.pairing(b, b) + lat.pairing(a, b)
        )
        assert lhs == CycScalar.rational(expect)


def test_kappa_sigma_ratio_simplification():
    rng = random.Random(6)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        td = TwistData(lat)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        sa, sb = lat.apply_sigma(a), lat.apply_sigma(b)
        assert td.kappa(sa, sb) / td.kappa(a, b) == \
            (td.epsilon(sa, sb) / td.epsilon(a, b)).scalar()


def test_locality_order():
    lat = TwistedLattice([[2]], [[1]])
    assert locality_order(lat, (1,), (-1,)) == 2
    assert locality_order(lat, (1,), (1,)) == 0
    lat2 = TwistedLattice(A1x2, neg_identity(2))
    assert locality_order(lat2, (1, 0), (1, 0)) == 2
    rng = random.Random(7)
    for _ in range(10):
        lat = random_twisted_lattice(rng)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        ms = lat.m_values(a, b)
        n = locality_order(lat, a, b)
        assert all(m + n >= 0 for m in ms)
        assert n == 0 or -n in ms


def test_phi_zero_identity_sigma():
    lat = TwistedLattice([[2, 1], [1, 2]], [[1, 0], [0, 1]])
    td = TwistData(lat)
    rng = random.Random(8)
    for _ in range(10):
        assert td.phi_zero(rnd_vec(rng, 2)) == ONE


def test_phi_zero_pointwise_orbit_product_is_one():
    rng = random.Random(9)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        td = TwistData(lat)
        a = rnd_vec(rng, lat.rank)
        prod = ONE
        for s in range(lat.p):
            prod = prod * td.phi_zero(lat.apply_sigma(a, s))
        assert prod == ONE


def test_phi_cocycle_property():
    rng = random.Random(10)
    for _ in range(25):
        lat = random_twisted_lattice(rng)
        td = TwistData(lat)
        a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
        ab = tuple(x + y for x, y in zip(a, b))
        sa, sb = lat.apply_sigma(a), lat.apply_sigma(b)
        assert td.phi(ab) / (td.phi(a) * td.phi(b)) == \
            td.epsilon(sa, sb) / td.epsilon(a, b)


def test_phi_rejects_bad_values():
    lat = TwistedLattice([[2]], [[-1]])
    with pytest.raises(CocycleError):
        TwistData(lat, phi_seed={0: ONE + root_of_unity(5)})


def test_example2_rotation_trivial_cocycle():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    for a in itertools.product(range(-2, 3), repeat=2):
        for b in itertools.product(range(-2, 3), repeat=2):
            assert td.commutator(a, b) == td.one
        assert td.phi_zero(a) == ONE
        assert td.phi(a) == td.one
    obstructed, _ = td.obstruction_check()
    assert not obstructed


def test_mu_roots():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    dec = lat.reduce_generating_set()
    orbit = dec.orbits[0]
    roots = td.mu_roots(orbit)
    assert len(roots) == 4
    assert {mu.scalar() for mu in roots} == \
        {root_of_unity(4, j) for j in range(4)}
    # negation example: orbit length 2, phi = 1 on basis => mu = +-1
    lat1 = TwistedLattice([[2]], [[-1]])
    td1 = TwistData(lat1)
    dec1 = lat1.reduce_generating_set()
    roots1 = td1.mu_roots(dec1.orbits[0])
    assert {mu.scalar() for mu in roots1} == {ONE, CycScalar.rational(-1)}
    for orbit, td_ in ((dec.orbits[0], td), (dec1.orbits[0], td1)):
        target = td_.orbit_product(orbit)
        for mu in td_.mu_roots(orbit):
            assert mu ** len(orbit) == target


def test_k_coeffs():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    orbit = lat.reduce_generating_set().orbits[0]
    mu = root_of_unity(4)
    ks = [k.scalar() for k in td.k_coeffs(orbit, RootPair.of(mu))]
    assert ks[0] == ONE
    for s in range(1, len(orbit)):
        acc = ONE
        for t in range(s):
            acc = acc * td.phi(orbit[t]).scalar()
        assert ks[s] == mu ** (-s) * acc


def test_obstruction_identity_sigma_never():
    rng = random.Random(11)
    for _ in range(5):
        l = rng.randint(1, 3)
        g = [[0] * l for _ in range(l)]
        for i in range(l):
            g[i][i] = rng.choice([1, 2, 3])
        lat = TwistedLattice(g, [[1 if i == j else 0 for j in range(l)]
                                 for i in range(l)])
        assert TwistData(lat).obstruction_check()[0] is False


def test_obstructed_instance_exists():
    # exhaustive search over small rank-2 data finds an obstructed case;
    # the swap automorphism of the gram [[2,1],[1,2]] lattice is one.
    lat = TwistedLattice([[2, 1], [1, 2]], [[0, 1], [1, 0]])
    td = TwistData(lat)
    obstructed, witness = td.obstruction_check()
    assert obstructed
    alpha, j = witness
    assert td.commutator(alpha, lat.apply_sigma(alpha, j)) != td.one

    found = False
    for a, b in itertools.product(range(-3, 4), repeat=2):
        for s in itertools.product(range(-1, 2), repeat=4):
            try:
                cand = TwistedLattice([[a, b], [b, a]],
                                      [[s[0], s[1]], [s[2], s[3]]])
            except LatticeError:
                continue
            if TwistData(cand).obstruction_check()[0]:
                found = True
                break
        if found:
            break
    assert found


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of the TwistedLattice method
    name, each argument as a tuple."""
    calls = []
    real = getattr(TwistedLattice, name)

    def counting(self, *args):
        calls.append(tuple(tuple(a) for a in args))
        return real(self, *args)

    monkeypatch.setattr(TwistedLattice, name, counting)
    return calls


def test_obstruction_scan_matches_brute_force(monkeypatch):
    # the first hit of C(a, sigma^j a) != 1, scanning j outermost and
    # the generators before their pairwise sums; the scan reads
    # a^T G N a mod p and computes no m-values
    rng = random.Random(29)
    obstructed = 0
    for _ in range(60):
        lat = random_twisted_lattice(rng)
        pi = lat.reduce_generating_set().pi
        candidates = list(pi) + [
            tuple(u + v for u, v in zip(pi[x], pi[y]))
            for x in range(len(pi)) for y in range(x + 1, len(pi))]
        expect = next(
            ((a, j) for j in range(lat.p) for a in candidates
             if commutator_map(lat, a, lat.apply_sigma(a, j)) != ONE),
            None)
        td = TwistData(lat)
        calls = _count_calls(monkeypatch, "m_values")
        result = td.obstruction_check()
        monkeypatch.undo()
        assert result == (expect is not None, expect)
        obstructed += expect is not None
        # no m_values call: the scan reads the degree matrix G N
        assert calls == []
    assert 0 < obstructed < 60


def test_obstruction_check_scans_once_per_twist(monkeypatch):
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    calls = _count_calls(monkeypatch, "nu_p")
    first = td.obstruction_check()
    # the scan reads p * nu of its candidates, and only the first time
    assert calls
    calls.clear()
    assert td.obstruction_check() == first
    assert td.obstruction_check() == first
    assert calls == []


def test_partial_phi_seed_takes_the_default_for_the_rest():
    # a basis vector without a seed takes phi_zero(e_i): the twist equals
    # the one given the full dict, down to every phi value and the
    # enumeration of its simple twisted modules
    lat = TwistedLattice(A1x2, ROT4)
    box = list(itertools.product(range(-2, 3), repeat=2))
    for seed in (ONE, root_of_unity(4)):
        partial = TwistData(lat, phi_seed={0: seed})
        full = TwistData(lat, phi_seed={
            0: seed, 1: TwistData(lat).phi_zero((0, 1))})
        assert partial.phi_seed == full.phi_seed
        assert partial.grid == full.grid
        assert [partial.phi(v) for v in box] == [full.phi(v) for v in box]
        assert enumerate_simple_twisted(partial) == \
            enumerate_simple_twisted(full)


def test_phi_memo_matches_fresh_twist():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    box = list(itertools.product(range(-3, 4), repeat=2))
    for v in box:
        assert td.phi(v) is td.phi(v)
        assert td.phi(list(v)) is td.phi(v)
    for v in box:
        assert td.phi(v) == TwistData(lat).phi(v)


# -- the integer phase rules against their product definitions ----------

CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
# the random draws are even lattices with signed-permutation sigma; these
# add odd lattices, where (a|a)(b|b) can be odd, and automorphisms that
# are not signed permutations, where eps(sigma a, sigma a) != eps(a, a)
RULE_FIXTURES = [
    ([[1, 0], [0, 3]], neg_identity(2)),
    ([[3, 1], [1, 3]], [[0, 1], [1, 0]]),
    ([[1, 0], [0, 1]], ROT4),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], CYCLE3),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[-x for x in r] for r in CYCLE3]),
    ([[2, -1], [-1, 2]], [[0, -1], [1, -1]]),
    ([[2, -1], [-1, 2]], [[1, -1], [1, 0]]),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]),
]


def _rule_lattices(seed, per_order=4):
    """The fixtures above, then seeded random draws, per_order each of
    orders 1, 2, 3, 4 and 6."""
    rng = random.Random(seed)
    need = {p: per_order for p in (1, 2, 3, 4, 6)}
    out = [TwistedLattice(g, s) for g, s in RULE_FIXTURES]
    while any(need.values()):
        lat = random_twisted_lattice(rng)
        if need.get(lat.p):
            need[lat.p] -= 1
            out.append(lat)
    return out


def _product_commutator(lat, a, b):
    """C(a, b) as the product (-1)^((a|a)(b|b) + sum m_s) prod_s
    omega^(-s m_s) over the m-values."""
    ms = lat.m_values(a, b)
    omega = root_of_unity(lat.p)
    value = ONE
    for s in range(1, lat.p):
        value = value * omega ** (-s * ms[s])
    if (lat.pairing(a, a) * lat.pairing(b, b) + sum(ms)) % 2:
        value = -value
    return value


def _product_epsilon(td, a, b):
    """epsilon(a, b) as the product of seed powers eps_ij^(a_i b_j)."""
    out = ONE
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out = out * td.eps_seed[(i, j)] ** (x * y)
    return out


def _product_phi(td, a):
    """phi(a) = prod_i phi(e_i)^(a_i) g(e_i, e_i)^(a_i (a_i - 1)/2)
    prod_(i<j) g(e_i, e_j)^(a_i a_j), each g a ratio of products."""
    lat = td.lattice
    e = [tuple(1 if k == i else 0 for k in range(lat.rank))
         for i in range(lat.rank)]

    def g(u, v):
        return _product_epsilon(td, lat.apply_sigma(u), lat.apply_sigma(v)) \
            / _product_epsilon(td, u, v)

    out = ONE
    for i, x in enumerate(a):
        out = out * td.phi_seed[i] ** x * g(e[i], e[i]) ** (x * (x - 1) // 2)
        for j in range(i + 1, lat.rank):
            out = out * g(e[i], e[j]) ** (x * a[j])
    return out


def test_commutator_exponent_matches_m_value_product():
    rng = random.Random(37)
    for lat in _rule_lattices(31):
        for _ in range(12):
            a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
            k = lat.commutator_exponent(a, b)
            assert 0 <= k < 2 * lat.p
            expect = _product_commutator(lat, a, b)
            assert root_of_unity(2 * lat.p, k) == expect
            assert commutator_map(lat, a, b) == expect


def test_epsilon_exponents_match_seed_powers():
    rng = random.Random(41)
    for lat in _rule_lattices(43):
        td = TwistData(lat)
        # the default seeds are 2p-th roots of unity
        assert (2 * lat.p) % td.eps_order == 0
        # fourth roots on the diagonal keep C and make the ratios
        # eps(sigma e_i, sigma e_i)/eps(e_i, e_i) nontrivial
        seeds = dict(td.eps_seed)
        for i in range(lat.rank):
            seeds[(i, i)] = root_of_unity(4, i + 1)
        for td in (td, TwistData(lat, eps_seed=seeds)):
            for _ in range(6):
                a, b = rnd_vec(rng, lat.rank), rnd_vec(rng, lat.rank)
                eps = _product_epsilon(td, a, b)
                assert td.epsilon(a, b).scalar() == eps
                assert eps / _product_epsilon(td, b, a) == \
                    _product_commutator(lat, a, b)
                ratio = _product_epsilon(
                    td, lat.apply_sigma(a), lat.apply_sigma(b)) / eps
                assert (td.epsilon(lat.apply_sigma(a), lat.apply_sigma(b))
                        / td.epsilon(a, b)).scalar() == ratio
                self_ratio = _product_epsilon(
                    td, lat.apply_sigma(a), lat.apply_sigma(a)) \
                    / _product_epsilon(td, a, a)
                assert td.phi_zero(a) == canonical_root(self_ratio, 2)
                assert td.phi(a).scalar() == _product_phi(td, a)


def test_eps_override_of_order_8_on_an_order_2_lattice():
    # seeds of order 8 on sigma = -1 (p = 2): the exponent grid is
    # N = 8, not 2p = 4, and the seeds still realize C
    lat = TwistedLattice([[2, 1], [1, 4]], neg_identity(2))
    seeds = build_epsilon(lat)
    seeds[(0, 1)] = root_of_unity(8)
    seeds[(1, 0)] = root_of_unity(8, 5)
    td = TwistData(lat, eps_seed=seeds)
    assert (lat.p, td.eps_order) == (2, 8)
    rng = random.Random(53)
    conductors = set()
    for _ in range(40):
        a, b = rnd_vec(rng, 2), rnd_vec(rng, 2)
        eps = _product_epsilon(td, a, b)
        assert td.epsilon(a, b).scalar() == eps
        assert eps / _product_epsilon(td, b, a) == \
            td.commutator(a, b).scalar()
        assert td.phi(a).scalar() == _product_phi(td, a)
        conductors.add(eps.n)
    assert conductors == {1, 4, 8}


def test_eps_seeds_must_be_roots_of_unity_and_complete():
    lat = TwistedLattice(A1x2, ROT4)
    seeds = build_epsilon(lat)
    with pytest.raises(CocycleError, match=r"eps_seed\[1,0\] must be a root"):
        TwistData(lat, eps_seed={**seeds, (1, 0): CycScalar.rational(2)})
    with pytest.raises(CocycleError, match=r"eps_seed\[0,1\] must be a root"):
        TwistData(lat, eps_seed={**seeds, (0, 1): ONE + root_of_unity(5)})
    del seeds[(1, 1)]
    with pytest.raises(CocycleError, match=r"eps_seed\[1,1\] is missing"):
        TwistData(lat, eps_seed=seeds)


def test_seeds_outside_the_basis_are_refused():
    # such a seed has no place in the exponent data: it would widen the
    # grid and read back through no view
    lat = TwistedLattice(A1x2, ROT4)
    seeds = build_epsilon(lat)
    with pytest.raises(CocycleError, match=r"eps_seed\[2,0\] is outside"):
        TwistData(lat, eps_seed={**seeds, (2, 0): root_of_unity(8)})
    with pytest.raises(CocycleError, match="phi_seed keys must be basis"):
        TwistData(lat, phi_seed={2: root_of_unity(9)})
    with pytest.raises(CocycleError, match="phi_seed keys must be basis"):
        TwistData(lat, phi_seed={-1: ONE})


def _in_random_basis(rng, gram, sigma):
    """The lattice in the basis u e_i, u a product of three random
    elementary matrices: gram u^T G u and sigma u^-1 sigma u."""
    l = len(gram)
    u, v = identity(l), identity(l)
    for _ in range(3 if l > 1 else 0):
        i, j = rng.sample(range(l), 2)
        c = rng.choice((-1, 1))
        step, back = identity(l), identity(l)
        step[i][j], back[i][j] = c, -c
        u, v = mat_mul(u, step), mat_mul(back, v)
    return TwistedLattice(mat_mul(transpose(u), mat_mul(gram, u)),
                          mat_mul(v, mat_mul(sigma, u)))


def _odd_lattice(rng):
    """A random lattice of rank 1 to 4 with a random signed permutation,
    its form averaged over sigma from one with a free diagonal, so odd
    diagonal entries occur."""
    while True:
        l = rng.randint(1, 4)
        sigma = [[0] * l for _ in range(l)]
        for j, i in enumerate(rng.sample(range(l), l)):
            sigma[i][j] = rng.choice((1, -1))
        base = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(l)]
        base = [[base[min(i, j)][max(i, j)] for j in range(l)]
                for i in range(l)]
        gram, m = [[0] * l for _ in range(l)], identity(l)
        while True:
            term = mat_mul(transpose(m), mat_mul(base, m))
            gram = [[x + y for x, y in zip(r, t)] for r, t in zip(gram, term)]
            m = mat_mul(sigma, m)
            if m == identity(l):
                break
        try:
            return TwistedLattice(gram, sigma)
        except LatticeError:
            continue


def _cocycle_property_lattices():
    """Seeded random lattices of ranks 1 to 4 with signed permutations,
    even and odd, indefinite forms among them, and the twisted_ops
    rotations, odd rotations and permutations, each in three random
    bases, where the default phi is not 1."""
    from test_golden import W

    rng = random.Random(39)
    for _ in range(40):
        yield random_twisted_lattice(rng, rank_max=4)
    for _ in range(30):
        yield _odd_lattice(rng)
    rotations = list(W.OPS_LATTICES.values()) + [
        ([[1, 0], [0, 1]], ROT4),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
        ([[1, 0], [0, -1]], [[-1, 0], [0, 1]]),
        ([[2, 0], [0, -4]], neg_identity(2)),
    ]
    for gram, sigma in rotations:
        yield TwistedLattice(gram, sigma)
        for _ in range(3):
            yield _in_random_basis(rng, gram, sigma)


def test_integer_twist_matches_the_scalar_seeds():
    # the default twist, made from integer exponents, against the twist
    # given build_epsilon's CycScalar seeds and phi_zero's values, and
    # against perfbench/intmath's commutator exponents
    from test_golden import W

    from twistlab import _kept, classify

    ranks, odd, indefinite, phi_moved, agreed = set(), 0, 0, 0, 0
    for lat in _cocycle_property_lattices():
        l, p = lat.rank, lat.p
        ranks.add(l)
        diag = [lat.gram[i][i] for i in range(l)]
        odd += any(x % 2 for x in diag)
        indefinite += min(diag) < 0 < max(diag)
        basis = [tuple(int(k == i) for k in range(l)) for i in range(l)]
        eps = build_epsilon(lat)
        phi = {i: TwistData(lat, eps_seed=eps).phi_zero(e)
               for i, e in enumerate(basis)}
        plain = TwistData(lat)
        seeded = TwistData(lat, eps_seed=eps, phi_seed=phi)
        for T in (plain, seeded):
            assert (T.eps_order, T.eps_exponents, T.grid) == \
                (seeded.eps_order, seeded.eps_exponents, seeded.grid)
            assert [T.phi(e) for e in basis] == [seeded.phi(e) for e in basis]
            assert T.eps_seed == eps and T.phi_seed == phi
        phi_moved += any(x != ONE for x in phi.values())
        pows = W.intmath.powers([list(r) for r in lat.sigma])
        gram = [list(r) for r in lat.gram]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                k = W.intmath.commutator_exponent(gram, pows, a, b)
                assert lat.commutator_exponents[i][j] == k
                assert plain.epsilon(a, b) == (
                    RootPair(1, k, 2 * p) if i > j else RootPair(1, 0, 1))
        rng = random.Random(l * 1000 + p)
        for _ in range(5):
            a, b = rnd_vec(rng, l, 2), rnd_vec(rng, l, 2)
            assert lat.commutator_exponent(a, b) == \
                W.intmath.commutator_exponent(gram, pows, a, b)
        # the seeded twist is a content of its own, enumerated on its
        # own, and it has the plain twist's classes
        assert _kept._content_key(plain) != _kept._content_key(seeded)
        try:
            res = enumerate_simple_twisted(plain)
        except classify.ClassifyError:
            continue
        own = enumerate_simple_twisted(seeded)
        assert own is not res
        assert W.summarize_classify(own) == W.summarize_classify(res)
        agreed += 1
    assert ranks == {1, 2, 3, 4}
    assert odd >= 15 and indefinite >= 15 and phi_moved >= 5
    assert agreed >= 100
