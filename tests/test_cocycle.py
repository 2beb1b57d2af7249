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
from twistlab.lattice import LatticeError, TwistedLattice
from twistlab.scalar import CycScalar, ONE, root_of_unity

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
    assert td.epsilon(zero, b) == ONE


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
        assert td.kappa(a, b) == td.epsilon(a, b)


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
        assert td.kappa(sa, sb) / td.kappa(a, b) == td.sigma_ratio(a, b)


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
        assert td.phi(ab) / (td.phi(a) * td.phi(b)) == td.sigma_ratio(a, b)


def test_phi_rejects_bad_values():
    lat = TwistedLattice([[2]], [[-1]])
    with pytest.raises(CocycleError):
        TwistData(lat, phi_seed={0: ONE + root_of_unity(5)})


def test_example2_rotation_trivial_cocycle():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    for a in itertools.product(range(-2, 3), repeat=2):
        for b in itertools.product(range(-2, 3), repeat=2):
            assert td.commutator(a, b) == ONE
        assert td.phi_zero(a) == ONE
        assert td.phi(a) == ONE
    obstructed, _ = td.obstruction_check()
    assert not obstructed


def test_mu_roots():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    dec = lat.reduce_generating_set()
    orbit = dec.orbits[0]
    roots = td.mu_roots(orbit)
    assert len(roots) == 4
    assert set(roots) == {root_of_unity(4, j) for j in range(4)}
    # negation example: orbit length 2, phi = 1 on basis => mu = +-1
    lat1 = TwistedLattice([[2]], [[-1]])
    td1 = TwistData(lat1)
    dec1 = lat1.reduce_generating_set()
    roots1 = td1.mu_roots(dec1.orbits[0])
    assert set(roots1) == {ONE, CycScalar.rational(-1)}
    for orbit, td_ in ((dec.orbits[0], td), (dec1.orbits[0], td1)):
        target = td_.orbit_phi_product(orbit)
        for mu in td_.mu_roots(orbit):
            assert mu ** len(orbit) == target


def test_k_coeffs():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    orbit = lat.reduce_generating_set().orbits[0]
    mu = root_of_unity(4)
    ks = td.k_coeffs(orbit, mu)
    assert ks[0] == ONE
    for s in range(1, len(orbit)):
        acc = ONE
        for t in range(s):
            acc = acc * td.phi(orbit[t])
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
    assert td.commutator(alpha, lat.apply_sigma(alpha, j)) != ONE

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


def _count_m_values(monkeypatch):
    """Record the arguments of every TwistedLattice.m_values call."""
    calls = []
    real = TwistedLattice.m_values

    def counting(self, alpha, beta):
        calls.append((tuple(alpha), tuple(beta)))
        return real(self, alpha, beta)

    monkeypatch.setattr(TwistedLattice, "m_values", counting)
    return calls


def test_obstruction_scan_matches_brute_force(monkeypatch):
    # the first hit of C(a, sigma^j a) != 1, scanning j outermost and
    # the generators before their pairwise sums; the scan computes the
    # m-values of each candidate once and rotates them for every j
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
        calls = _count_m_values(monkeypatch)
        result = td.obstruction_check()
        monkeypatch.undo()
        assert result == (expect is not None, expect)
        obstructed += expect is not None
        # one m_values(a, a) per candidate, in scan order, up to the hit
        n = len(candidates)
        if expect is not None and expect[1] == 0:
            n = candidates.index(expect[0]) + 1
        assert calls == [(a, a) for a in candidates[:n]]
    assert 0 < obstructed < 60


def test_obstruction_check_scans_once_per_twist(monkeypatch):
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    first = td.obstruction_check()
    calls = _count_m_values(monkeypatch)
    assert td.obstruction_check() == first
    assert td.obstruction_check() == first
    assert calls == []


def test_phi_memo_matches_fresh_twist():
    lat = TwistedLattice(A1x2, ROT4)
    td = TwistData(lat)
    box = list(itertools.product(range(-3, 4), repeat=2))
    for v in box:
        assert td.phi(v) is td.phi(v)
        assert td.phi(list(v)) is td.phi(v)
    for v in box:
        assert td.phi(v) == TwistData(lat).phi(v)
