"""The integer tables the enumeration memo keeps per twist content: a
later `TwistedLattice` of the same integer Gram matrix and sigma, and a
`TwistData` on it without seeds, read them instead of building their
own.  A twist read from them equals one built on an empty memo, field
by field; every construction is still its own object; refusals are
what they are on an empty memo; and the counts follow a counted run.

conftest.py empties the memo before each test."""
import random
import sys
import threading

import pytest

from twistlab import _kept, classify, lattice
from twistlab.classify import enumerate_simple_twisted, enumeration_memo_counts
from twistlab.cocycle import CocycleError, TwistData
from twistlab.fock import FockModule, RegularOmega
from twistlab.lattice import LatticeError, TwistedLattice
from twistlab.scalar import as_scalar, root_of_unity

from test_golden import TL, W
from test_classify import neg
from test_lattice import random_twisted_lattice

# the lattice's derived values, computed when first read
LATTICE_CACHED = ("norm", "gram_norm", "gram_prime", "commutator_exponents")


def _draws(seed, n, **kw):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lat = random_twisted_lattice(rng, **kw)
        out.append(([list(r) for r in lat.gram], [list(r) for r in lat.sigma]))
    return out


# the classify pool with its fixtures, the known faults, the twisted_ops
# lattices, and random odd and conjugated draws
TABLE_LATTICES = (W.CLASSIFY_FIXTURES + W.classify_pool(TL)
                  + W.KNOWN_FAULTS + list(W.OPS_LATTICES.values())
                  + _draws(4301, 6, odd=True)
                  + _draws(4302, 6, conjugate=True)
                  + _draws(4303, 6, odd=True, conjugate=True))


def _twist(gram, sigma, **seeds):
    return TwistData(TwistedLattice(gram, sigma), **seeds)


def _own(obj, skip):
    """Every attribute obj's construction set, but its memos and skip."""
    return {k: v for k, v in vars(obj).items()
            if not k.startswith("_kept_") and k not in skip}


def _fields(T):
    """T and its lattice, read right after construction: every attribute
    either set, whichever path built it, the lattice's derived values
    and the content key."""
    lat = T.lattice
    lattice = _own(lat, ("_integer_tables",))
    lattice.update((f, getattr(lat, f)) for f in LATTICE_CACHED)
    return lattice, _own(T, ("lattice",)), _kept._content_key(T)


def test_the_table_lattices():
    # the 52 classify_stream lattices, 4 twisted_ops ones and 18 draws,
    # the conjugated ones mostly outside the signed permutations
    assert len(TABLE_LATTICES) == 52 + 4 + 18
    draws = [TwistedLattice(*gs) for gs in TABLE_LATTICES[-12:]]
    assert sum(any(sum(map(abs, row)) != 1 for row in lat.sigma)
               for lat in draws) >= 6


@pytest.mark.parametrize("gram, sigma", TABLE_LATTICES)
def test_a_twist_read_from_kept_tables_is_the_fresh_one(gram, sigma):
    fresh = _twist(gram, sigma)
    assert fresh.lattice._integer_tables is None
    expected = _fields(fresh)
    # keeping a value for the content keeps its tables
    enumerate_simple_twisted(fresh)
    assert enumeration_memo_counts()["twists"] == 1
    reads = [_twist(gram, sigma) for _ in range(2)]
    for T in reads:
        assert T.lattice._integer_tables is not None
        assert _fields(T) == expected
    # each construction is its own lattice and twist, with its own
    # derived values and memos
    one, two = reads
    assert len({id(T) for T in (fresh, one, two)}) == 3
    assert len({id(T.lattice) for T in (fresh, one, two)}) == 3
    assert one.lattice.reduce_generating_set() is not \
        two.lattice.reduce_generating_set()
    assert one.lattice.norm is not two.lattice.norm
    v = tuple(1 for _ in gram)
    assert one.phi(v) == two.phi(v) == fresh.phi(v)
    assert one._kept_phi is not two._kept_phi
    counts = enumeration_memo_counts()
    assert (counts["twist_hits"], counts["twist_misses"]) == (2, 1)


def test_seeded_twists_build_their_own_on_kept_tables():
    # a twist with seeds keeps no tables, so a lattice built after it
    # reads none; once the default twist's content is kept, a twist
    # with seeds reads its lattice's tables and builds its own cocycle
    # data, which is what it is on an empty memo
    gram, sigma = [[2]], [[1]]
    seeds = {"phi_seed": {0: root_of_unity(8)}}
    fresh = _fields(_twist(gram, sigma, **seeds))
    fresh_default = _fields(_twist(gram, sigma))
    classify.clear_enumeration_memo()
    seeded = _twist(gram, sigma, **seeds)
    res = enumerate_simple_twisted(seeded)
    assert ("twist",) not in _kept._memo[_kept._content_key(seeded)]
    assert enumeration_memo_counts()["twists"] == 0
    T = _twist(gram, sigma, **seeds)
    assert T.lattice._integer_tables is None
    assert _fields(T) == fresh
    plain = _twist(gram, sigma)
    assert _fields(plain) == fresh_default
    enumerate_simple_twisted(plain)
    assert enumeration_memo_counts()["twists"] == 1
    again = _twist(gram, sigma)
    assert again.lattice._integer_tables.twist is not None
    assert _fields(again) == fresh_default
    T = _twist(gram, sigma, **seeds)
    assert T.lattice._integer_tables is again.lattice._integer_tables
    assert _fields(T) == fresh
    # still a hit of its own content, which still keeps no tables
    assert enumerate_simple_twisted(T) is res
    assert ("twist",) not in _kept._memo[_kept._content_key(T)]
    counts = enumeration_memo_counts()
    assert (counts["hits"], counts["misses"], counts["twists"]) == (1, 2, 1)


def test_pool_draws_and_refusals_keep_nothing():
    # lattices that are built and never enumerated, and refused inputs,
    # keep no tables
    for gram, sigma in TABLE_LATTICES:
        T = _twist(gram, sigma)
        T.obstruction_check()
    with pytest.raises(LatticeError):
        TwistedLattice([[1, 1], [1, 1]], [[1, 0], [0, 1]])
    assert enumeration_memo_counts()["twists"] == 0
    assert _kept._memo == {} and _kept._memo_held == 0


# each refusal after a valid twist that shares its Gram matrix or sigma:
# (the valid twist, the refused input, the seeds, the error)
A2 = [[2, 1], [1, 2]]
SWAP = [[0, 1], [1, 0]]
REFUSALS = {
    "non-square": ((A2, neg(2)), ([[2, 1], [1, 2, 0]], neg(2)), {},
                   LatticeError),
    "non-symmetric": ((A2, neg(2)), ([[2, 1], [0, 2]], neg(2)), {},
                      LatticeError),
    "singular": ((A2, neg(2)), ([[1, 1], [1, 1]], neg(2)), {},
                 LatticeError),
    "not-preserving": ((A2, SWAP), ([[2, 1], [1, 4]], SWAP), {},
                       LatticeError),
    # diag(1, -2) is preserved by [[3, 4], [2, 3]], of infinite order
    "infinite-order": (([[1, 0], [0, -2]], neg(2)),
                       ([[1, 0], [0, -2]], [[3, 4], [2, 3]]), {},
                       LatticeError),
    "rank-mismatch": ((A2, neg(2)), (A2, [[-1]]), {}, LatticeError),
    "non-integral": (([[2]], [[1]]), ([[2.5]], [[1]]), {}, LatticeError),
    "non-integral-sigma": (([[2]], [[1]]), ([[2]], [[1.5]]), {},
                           LatticeError),
    "eps-outside": ((A2, neg(2)), (A2, neg(2)),
                    {"eps_seed": {(0, 2): as_scalar(1)}}, CocycleError),
    "eps-not-root": ((A2, neg(2)), (A2, neg(2)),
                     {"eps_seed": {(i, j): as_scalar(2) for i in range(2)
                                   for j in range(2)}}, CocycleError),
    "eps-missing": ((A2, neg(2)), (A2, neg(2)),
                    {"eps_seed": {(0, 0): as_scalar(1)}}, CocycleError),
    "phi-key": ((A2, neg(2)), (A2, neg(2)),
                {"phi_seed": {2: as_scalar(1)}}, CocycleError),
    "phi-value": ((A2, neg(2)), (A2, neg(2)),
                  {"phi_seed": {0: as_scalar(1) + root_of_unity(4)}},
                  CocycleError),
}


def _refusal(refused, seeds, error):
    with pytest.raises(error) as info:
        TwistData(TwistedLattice(*refused), **seeds)
    return str(info.value)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals_with_kept_tables_are_those_of_an_empty_memo(name):
    valid, refused, seeds, error = REFUSALS[name]
    message = _refusal(refused, seeds, error)
    assert enumeration_memo_counts()["twists"] == 0
    enumerate_simple_twisted(_twist(*valid))
    assert enumerate_simple_twisted(_twist(*valid)) is not None
    counts = enumeration_memo_counts()
    assert (counts["twists"], counts["twist_hits"]) == (1, 1)
    assert _refusal(refused, seeds, error) == message
    # nothing refused is kept
    assert enumeration_memo_counts()["twists"] == 1


def test_twist_counts_against_a_counted_run(monkeypatch):
    # the seed-3 classify_stream list at 30 s: a lattice built afresh
    # computes one determinant and a default twist built afresh one
    # phi_zero exponent per basis vector; every lattice seen before in
    # the list is a twist hit, and builds neither
    jobs = W.classify_inputs(random.Random(3),
                             W.rounds_for("classify_stream", 30), TL)
    classify.clear_enumeration_memo()
    dets, phis = [], []
    real_det = lattice.det_int
    real_phi = TwistData._phi_zero_exponent

    def counted_det(a):
        dets.append(a)
        return real_det(a)

    def counted_phi(self, a, sa):
        phis.append(a)
        return real_phi(self, a, sa)

    monkeypatch.setattr(lattice, "det_int", counted_det)
    monkeypatch.setattr(TwistData, "_phi_zero_exponent", counted_phi)
    seen = set()
    repeats = 0
    for job in jobs:
        key = (tuple(map(tuple, job["gram"])), tuple(map(tuple, job["sigma"])))
        repeats += key in seen
        seen.add(key)
        W.run_classify_job(TL, job)
    monkeypatch.undo()
    assert (len(jobs), len(seen), repeats) == (208, 47, 161)
    counts = enumeration_memo_counts()
    assert (counts["twists"], counts["twist_hits"], counts["twist_misses"]) \
        == (47, 161, 47)
    assert len(dets) == 47
    assert len(phis) == sum(len(gram) for gram, _sigma in seen)


def test_concurrent_constructions_keep_the_weight(monkeypatch):
    # eight threads, switching often, build twists of [1], [2], [3] and
    # [4] with sigma = 1, enumerate them and build a regular module,
    # under a budget of 14 that evicts: every construction is one twist
    # hit or miss, every read twist is the fresh one, the kept weight
    # is the sum of the kept values' weights, within the budget, and
    # every kept content holds the tables of its own lattice
    monkeypatch.setattr(_kept, "MAX_WORK", 14)
    expected = {n: _fields(_twist([[n]], [[1]])) for n in range(1, 5)}
    classify.clear_enumeration_memo()
    built, errors = [], []

    def work(k):
        try:
            for i in range(120):
                n = 1 + (k + i) % 4
                T = _twist([[n]], [[1]])
                built.append(T)
                assert _fields(T) == expected[n]
                enumerate_simple_twisted(T)
                T = _twist([[n]], [[1]])
                built.append(T)
                FockModule(T, RegularOmega(T, 1), 1)
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    counts = enumeration_memo_counts()
    assert counts["twist_hits"] + counts["twist_misses"] == len(built) \
        == 8 * 120 * 2
    assert counts["twist_hits"] > 0
    with _kept._memo_lock:
        kept = dict(_kept._memo)
        held = _kept._memo_held
    assert held == sum(_kept._weight(e) for e in kept.values()) <= 14
    assert counts["twists"] == len(kept)
    assert all(key[:2] == (e[("twist",)].gram, e[("twist",)].sigma)
               for key, e in kept.items())
