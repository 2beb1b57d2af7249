"""Inputs and jobs of the three workloads.

Inputs are plain data (integer matrices, vectors, spec dicts) made from
the run seed; the program only ever sees these.  Every job builds its
own twistlab objects, so no job reuses another job's memo tables: the
only state carried between jobs is twistlab's module-level caches,
which the warm-up fills.

`tl` below is the namespace of freshly imported twistlab modules that
run.py passes in (set-up re-imports twistlab on every repetition).
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import intmath

WORKLOADS = ("check_jobs", "twisted_ops", "classify_stream")

# Nominal wall time of one round of each workload on the reference
# machine; the run length (--seconds) sets the number of rounds from it,
# so the job list depends only on the seed and the run length.
ROUND_SECONDS = {"check_jobs": 30.0, "twisted_ops": 10.0,
                 "classify_stream": 7.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _diag(*xs):
    return [[x if i == j else 0 for j in range(len(xs))]
            for i, x in enumerate(xs)]


SWAP = [[0, 1], [1, 0]]
NSWAP = [[0, -1], [-1, 0]]
A2 = [[2, -1], [-1, 2]]
A2_ROT3 = [[0, -1], [1, -1]]
A2_ROT6 = [[1, -1], [1, 0]]
ROT4 = [[0, -1], [1, 0]]

# ---------------------------------------------------------------------
# check_jobs: the CLI `check` command on order-1/2 specs
# ---------------------------------------------------------------------

# (gram, sigma, trunc); bound is always 1.  Every spec is unobstructed
# (checked by generation), so the suite has no `fail` line to report.
# Order-2 rank-1 specs start at trunc 2: at trunc 1 no product of the
# suite, nor any Heisenberg product, is decided against the oracle.
CHECK_SPECS = (
    [([[n]], [[1]], t) for n in (1, 2, 3, 4, 6, -2, -4) for t in (1, 2, 3)]
    + [([[n]], [[-1]], 2) for n in (1, 2, 3, -2, -4)]
    + [([[n]], [[-1]], 3) for n in (1, -2, -4)]
    + [(g, _diag(1, 1), t)
       for g in ([[1, 0], [0, 1]], [[2, 0], [0, 2]], [[2, 1], [1, 2]],
                 [[2, -1], [-1, 2]], [[2, 1], [1, -2]], [[2, 0], [0, 4]],
                 [[2, -1], [-1, 4]])
       for t in (1, 2)]
    + [([[1, 0], [0, 1]], _diag(-1, -1), 1),
       ([[1, 0], [0, 1]], _diag(-1, -1), 2),
       ([[2, 1], [1, -2]], _diag(-1, -1), 1),
       ([[2, -1], [-1, 2]], _diag(-1, -1), 1),
       ([[2, 0], [0, 2]], _diag(-1, -1), 1),
       ([[2, 0], [0, 2]], SWAP, 1),
       ([[2, 0], [0, 2]], NSWAP, 1),
       ([[2, 0], [0, 4]], _diag(1, -1), 1)]
    # middle-cost specs (0.2-0.45 s here): without them the median job
    # sat on a steep stretch of the cost curve and moved 13% between runs
    + [(g, _diag(1, 1), t)
       for g in ([[1, 0], [0, 2]], [[1, 0], [0, 3]], [[1, 0], [0, -2]],
                 [[2, 0], [0, -2]], [[2, 0], [0, -4]], [[3, 0], [0, 3]],
                 [[2, 0], [0, 3]], [[2, -1], [-1, 3]])
       for t in (1, 2)]
    + [([[1, 0], [0, 4]], _diag(1, 1), 1), ([[2, 1], [1, 3]], _diag(1, 1), 1)]
    + [([[n]], [[1]], t) for n in (5, 8) for t in (2, 3)]
    + [([[n]], [[1]], 4) for n in (3, 4)]
)

# warm-up spec: order 2, not among CHECK_SPECS in any presentation
CHECK_WARMUP = ([[-6]], [[-1]], 1)


def _swap_basis(gram, sigma):
    """The same lattice and automorphism in the basis (e_1, e_0)."""
    return ([[gram[1 - i][1 - j] for j in range(2)] for i in range(2)],
            [[sigma[1 - i][1 - j] for j in range(2)] for i in range(2)])


def check_inputs(rng: random.Random, rounds: int):
    """Job specs: every spec of CHECK_SPECS once per round, in a seeded
    order per round.  Round r shows rank-2 specs in the basis
    (e_(r mod 2), e_(1 - r mod 2)), so a second round repeats only the
    specs that read the same in both bases.  The seed does not choose
    the basis: that moved the number of decided identities per run."""
    jobs = []
    for r in range(rounds):
        order = list(range(len(CHECK_SPECS)))
        rng.shuffle(order)
        seen = set()
        for k in order:
            gram, sigma, trunc = CHECK_SPECS[k]
            if intmath.obstruction_witness(gram, sigma) is not None:
                raise ValueError(f"obstructed check spec {gram} {sigma}")
            if len(gram) == 2 and r % 2:
                gram, sigma = _swap_basis(gram, sigma)
            spec = {"gram": gram, "sigma": sigma, "trunc": trunc,
                    "bound": 1}
            key = json.dumps(spec, sort_keys=True)
            if key in seen:
                raise ValueError(f"check spec repeats: {key}")
            seen.add(key)
            jobs.append(spec)
    return jobs


def run_check_job(tl, spec, workdir, tag):
    """One in-process `twistlab --spec S --cmd check --out R`."""
    spec_path = os.path.join(workdir, f"{tag}.json")
    out_path = os.path.join(workdir, f"{tag}.report")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    code = tl.cli.main(["--spec", spec_path, "--cmd", "check",
                        "--out", out_path])
    report = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            report = fh.read()
        os.remove(out_path)
    os.remove(spec_path)
    return {"code": code, "report": report}


def parse_report(report: str):
    """(tag, instance, status) triples of a check report.  Fields are
    split on ' | ': instances such as 'ups[1]X(1,) = ((a|a)/2)X' hold a
    bare '|', so splitting on '|' would misread them."""
    rows = []
    for line in report.splitlines()[1:-1]:
        parts = line.split(" | ")
        if len(parts) != 3:
            raise ValueError(f"malformed report line {line!r}")
        rows.append(tuple(parts))
    return rows


def check_passes(output):
    return sum(1 for _t, _i, st in parse_report(output["report"])
               if st == "pass")


# ---------------------------------------------------------------------
# twisted_ops: single identity checks on order-3, 4 and 6 Fock modules
# ---------------------------------------------------------------------

OPS_LATTICES = {
    "A2.rot3": (A2, A2_ROT3),
    "A2.rot6": (A2, A2_ROT6),
    "A1A1.rot4": ([[2, 0], [0, 2]], ROT4),
    "2A2.rot3": ([[4, -2], [-2, 4]], A2_ROT3),
}
# module kinds per lattice: the regular vacuum window, and the modules
# instantiated from each enumerated class (A2 with the order-3 rotation
# has three classes, with the order-6 rotation one, A1+A1 with the
# order-4 rotation two)
OPS_MODULES = {
    "A2.rot3": ("regular", 0, 1, 2),
    "A2.rot6": ("regular", 0),
    "A1A1.rot4": ("regular", 0, 1),
    "2A2.rot3": ("regular", 0, 1, 2),
}
OPS_KINDS = ("product", "pair", "reconstruct", "e_group", "heisenberg")
OPS_TRUNC = 4
OPS_BOUND = 2

# warm-up: (lattice, module, kind) on lattices outside OPS_LATTICES
# whose scalars live in the same fields, so the cyclotomic caches of
# orders 3, 4, 6 and 12 fill
OPS_WARMUP = [
    ("warm.rot3", ([[2, 1], [1, 2]], [[-1, -1], [1, 0]]), "regular",
     "product"),
    ("warm.rot3", ([[2, 1], [1, 2]], [[-1, -1], [1, 0]]), 0, "e_group"),
    ("warm.rot4", ([[4, 0], [0, 4]], ROT4), "regular", "pair"),
    ("warm.rot4", ([[4, 0], [0, 4]], ROT4), 0, "e_group"),
    # products and pair expansions on this rescaled A2 take seconds
    ("warm.rot6", ([[4, -2], [-2, 4]], A2_ROT6), "regular", "reconstruct"),
    ("warm.rot6", ([[4, -2], [-2, 4]], A2_ROT6), 0, "e_group"),
]


def minimal_vectors(gram):
    """Nonzero vectors with entries in {-1, 0, 1} of least norm."""
    vecs = [v for v in ((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))
            if any(v)]
    norm = {v: intmath.pairing(gram, v, v) for v in vecs}
    least = min(abs(x) for x in norm.values())
    return [v for v in vecs if abs(norm[v]) == least]


def ops_candidates(gram, kind):
    """All inputs of one check kind on one lattice.  Products and pair
    expansions use (a, -a) for a minimal vector a: the product at
    n = (a|a) - 1 lies inside the truncation window, and the candidates
    of a cell cost the same, so the seed does not move the job mix."""
    roots = minimal_vectors(gram)
    if kind in ("product", "pair"):
        return [(a, tuple(-x for x in a)) for a in roots]
    if kind == "e_group":
        return [(a, b) for a in roots for b in roots]
    return roots


def ops_inputs(rng: random.Random, rounds: int):
    """Per round one job of every kind on every module, and a second
    product job where the product cell has inputs for it in every round.
    The inputs of a (lattice, module, kind) cell are drawn without
    replacement, so no input repeats while the cell has fresh ones.  The
    second products put the latency tail inside the heaviest cell
    (products on the class modules of the rescaled A2), rather than on
    the border between two cells of different cost."""
    jobs = []
    pools = {}
    for _r in range(rounds):
        round_jobs = []
        for name, (gram, sigma) in OPS_LATTICES.items():
            products = min(2, len(ops_candidates(gram, "product")) // rounds)
            kinds = ("product",) * products + OPS_KINDS[1:]
            for module in OPS_MODULES[name]:
                for kind in kinds:
                    key = (name, module, kind)
                    if not pools.get(key):
                        cands = ops_candidates(gram, kind)
                        rng.shuffle(cands)
                        pools[key] = cands
                    arg = pools[key].pop()
                    round_jobs.append({"lattice": name, "gram": gram,
                                       "sigma": sigma, "module": module,
                                       "kind": kind, "arg": arg})
        rng.shuffle(round_jobs)
        jobs.extend(round_jobs)
    return jobs


def ops_slots(p):
    """Product slots inside the truncation window."""
    return [Fraction(k, p) for k in range(p // 2, p + p // 2 + 1)]


def build_ops_module(tl, job):
    """(TwistData, FockModule, probes) of a twisted_ops job."""
    T = tl.cocycle.TwistData(tl.lattice.TwistedLattice(job["gram"],
                                                       job["sigma"]))
    if job["module"] == "regular":
        M = tl.fock.FockModule(T, tl.fock.RegularOmega(T, OPS_BOUND),
                               OPS_TRUNC)
        l = T.lattice.rank
        return T, M, [M.vacuum(M.omega.lookup[(0,) * l])]
    res = tl.classify.enumerate_simple_twisted(T)
    cls = res.classes[job["module"]]
    M = tl.classify.instantiate_class(T, cls, OPS_TRUNC)
    lines = M.omega.lines
    zero = tuple(0 for _ in lines[0][0])
    return T, M, [M.vacuum(i) for i, (k, _t) in enumerate(lines)
                  if k == zero][:1]


def run_ops_job(tl, job):
    """One identity check; returns its verdicts as a list of strings."""
    T, M, probes = build_ops_module(tl, job)
    p = T.lattice.p
    kind, arg = job["kind"], job["arg"]
    fock = tl.fock
    if kind == "product":
        a, b = arg
        n = -T.lattice.pairing(a, b) - 1
        rep = fock.product_check(M, a, b, n, ops_slots(p), probes)
        return [rep[k] for k in sorted(rep)]
    if kind == "pair":
        wz = [Fraction(-1, 2), Fraction(0)]
        rep = fock.pair_expansion_check(M, arg[0], arg[1], wz, wz, probes)
        return [st for _s, st in rep]
    if kind == "reconstruct":
        exps = [Fraction(k, p) for k in range(-1, 2)]
        return [st for _e, st in fock.reconstruct_e(M, arg, exps, probes)]
    if kind == "e_group":
        rep = fock.e_group_checks(M, [arg], probes)
        return [s for _n, s1, s2 in rep for s in (s1, s2)]
    basis = [(1, 0), (0, 1)]
    modes = [Fraction(-1, p), 0, Fraction(1, p)]
    rep = fock.heisenberg_commutation_check(M, [arg], basis, modes, probes)
    return [st for _n, st in rep]


# ---------------------------------------------------------------------
# classify_stream: enumeration over a stream of random twisted lattices
# ---------------------------------------------------------------------

CLASSIFY_FIXTURES = [
    ([[2]], [[1]]),
    ([[2, -1], [-1, 2]], _diag(1, 1)),
    ([[4, 1], [1, 2]], _diag(1, 1)),
    ([[2]], [[-1]]),
    ([[2, 1], [1, 2]], _diag(-1, -1)),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 4]], _diag(-1, -1, -1)),
    ([[2, 0], [0, 2]], ROT4),
    ([[4, 0], [0, 4]], ROT4),
]
# Lattices on which the program reports "unobstructed" and yet no
# class: every root choice collapses the algebra with a non-central
# relation.  Kept as jobs that fail until the program is mended.
KNOWN_FAULTS = [
    ([[4, -3, 2, 2], [-3, -8, 2, 4], [2, 2, 4, -3], [2, 4, -3, -8]],
     [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    ([[-8, 3, 0, 0], [3, 0, 2, 0], [0, 2, 0, -3], [0, 0, -3, -8]],
     [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]),
]
CLASSIFY_WARMUP = [([[6]], [[-1]]), ([[6, 0], [0, 6]], ROT4),
                   ([[2, -1], [-1, 2]], A2_ROT3),
                   ([[2, -1], [-1, 2]], A2_ROT6)]

# The random part of the pool comes from a fixed generator seed, in
# fixed numbers per automorphism order; the run seed orders the stream.
# The cost of one enumeration spans three orders of magnitude, so the
# pool is held fixed: redrawn per seed it made the summed job cost
# differ by about 60% between seeds, and even a seeded signed change of
# basis moved single jobs by up to 2x, and the latency tail with them.
POOL_SEED = 20001218
POOL_QUOTA = {1: 6, 2: 12, 3: 8, 4: 8, 6: 8}
POOL_MAX_ROOT_CHOICES = 16


def random_twisted_lattice(rng: random.Random, tl, rank_max: int = 4):
    """A random TwistedLattice: sigma a signed permutation of rank
    1..rank_max, the Gram matrix a random symmetric form averaged over
    the cyclic group of sigma (so sigma preserves it)."""
    while True:
        l = rng.randint(1, rank_max)
        perm = list(range(l))
        rng.shuffle(perm)
        sigma = [[0] * l for _ in range(l)]
        for j in range(l):
            sigma[perm[j]][j] = rng.choice((1, -1))
        base = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(l)]
        base = [[base[i][j] + base[j][i] for j in range(l)]
                for i in range(l)]
        pows = intmath.powers(sigma)
        gram = [[0] * l for _ in range(l)]
        for m in pows:
            term = intmath.mat_mul(intmath.transpose(m),
                                   intmath.mat_mul(base, m))
            gram = [[gram[i][j] + term[i][j] for j in range(l)]
                    for i in range(l)]
        if intmath.det(gram) == 0:
            continue
        return tl.lattice.TwistedLattice(gram, sigma)


def classify_pool(tl):
    """The pool's random lattices, as (gram, sigma) lists."""
    rng = random.Random(POOL_SEED)
    need = dict(POOL_QUOTA)
    pool = []
    while any(need.values()):
        lat = random_twisted_lattice(rng, tl)
        if not need.get(lat.p):
            continue
        dec = lat.reduce_generating_set()
        choices = 1
        for n in dec.lengths:
            choices *= n
        if choices > POOL_MAX_ROOT_CHOICES:
            continue
        need[lat.p] -= 1
        pool.append(([list(r) for r in lat.gram],
                     [list(r) for r in lat.sigma]))
    return pool


def classify_inputs(rng: random.Random, rounds: int, tl):
    """The stream: every pool lattice once per round, in a seeded order
    per round, so a share 1 - 1/rounds of the jobs repeats a lattice
    seen earlier in the run."""
    members = [{"gram": g, "sigma": s, "fault": False}
               for g, s in CLASSIFY_FIXTURES + classify_pool(tl)]
    members += [{"gram": g, "sigma": s, "fault": True}
                for g, s in KNOWN_FAULTS]
    jobs = []
    for _r in range(rounds):
        order = list(range(len(members)))
        rng.shuffle(order)
        jobs.extend(members[k] for k in order)
    return jobs


def run_classify_job(tl, job):
    """enumerate_simple_twisted on one lattice; returns its result."""
    T = tl.cocycle.TwistData(tl.lattice.TwistedLattice(job["gram"],
                                                       job["sigma"]))
    return tl.classify.enumerate_simple_twisted(T)


def summarize_classify(res):
    """Plain-data digest of an EnumerationResult."""
    entries = []
    for e in res.entries:
        detail = e.detail if not e.admissible else None
        entries.append([[str(m) for m in e.mu_choice], e.admissible,
                        repr(detail), e.dim_B0, e.block_count,
                        list(e.block_dims), len(e.classes)])
    return {"obstructed": res.obstructed, "witness": repr(res.witness),
            "order": res.order, "eta_count": res.eta_count,
            "classes": len(res.classes), "entries": entries}
