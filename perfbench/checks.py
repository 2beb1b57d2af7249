"""Correctness checks, run after the timed list.

Each check_* function takes the twistlab namespace, the jobs and their
outputs and returns (problems, faults): problems are lines describing
outputs that are wrong; faults describe the known-fault jobs that showed
their fault.  Outputs are checked against computations made
apart from the code path that produced them (twistlab's residue oracle
and block oracle, and the integer arithmetic of intmath) and against
properties every correct output has, never against stored output.
"""
from __future__ import annotations

import re
from fractions import Fraction

import intmath
import workloads as W

CHECK_FAMILIES = ("fl:F", "fl:eps", "fl:comm", "fl:Dvir", "fl:aff",
                  "fl:voprod", "fl:lprod")
_PRODUCT = re.compile(r"X\(([-\d,]+)\)\[(-?\d+)\]X\(([-\d,]+)\)$")


def _vec(text):
    return tuple(int(x) for x in text.split(","))


def _oracle_status(tl, sa, sb, n, N, slots, probes):
    """nth_product against the literal residue oracle on the slots."""
    fd = tl.fdist
    return fd.compare_status(fd.series_compare(
        fd.nth_product(sa, sb, n, N), tl.oracle.oracle_product(sa, sb, n, N),
        slots, probes))


def _vertex_oracle_status(tl, M, a, b, n, slots, probes):
    N = tl.cocycle.locality_order(M.lattice, a, b)
    return _oracle_status(tl, M.vertex_series(a), M.vertex_series(b), n, N,
                          slots, probes)


def check_check_jobs(tl, jobs, outputs):
    problems = []
    families = set()
    for k, (spec, out) in enumerate(zip(jobs, outputs)):
        where = f"check job {k} {spec}"
        if out["code"] != 0:
            problems.append(f"{where}: exit code {out['code']}")
        rows = W.parse_report(out["report"])
        if any(st == "fail" for _t, _i, st in rows):
            problems.append(f"{where}: fail line in the report")
        passed = [(t, i) for t, i, st in rows if st == "pass"]
        if not passed:
            problems.append(f"{where}: no pass line")
        families.update(t for t, _i in passed)
        T = tl.cocycle.TwistData(tl.lattice.TwistedLattice(spec["gram"],
                                                           spec["sigma"]))
        M = tl.fock.FockModule(T, tl.fock.RegularOmega(T, spec["bound"]),
                               spec["trunc"])
        l, p = T.lattice.rank, T.lattice.p
        # the suite's probes and product slots
        center = M.omega.lookup.get((0,) * l, 0)
        probes = [M.vacuum(center)]
        if M.omega.size > 1:
            probes.append(M.vacuum(center - 1 if center else 1))
        slots = [Fraction(k2, p) for k2 in range(0, p + 1)]
        # the report's decided vertex-operator products first; reports
        # of small windows may decide none, so the Heisenberg products
        # h[n]h of the basis vectors (local of order 2) on the suite's
        # field slots close the list
        basis = [tuple(1 if i == j else 0 for i in range(l))
                 for j in range(l)]
        field_slots = [Fraction(k2, p) for k2 in range(-p, p + 1)]
        tried = []
        decided = [i for t, i in passed if t in ("fl:voprod", "fl:lprod")]
        for inst in decided[:2] + [(e, n) for e in basis for n in (0, 1)]:
            if isinstance(inst, tuple):
                e, n = inst
                h = M.tilde(e)
                name = f"h{e}[{n}]h{e}"
                st = _oracle_status(tl, h, h, n, 2, field_slots, probes)
            else:
                m = _PRODUCT.match(inst)
                a, n, b = _vec(m.group(1)), int(m.group(2)), _vec(m.group(3))
                name = f"X{a}[{n}]X{b}"
                st = _vertex_oracle_status(tl, M, a, b, n, slots, probes)
            tried.append(f"{name}: {st}")
            if st != "untestable":
                break
        if st != "pass":
            problems.append(f"{where}: against the residue oracle: {tried}")
    missing = [f for f in CHECK_FAMILIES if f not in families]
    if missing:
        problems.append(f"check_jobs: no pass in families {missing}")
    return problems, []


def check_twisted_ops(tl, jobs, outputs):
    problems = []
    conditions = {}
    for k, (job, verdicts) in enumerate(zip(jobs, outputs)):
        where = (f"ops job {k} {job['lattice']} {job['module']} "
                 f"{job['kind']} {job['arg']}")
        if not verdicts or any(v != "pass" for v in verdicts):
            problems.append(f"{where}: verdicts {verdicts}")
        if job["kind"] == "product":
            T, M, probes = W.build_ops_module(tl, job)
            a, b = job["arg"]
            n = -intmath.pairing(job["gram"], a, b) - 1
            st = _vertex_oracle_status(tl, M, a, b, n,
                                       W.ops_slots(T.lattice.p), probes)
            if st != "pass":
                problems.append(f"{where}: against the residue oracle: {st}")
        key = (job["lattice"], job["module"])
        if job["module"] != "regular" and key not in conditions:
            T, M, _probes = W.build_ops_module(tl, job)
            reports = tl.classify.twisted_conditions(T, M)
            conditions[key] = tl.classify.conditions_status(reports)
            if conditions[key] != "pass":
                problems.append(f"{where}: class module twisted conditions "
                                f"{conditions[key]}")
    return problems, []


def _block_oracle(tl, T, dec, mu_choice):
    """oracle_bicharacter_blocks on the bicharacter of the algebra A of
    one root choice: (block count, block dim, |E|)."""
    A = tl.classify.PresentedAlgebraA(T, dec, mu_choice)
    # cyclic factors of order 1 carry no generator (the oracle indexes
    # its tables by coordinates reduced mod each order)
    divs = A.E.divisors
    keep = [i for i, d in enumerate(divs) if d > 1]
    gens = [tuple(1 if k == i else 0 for k in range(len(divs)))
            for i in keep]
    comm = [[A.bichar(g, h) for h in gens] for g in gens]
    return tl.oracle.oracle_bicharacter_blocks([divs[i] for i in keep],
                                               comm)


def _check_one_lattice(tl, job, res):
    """Problems of one enumeration result, and the description of the
    known fault (unobstructed, yet no class) if it shows, else None."""
    gram, sigma = job["gram"], job["sigma"]
    pows = intmath.powers(sigma)
    problems = []
    if res.obstructed:
        a, j = res.witness
        if not intmath.commutator_exponent(gram, pows, a,
                                           intmath.mat_vec(pows[j], a)):
            problems.append(f"witness {res.witness} has C(a, s^j a) = 1")
        if res.classes:
            problems.append("obstructed but has classes")
        return problems, None
    if all(sigma[i][j] == (i == j) for i in range(len(sigma))
           for j in range(len(sigma))):
        det = abs(intmath.det(gram))
        if len(res.classes) != det:
            problems.append(f"identity sigma: {len(res.classes)} classes, "
                            f"|det G| = {det}")
    T = tl.cocycle.TwistData(tl.lattice.TwistedLattice(gram, sigma))
    dec = T.lattice.reduce_generating_set()
    for e in res.entries:
        if not e.admissible:
            continue
        count, dim, size = _block_oracle(tl, T, dec, e.mu_choice)
        if (e.block_count, set(e.block_dims), e.dim_B0) != \
                (count, {dim}, size):
            problems.append(
                f"root choice {e.mu_choice}: blocks {e.block_count} x "
                f"{e.block_dims} on dim {e.dim_B0}, oracle {count} x {dim} "
                f"on {size}")
        if len(e.classes) != e.block_count * res.eta_count:
            problems.append(f"root choice {e.mu_choice}: {len(e.classes)} "
                            f"classes, not blocks x eta cosets")
    if not res.classes:
        # unobstructed lattices have twisted modules; say why none
        # were found, from the first collapsed algebra's witness
        why = next((e.detail for e in res.entries if not e.admissible),
                   None)
        note = ""
        if why and why[0] == "non-central relation":
            d, k = why[1]
            ek = tuple(1 if i == k else 0 for i in range(len(gram)))
            c = intmath.commutator_exponent(gram, pows, d, ek)
            note = f"; C({d}, e_{k}) = zeta_{2 * len(pows)}^{c}"
        return problems, (f"unobstructed (own scan finds witness "
                          f"{intmath.obstruction_witness(gram, sigma)}) "
                          f"but no class: {why}{note}")
    return problems, None


def check_classify_stream(tl, jobs, outputs):
    problems = []
    faults = []
    first = {}
    for k, (job, res) in enumerate(zip(jobs, outputs)):
        key = repr((job["gram"], job["sigma"]))
        summary = W.summarize_classify(res)
        if key in first:
            # a repeated lattice must give the same result
            j0, summary0, probs0, fault0 = first[key]
            if summary != summary0:
                problems.append(f"classify job {k}: differs from job {j0} "
                                f"on the same lattice")
        else:
            probs0, fault0 = _check_one_lattice(tl, job, res)
            first[key] = (k, summary, probs0, fault0)
        where = f"classify job {k} {job['gram']} {job['sigma']}"
        problems.extend(f"{where}: {p}" for p in probs0)
        if fault0 is not None:
            if job["fault"]:
                faults.append(f"{where}: {fault0}")
            else:
                problems.append(f"{where}: {fault0}")
    return problems, faults


CHECKERS = {"check_jobs": check_check_jobs,
            "twisted_ops": check_twisted_ops,
            "classify_stream": check_classify_stream}
