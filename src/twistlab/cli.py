"""Batch command-line interface: ingest a lattice/automorphism job
spec, run the invariant suite, and emit classification reports.

Output is deterministic structured text: identical specs produce
byte-identical reports.  Exit codes: 0 success, 1 invariant failure,
2 input error (a malformed spec, JSON nested past the recursion limit
or holding an integer past the interpreter's digit limit included,
malformed scalar text in a seed, an eps seed whose pair contradicts
the commutator map, eps(e_i, e_j) / eps(e_j, e_i) != C(e_i, e_j), a
spec file that cannot be read as UTF-8 text, or an --out file that
cannot be written), 3 refused: unsupported scalar, the constant
conductor cap 720 reached (a well-formed seed above it included), the
classifier's one work cap (root choices times |E|^2, or root choices
times the eta cosets, counted before any coset is listed) exceeded, a
Fock module of more than 262144 basis vectors up to the truncation,
creation words times the (2 bound + 1)^rank vacuum lines
(`twistlab.fock.MAX_BASIS`), counted in integers and refused before
any line is listed or any check runs, or a kappa whose integers may
pass the interpreter's digit limit, refused before it is computed
(_refuse_unprintable_kappa).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import (
    ClassifyError,
    SizeCapExceeded,
    UnsupportedScalar,
    enumerate_simple_twisted,
)
from .cocycle import CocycleError, TwistData, build_epsilon, locality_order
from .fdist import (
    compare_status,
    kernel_delta_check,
    nth_product,
    series_compare,
    worst_status,
)
from .fock import (
    FockError,
    FockModule,
    RegularOmega,
    e_group_checks,
    heisenberg_commutation_check,
    product_check,
    virasoro_element_checks,
)
from .lattice import LatticeError, TwistedLattice
from .oracle import oracle_product
from .scalar import ConductorOverflow, RootPair, ScalarError, parse_scalar

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_SCALAR = 3

# decimal digits the reduction of a kappa product to canonical
# coordinates may add to the factor-by-factor bound of
# _refuse_unprintable_kappa
KAPPA_SLACK_DIGITS = 64


class InputError(Exception):
    pass


@dataclass
class JobSpec:
    """A parsed job: lattice data, twist options, truncation and
    optional vectors for the pairing command."""

    gram: list
    sigma: list
    eps: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)
    mu: list | None = None
    trunc: int = 4
    bound: int = 1
    alpha: list | None = None
    beta: list | None = None


def _int_matrix(data, name):
    if not isinstance(data, list) or not data or \
            any(not isinstance(r, list) for r in data):
        raise InputError(f"{name} must be a non-empty list of rows")
    for row in data:
        # by exact type: JSON true and false load as bool, an int subclass
        if len(row) != len(data) or any(type(x) is not int for x in row):
            raise InputError(f"{name} must be a square integer matrix")
    return [list(r) for r in data]


def _int_vector(data, l, name):
    if not isinstance(data, list) or len(data) != l or \
            any(type(x) is not int for x in data):
        raise InputError(f"{name} must be an integer vector of length {l}")
    return list(data)


def parse_job(text: str) -> JobSpec:
    """Parse a JSON job spec; raises InputError with line/column on
    malformed input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the
        # interpreter's recursion limit
        raise InputError(str(exc)) from exc
    if not isinstance(data, dict):
        raise InputError("job spec must be a JSON object")
    known = {"gram", "sigma", "eps", "phi", "mu", "trunc", "bound",
             "alpha", "beta"}
    for key in data:
        if key not in known:
            raise InputError(f"unknown field {key!r}")
    if "gram" not in data or "sigma" not in data:
        raise InputError("job spec requires gram and sigma")
    gram = _int_matrix(data["gram"], "gram")
    sigma = _int_matrix(data["sigma"], "sigma")
    l = len(gram)
    spec = JobSpec(gram, sigma)
    eps = data.get("eps", {})
    if not isinstance(eps, dict):
        raise InputError("eps must be an object keyed by 'i,j'")
    for key, val in eps.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise InputError(f"bad eps key {key!r}") from exc
        if not (0 <= i < l and 0 <= j < l):
            raise InputError(f"eps key {key!r} out of range")
        spec.eps[(i, j)] = str(val)
    phi = data.get("phi", {})
    if not isinstance(phi, dict):
        raise InputError("phi must be an object keyed by basis index")
    for key, val in phi.items():
        try:
            i = int(key)
        except ValueError as exc:
            raise InputError(f"bad phi key {key!r}") from exc
        if not 0 <= i < l:
            raise InputError(f"phi key {key!r} out of range")
        spec.phi[i] = str(val)
    if "mu" in data:
        if not isinstance(data["mu"], list):
            raise InputError("mu must be a list of scalar strings")
        spec.mu = [str(x) for x in data["mu"]]
    for name in ("trunc", "bound"):
        if name in data:
            if type(data[name]) is not int or data[name] < 1:
                raise InputError(f"{name} must be a positive integer")
            setattr(spec, name, data[name])
    for name in ("alpha", "beta"):
        if name in data:
            setattr(spec, name, _int_vector(data[name], l, name))
    return spec


def _parsed(text: str):
    """A seed's scalar; only malformed text is an input error."""
    try:
        return parse_scalar(text)
    except ConductorOverflow:
        raise
    except ScalarError as exc:
        raise InputError(str(exc)) from exc


def build_twist(spec: JobSpec) -> TwistData:
    """The spec's twist; a seeded pair whose epsilon does not realize
    the commutator map, eps(e_i, e_j) / eps(e_j, e_i) != C(e_i, e_j),
    is an input error."""
    lat = TwistedLattice(spec.gram, spec.sigma)
    eps_seed = build_epsilon(lat) if spec.eps else None
    for (i, j), text in spec.eps.items():
        eps_seed[(i, j)] = _parsed(text)
    phi_seed = {i: _parsed(text) for i, text in spec.phi.items()}
    T = TwistData(lat, eps_seed=eps_seed, phi_seed=phi_seed)
    basis = [tuple(1 if k == i else 0 for k in range(lat.rank))
             for i in range(lat.rank)]
    for i, j in sorted(spec.eps):
        a, b = basis[i], basis[j]
        if T.epsilon(a, b) / T.epsilon(b, a) != T.commutator(a, b):
            raise InputError(
                f"eps seed {i},{j} contradicts the commutator map: "
                f"eps(e{i}, e{j}) / eps(e{j}, e{i}) != C(e{i}, e{j})")
    return T


def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------

def cmd_check(spec: JobSpec, deep: bool = False):
    """Run the invariant suite at the spec's truncation.  Returns
    (lines, exit_code); 'untestable' entries are listed but non-fatal."""
    T = build_twist(spec)
    lat = T.lattice
    l, p = lat.rank, lat.p
    lines = [f"check: rank {l}, order {p}, trunc {spec.trunc}"]
    statuses = []
    # an oversized module is refused here, before any check runs
    M = FockModule(T, RegularOmega(T, spec.bound), spec.trunc)

    def emit(tag, instance, status):
        statuses.append(status)
        lines.append(f"{tag} | {instance} | {status}")

    # kernel route: the delta kernel against its defining sum
    for n in range(-2, 2):
        ok = kernel_delta_check(p, n, max(2, n + 2))
        emit("fl:F", f"delta kernel p={p} n={n}", "pass" if ok else "fail")

    # probe from the center of the vacuum window: edge probes leave the
    # truncation box under e-shifts and test nothing
    center = M.omega.lookup.get((0,) * l, 0)
    probes = [M.vacuum(center)]
    if M.omega.size > 1:
        probes.append(M.vacuum(center - 1 if center else 1))
    slots = [Fraction(k, p) for k in range(-p, p + 1)]
    prod_slots = [Fraction(k, p) for k in range(0, p + 1)]
    basis = [tuple(1 if k == i else 0 for k in range(l)) for i in range(l)]

    for rep in e_group_checks(M, [(a, b) for a in basis for b in basis],
                              probes):
        name, st1, st2 = rep
        emit("fl:eps", name, st1)
        emit("fl:comm", name, st2)

    for name, st in virasoro_element_checks(M, basis, slots, probes):
        emit("fl:Dvir", name, st)

    for name, st in heisenberg_commutation_check(
            M, basis, basis, [0, 1, Fraction(1, p)], probes):
        emit("fl:aff", name, st)

    for alpha in basis:
        for beta in basis:
            n0 = -lat.pairing(alpha, beta) - 1
            for n in (n0, n0 + 1):
                res = product_check(M, alpha, beta, n, prod_slots, probes)
                emit("fl:voprod", f"X{_vec(alpha)}[{n}]X{_vec(beta)}",
                     res["expand_vs_closed"])
                emit("fl:lprod", f"X{_vec(alpha)}[{n}]X{_vec(beta)}",
                     res["expand_vs_kernel"])

    if deep:
        # a Heisenberg field is local of order 2 with itself
        for alpha in basis:
            a = M.tilde(alpha)
            for n in (-1, 0, 1):
                main = nth_product(a, a, n, 2)
                orc = oracle_product(a, a, n, 2)
                emit("fl:affprod", f"h{_vec(alpha)}[{n}]h{_vec(alpha)} oracle",
                     compare_status(series_compare(main, orc, slots, probes)))

    worst = worst_status(statuses)
    lines.append(f"result: {worst}")
    return lines, EXIT_OK if worst != "fail" else EXIT_INVARIANT


def cmd_classify(spec: JobSpec):
    """Emit the classification table from the enumerator."""
    T = build_twist(spec)
    lat = T.lattice
    res = enumerate_simple_twisted(T)
    lines = [f"classify: rank {lat.rank}, order {res.order}, "
             f"orbit lengths {list(res.orbit_lengths)}"]
    if res.obstructed:
        lines.append(f"obstructed: witness {res.witness}")
        lines.append("0 classes")
        return lines, EXIT_OK
    lines.append(f"eta cosets: {res.eta_count}")
    entries = res.entries
    if spec.mu is not None:
        wanted = tuple(RootPair.of(_parsed(t)) for t in spec.mu)
        entries = [e for e in entries if e.mu_choice == wanted]
        if not entries:
            raise InputError("mu selection matches no root choice")
    for entry in entries:
        mu = ",".join(str(m) for m in entry.mu_choice)
        if not entry.admissible:
            lines.append(f"mu ({mu}) | inadmissible | {entry.detail}")
            continue
        dims = ",".join(str(d) for d in entry.block_dims)
        lines.append(
            f"mu ({mu}) | dim B0 {entry.dim_B0} | blocks [{dims}] | "
            f"classes {len(entry.classes)}")
        for cls in entry.classes:
            lines.append(
                f"  class | ideal {cls.ideal_index} | "
                f"eta {_vec(cls.eta)} | dim {cls.dimension}")
    lines.append(f"{sum(len(e.classes) for e in entries)} classes")
    return lines, EXIT_OK


def _refuse_unprintable_kappa(lat: TwistedLattice, a, b):
    """Refuse a kappa(a, b) whose integers may not print.  kappa =
    eps p^-(a|b) prod_(s=1..p-1) (1 - omega^s)^(m_s), with eps a root
    of unity, (a|b) = m_0 and 1/(1 - zeta) = -(1/d) sum_(j<d) j zeta^j
    for zeta of order d | p.  So each unit of w = sum_s |m_s| multiplies
    the denominator by at most p and the coefficient sum of the
    numerator by at most c = max(p, p(p-1)/2): no integer of kappa has
    more than w log10(c) digits, plus KAPPA_SLACK_DIGITS for its
    reduction to canonical coordinates.  The limit is the one str()
    applies to an int, sys.get_int_max_str_digits(), or Python's
    default where that is 0 (no limit)."""
    p = lat.p
    if p == 1:
        # kappa = eps(a, b), a root of unity
        return
    w = sum(map(abs, lat.m_values(a, b)))
    limit = sys.get_int_max_str_digits() or \
        sys.int_info.default_max_str_digits
    room = (limit - KAPPA_SLACK_DIGITS) / math.log10(max(p, p * (p - 1) // 2))
    if w > room:
        raise SizeCapExceeded(
            f"kappa(alpha,beta) with sum_s |m_s| = {w} may have integers "
            f"of more than {limit} digits, the print limit; the sum may be "
            f"at most {math.floor(room)}")


def cmd_kappa(spec: JobSpec):
    """Print the exact commutation constant, pairing cocycle, and
    locality order for the spec's vectors alpha, beta; a kappa whose
    integers may not print is refused first."""
    T = build_twist(spec)
    if spec.alpha is None or spec.beta is None:
        raise InputError("the kappa command requires alpha and beta vectors")
    a, b = tuple(spec.alpha), tuple(spec.beta)
    _refuse_unprintable_kappa(T.lattice, a, b)
    lines = [
        f"alpha {_vec(a)} beta {_vec(b)}",
        f"fl:comm | C(alpha,beta) = {T.commutator(a, b)}",
        f"fl:kappa | kappa(alpha,beta) = {T.kappa(a, b)}",
        f"fl:locality | N(alpha,beta) = {locality_order(T.lattice, a, b)}",
    ]
    return lines, EXIT_OK


def cmd_orbits(spec: JobSpec):
    """Print the reduced generating set and its degree data."""
    T = build_twist(spec)
    lat = T.lattice
    dec = lat.reduce_generating_set()
    lines = [f"orbits: {len(dec.orbits)} (nonzero degree: {dec.m})"]
    for j, orb in enumerate(dec.orbits):
        deg = tuple(Fraction(x, lat.p) for x in lat.nu_p(orb[0]))
        kind = "graded" if j < dec.m else "degree-zero"
        lines.append(
            f"orbit {j} | rep {_vec(orb[0])} | length {dec.lengths[j]} | "
            f"{kind} | degree {_vec(deg)}")
    return lines, EXIT_OK


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

def _out_problem(path: str):
    """Why a report cannot be written to path, or None: it names a
    directory, or its parent directory does not exist."""
    if os.path.isdir(path):
        return f"--out {path!r} is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"--out {path!r}: no such directory {parent!r}"
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for
    the life of the process: a program that calls main many times
    in one process builds it once."""
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact checks and classification for twisted lattice "
                    "module data.")
    parser.add_argument("--spec", required=True, help="job spec JSON file")
    parser.add_argument("--cmd", required=True,
                        choices=["check", "classify", "kappa", "orbits"])
    parser.add_argument("--trunc", type=int, default=None,
                        help="override the spec's truncation")
    parser.add_argument("--out", default=None,
                        help="report file (default: stdout)")
    parser.add_argument("--deep", action="store_true",
                        help="also run the slow oracle cross-checks")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # refuse an --out that cannot be opened before any work is done;
    # the write below still catches what this cannot foresee
    if args.out:
        problem = _out_problem(args.out)
        if problem:
            print(f"input error: {problem}", file=sys.stderr)
            return EXIT_INPUT

    try:
        spec = parse_job(text)
        if args.trunc is not None:
            if args.trunc < 1:
                raise InputError("trunc must be a positive integer")
            spec.trunc = args.trunc
        if args.cmd == "check":
            lines, code = cmd_check(spec, deep=args.deep)
        elif args.cmd == "classify":
            lines, code = cmd_classify(spec)
        elif args.cmd == "kappa":
            lines, code = cmd_kappa(spec)
        else:
            lines, code = cmd_orbits(spec)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ScalarError, UnsupportedScalar) as exc:
        print(f"unsupported scalar: {exc}", file=sys.stderr)
        return EXIT_SCALAR
    except SizeCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_SCALAR
    except ClassifyError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (LatticeError, CocycleError, FockError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
