"""Seeded random inputs against the library's contracts.

The twist draws include sigma outside the signed permutations (written
in a random unimodular basis), and the obstruction verdict is compared
with perfbench/intmath's independent witness search.  The CLI fuzz runs
all four commands in process on random specs, good and bad, and checks
the documented exit codes and output shape."""
import json
import random

import pytest

from twistlab.cli import main
from twistlab.cocycle import TwistData

from test_golden import W
from test_lattice import random_twisted_lattice

DRAW_KINDS = {"permutation": {}, "odd": {"odd": True},
              "conjugated": {"conjugate": True},
              "odd conjugated": {"odd": True, "conjugate": True}}


def _witness(gram, sigma):
    return W.intmath.obstruction_witness([list(r) for r in gram],
                                         [list(r) for r in sigma])


def _run(tmp_path, capsys, spec, cmd):
    """cli.main on the spec: (exit code, stdout, stderr)."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    code = main(["--spec", str(path), "--cmd", cmd])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("kind", DRAW_KINDS)
def test_obstruction_agrees_with_intmath_and_check_passes(kind, tmp_path,
                                                          capsys):
    # obstruction_check() against the witness search on 150 draws of
    # rank at most 4, then on 40 of rank at most 2, where check at
    # trunc 1 exits 0 on every unobstructed draw
    rng = random.Random(4201)
    outside = 0
    for rank_max, n in ((4, 150), (2, 40)):
        for _ in range(n):
            lat = random_twisted_lattice(rng, rank_max=rank_max,
                                         **DRAW_KINDS[kind])
            outside += any(sum(map(bool, row)) != 1 for row in lat.sigma)
            obstructed, _w = TwistData(lat).obstruction_check()
            assert obstructed == \
                (_witness(lat.gram, lat.sigma) is not None), \
                (lat.gram, lat.sigma)
            if obstructed or rank_max == 4:
                continue
            spec = {"gram": [list(r) for r in lat.gram],
                    "sigma": [list(r) for r in lat.sigma], "trunc": 1}
            code, out, err = _run(tmp_path, capsys, spec, "check")
            assert (code, err) == (0, ""), (spec, out)
    # only a conjugated draw takes sigma outside the signed permutations
    assert (outside > 0) == ("conjugated" in kind)


# seed scalars, well formed and not: blank, zero denominators, bad
# terms, a root order of zero, and one above the conductor cap
SCALARS = ["1", "-1", "z(4)^1", "1/2", "-z(3)^2", "", " ", "3/0",
           "1/0*z(4)^1", "x", "1+", "z(0)^1", "z(1000)^1", "2*z(6)^5"]
BAD_INTS = [0, -1, "x", True, 1.5, None, [1]]


def _fuzz_lattice(rng):
    """(gram, sigma) of one of six families: even, odd and conjugated
    draws, an indefinite and a degenerate sum with a rank-one lattice,
    and a sigma that need not preserve the form."""
    family = rng.randrange(6)
    if family < 3:
        kw = ({}, {"odd": True}, {"conjugate": True})[family]
        lat = random_twisted_lattice(rng, rank_max=4, **kw)
        return [list(r) for r in lat.gram], [list(r) for r in lat.sigma]
    if family < 5:
        lat = random_twisted_lattice(rng, rank_max=3)
        gram = [list(r) + [0] for r in lat.gram]
        sigma = [list(r) + [0] for r in lat.sigma]
        last = [0] * lat.rank
        gram.append(last + [-2 * rng.randint(1, 2) if family == 3 else 0])
        sigma.append(last + [rng.choice([1, -1])])
        return gram, sigma
    l = rng.randint(1, 3)
    gram = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(i, l):
            gram[i][j] = gram[j][i] = rng.randint(-3, 3)
    sigma = [[rng.randint(-1, 1) for _ in range(l)] for _ in range(l)]
    return gram, sigma


def _fuzz_spec(rng):
    gram, sigma = _fuzz_lattice(rng)
    l = len(gram)
    spec = {"gram": gram, "sigma": sigma, "trunc": 1, "bound": 1}
    if rng.random() < 0.3:
        spec["phi"] = {str(rng.randrange(l + 1)): rng.choice(SCALARS)}
    if rng.random() < 0.1:
        key = rng.choice([f"{rng.randrange(l)},{rng.randrange(l)}", "0,9",
                          "a,b"])
        spec["eps"] = {key: rng.choice(SCALARS)}
    if rng.random() < 0.1:
        spec["mu"] = [rng.choice(SCALARS) for _ in range(rng.randint(0, 2))]
    for name in ("trunc", "bound"):
        if rng.random() < 0.08:
            spec[name] = rng.choice(BAD_INTS + [10 ** 9])
    for name in ("alpha", "beta"):
        r = rng.random()
        if r < 0.5:
            spec[name] = [rng.randint(-2, 2) for _ in range(l)]
        elif r < 0.55:
            spec[name] = rng.choice([[1] * (l + 1), ["1"] * l, [True] * l])
    return spec


def test_cli_input_contract_fuzz(tmp_path, capsys):
    # 300 seeded specs, each on one of the four commands, in process: no
    # exception escapes, the exit code is documented, a refusal or an
    # input error is one line on standard error and nothing on standard
    # output, and check fails (exit 1) only where the witness search
    # finds an obstruction (the known fault family of OBSTRUCTED_CHECK_
    # FAULTS in test_cli.py); about 2 s on a 2-core machine
    rng = random.Random(4202)
    codes = []
    for _ in range(300):
        spec = _fuzz_spec(rng)
        cmd = rng.choice(["check", "classify", "kappa", "orbits"])
        try:
            code, out, err = _run(tmp_path, capsys, spec, cmd)
        except Exception as exc:  # reported with the spec that raised it
            pytest.fail(f"{cmd} {json.dumps(spec)} raised {exc!r}")
        assert code in (0, 1, 2, 3), (cmd, spec)
        if code in (2, 3):
            assert out == "" and err.count("\n") == 1 and \
                err.endswith("\n"), (cmd, spec, err)
        if cmd == "check" and code == 1:
            assert _witness(spec["gram"], spec["sigma"]) is not None, spec
        codes.append(code)
    # the draws reach a pass, an input error and a refusal
    assert {0, 2, 3} <= set(codes)
