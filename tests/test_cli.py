import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistlab
from twistlab import _kept, classify, cli, fock
from twistlab.classify import ClassifyError
from twistlab.scalar import RootPair
from twistlab.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCALAR,
    InputError,
    JobSpec,
    main,
    parse_job,
)

EX0 = {"gram": [[2]], "sigma": [[1]], "trunc": 3, "bound": 1}
EX1 = {"gram": [[2]], "sigma": [[-1]], "trunc": 3, "bound": 1,
       "alpha": [1], "beta": [1]}
EX1_L2 = {"gram": [[2, 0], [0, 4]], "sigma": [[-1, 0], [0, -1]]}
EX2 = {"gram": [[2, 0], [0, 2]], "sigma": [[0, -1], [1, 0]]}
OBSTRUCTED = {"gram": [[2, 1], [1, 2]], "sigma": [[0, 1], [1, 0]]}


def write_spec(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, data, cmd, *extra, name="job.json"):
    return main(["--spec", write_spec(tmp_path, data, name), "--cmd", cmd,
                 *extra])


def test_parse_serialize_round_trip():
    text = json.dumps({
        "gram": [[2, 0], [0, 2]], "sigma": [[0, -1], [1, 0]],
        "eps": {"1,0": "-1"}, "phi": {"0": "1"}, "mu": ["1"],
        "trunc": 5, "bound": 2, "alpha": [1, 0], "beta": [0, 1],
    })
    spec = parse_job(text)
    assert spec == JobSpec(
        [[2, 0], [0, 2]], [[0, -1], [1, 0]], eps={(1, 0): "-1"},
        phi={0: "1"}, mu=["1"], trunc=5, bound=2, alpha=[1, 0],
        beta=[0, 1])


def test_parse_errors(tmp_path, capsys):
    # a blank seed scalar or one with a zero denominator is read only
    # when the command builds its twist: an input error, on one line
    for cmd, seeds, match in (
            ("orbits", {"phi": {"0": "3/0"}}, "zero denominator"),
            ("check", {"phi": {"0": "1/0*z(4)^1"}}, "zero denominator"),
            ("check", {"eps": {"0,0": "0/0"}}, "zero denominator"),
            ("classify", {"mu": [""]}, "malformed scalar"),
            ("kappa", {"phi": {"0": "  "}}, "malformed scalar")):
        data = {"gram": [[2]], "sigma": [[1]], **seeds}
        assert run(tmp_path, data, cmd) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"input error: {match}[^\n]*\n", err)
    with pytest.raises(InputError, match="line"):
        parse_job("{not json")
    with pytest.raises(InputError, match="gram"):
        parse_job(json.dumps({"sigma": [[1]]}))
    with pytest.raises(InputError, match="unknown field"):
        parse_job(json.dumps({"gram": [[2]], "sigma": [[1]], "x": 1}))
    with pytest.raises(InputError, match="square"):
        parse_job(json.dumps({"gram": [[2, 1]], "sigma": [[1]]}))
    with pytest.raises(InputError, match="eps key"):
        parse_job(json.dumps({"gram": [[2]], "sigma": [[1]],
                              "eps": {"0,5": "1"}}))
    with pytest.raises(InputError, match="alpha"):
        parse_job(json.dumps({"gram": [[2]], "sigma": [[1]],
                              "alpha": [1, 2]}))
    # JSON booleans are not integers, though Python's bool is an int
    for field, val, match in (("gram", [[True]], "gram"),
                              ("sigma", [[True]], "sigma"),
                              ("trunc", True, "trunc"),
                              ("bound", False, "bound"),
                              ("alpha", [True], "alpha"),
                              ("beta", [False], "beta")):
        data = {"gram": [[2]], "sigma": [[1]], field: val}
        with pytest.raises(InputError, match=match):
            parse_job(json.dumps(data))


def test_classify_rotation(tmp_path, capsys):
    assert run(tmp_path, EX2, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert "2 classes" in out
    assert "inadmissible" in out


def test_classify_negation_dim(tmp_path, capsys):
    assert run(tmp_path, EX1_L2, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert "dim B0 4" in out


def test_classify_obstructed(tmp_path, capsys):
    assert run(tmp_path, OBSTRUCTED, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert "obstructed" in out and "witness" in out
    assert "0 classes" in out


def test_classify_mu_filter(tmp_path, capsys):
    spec = dict(EX2)
    spec["mu"] = ["1"]
    assert run(tmp_path, spec, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert "2 classes" in out
    assert "inadmissible" not in out
    # a root choice is matched by its value, whatever its notation:
    # z(8)^2 selects the entry printed as z(4)^1
    spec["mu"] = ["z(8)^2"]
    assert run(tmp_path, spec, "classify") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("mu ")] == [
        "mu (z(4)^1) | inadmissible | "
        "('inconsistent relation scalars', [1, -1, 1])"]
    assert lines[-1] == "0 classes"
    # a selection matching no root choice is an input error
    spec["mu"] = ["2"]
    assert run(tmp_path, spec, "classify") == EXIT_INPUT


def test_classify_deterministic(tmp_path):
    path = write_spec(tmp_path, EX2)
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["--spec", path, "--cmd", "classify",
                 "--out", str(out1)]) == EXIT_OK
    assert main(["--spec", path, "--cmd", "classify",
                 "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_partial_phi_seed(tmp_path, capsys):
    # a phi seed left out takes its default, so giving it explicitly
    # prints the same report
    partial = dict(EX2, phi={"0": "z(4)^1"})
    full = dict(EX2, phi={"0": "z(4)^1", "1": "1"})
    assert run(tmp_path, partial, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert run(tmp_path, full, "classify") == EXIT_OK
    assert capsys.readouterr().out == out
    assert out.endswith("2 classes\n")


def test_kappa_output(tmp_path, capsys):
    assert run(tmp_path, EX1, "kappa") == EXIT_OK
    out = capsys.readouterr().out
    assert "fl:comm | C(alpha,beta) = 1" in out
    assert "fl:kappa | kappa(alpha,beta) = 1/16" in out
    assert "fl:locality | N(alpha,beta) = 2" in out


def test_kappa_untwisted_is_epsilon(tmp_path, capsys):
    spec = dict(EX0)
    spec["alpha"], spec["beta"] = [1], [1]
    assert run(tmp_path, spec, "kappa") == EXIT_OK
    out = capsys.readouterr().out
    # p = 1: kappa reduces to the 2-cocycle value; all m_s >= 0 gives N = 0
    assert "kappa(alpha,beta) = 1" in out
    assert "N(alpha,beta) = 0" in out


def test_kappa_refused_past_the_digit_limit(tmp_path, capsys,
                                            default_digit_limit):
    # on [2] with sigma = -1, alpha = beta = (n): (a|b) = 2n^2 = -m_1,
    # so kappa = 2^-(4n^2) and sum_s |m_s| = 4n^2.  Under the limit of
    # 4300 digits the bound on that sum is 14071 for p = 2: n = 59
    # (13924, a denominator of 4192 digits) prints, n = 60 (14400, 4335
    # digits) is refused before kappa is computed
    def spec(n):
        return {"gram": [[2]], "sigma": [[-1]], "alpha": [n], "beta": [n]}

    assert run(tmp_path, spec(59), "kappa") == EXIT_OK
    assert f"fl:kappa | kappa(alpha,beta) = 1/{2 ** 13924}\n" \
        in capsys.readouterr().out
    assert run(tmp_path, spec(60), "kappa") == EXIT_SCALAR
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(
        "refused: kappa(alpha,beta) with sum_s |m_s| = 14400 ")


def test_kappa_requires_vectors(tmp_path):
    assert run(tmp_path, EX2, "kappa") == EXIT_INPUT


def test_orbits_output(tmp_path, capsys):
    assert run(tmp_path, EX2, "orbits") == EXIT_OK
    out = capsys.readouterr().out
    assert "length 4" in out


def test_bad_inputs_exit_2(tmp_path, capsys):
    bad = {"gram": [[2]], "sigma": [[2]]}
    assert run(tmp_path, bad, "orbits") == EXIT_INPUT
    assert main(["--spec", str(tmp_path / "nope.json"),
                 "--cmd", "orbits"]) == EXIT_INPUT
    path = tmp_path / "syntax.json"
    path.write_text("{")
    assert main(["--spec", str(path), "--cmd", "orbits"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line" in err
    # a spec file that is not UTF-8 text
    assert main(["--spec", _non_utf8_spec(tmp_path),
                 "--cmd", "orbits"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
    # an --out that cannot be written: a missing directory, a directory
    good = write_spec(tmp_path, EX2)
    for out in (tmp_path / "nope" / "x.txt", tmp_path):
        assert main(["--spec", good, "--cmd", "orbits",
                     "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


@pytest.fixture
def default_digit_limit():
    """Python's default limit on the digits of an int that str() and
    int() convert, 4300, whatever the environment set; restored
    afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text, message", [
    ("[" * 100000, "maximum recursion depth exceeded"),
    ('{"gram": [[' + "9" * 5000 + ']], "sigma": [[1]]}',
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["nested", "digits"])
@pytest.mark.parametrize("cmd", ["check", "classify", "kappa", "orbits"])
def test_spec_json_cannot_load_exit_2(tmp_path, capsys, default_digit_limit,
                                      text, message, cmd):
    # json.loads refuses these without a JSONDecodeError: nesting past
    # the recursion limit, and an integer past the digit limit
    path = tmp_path / "job.json"
    path.write_text(text)
    assert main(["--spec", str(path), "--cmd", cmd]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"input error: {message}")


def _ci_refusals():
    """The "CLI refusals" step of the tier-1 workflow: (expected exit
    code, command, spec text), with @nested.json and @digits.json made
    as the step makes them."""
    path = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    made = {"@nested.json": "[" * 100000,
            "@digits.json": '{"gram": [[' + "9" * 5000 + ']], "sigma": [[1]]}'}
    jobs = re.findall(r"^ +'([023]) (\w+) (.*)'(?: \\|; do)$",
                      path.read_text(), re.M)
    return [(int(code), cmd, made.get(spec, spec)) for code, cmd, spec in jobs]


def test_ci_refusals_after_valid_specs_in_one_process(tmp_path, capsys,
                                                      default_digit_limit):
    # each refusal of the workflow's step, run in process on an empty
    # memo and again after valid specs on the same lattices have kept
    # their tables: the same exit code and the same one stderr line,
    # and nothing on stdout
    jobs = _ci_refusals()
    assert len(jobs) == 15
    valid = {json.dumps({"gram": json.loads(text)["gram"],
                         "sigma": json.loads(text)["sigma"]})
             for _code, _cmd, text in jobs
             if text.startswith("{") and "9999" not in text}
    lines = []
    for k, (code, cmd, text) in enumerate(jobs):
        path = tmp_path / f"refusal{k}.json"
        path.write_text(text)
        assert main(["--spec", str(path), "--cmd", cmd]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        lines.append(captured.err)
    classify.clear_enumeration_memo()
    kept = 0
    for k, text in enumerate(sorted(valid)):
        path = tmp_path / f"valid{k}.json"
        path.write_text(text)
        if main(["--spec", str(path), "--cmd", "classify"]) == EXIT_OK:
            kept += 1
    capsys.readouterr()
    # [[2]] with sigma = 1 and -1, 2 I_2 with 1 and A_2 with -1 are
    # classified; [[1000000]] has too many eta cosets, [[2.5]] and
    # [[1.0]] are not integer matrices, and [[3, 4], [2, 3]] has
    # infinite order
    assert (len(valid), kept) == (8, 4)
    assert classify.enumeration_memo_counts()["twists"] == kept
    for k, (code, cmd, text) in enumerate(jobs):
        path = tmp_path / f"refusal{k}.json"
        assert main(["--spec", str(path), "--cmd", cmd]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == lines[k]
    assert classify.enumeration_memo_counts()["twist_hits"] >= 8


# parse_job's refusals of a spec's shape, and main's of a report it
# cannot write: (spec text, --out, the one stderr line after the tag)
SHAPE_REFUSALS = {
    "gram-rows": ('{"gram": [2], "sigma": [[1]]}', None,
                  "gram must be a non-empty list of rows"),
    "not-object": ("[1]", None, "job spec must be a JSON object"),
    "eps-type": ('{"gram": [[2]], "sigma": [[1]], "eps": [1]}', None,
                 "eps must be an object keyed by 'i,j'"),
    "eps-key": ('{"gram": [[2]], "sigma": [[1]], "eps": {"x": "1"}}', None,
                "bad eps key 'x'"),
    "phi-type": ('{"gram": [[2]], "sigma": [[1]], "phi": [1]}', None,
                 "phi must be an object keyed by basis index"),
    "phi-key": ('{"gram": [[2]], "sigma": [[1]], "phi": {"x": "1"}}', None,
                "bad phi key 'x'"),
    "phi-range": ('{"gram": [[2]], "sigma": [[1]], "phi": {"3": "1"}}',
                  None, "phi key '3' out of range"),
    "mu-type": ('{"gram": [[2]], "sigma": [[1]], "mu": "1"}', None,
                "mu must be a list of scalar strings"),
    "out-full": ('{"gram": [[2]], "sigma": [[1]]}', "/dev/full",
                 "[Errno 28] No space left on device"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_REFUSALS))
def test_spec_shape_and_report_write_refusals_exit_2(tmp_path, capsys, name):
    text, out, message = SHAPE_REFUSALS[name]
    if out is not None and not os.path.exists(out):
        pytest.skip(f"{out} does not exist here")
    path = tmp_path / "job.json"
    path.write_text(text)
    args = ["--spec", str(path), "--cmd", "orbits"]
    assert main(args + (["--out", out] if out else [])) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"input error: {message}"]


def test_unwritable_out_refused_before_the_command(tmp_path, capsys,
                                                   monkeypatch):
    # a missing parent directory or a directory as --out ends the run
    # before cmd_check is reached, and leaves no file behind
    def never(*_args, **_kwargs):
        raise AssertionError("cmd_check ran")

    monkeypatch.setattr(cli, "cmd_check", never)
    good = write_spec(tmp_path, EX0)
    before = sorted(os.listdir(tmp_path))
    for out in (tmp_path / "nope" / "x.txt", tmp_path):
        assert main(["--spec", good, "--cmd", "check",
                     "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before
    assert not (tmp_path / "nope").exists()


def _non_utf8_spec(tmp_path):
    """A spec file opening with the UTF-16 byte-order mark ff fe."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(EX2).encode("utf-16-le"))
    return str(path)


def test_conductor_cap_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(twistlab.scalar, "CONDUCTOR_CAP", 2)
    assert run(tmp_path, EX2, "classify") == EXIT_SCALAR


SWAP_2 = {"gram": [[2, 0], [0, 2]], "sigma": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("lattice, phi, message", [
    # the swap's orbit product needs a square root of the seed 2
    (SWAP_2, "2", "2 has no exact integer 2-th root"),
    # a seed of 401 digits: its square root is exact, and it is refused
    # as no root of unity, not as a float overflow
    (SWAP_2, "1" + "0" * 400, "is not a root of unity"),
    # sigma = -1 on [2]: the degree-zero generator's normalizing root,
    # which the lift of the bicharacter radical takes, is sqrt(2)
    ({"gram": [[2]], "sigma": [[-1]]}, "2",
     "unsupported scalar: group scalar 2 has no canonical 2-th root"),
], ids=["inexact-root", "huge-seed", "degree-zero-root"])
def test_unsupported_phi_seed_exit_3(tmp_path, capsys, lattice, phi, message):
    spec = dict(lattice, phi={"0": phi})
    assert run(tmp_path, spec, "classify") == EXIT_SCALAR
    err = capsys.readouterr()
    assert err.out == ""
    lines = err.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("unsupported scalar: ")
    assert message in lines[0]


# a well-formed root of unity above the conductor cap, in each seed a
# spec may hold, is refused as an unsupported scalar (exit 3), like any
# other conductor overflow; malformed text in the same seed stays an
# input error (exit 2); only classify reads mu
@pytest.mark.parametrize("seed, cmd", [
    ({"phi": {"0": "z(1000)^1"}}, "check"),
    ({"eps": {"1,0": "z(1000)^1"}}, "check"),
    ({"mu": ["z(1000)^1"]}, "classify"),
], ids=["phi", "eps", "mu"])
def test_seed_above_the_conductor_cap_exit_3(tmp_path, capsys, seed, cmd):
    assert run(tmp_path, dict(EX1_L2, **seed), cmd) == EXIT_SCALAR
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "unsupported scalar: conductor 1000 exceeds cap 720"]
    malformed = json.loads(json.dumps(seed).replace("z(1000)^1", "abc"))
    assert run(tmp_path, dict(EX1_L2, **malformed), cmd) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        "input error: malformed scalar term: 'abc'"]


def test_check_untwisted(tmp_path, capsys):
    assert run(tmp_path, EX0, "check") == EXIT_OK
    out = capsys.readouterr().out
    assert "fl:F" in out and "fl:comm" in out and "fl:voprod" in out
    assert "result:" in out
    assert "fail" not in out


def test_check_deep_oracle(tmp_path, capsys):
    # h[n]h against the residue oracle at the Heisenberg locality order 2
    spec = {"gram": [[2]], "sigma": [[1]], "trunc": 2, "bound": 1}
    assert run(tmp_path, spec, "check", "--deep") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    deep = [ln for ln in lines if ln.startswith("fl:affprod")]
    assert len(deep) == 3
    assert not any(ln.endswith("| fail") or ln == "result: fail"
                   for ln in lines)


# two cheap specs, bound 1, with their verdict counts: a change to the
# Fock or series layers that flips a verdict shows up here
NEG2 = {"gram": [[2]], "sigma": [[-1]], "trunc": 2, "bound": 1}
SWAP1 = {"gram": [[2, 0], [0, 2]], "sigma": [[0, 1], [1, 0]],
         "trunc": 1, "bound": 1}
# order 3 and order 4: vertex exponents with denominator 2p > 4
A2_ROT3 = {"gram": [[2, -1], [-1, 2]], "sigma": [[0, -1], [1, -1]],
           "trunc": 1, "bound": 1}
I2_ROT4 = {"gram": [[2, 0], [0, 2]], "sigma": [[0, -1], [1, 0]],
           "trunc": 1, "bound": 1}
STATUSES = ("pass", "untestable", "fail")


@pytest.fixture(scope="module")
def check_texts(tmp_path_factory):
    """The check reports of NEG2, SWAP1, A2_ROT3 and I2_ROT4, each run
    once."""
    tmp = tmp_path_factory.mktemp("check")
    out = {}
    for name, spec in (("NEG2", NEG2), ("SWAP1", SWAP1),
                       ("A2_ROT3", A2_ROT3), ("I2_ROT4", I2_ROT4)):
        report = tmp / f"{name}.txt"
        path = write_spec(tmp, spec, f"{name}.json")
        assert main(["--spec", path, "--cmd", "check",
                     "--out", str(report)]) == EXIT_OK
        out[name] = report.read_text()
    return out


@pytest.fixture(scope="module")
def check_reports(check_texts):
    """The check report lines of the specs of check_texts."""
    return {name: text.splitlines() for name, text in check_texts.items()}


def _body(lines):
    return [ln for ln in lines
            if not ln.startswith(("check:", "result:"))]


@pytest.mark.parametrize("name, passes, untestable",
                         [("NEG2", 9, 12), ("SWAP1", 31, 20)])
def test_check_verdict_counts(check_reports, name, passes, untestable):
    statuses = [ln.rsplit(" | ", 1)[-1] for ln in _body(check_reports[name])]
    assert statuses.count("pass") == passes
    assert statuses.count("untestable") == untestable
    assert "fail" not in statuses
    assert check_reports[name][-1] == "result: untestable"


@pytest.mark.parametrize("name", ["NEG2", "SWAP1"])
def test_check_report_separator(check_reports, name):
    # fields are split on space-pipe-space; an instance may hold a bare
    # pipe, as in ups[1]X(1,) = ((a|a)/2)X
    lines = check_reports[name]
    assert lines[0].startswith("check:")
    for ln in _body(lines):
        fields = ln.split(" | ")
        assert len(fields) == 3, ln
        assert fields[2] in STATUSES, ln
    assert any("|" in ln.split(" | ")[1] for ln in _body(lines))


# the full check reports of NEG2 and SWAP1, taken from the version that
# summed every term of a poisoned Fock sum: stopping at the first
# poisoned term must leave each untestable line as it was; those of
# A2_ROT3 and I2_ROT4 were taken from the version that kept every series
# slot as a Fraction, before slots moved to an integer grid
PINNED_CHECK_REPORTS = {
    "NEG2": (
        "check: rank 1, order 2, trunc 2\n"
        "fl:F | delta kernel p=2 n=-2 | pass\n"
        "fl:F | delta kernel p=2 n=-1 | pass\n"
        "fl:F | delta kernel p=2 n=0 | pass\n"
        "fl:F | delta kernel p=2 n=1 | pass\n"
        "fl:eps | e(1,)e(1,) | untestable\n"
        "fl:comm | e(1,)e(1,) | untestable\n"
        "fl:Dvir | ups[2]ups = 0 | untestable\n"
        "fl:Dvir | ups[3]ups = (rank/2)id | untestable\n"
        "fl:Dvir | ups(0) = D | untestable\n"
        "fl:Dvir | ups(1) = degree | pass\n"
        "fl:Dvir | ups(1) series = degree + anomaly | untestable\n"
        "fl:Dvir | ups[0]X(1,) = DX | untestable\n"
        "fl:Dvir | ups[1]X(1,) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(1,) = 0 | pass\n"
        "fl:aff | [(1,)(0), e(1,)] | pass\n"
        "fl:aff | [(1,)(1), e(1,)] | pass\n"
        "fl:aff | [(1,)(1/2), e(1,)] | pass\n"
        "fl:voprod | X(1)[-3]X(1) | untestable\n"
        "fl:lprod | X(1)[-3]X(1) | untestable\n"
        "fl:voprod | X(1)[-2]X(1) | untestable\n"
        "fl:lprod | X(1)[-2]X(1) | untestable\n"
        "result: untestable\n"
    ),
    "SWAP1": (
        "check: rank 2, order 2, trunc 1\n"
        "fl:F | delta kernel p=2 n=-2 | pass\n"
        "fl:F | delta kernel p=2 n=-1 | pass\n"
        "fl:F | delta kernel p=2 n=0 | pass\n"
        "fl:F | delta kernel p=2 n=1 | pass\n"
        "fl:eps | e(1, 0)e(1, 0) | untestable\n"
        "fl:comm | e(1, 0)e(1, 0) | untestable\n"
        "fl:eps | e(1, 0)e(0, 1) | pass\n"
        "fl:comm | e(1, 0)e(0, 1) | pass\n"
        "fl:eps | e(0, 1)e(1, 0) | pass\n"
        "fl:comm | e(0, 1)e(1, 0) | pass\n"
        "fl:eps | e(0, 1)e(0, 1) | untestable\n"
        "fl:comm | e(0, 1)e(0, 1) | untestable\n"
        "fl:Dvir | ups[2]ups = 0 | untestable\n"
        "fl:Dvir | ups[3]ups = (rank/2)id | untestable\n"
        "fl:Dvir | ups(0) = D | untestable\n"
        "fl:Dvir | ups(1) = degree | pass\n"
        "fl:Dvir | ups(1) series = degree + anomaly | untestable\n"
        "fl:Dvir | ups[0]X(1, 0) = DX | untestable\n"
        "fl:Dvir | ups[1]X(1, 0) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(1, 0) = 0 | pass\n"
        "fl:Dvir | ups[0]X(0, 1) = DX | untestable\n"
        "fl:Dvir | ups[1]X(0, 1) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(0, 1) = 0 | pass\n"
        "fl:aff | [(1, 0)(0), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1/2), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(0), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1/2), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(0), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1/2), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(0), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1/2), e(0, 1)] | pass\n"
        "fl:voprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[-1]X(0,1) | pass\n"
        "fl:lprod | X(1,0)[-1]X(0,1) | pass\n"
        "fl:voprod | X(1,0)[0]X(0,1) | pass\n"
        "fl:lprod | X(1,0)[0]X(0,1) | pass\n"
        "fl:voprod | X(0,1)[-1]X(1,0) | pass\n"
        "fl:lprod | X(0,1)[-1]X(1,0) | pass\n"
        "fl:voprod | X(0,1)[0]X(1,0) | pass\n"
        "fl:lprod | X(0,1)[0]X(1,0) | pass\n"
        "fl:voprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:voprod | X(0,1)[-2]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-2]X(0,1) | untestable\n"
        "result: untestable\n"
    ),
    "A2_ROT3": (
        "check: rank 2, order 3, trunc 1\n"
        "fl:F | delta kernel p=3 n=-2 | pass\n"
        "fl:F | delta kernel p=3 n=-1 | pass\n"
        "fl:F | delta kernel p=3 n=0 | pass\n"
        "fl:F | delta kernel p=3 n=1 | pass\n"
        "fl:eps | e(1, 0)e(1, 0) | untestable\n"
        "fl:comm | e(1, 0)e(1, 0) | untestable\n"
        "fl:eps | e(1, 0)e(0, 1) | pass\n"
        "fl:comm | e(1, 0)e(0, 1) | pass\n"
        "fl:eps | e(0, 1)e(1, 0) | pass\n"
        "fl:comm | e(0, 1)e(1, 0) | pass\n"
        "fl:eps | e(0, 1)e(0, 1) | untestable\n"
        "fl:comm | e(0, 1)e(0, 1) | untestable\n"
        "fl:Dvir | ups[2]ups = 0 | untestable\n"
        "fl:Dvir | ups[3]ups = (rank/2)id | untestable\n"
        "fl:Dvir | ups(0) = D | untestable\n"
        "fl:Dvir | ups(1) = degree | pass\n"
        "fl:Dvir | ups(1) series = degree + anomaly | untestable\n"
        "fl:Dvir | ups[0]X(1, 0) = DX | untestable\n"
        "fl:Dvir | ups[1]X(1, 0) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(1, 0) = 0 | pass\n"
        "fl:Dvir | ups[0]X(0, 1) = DX | untestable\n"
        "fl:Dvir | ups[1]X(0, 1) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(0, 1) = 0 | pass\n"
        "fl:aff | [(1, 0)(0), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1/3), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(0), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1/3), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(0), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1/3), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(0), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1/3), e(0, 1)] | pass\n"
        "fl:voprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[0]X(0,1) | pass\n"
        "fl:lprod | X(1,0)[0]X(0,1) | pass\n"
        "fl:voprod | X(1,0)[1]X(0,1) | pass\n"
        "fl:lprod | X(1,0)[1]X(0,1) | pass\n"
        "fl:voprod | X(0,1)[0]X(1,0) | pass\n"
        "fl:lprod | X(0,1)[0]X(1,0) | pass\n"
        "fl:voprod | X(0,1)[1]X(1,0) | pass\n"
        "fl:lprod | X(0,1)[1]X(1,0) | pass\n"
        "fl:voprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:voprod | X(0,1)[-2]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-2]X(0,1) | untestable\n"
        "result: untestable\n"
    ),
    "I2_ROT4": (
        "check: rank 2, order 4, trunc 1\n"
        "fl:F | delta kernel p=4 n=-2 | pass\n"
        "fl:F | delta kernel p=4 n=-1 | pass\n"
        "fl:F | delta kernel p=4 n=0 | pass\n"
        "fl:F | delta kernel p=4 n=1 | pass\n"
        "fl:eps | e(1, 0)e(1, 0) | untestable\n"
        "fl:comm | e(1, 0)e(1, 0) | untestable\n"
        "fl:eps | e(1, 0)e(0, 1) | pass\n"
        "fl:comm | e(1, 0)e(0, 1) | pass\n"
        "fl:eps | e(0, 1)e(1, 0) | pass\n"
        "fl:comm | e(0, 1)e(1, 0) | pass\n"
        "fl:eps | e(0, 1)e(0, 1) | untestable\n"
        "fl:comm | e(0, 1)e(0, 1) | untestable\n"
        "fl:Dvir | ups[2]ups = 0 | untestable\n"
        "fl:Dvir | ups[3]ups = (rank/2)id | untestable\n"
        "fl:Dvir | ups(0) = D | untestable\n"
        "fl:Dvir | ups(1) = degree | pass\n"
        "fl:Dvir | ups(1) series = degree + anomaly | untestable\n"
        "fl:Dvir | ups[0]X(1, 0) = DX | untestable\n"
        "fl:Dvir | ups[1]X(1, 0) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(1, 0) = 0 | pass\n"
        "fl:Dvir | ups[0]X(0, 1) = DX | untestable\n"
        "fl:Dvir | ups[1]X(0, 1) = ((a|a)/2)X | untestable\n"
        "fl:Dvir | weight X(0, 1) = 0 | pass\n"
        "fl:aff | [(1, 0)(0), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(1/4), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(0), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1), e(1, 0)] | pass\n"
        "fl:aff | [(0, 1)(1/4), e(1, 0)] | pass\n"
        "fl:aff | [(1, 0)(0), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1), e(0, 1)] | pass\n"
        "fl:aff | [(1, 0)(1/4), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(0), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1), e(0, 1)] | pass\n"
        "fl:aff | [(0, 1)(1/4), e(0, 1)] | pass\n"
        "fl:voprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-3]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:lprod | X(1,0)[-2]X(1,0) | untestable\n"
        "fl:voprod | X(1,0)[-1]X(0,1) | untestable\n"
        "fl:lprod | X(1,0)[-1]X(0,1) | untestable\n"
        "fl:voprod | X(1,0)[0]X(0,1) | untestable\n"
        "fl:lprod | X(1,0)[0]X(0,1) | untestable\n"
        "fl:voprod | X(0,1)[-1]X(1,0) | untestable\n"
        "fl:lprod | X(0,1)[-1]X(1,0) | untestable\n"
        "fl:voprod | X(0,1)[0]X(1,0) | untestable\n"
        "fl:lprod | X(0,1)[0]X(1,0) | untestable\n"
        "fl:voprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-3]X(0,1) | untestable\n"
        "fl:voprod | X(0,1)[-2]X(0,1) | untestable\n"
        "fl:lprod | X(0,1)[-2]X(0,1) | untestable\n"
        "result: untestable\n"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK_REPORTS))
def test_check_report_bytes(check_texts, name):
    assert check_texts[name] == PINNED_CHECK_REPORTS[name]


def test_check_invariant_failure(tmp_path, capsys, monkeypatch):
    # a failed line makes the run exit 1, after the whole report; the
    # e-group family reports fail here on a spec that passes it
    def failing(_M, pairs, _probes):
        return [(f"e{a}e{b}", "fail", "pass") for a, b in pairs]

    monkeypatch.setattr(cli, "e_group_checks", failing)
    spec = {"gram": [[2, 1], [1, 2]], "sigma": [[-1, 0], [0, -1]],
            "trunc": 2, "bound": 1}
    assert run(tmp_path, spec, "check") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "fl:eps | e(1, 0)e(0, 1) | fail\n" in captured.out
    assert captured.out.endswith("result: fail\n")
    assert captured.err == ""


# eps seeds that contradict the commutator map, eps(e_i, e_j) /
# eps(e_j, e_i) != C(e_i, e_j): C(e_1, e_0) = -1 on [[2,1],[1,2]] with
# sigma = -1, and 1 on [[2,0],[0,2]], the README's former example
EPS_CONTRADICTIONS = [
    ({"gram": [[2, 1], [1, 2]], "sigma": [[-1, 0], [0, -1]],
      "trunc": 2, "bound": 1, "eps": {"1,0": "1"}, "alpha": [1, 0],
      "beta": [0, 1]}, "1,0"),
    ({"gram": [[2, 0], [0, 2]], "sigma": [[0, -1], [1, 0]],
      "trunc": 4, "bound": 2, "eps": {"1,0": "-1"}, "phi": {"0": "z(4)^1"},
      "mu": ["1"], "alpha": [1, 0], "beta": [0, 1]}, "1,0"),
]


@pytest.mark.parametrize("spec, pair", EPS_CONTRADICTIONS,
                         ids=["A2-negation", "readme-rotation"])
@pytest.mark.parametrize("cmd", ["check", "classify", "kappa", "orbits"])
def test_eps_seed_contradicting_c_exit_2(tmp_path, capsys, spec, pair, cmd):
    assert run(tmp_path, spec, cmd) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"input error: eps seed {pair} contradicts ")
    # the other sign, which agrees with C, is accepted
    agreed = {pair: "-1" if spec["eps"][pair] == "1" else "1"}
    assert run(tmp_path, dict(spec, eps=agreed), cmd, "--trunc", "1") \
        == EXIT_OK


def test_trunc_flag_overrides(tmp_path):
    spec = parse_job(json.dumps(EX0))
    assert spec.trunc == 3
    # flag path exercised through main on the cheap orbits command
    path = write_spec(tmp_path, EX0)
    assert main(["--spec", path, "--cmd", "orbits", "--trunc", "5"]) == EXIT_OK
    assert main(["--spec", path, "--cmd", "orbits", "--trunc", "0"]) \
        == EXIT_INPUT


# exact classify and kappa reports of three cyclotomic specs, taken from
# the Fraction-based scalar implementation: the integer scalars must
# print the same strings
PINNED_SPECS = {
    "A2_ROT3": {"gram": [[2, -1], [-1, 2]], "sigma": [[0, -1], [1, -1]],
                "alpha": [1, 0], "beta": [0, 1]},
    "A2_ROT6": {"gram": [[2, -1], [-1, 2]], "sigma": [[1, -1], [1, 0]],
                "alpha": [1, 0], "beta": [1, 1]},
    "I2_ROT4": {"gram": [[2, 0], [0, 2]], "sigma": [[0, -1], [1, 0]],
                "alpha": [1, 0], "beta": [0, 1]},
}
PINNED_REPORTS = {
    ("A2_ROT3", "classify"): (
        "classify: rank 2, order 3, orbit lengths [3]\n"
        "eta cosets: 1\n"
        "mu (1) | dim B0 3 | blocks [1,1,1] | classes 3\n"
        "  class | ideal 0 | eta (0,0) | dim 1\n"
        "  class | ideal 1 | eta (0,0) | dim 1\n"
        "  class | ideal 2 | eta (0,0) | dim 1\n"
        "mu (z(3)^1) | inadmissible | ('no weight satisfies the congruence', 0, Fraction(2, 3))\n"
        "mu (-1 - z(3)^1) | inadmissible | ('no weight satisfies the congruence', 0, Fraction(1, 3))\n"
        "3 classes\n"
    ),
    ("A2_ROT3", "kappa"): (
        "alpha (1,0) beta (0,1)\n"
        "fl:comm | C(alpha,beta) = 1\n"
        "fl:kappa | kappa(alpha,beta) = 3 + 6*z(3)^1\n"
        "fl:locality | N(alpha,beta) = 1\n"
    ),
    ("A2_ROT6", "classify"): (
        "classify: rank 2, order 6, orbit lengths [6]\n"
        "eta cosets: 1\n"
        "mu (1) | dim B0 1 | blocks [1] | classes 1\n"
        "  class | ideal 0 | eta (0,0) | dim 1\n"
        "mu (1 + z(3)^1) | inadmissible | ('inconsistent relation scalars', [2, -2, 1, 0, 0])\n"
        "mu (z(3)^1) | inadmissible | ('inconsistent relation scalars', [2, -2, 1, 0, 0])\n"
        "mu (-1) | inadmissible | ('inconsistent relation scalars', [2, -2, 1, 0, 0])\n"
        "mu (-1 - z(3)^1) | inadmissible | ('inconsistent relation scalars', [2, -2, 1, 0, 0])\n"
        "mu (-z(3)^1) | inadmissible | ('inconsistent relation scalars', [2, -2, 1, 0, 0])\n"
        "1 classes\n"
    ),
    ("A2_ROT6", "kappa"): (
        "alpha (1,0) beta (1,1)\n"
        "fl:comm | C(alpha,beta) = 1\n"
        "fl:kappa | kappa(alpha,beta) = -1/36 - 1/18*z(3)^1\n"
        "fl:locality | N(alpha,beta) = 2\n"
    ),
    ("I2_ROT4", "classify"): (
        "classify: rank 2, order 4, orbit lengths [4]\n"
        "eta cosets: 1\n"
        "mu (1) | dim B0 2 | blocks [1,1] | classes 2\n"
        "  class | ideal 0 | eta (0,0) | dim 1\n"
        "  class | ideal 1 | eta (0,0) | dim 1\n"
        "mu (z(4)^1) | inadmissible | ('inconsistent relation scalars', [1, -1, 1])\n"
        "mu (-1) | inadmissible | ('no weight satisfies the congruence', 0, Fraction(1, 2))\n"
        "mu (-z(4)^1) | inadmissible | ('inconsistent relation scalars', [1, -1, 1])\n"
        "2 classes\n"
    ),
    ("I2_ROT4", "kappa"): (
        "alpha (1,0) beta (0,1)\n"
        "fl:comm | C(alpha,beta) = 1\n"
        "fl:kappa | kappa(alpha,beta) = -1\n"
        "fl:locality | N(alpha,beta) = 2\n"
    ),
}


@pytest.mark.parametrize("name, cmd", sorted(PINNED_REPORTS))
def test_cyclotomic_report_bytes(tmp_path, name, cmd):
    report = tmp_path / "report.txt"
    path = write_spec(tmp_path, PINNED_SPECS[name])
    assert main(["--spec", path, "--cmd", cmd,
                 "--out", str(report)]) == EXIT_OK
    assert report.read_text() == PINNED_REPORTS[(name, cmd)]


def _cli_subprocess(*args, timeout=60):
    """`twistlab` with the given arguments, in a fresh interpreter with
    a fixed timeout."""
    src = os.path.dirname(os.path.dirname(twistlab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "twistlab.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src))


def _classify_negation_subprocess(tmp_path, l):
    """`twistlab --cmd classify` with sigma = -1 on 2*I_l."""
    spec = {"gram": [[2 if i == j else 0 for j in range(l)] for i in range(l)],
            "sigma": [[-1 if i == j else 0 for j in range(l)]
                      for i in range(l)]}
    return _cli_subprocess("--spec", write_spec(tmp_path, spec),
                           "--cmd", "classify")


def test_unreadable_spec_and_unwritable_out_exit_2(tmp_path):
    # both end in one input-error line at the process boundary, not in
    # a traceback
    good = write_spec(tmp_path, EX2)
    for args in (("--spec", _non_utf8_spec(tmp_path)),
                 ("--spec", good, "--out", str(tmp_path / "nope" / "x.txt")),
                 ("--spec", good, "--out", str(tmp_path))):
        proc = _cli_subprocess(*args, "--cmd", "orbits")
        assert proc.returncode == EXIT_INPUT
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error: ")
        assert proc.stdout == ""


def test_size_cap_exit_3(tmp_path):
    # sigma = -1 on 2*I_13: E has 8192 elements, so 8192 root choices
    # times 8192^2 is far over the work cap; the refusal is a documented
    # exit code, not a traceback
    proc = _classify_negation_subprocess(tmp_path, 13)
    assert proc.returncode == EXIT_SCALAR
    assert "Traceback" not in proc.stderr
    assert "work cap" in proc.stderr
    assert proc.stdout == ""


def test_work_cap_exit_3(tmp_path):
    # sigma = -1 on 2*I_11: E has 2048 elements, and 2048 root choices
    # times 2048^2 is over the work cap
    proc = _classify_negation_subprocess(tmp_path, 11)
    assert proc.returncode == EXIT_SCALAR
    assert "Traceback" not in proc.stderr
    assert "work cap" in proc.stderr
    assert proc.stdout == ""


def test_too_many_eta_cosets_exit_3(tmp_path, capsys, monkeypatch):
    # [[10^6]] with sigma = 1 has 10^6 eta cosets, one class each: the
    # quotient's size is read off its Smith form and refused before any
    # coset is listed, where the listing printed 10^6 classes
    spec = {"gram": [[1000000]], "sigma": [[1]]}
    t0 = time.perf_counter()
    proc = _cli_subprocess("--spec", write_spec(tmp_path, spec),
                           "--cmd", "classify", timeout=30)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == EXIT_SCALAR
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "refused: 1 root choices times the 1000000 eta cosets exceed the "
        f"work cap {_kept.MAX_WORK}"]
    # at the cap's edge: 2*I_2 with sigma = 1 has one root choice and
    # 4 cosets
    spec = {"gram": [[2, 0], [0, 2]], "sigma": [[1, 0], [0, 1]]}
    monkeypatch.setattr(_kept, "MAX_WORK", 4)
    assert run(tmp_path, spec, "classify") == EXIT_OK
    assert capsys.readouterr().out.endswith("\n4 classes\n")
    monkeypatch.setattr(_kept, "MAX_WORK", 3)
    assert run(tmp_path, spec, "classify") == EXIT_SCALAR
    assert capsys.readouterr().err.splitlines() == [
        "refused: 1 root choices times the 4 eta cosets exceed the work "
        "cap 3"]


def test_oversized_vacuum_window_exit_3(tmp_path, capsys, monkeypatch):
    # a radius-10^9 window would list 2*10^9 + 1 lines; it is refused
    # before any is built, with the window's size in the message
    spec = {"gram": [[2]], "sigma": [[1]], "bound": 1000000000}
    t0 = time.perf_counter()
    assert run(tmp_path, spec, "check") == EXIT_SCALAR
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "refused: a module of degree at most 4 in rank 1 on 2000000001 "
        f"vacuum lines has more than {fock.MAX_BASIS} basis vectors, the "
        "cap"]
    # the cap counts basis vectors, words times lines: 7 * 3 in rank 1
    # at trunc 3, radius 1, and 7 * 25 in rank 2, order 4, at trunc 1,
    # radius 2
    monkeypatch.setattr(fock, "MAX_BASIS", 174)
    assert run(tmp_path, dict(EX0, bound=1), "check") == EXIT_OK
    assert run(tmp_path, dict(EX2, bound=2, trunc=1), "check") == EXIT_SCALAR
    monkeypatch.setattr(fock, "MAX_BASIS", 175)
    assert run(tmp_path, dict(EX2, bound=2, trunc=1), "check") == EXIT_OK


def test_oversized_creation_basis_exit_3(tmp_path, capsys, monkeypatch):
    # trunc 1000 in rank 1 has far more creation words than the cap: the
    # count is made in integers and refused before any check runs, where
    # the listing used to recurse into a RecursionError
    spec = {"gram": [[2]], "sigma": [[1]], "trunc": 1000}
    t0 = time.perf_counter()
    assert run(tmp_path, spec, "check") == EXIT_SCALAR
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "refused: a module of degree at most 1000 in rank 1 on 3 vacuum "
        f"lines has more than {fock.MAX_BASIS} basis vectors, the cap"]
    proc = _cli_subprocess("--spec", write_spec(tmp_path, spec),
                           "--cmd", "check")
    assert proc.returncode == EXIT_SCALAR
    assert proc.stderr.splitlines() == err.err.splitlines()
    assert proc.stdout == ""
    # rank 1 at trunc 3 has 1 + 1 + 2 + 3 words on each of 3 lines
    monkeypatch.setattr(fock, "MAX_BASIS", 20)
    assert run(tmp_path, EX0, "check") == EXIT_SCALAR
    monkeypatch.setattr(fock, "MAX_BASIS", 21)
    assert run(tmp_path, EX0, "check") == EXIT_OK


def test_oversized_module_product_exit_3(tmp_path):
    # each factor is small, 139 words and 40401 lines, but the check
    # suite would list 74 x 40401 vectors: the one cap is on the
    # product, so the module is refused at once
    spec = {"gram": [[2, 0], [0, 2]], "sigma": [[1, 0], [0, 1]],
            "trunc": 6, "bound": 100}
    t0 = time.perf_counter()
    proc = _cli_subprocess("--spec", write_spec(tmp_path, spec),
                           "--cmd", "check", timeout=10)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == EXIT_SCALAR
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "refused: a module of degree at most 6 in rank 2 on 40401 vacuum "
        f"lines has more than {fock.MAX_BASIS} basis vectors, the cap"]


def test_parser_kept_across_calls_and_errors(tmp_path, capsys):
    # the parser is built once per process; an argparse error on the
    # way leaves the next call's report as a fresh process prints it
    path = write_spec(tmp_path, EX0)
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["--spec", path, "--cmd", "nope"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert main(["--spec", path, "--cmd", "check"]) == EXIT_OK
    out = capsys.readouterr()
    proc = _cli_subprocess("--spec", path, "--cmd", "check")
    assert proc.returncode == EXIT_OK
    assert (out.out, out.err) == (proc.stdout, proc.stderr)
    assert out.out.startswith("check: rank 1, order 1, trunc 3\n")


def test_classify_error_exit_1(tmp_path, capsys, monkeypatch):
    # any other classifier error is an invariant failure: exit 1 and a
    # one-line message
    def broken(_twist):
        raise ClassifyError("subgroup lift mismatch")

    monkeypatch.setattr(cli, "enumerate_simple_twisted", broken)
    assert run(tmp_path, EX2, "classify") == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.splitlines() == ["invariant failure: subgroup lift mismatch"]


def test_failed_block_certificate_exit_1(tmp_path, capsys, monkeypatch):
    # a block decomposition that fails its certificate is an invariant
    # failure: exit 1, one line naming the failed checks, no report; a
    # lift psi at twice its value is no homomorphism, and its projectors
    # do not sum to one
    real = classify._GroupScalars.psi

    def doubled(self, coords):
        g, s = real(self, coords)
        return g, s * RootPair(2, 0, 1)

    monkeypatch.setattr(classify._GroupScalars, "psi", doubled)
    assert run(tmp_path, EX1_L2, "classify") == EXIT_INVARIANT
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("invariant failure: block decomposition")
    assert line.endswith("certificate: idempotent, sum_to_one")
    assert captured.out == ""


# epsilon seeds of order 8 on an order-2 lattice, so that epsilon lives
# on zeta_8 and not on the zeta_(2p) = zeta_4 of the default seeds; they
# realize C, and the reports were taken from the seed-power product
# definition of epsilon
EPS8 = {"gram": [[2, 1], [1, 4]], "sigma": [[-1, 0], [0, -1]],
        "eps": {"0,1": "z(8)^1", "1,0": "z(8)^5"},
        "alpha": [1, 1], "beta": [2, -1], "trunc": 2, "bound": 1}
EPS8_KAPPA = (
    "alpha (1,1) beta (2,-1)\n"
    "fl:comm | C(alpha,beta) = -1\n"
    "fl:kappa | kappa(alpha,beta) = 1/4*z(8)^1\n"
    "fl:locality | N(alpha,beta) = 1\n")
EPS8_CLASSIFY = (
    "classify: rank 2, order 2, orbit lengths [2, 2]\n"
    "eta cosets: 1\n"
    "mu (1,1) | dim B0 4 | blocks [2] | classes 1\n"
    "  class | ideal 0 | eta (0,0) | dim 2\n"
    "mu (1,-1) | inadmissible | ('no weight satisfies the congruence', "
    "1, Fraction(3, 2))\n"
    "mu (-1,1) | inadmissible | ('no weight satisfies the congruence', "
    "0, Fraction(1, 2))\n"
    "mu (-1,-1) | inadmissible | ('no weight satisfies the congruence', "
    "0, Fraction(1, 2))\n"
    "1 classes\n")
EPS8_CHECK_SHA256 = (
    "3ffb01997ea341f0f0aee20348aa9aea953c4dd5689d977a4a266dc71a770e17")


def test_eps_override_of_order_8_reports(tmp_path, capsys):
    assert run(tmp_path, EPS8, "kappa") == EXIT_OK
    assert capsys.readouterr().out == EPS8_KAPPA
    assert run(tmp_path, EPS8, "classify") == EXIT_OK
    assert capsys.readouterr().out == EPS8_CLASSIFY
    assert run(tmp_path, EPS8, "check") == EXIT_OK
    out = capsys.readouterr().out
    assert "fl:eps | e(1, 0)e(0, 1) | pass\n" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EPS8_CHECK_SHA256


def _readme_block(lang):
    """The one fenced block of the given language in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", text,
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, lang
    return blocks[0]


def test_readme_examples(tmp_path, capsys):
    # the documented job spec runs cleanly under every command, and the
    # documented session prints the class count its comment gives
    spec = json.loads(_readme_block("json"))
    for cmd in ("check", "classify", "kappa", "orbits"):
        assert run(tmp_path, spec, cmd) == EXIT_OK, cmd
        out = capsys.readouterr().out
        assert out and "| fail" not in out, cmd
    exec(_readme_block("python"), {})
    assert capsys.readouterr().out == "2\n"


# Lattices that classify calls obstructed, on which check still fails
# fl:lprod lines (odd fields at even order); strict, so that deciding
# them forces removing the mark
OBSTRUCTED_CHECK_FAULTS = [
    {"gram": [[1, 0], [0, 1]], "sigma": [[0, 1], [1, 0]],
     "trunc": 2, "bound": 2},
    {"gram": [[3, 0], [0, 3]], "sigma": [[0, 1], [1, 0]],
     "trunc": 2, "bound": 2},
    {"gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "sigma": [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
     "trunc": 1, "bound": 1},
]


@pytest.mark.xfail(strict=True, reason="check on obstructed specs "
                   "(ROADMAP direction 1): fl:lprod fails")
@pytest.mark.parametrize("spec", OBSTRUCTED_CHECK_FAULTS,
                         ids=["Z2-swap", "3x2-swap", "Z4-cycle"])
def test_check_on_obstructed_spec_has_no_fail_line(tmp_path, capsys, spec):
    code = run(tmp_path, spec, "check")
    out = capsys.readouterr().out
    assert "| fail" not in out
    assert code == EXIT_OK


@pytest.mark.parametrize("spec", OBSTRUCTED_CHECK_FAULTS,
                         ids=["Z2-swap", "3x2-swap", "Z4-cycle"])
def test_obstructed_check_faults_classify_obstructed(tmp_path, capsys, spec):
    assert run(tmp_path, spec, "classify") == EXIT_OK
    out = capsys.readouterr().out
    assert "obstructed" in out and "witness" in out
