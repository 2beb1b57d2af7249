import json
import os
import subprocess
import sys

import pytest

import twistlab
from twistlab import classify, cli
from twistlab.classify import ClassifyError
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
    again = parse_job(spec.serialize())
    assert again == spec
    assert spec.eps == {(1, 0): "-1"}
    assert spec.phi == {0: "1"}


def test_parse_errors():
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


def test_conductor_cap_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(twistlab.scalar, "CONDUCTOR_CAP", 2)
    assert run(tmp_path, EX2, "classify") == EXIT_SCALAR


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
STATUSES = ("pass", "untestable", "fail")


@pytest.fixture(scope="module")
def check_texts(tmp_path_factory):
    """The check reports of NEG2 and SWAP1, each run once."""
    tmp = tmp_path_factory.mktemp("check")
    out = {}
    for name, spec in (("NEG2", NEG2), ("SWAP1", SWAP1)):
        report = tmp / f"{name}.txt"
        path = write_spec(tmp, spec, f"{name}.json")
        assert main(["--spec", path, "--cmd", "check",
                     "--out", str(report)]) == EXIT_OK
        out[name] = report.read_text()
    return out


@pytest.fixture(scope="module")
def check_reports(check_texts):
    """The check report lines of NEG2 and SWAP1."""
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
# poisoned term must leave each untestable line as it was
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
}


@pytest.mark.parametrize("name", ["NEG2", "SWAP1"])
def test_check_report_bytes(check_texts, name):
    assert check_texts[name] == PINNED_CHECK_REPORTS[name]


def test_check_invariant_failure(tmp_path, capsys):
    # an epsilon seed that does not realize the commutator map
    spec = {"gram": [[2, 1], [1, 2]], "sigma": [[-1, 0], [0, -1]],
            "trunc": 2, "bound": 1, "eps": {"1,0": "1"}}
    assert run(tmp_path, spec, "check") == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "fail" in out


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


def _classify_negation_subprocess(tmp_path, l):
    """`twistlab --cmd classify` with sigma = -1 on 2*I_l, in a fresh
    interpreter with a fixed timeout."""
    spec = {"gram": [[2 if i == j else 0 for j in range(l)] for i in range(l)],
            "sigma": [[-1 if i == j else 0 for j in range(l)]
                      for i in range(l)]}
    src = os.path.dirname(os.path.dirname(twistlab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "twistlab.cli",
         "--spec", write_spec(tmp_path, spec), "--cmd", "classify"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))


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
    # failure: exit 1, one line naming the failed check, no report
    monkeypatch.setattr(classify, "field_rank", lambda rows, one: 2)
    assert run(tmp_path, EX1_L2, "classify") == EXIT_INVARIANT
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("invariant failure: block decomposition")
    assert line.endswith("certificate: dims_square")
    assert captured.out == ""
