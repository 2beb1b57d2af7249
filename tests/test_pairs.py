"""The summary of tools/pairs.py on canned numbers."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import pairs  # noqa: E402

METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_seed_lists():
    assert pairs.parse_seeds("961-964") == [961, 962, 963, 964]
    assert pairs.parse_seeds("5,7-8,3") == [5, 7, 8, 3]


def test_summary_medians_quartiles_and_wins():
    # five pairs: the change is faster on four, slower on one; setup_s
    # is missing from one change run, so its row counts four pairs
    parent = [{"jobs_per_s": x, "latency_p50_s": 1 / x, "setup_s": 0.2}
              for x in (100, 110, 120, 130, 140)]
    change = [{"jobs_per_s": x, "latency_p50_s": 1 / x, "setup_s": s}
              for x, s in ((150, 0.1), (105, 0.3), (160, 0.1), (170, None),
                           (180, 0.2))]
    rows = pairs.summarize(METRICS, list(zip(parent, change)))
    assert [r[0] for r in rows] == ["jobs_per_s", "latency_p50_s", "setup_s"]
    name, unit, par, chg, pct, better, n = rows[0]
    assert (unit, par, chg) == ("1/s", (110, 120, 130), (150, 160, 170))
    assert round(pct, 6) == round(100 * 40 / 120, 6)
    assert (better, n) == (4, 5)
    # lower is better: the same four pairs win
    assert rows[1][5:] == (4, 5)
    # ties are not wins
    assert rows[2][5:] == (2, 4)
    text = pairs.table("classify_stream", rows)
    lines = text.splitlines()
    assert lines[0] == ("| `classify_stream` | `jobs_per_s` | 120 [110, 130] "
                        "1/s | 160 [150, 170] 1/s (+33.3%) | 4 of 5 |")
    assert lines[2].startswith("|  | `setup_s` | 0.2 [0.2, 0.2] s | ")


def test_summary_skips_metrics_no_pair_reports():
    rows = pairs.summarize(METRICS, [({"jobs_per_s": 1.0},
                                      {"jobs_per_s": 2.0})])
    assert [(r[0], r[2], r[3], r[5], r[6]) for r in rows] == [
        ("jobs_per_s", (1.0, 1.0, 1.0), (2.0, 2.0, 2.0), 1, 1)]


def _bench(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": ' + str(METRICS).replace("'", '"') + "}")
    return str(tmp_path)


def test_a_dropped_run_fails_and_operations_are_summed(
        tmp_path, monkeypatch, capsys):
    # seed 2's change run gives no result: the table keeps seed 1's pair,
    # the failed/attempted row sums that pair, and the exit status is 1
    change = _bench(tmp_path)

    def run_one(checkout, workload, seed, seconds):
        if checkout == change and seed == 2:
            return None
        fast = checkout == change
        return {"metrics": {"jobs_per_s": 20.0 if fast else 10.0},
                "attempted": 40 if fast else 30, "failed": 2}

    monkeypatch.setattr(pairs, "run_one", run_one)
    argv = ["--parent", "parent", "--change", change,
            "--workload", "classify_stream", "--seeds", "1-2"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr()
    assert "| `classify_stream` | `jobs_per_s` | 10 [10, 10] 1/s | " \
        "20 [20, 20] 1/s (+100.0%) | 1 of 1 |" in out.out.splitlines()
    assert out.out.splitlines()[-1] == ("|  | failed / attempted | "
                                        "2 / 30 (6.67%) | 2 / 40 (5.00%) |  |")
    assert "1 runs dropped" in out.err
    # with every run kept the status is 0
    monkeypatch.setattr(pairs, "run_one", lambda c, w, s, t: run_one(
        c, w, 1, t))
    assert pairs.main(argv) == 0
