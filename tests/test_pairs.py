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
