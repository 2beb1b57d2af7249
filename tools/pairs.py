"""Paired benchmark runs of two checkouts.

    python3 tools/pairs.py --parent DIR --change DIR \
        --workload classify_stream --seeds 961-970 [--seconds 30]

For each seed, runs `python3 perfbench/run.py` once in each checkout,
one after the other; the parent goes first on the first seed, the
change on the second, and so on.  Each run's last standard-output line
is its JSON result.  At the end it prints, per end-to-end metric of the
change's BENCHMARK.json, the median [first quartile, third quartile] of
each side, the change of the medians in percent, and on how many of
the pairs the change is better, as a Markdown table, and each side's
failed operations over its attempted ones, summed over the pairs.  Runs
that are not `correct` or that fail to produce a result are reported on
standard error and left out of the table, and the exit status is then 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """'961-970' or '961,965,970' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metrics, pairs):
    """Rows (name, unit, parent (q1, median, q3), change (q1, median, q3),
    percent change of the medians, pairs where the change is better,
    pairs) for each metric of `metrics` (BENCHMARK.json's end_to_end
    entries) that both sides of every pair report.  `pairs` is a list
    of (parent metrics, change metrics), each a dict name -> value."""
    rows = []
    for m in metrics:
        name = m["name"]
        both = [(a[name], b[name]) for a, b in pairs
                if a.get(name) is not None and b.get(name) is not None]
        if not both:
            continue
        lower = m["better"] == "lower"
        better = sum(1 for a, b in both if (b < a if lower else b > a))
        par = quartiles([a for a, _ in both])
        chg = quartiles([b for _, b in both])
        pct = 100.0 * (chg[1] - par[1]) / par[1] if par[1] else None
        rows.append((name, m["unit"], par, chg, pct, better, len(both)))
    return rows


def _fmt(x):
    return f"{x:.4g}"


def table(workload, rows) -> str:
    """The rows as Markdown, one workload per block of lines."""
    out = []
    for k, (name, unit, par, chg, pct, better, n) in enumerate(rows):
        cells = [f"`{workload}`" if k == 0 else "", f"`{name}`"]
        for q1, med, q3 in (par, chg):
            cells.append(f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] {unit}")
        if pct is not None:
            cells[-1] += f" ({pct:+.1f}%)"
        cells.append(f"{better} of {n}")
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def failed_row(pairs) -> str:
    """The Markdown row of each side's failed over attempted operations,
    summed over the pairs of runs (`run_one` results)."""
    cells = []
    for side in (0, 1):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        share = f" ({100 * failed / attempted:.2f}%)" if attempted else ""
        cells.append(f"{failed} / {attempted}{share}")
    return f"|  | failed / attempted | {cells[0]} | {cells[1]} |  |"


def run_one(checkout, workload, seed, seconds):
    """One run as {"metrics": name -> value, "attempted": n, "failed": n},
    or None when it gave no result or was not `correct`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{checkout} seed {seed}: no result (exit {proc.returncode})",
              file=sys.stderr)
        return None
    if not result.get("correct"):
        print(f"{checkout} seed {seed}: not correct", file=sys.stderr)
        return None
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    print("| workload | metric | parent | change | change better |")
    print("|---|---|---|---|---|")
    dropped = 0
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            # (parent, change), by position: the two may be one directory
            got = [None, None]
            for side in ((0, 1), (1, 0))[k % 2]:
                got[side] = run_one((args.parent, args.change)[side],
                                    workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {got[0]} -> {got[1]}",
                  file=sys.stderr)
            dropped += got.count(None)
            if None not in got:
                pairs.append(tuple(got))
        rows = summarize(metrics, [(a["metrics"], b["metrics"])
                                   for a, b in pairs])
        print(table(workload, rows), failed_row(pairs), sep="\n", flush=True)
    if dropped:
        print(f"{dropped} runs dropped", file=sys.stderr)
    return 1 if dropped else 0


if __name__ == "__main__":
    sys.exit(main())
