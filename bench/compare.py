"""Compare two sets of benchmark runs: a parent commit and a change.

Usage::

    python bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` directories of at least ten untraced
runs per workload (``BENCH_<workload>.json`` files, found recursively).
Runs are paired in start order, and the pairs must alternate which side
ran first.  For every workload and end-to-end metric it prints one row:

* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread (IQR / median) exceeds the
  bound, unless every change run reads better than every parent run;
* ``ok`` — none of the above.

It also compares ``error_rate`` (failed / attempted ops), whose bound is
zero.  The exit code is 1 when any row is a regression, 2 when the runs
cannot be compared, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402

MIN_PAIRS = 10


def load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        if not bench.get("trace"):
            runs.setdefault(bench["workload"], []).append(bench)
    for group in runs.values():
        group.sort(key=lambda b: b["started_at"])
    return runs


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def compare_metric(parent, change, better, bound) -> dict:
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_med = statistics.median(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    worse_by = ((c_med - p_med) if better == "lower"
                else (p_med - c_med)) / p_med if p_med else 0.0
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1 \
            and _better(c_med, p_med, better):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"parent": (p_q1, p_med, p_q3), "change": c_med,
            "wins": wins, "pairs": len(parent), "spread": spread,
            "worse_by": worse_by, "verdict": verdict}


def check_pairs(workload, parent, change) -> str | None:
    if len(parent) != len(change):
        return (f"{workload}: {len(parent)} parent runs but "
                f"{len(change)} change runs")
    if len(parent) < MIN_PAIRS:
        return f"{workload}: {len(parent)} pairs, need {MIN_PAIRS}"
    firsts = [p["started_at"] < c["started_at"]
              for p, c in zip(parent, change)]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        return f"{workload}: pairs do not alternate which side ran first"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_runs, change_runs = (load_runs(Path(d)) for d in argv)
    workloads = sorted(set(parent_runs) | set(change_runs))
    errors = [e for w in workloads
              if (e := check_pairs(w, parent_runs.get(w, []),
                                   change_runs.get(w, [])))]
    if not workloads or errors:
        for e in errors or ["no BENCH_*.json runs found"]:
            print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':15s} {'metric':12s} {'parent q1/med/q3':>32s} "
          f"{'change median':>14s} {'worse by':>9s} {'wins':>6s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    regressions = 0
    for w in workloads:
        parent, change = parent_runs[w], change_runs[w]
        for name, _, better, bound in metrics.END_TO_END:
            row = compare_metric([b["metrics"][name]["value"] for b in parent],
                                 [b["metrics"][name]["value"] for b in change],
                                 better, bound)
            regressions += row["verdict"] == "regression"
            q1, med, q3 = row["parent"]
            print(f"{w:15s} {name:12s} "
                  f"{q1:>10.4g} {med:>10.4g} {q3:>10.4g} "
                  f"{row['change']:>14.4g} {row['worse_by']:>+9.1%} "
                  f"{row['wins']:>3d}/{row['pairs']:<2d} "
                  f"{row['spread']:>7.1%} {bound:>6.0%}  {row['verdict']}")
        rates = [sum(b["failed"] for b in runs)
                 / max(1, sum(b["attempted"] for b in runs))
                 for runs in (parent, change)]
        verdict = "regression" if rates[1] > rates[0] else "ok"
        regressions += verdict == "regression"
        print(f"{w:15s} {'error_rate':12s} {rates[0]:>32.4g} "
              f"{rates[1]:>14.4g} {'':>9s} {'':>6s} {'':>7s} {'+0':>6s}  "
              f"{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
