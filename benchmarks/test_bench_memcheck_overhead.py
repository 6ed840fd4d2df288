"""E-MEMCHECK — the memory analyzer gate's own overhead.

Under test: the MEM-* liveness pass over the whole repository
(``src/repro`` + ``examples``) stays fast enough to sit in the CI lint
job next to the kernel/perflint families — and the repo itself is the
clean baseline the gate enforces (zero unsuppressed MEM-LEAK /
MEM-UAF / MEM-PEAK-OOM findings).
"""

import time
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analytics import series_table

REPO = Path(__file__).resolve().parents[1]

#: generous wall-clock ceiling for one full-repo pass (seconds); the
#: observed time is ~2 orders of magnitude below this on a laptop
FULL_REPO_BUDGET_S = 30.0


def run_full_repo_memcheck():
    paths = [REPO / "src" / "repro", REPO / "examples"]
    n_files = sum(len(list(p.rglob("*.py"))) for p in paths)
    start = time.perf_counter()
    report = analyze_paths(paths, analyzers=("mem",))
    elapsed = time.perf_counter() - start
    return {
        "n_files": n_files,
        "elapsed_s": elapsed,
        "mem_findings": len(report.findings),
    }


def test_bench_memcheck_overhead(benchmark):
    out = benchmark.pedantic(run_full_repo_memcheck, rounds=1, iterations=1)
    print("\n" + series_table(
        ["Metric", "Value"],
        [["files analyzed", out["n_files"]],
         ["wall clock", f"{out['elapsed_s'] * 1e3:.0f} ms"],
         ["MEM findings", out["mem_findings"]],
         ["budget", f"{FULL_REPO_BUDGET_S:.0f} s"]],
        title="Full-repo memcheck overhead (--analyzers mem)"))

    assert out["n_files"] > 100          # it really walked the repo
    assert out["elapsed_s"] < FULL_REPO_BUDGET_S
    # the repo itself is the leak-free baseline the CI gate enforces
    assert out["mem_findings"] == 0
