"""E-ABSINT — the abstract interpreter's cost on top of the gate.

Under test: opting the ``absint`` family into the full-repo sweep
(``src/repro`` + ``examples``) stays within a small factor of the
six-family gate it rides on.  The six-family sweep now runs the
interpreter itself — the ``kernel`` family's SAN-OOB and
SAN-BARRIER-DIV are its proofs — so the opt-in family adds only the
``VEC-*`` notes over the run cached on each file's context.  The
interpreter runs a fixpoint per kernel per launch environment, but
kernels are a tiny fraction of the repo's functions, so the sweep must
stay CI-shaped: the proof-grade verdicts are only worth shipping if
they are cheap enough to run on every push.

The same run doubles as the acceptance gate for the verdicts
themselves: the sweep shares one parse per file with the other
families, finds zero absint errors over the repository, and proves at
least 80% of the in-repo kernels out-of-bounds-safe.
"""

import time
from pathlib import Path

from repro.analysis import (
    KNOWN_ANALYZERS,
    AnalysisContext,
    analyze_paths,
    parse_count,
    reset_parse_count,
)
from repro.analysis.absint import absint_context
from repro.analysis.driver import collect_files
from repro.analytics import series_table
from repro.sanitize.findings import Severity

REPO = Path(__file__).resolve().parents[1]

#: the six-family + absint sweep may cost at most this factor over the
#: plain six-family sweep (observed well under it; min-of-N keeps
#: scheduler noise from flaking the gate)
MAX_ABSINT_OVERHEAD = 2.0

#: ISSUE 9 acceptance: share of in-repo kernels proven OOB-safe
MIN_PROVEN_RATIO = 0.8

#: min-of-N trials per side
TRIALS = 3


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_absint_overhead():
    paths = [REPO / "src" / "repro", REPO / "examples"]
    n_files = len(collect_files(paths))

    def six_families():
        analyze_paths(paths, analyzers=KNOWN_ANALYZERS)

    def with_absint():
        analyze_paths(paths, analyzers=KNOWN_ANALYZERS + ("absint",))

    base_s = min(_timed(six_families) for _ in range(TRIALS))
    reset_parse_count()
    absint_s = min(_timed(with_absint) for _ in range(TRIALS))
    parses_per_trial = parse_count() / TRIALS

    # one more pass to collect the verdicts the gate asserts on
    classes = []
    errors = 0
    for path in collect_files(paths):
        ctx = AnalysisContext.from_file(str(path))
        if not ctx.ok:
            continue
        result = absint_context(ctx)
        classes.extend(result.classes)
        errors += sum(1 for f in result.report.findings
                      if f.severity is Severity.ERROR)
    proven = sum(1 for k in classes if k.oob == "proven_safe")
    return {
        "n_files": n_files,
        "base_s": base_s,
        "absint_s": absint_s,
        "overhead": absint_s / base_s,
        "parses_per_trial": parses_per_trial,
        "kernels": len(classes),
        "proven": proven,
        "errors": errors,
    }


def test_bench_absint_overhead(benchmark):
    out = benchmark.pedantic(run_absint_overhead, rounds=1, iterations=1)
    print("\n" + series_table(
        ["Metric", "Value"],
        [["files analyzed", out["n_files"]],
         ["six-family sweep", f"{out['base_s'] * 1e3:.0f} ms"],
         ["with absint", f"{out['absint_s'] * 1e3:.0f} ms"],
         ["overhead", f"{out['overhead']:.2f}x"],
         ["parses per absint run", f"{out['parses_per_trial']:.0f}"],
         ["kernels classified", out["kernels"]],
         ["proven OOB-safe", out["proven"]],
         ["absint errors", out["errors"]],
         ["ceiling", f"{MAX_ABSINT_OVERHEAD:.1f}x"]],
        title="Abstract-interpreter overhead over the six-family gate"))

    assert out["n_files"] > 100
    # the opt-in family must not change the gate's cost class
    assert out["overhead"] <= MAX_ABSINT_OVERHEAD
    # absint rides the same shared contexts: still one parse per file
    assert out["parses_per_trial"] == out["n_files"]
    # the repository self-hosts clean under the proof-grade rules
    assert out["kernels"] > 0
    assert out["errors"] == 0
    # and the verifier earns its keep: >= 80% of in-repo kernels are
    # proven safe, not merely unflagged
    assert out["proven"] >= MIN_PROVEN_RATIO * out["kernels"]
