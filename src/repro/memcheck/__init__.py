"""``repro.memcheck`` — device-memory liveness, leaks, and OOM pre-flight.

The memory plane of the analyzer suite — the ``compute-sanitizer
--tool memcheck --leak-check full`` counterpart to :mod:`repro.sanitize`
(kernel bugs) and :mod:`repro.perflint` (perf/cost/IAM).  Two cooperating
halves:

* **Static** (:mod:`repro.memcheck.mempass`) — a liveness/dataflow pass
  over workflow ASTs, built on perflint's abstract shape interpreter:
  per-statement live-set sizes and a peak device-memory estimate,
  emitting ``MEM-LEAK`` / ``MEM-UAF`` / ``MEM-PEAK-OOM`` /
  ``MEM-CHURN`` / ``MEM-PINNED-OVERSUB`` findings, with a priced
  right-sizing recommendation from the :mod:`repro.cloud.pricing`
  catalog when the peak exceeds the target instance's GPU.
* **Dynamic** (:mod:`repro.gpu.memory`) — the pool's tracked-allocation
  ledger: tags + allocation sites, per-tag live totals,
  ``leak_report()`` at sync/teardown, and enriched OOM messages.  The
  estimators in :mod:`repro.memcheck.estimate` bridge the two: each
  closed-form footprint is validated against the measured
  ``peak_bytes`` in the test-suite.

CLI: ``python -m repro.sanitize --analyzers mem <paths>`` — same
reporters, exit codes, and JSON schema as the other analyzer families.
Rule-by-rule documentation lives in ``docs/memcheck.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.rules import make_finding
from repro.memcheck.estimate import (
    Preflight,
    ddp_training_footprint,
    gcn_training_footprint,
    llm_token_budget_preflight,
    preflight,
    rag_index_footprint,
    right_size,
    usable_gpu_bytes,
)
from repro.memcheck.mempass import BufferInfo, MemInterp, mem_pass
from repro.sanitize.findings import Report

#: every analyzer family this package implements
ANALYZERS = ("mem",)


def analyze_context(ctx, analyzers=ANALYZERS) -> Report:
    """Run the requested memcheck passes over one shared
    :class:`repro.analysis.context.AnalysisContext` (no re-parse)."""
    report = Report()
    if ctx.tree is None:
        report.add(make_finding(
            "SAN-SYNTAX", f"syntax error: {ctx.syntax_error.msg}",
            file=ctx.filename, line=ctx.syntax_error.lineno or 0))
        return report
    if "mem" in analyzers:
        # the context's dedent preserves line numbers, so noqa comments
        # still align with the tree
        report.extend(mem_pass(ctx.tree, ctx.filename,
                               source=ctx.dedented).findings)
    return report


def analyze_source(source: str, filename: str = "<string>",
                   analyzers=ANALYZERS) -> Report:
    """Run the requested memcheck passes over one source string."""
    from repro.analysis.context import AnalysisContext

    return analyze_context(AnalysisContext(source, filename=filename),
                           analyzers=analyzers)


def analyze_file(path, analyzers=ANALYZERS) -> Report:
    path = Path(path)
    return analyze_source(path.read_text(), filename=str(path),
                          analyzers=analyzers)


def analyze_paths(paths, analyzers=ANALYZERS) -> Report:
    """Analyze files and/or directories (recursing into ``*.py``)."""
    report = Report()
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            report.extend(analyze_file(f, analyzers=analyzers).findings)
    return report


__all__ = [
    "ANALYZERS",
    "Report",
    "BufferInfo",
    "MemInterp",
    "Preflight",
    "analyze_context",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "mem_pass",
    "llm_token_budget_preflight",
    "preflight",
    "right_size",
    "usable_gpu_bytes",
    "gcn_training_footprint",
    "ddp_training_footprint",
    "rag_index_footprint",
]
