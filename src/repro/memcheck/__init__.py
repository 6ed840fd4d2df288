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

The static half is the ``mem`` family of the :mod:`repro.analysis`
driver, which calls :func:`analyze_context`: ``python -m
repro.analysis --analyzers mem <paths>`` on the command line, or
``repro.analysis.analyze_source(src, name, analyzers=("mem",))`` from
Python — same reporters, exit codes, and JSON schema as the other
analyzer families, and the driver's suppressions (``# noqa`` /
``# noqa: MEM-LEAK`` still silence MEM-* rules).  Rule-by-rule
documentation lives in ``docs/memcheck.md``.
"""

from __future__ import annotations

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


def analyze_context(ctx) -> Report:
    """Run the memcheck liveness pass over one parsed
    :class:`repro.analysis.context.AnalysisContext` (no re-parse)."""
    return mem_pass(ctx.tree, ctx.filename)


__all__ = [
    "Report",
    "BufferInfo",
    "MemInterp",
    "Preflight",
    "analyze_context",
    "mem_pass",
    "llm_token_budget_preflight",
    "preflight",
    "right_size",
    "usable_gpu_bytes",
    "gcn_training_footprint",
    "ddp_training_footprint",
    "rag_index_footprint",
]
