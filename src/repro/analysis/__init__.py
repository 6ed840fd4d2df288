"""``repro.analysis`` — the shared static-analysis framework.

Every analyzer family in the suite (kernel sanitizer, perflint's
perf/cost/IAM passes, memcheck, and the DET determinism rules) rides
the same substrate:

* :mod:`repro.analysis.context` — :class:`AnalysisContext`: each file
  parsed and walked **exactly once**, with the source, line index,
  module nodes, namespace aliases, and the one suppression table
  (``# repro: disable``; ``# noqa`` for MEM-* rules) shared by every
  pass (``parse_count()`` is the test hook proving the single parse);
* :mod:`repro.analysis.cfg` — per-scope basic-block CFGs and the
  canonical unrolled statement schedule the abstract interpreters walk;
* :mod:`repro.analysis.dataflow` — the generic forward/backward
  fixpoint engine (reaching definitions, liveness);
* :mod:`repro.analysis.detpass` — the ``DET-*`` determinism rules that
  self-host over ``src/repro`` in CI;
* :mod:`repro.analysis.pipeline` — stable finding fingerprints and
  the ``.reprolint-baseline.json`` workflow;
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 export;
* :mod:`repro.analysis.driver` — the only way from source to a report:
  :func:`analyze_source`, :func:`analyze_paths` and :func:`run_paths`
  dispatch every family over one shared context per file, report
  unparsable files and apply the one suppression table;
* :mod:`repro.analysis.cli` — the one analyzer CLI,
  ``python -m repro.analysis --analyzers kernel,perf,cost,iam,mem,det``;
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.summaries` /
  :mod:`repro.analysis.interproc` — the interprocedural layer: the
  project-wide call graph, composable per-function summaries, and the
  cross-function rules behind ``--interprocedural``;
* :mod:`repro.analysis.absint` / :mod:`repro.analysis.domains` /
  :mod:`repro.analysis.kernelclass` — the abstract interpreter: every
  kernel rule the ``kernel`` family reports (the SAN-OOB /
  SAN-BARRIER-DIV proofs over interval + affine domains, the lane-stride
  rules and the shared-memory phase rule), and the serializable
  :class:`KernelClass` of each kernel, reported as ``VEC-VECTORIZABLE``
  / ``VEC-DIVERGENT`` notes by the opt-in ``absint`` family;
* :mod:`repro.analysis.rules` — the one rule registry (every family's
  rule ids, severities and fix hints) and ``make_finding``.

Rule-by-rule documentation lives in ``docs/analysis.md``.
"""

from repro.analysis.cfg import (
    LOOP_PASSES,
    CFG,
    BasicBlock,
    build_cfg,
    scopes,
    unrolled_schedule,
)
from repro.analysis.context import (
    AnalysisContext,
    parse_count,
    reset_parse_count,
)
from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.dataflow import (
    DataflowAnalysis,
    Liveness,
    ReachingDefinitions,
    live_out,
    reaching_at,
    solve,
)
from repro.analysis.driver import (
    ALL_ANALYZERS,
    KNOWN_ANALYZERS,
    OPT_IN_ANALYZERS,
    AnalysisRun,
    analyze_context,
    analyze_paths,
    analyze_source,
    collect_files,
    run_paths,
)
from repro.analysis.interproc import interprocedural_pass
from repro.analysis.kernelclass import (
    KernelClass,
    classify,
    render_classes_json,
)

#: lazily-imported names (PEP 562): the abstract interpreter loads only
#: when a kernel is analyzed.  Importing it here would put it into the
#: start-up of every process that imports the framework, every
#: benchmark workload's set-up included (lab5's, which never analyzes)
_LAZY = {
    "AbsintResult": "repro.analysis.absint",
    "LaunchEnv": "repro.analysis.absint",
    "absint_context": "repro.analysis.absint",
    "absint_source": "repro.analysis.absint",
    "classify_kernel": "repro.analysis.absint",
    "AbsVal": "repro.analysis.domains",
    "Affine": "repro.analysis.domains",
    "Interval": "repro.analysis.domains",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
from repro.analysis.pipeline import (
    BASELINE_NAME,
    BASELINE_VERSION,
    Baseline,
    fingerprint,
    fingerprint_report,
    normalize_path,
    repo_root,
)
from repro.analysis.rules import RULES
from repro.analysis.sarif import from_sarif, render_sarif, to_sarif
from repro.analysis.summaries import (
    Effect,
    FunctionSummary,
    build_summaries,
    clear_summary_cache,
    summary_cache_info,
)

__all__ = [
    "LOOP_PASSES",
    "CFG",
    "BasicBlock",
    "build_cfg",
    "scopes",
    "unrolled_schedule",
    "AnalysisContext",
    "parse_count",
    "reset_parse_count",
    "DataflowAnalysis",
    "ReachingDefinitions",
    "Liveness",
    "solve",
    "reaching_at",
    "live_out",
    "ALL_ANALYZERS",
    "KNOWN_ANALYZERS",
    "OPT_IN_ANALYZERS",
    "AbsintResult",
    "AbsVal",
    "Affine",
    "Interval",
    "KernelClass",
    "LaunchEnv",
    "absint_context",
    "absint_source",
    "classify",
    "classify_kernel",
    "render_classes_json",
    "AnalysisRun",
    "analyze_context",
    "analyze_source",
    "analyze_paths",
    "collect_files",
    "run_paths",
    "BASELINE_NAME",
    "BASELINE_VERSION",
    "Baseline",
    "fingerprint",
    "fingerprint_report",
    "normalize_path",
    "repo_root",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_call_graph",
    "Effect",
    "FunctionSummary",
    "build_summaries",
    "clear_summary_cache",
    "summary_cache_info",
    "interprocedural_pass",
    "RULES",
    "from_sarif",
    "render_sarif",
    "to_sarif",
]
