"""``repro.perflint`` — workflow-level performance, cost, and IAM lint.

Where :mod:`repro.sanitize` catches bugs *inside* a kernel, perflint
analyzes the layer the paper's cost figures say students actually lose
time and money to: the host-side Python driving the kernels and the
cloud plan paying for them.  Three passes, all emitting the shared
:class:`repro.sanitize.findings.Finding` vocabulary:

* :mod:`repro.perflint.perfpass` + :mod:`repro.perflint.shapes` —
  ``PERF-*``: loop-invariant transfers/allocations in loops, blocking
  syncs in hot loops, per-parameter all-reduces, and an abstract
  shape/dtype interpreter over ``repro.xp``/``repro.nn`` chains.
* :mod:`repro.perflint.costpass` — ``COST-*``: pre-flight pricing of
  ``BootstrapScript``/SageMaker plans against
  :mod:`repro.cloud.pricing`, the $100 hard cap, the Fig 5 per-lab
  envelope, and idle-prone configurations.
* :mod:`repro.perflint.iampass` — ``IAM-*``: least-privilege diff of a
  plan's needed actions against the policies in scope via
  :func:`repro.cloud.iam.simulate_policy`.

CLI: ``python -m repro.sanitize --analyzers perf,cost,iam <paths>`` —
the same reporters, exit codes, and JSON schema as the kernel
sanitizer.  Rule-by-rule documentation lives in ``docs/perflint.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.rules import make_finding
from repro.perflint.costpass import (
    LAB_COST_ENVELOPE_USD,
    PlanSite,
    check_plan,
    cost_pass,
    extract_plans,
)
from repro.perflint.iampass import (
    diff_plan_against_role,
    extract_roles,
    iam_pass,
)
from repro.perflint.perfpass import perf_pass
from repro.perflint.shapes import (
    AbstractArray,
    AbstractModule,
    broadcast_shapes,
    matmul_shape,
    shape_pass,
)
from repro.sanitize.findings import Report

#: every analyzer family this package implements
ANALYZERS = ("perf", "cost", "iam")


def analyze_context(ctx, analyzers=ANALYZERS) -> Report:
    """Run the requested perflint passes over one shared
    :class:`repro.analysis.context.AnalysisContext` (no re-parse)."""
    report = Report()
    filename = ctx.filename
    if ctx.tree is None:
        report.add(make_finding(
            "SAN-SYNTAX", f"syntax error: {ctx.syntax_error.msg}",
            file=filename, line=ctx.syntax_error.lineno or 0))
        return report
    tree = ctx.tree
    if "perf" in analyzers:
        report.extend(perf_pass(tree, filename).findings)
        report.extend(shape_pass(tree, filename).findings)
    if "cost" in analyzers:
        report.extend(cost_pass(tree, filename).findings)
    if "iam" in analyzers:
        report.extend(iam_pass(tree, filename).findings)
    return report


def analyze_source(source: str, filename: str = "<string>",
                   analyzers=ANALYZERS) -> Report:
    """Run the requested perflint passes over one source string."""
    from repro.analysis.context import AnalysisContext

    return analyze_context(AnalysisContext(source, filename=filename),
                           analyzers=analyzers)


def analyze_file(path, analyzers=ANALYZERS) -> Report:
    path = Path(path)
    return analyze_source(path.read_text(), filename=str(path),
                          analyzers=analyzers)


def analyze_paths(paths, analyzers=ANALYZERS) -> Report:
    """Analyze files and/or directories (recursing into ``*.py``); a file
    named by two overlapping paths is analyzed once."""
    from repro.analysis.driver import collect_files

    report = Report()
    for f in collect_files(paths):
        report.extend(analyze_file(f, analyzers=analyzers).findings)
    return report


__all__ = [
    "ANALYZERS",
    "Report",
    "AbstractArray",
    "AbstractModule",
    "PlanSite",
    "LAB_COST_ENVELOPE_USD",
    "analyze_context",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "perf_pass",
    "shape_pass",
    "cost_pass",
    "iam_pass",
    "check_plan",
    "extract_plans",
    "extract_roles",
    "diff_plan_against_role",
    "broadcast_shapes",
    "matmul_shape",
]
