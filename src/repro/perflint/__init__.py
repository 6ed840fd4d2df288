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

The three are families of the :mod:`repro.analysis` driver, which
calls :func:`analyze_context`: ``python -m repro.analysis --analyzers
perf,cost,iam <paths>`` on the command line, or
``repro.analysis.analyze_source(src, name, analyzers=("perf",))`` from
Python — the same reporters, exit codes, suppressions and JSON schema
as the kernel sanitizer.  Rule-by-rule documentation lives in
``docs/perflint.md``.
"""

from __future__ import annotations

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


def analyze_context(ctx, analyzers) -> Report:
    """Run the requested perflint families (``perf``, ``cost``,
    ``iam``) over one parsed
    :class:`repro.analysis.context.AnalysisContext` (no re-parse)."""
    report = Report()
    tree, filename = ctx.tree, ctx.filename
    if "perf" in analyzers:
        report.extend(perf_pass(tree, filename).findings)
        report.extend(shape_pass(tree, filename).findings)
    if "cost" in analyzers:
        report.extend(cost_pass(tree, filename).findings)
    if "iam" in analyzers:
        report.extend(iam_pass(tree, filename).findings)
    return report


__all__ = [
    "Report",
    "AbstractArray",
    "AbstractModule",
    "PlanSite",
    "LAB_COST_ENVELOPE_USD",
    "analyze_context",
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
