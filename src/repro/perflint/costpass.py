"""COST-* — pre-flight cost estimation over cloud plans.

The pass statically extracts every plan a file would launch —
``BootstrapScript(...)`` constructions, ``create_notebook_instance(...)``
calls, and ``EndpointConfig(...)`` serving fleets (priced at
``max_replicas``, the autoscaled peak) with literal arguments — and
prices each one against :mod:`repro.cloud.pricing` *before* any
simulated dollar accrues.  Checks, in the order students hit them:

* ``COST-UNKNOWN-TYPE`` — the SKU is not in the catalog; the plan dies
  at ``RunInstances`` time.
* ``COST-BUDGET-CAP`` — rate × expected hours crosses the $100/student
  hard cap (§III-A1) and would raise ``BudgetExceededError`` mid-run.
* ``COST-LAB-ENVELOPE`` — the plan alone exceeds the Fig 5 per-lab
  envelope (~$60/semester ÷ 12 labs = $5/lab).
* ``COST-IDLE`` — instances are launched but nothing in the file tears
  them down (no ``.teardown()``, no ``IdleReaper``): the §III-A idle
  leak.
* ``COST-SPOT`` — a long on-demand GPU session with no spot fallback
  in sight pays the ~70% on-demand premium for nothing.

Non-literal arguments make a plan partially unknown; unknown fields
fall back to the dataclass defaults rather than guessing, and a plan
whose instance type is unknowable is skipped entirely — like the shape
pass, precision over recall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.context import module_nodes
from repro.analysis.rules import make_finding
from repro.cloud.billing import DEFAULT_BUDGET_CAP_USD
from repro.cloud.bootstrap import BootstrapScript
from repro.cloud.pricing import get_instance_type, plan_cost
from repro.datasets.aws_usage import AWS_USAGE_TARGETS, COST_BAND_USD
from repro.errors import CloudError
from repro.sanitize.findings import Report

# Fig 5 envelope: $60/student/semester over the smaller lab count (12)
LAB_COST_ENVELOPE_USD = COST_BAND_USD[1] / min(
    t.n_labs for t in AWS_USAGE_TARGETS.values())

# on-demand sessions at least this long should consider spot fallback
SPOT_CANDIDATE_HOURS = 8.0

_NOTEBOOK_DEFAULT_TYPE = "ml.t3.medium"
_TEARDOWN_MARKERS = {"teardown", "IdleReaper", "sweep", "terminate",
                     "delete", "delete_endpoint"}
_SPOT_MARKERS = {"SpotService", "spot_price", "request_spot", "spot"}


@dataclass(frozen=True)
class PlanSite:
    """One statically-extracted launch plan."""

    kind: str                  # "bootstrap" | "notebook" | "endpoint"
    type_name: str
    count: int
    expected_hours: float
    line: int
    owner: str = "student"

    @property
    def is_gpu(self) -> bool:
        try:
            return get_instance_type(self.type_name).is_gpu
        except CloudError:
            return True        # unknown SKUs are treated as GPU-priced

    def required_actions(self) -> tuple[tuple[str, str], ...]:
        if self.kind == "notebook":
            arn = f"arn:student/{self.owner}/notebook/nb-0"
            return (("sagemaker:CreateNotebookInstance", arn),
                    ("sagemaker:StopNotebookInstance", arn))
        if self.kind == "endpoint":
            ep_arn = f"arn:student/{self.owner}/endpoint/ep-0"
            inst_arn = f"arn:student/{self.owner}/instance/i-0"
            return (("sagemaker:CreateEndpoint", ep_arn),
                    ("sagemaker:DeleteEndpoint", ep_arn),
                    ("ec2:RunInstances", inst_arn),
                    ("ec2:TerminateInstances", inst_arn))
        return BootstrapScript(
            instance_type=self.type_name,
            instance_count=self.count).required_actions(self.owner)


def _literal(node: ast.AST) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


def _identifiers(tree: ast.Module) -> set[str]:
    """Every Name id and Attribute attr in the module (context markers)."""
    out: set[str] = set()
    for n in module_nodes(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def extract_plans(tree: ast.Module) -> list[PlanSite]:
    """Pull every literal-arg launch plan out of a parsed module.

    Pure in the tree, so the result is memoized on the node itself —
    the cost, IAM, and memcheck passes all ask for the same plans and
    the unified driver hands them one shared tree.
    """
    cached = getattr(tree, "_repro_plan_sites", None)
    if cached is not None:
        return cached
    plans: list[PlanSite] = []
    owner = "student"
    nodes = module_nodes(tree)
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "register_student" and node.args:
            lit = _literal(node.args[0])
            if isinstance(lit, str):
                owner = lit
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "BootstrapScript":
            kwargs = {}
            unknowable = any(kw.arg is None for kw in node.keywords)
            for pos, field_name in zip(node.args,
                                       ("instance_type", "instance_count")):
                lit = _literal(pos)
                if lit is None:
                    unknowable = unknowable or field_name == "instance_type"
                else:
                    kwargs[field_name] = lit
            for kw in node.keywords:
                if kw.arg in ("instance_type", "instance_count",
                              "expected_hours", "assessment"):
                    lit = _literal(kw.value)
                    if lit is None:
                        unknowable = unknowable or kw.arg == "instance_type"
                    else:
                        kwargs[kw.arg] = lit
            # a plan whose instance type we cannot know (non-literal
            # value, or a **kwargs splat) is skipped, not guessed at
            if unknowable:
                continue
            try:
                script = BootstrapScript(**kwargs)
            except TypeError:
                continue
            plans.append(PlanSite(
                kind="bootstrap", type_name=script.instance_type,
                count=int(script.instance_count),
                expected_hours=float(script.expected_hours),
                line=node.lineno, owner=owner))
        elif name == "EndpointConfig":
            # price the *peak* fleet: an autoscaler may legally run
            # max_replicas of instance_type for expected_hours
            from repro.serve.endpoint import EndpointConfig

            fields = EndpointConfig.__dataclass_fields__
            kwargs: dict[str, object] = {}
            unknowable = any(kw.arg is None for kw in node.keywords)
            pos_fields = ("name", "instance_type", "initial_replicas",
                          "min_replicas", "max_replicas")
            for pos, field_name in zip(node.args, pos_fields):
                lit = _literal(pos)
                if lit is None:
                    unknowable = unknowable or field_name == "instance_type"
                else:
                    kwargs[field_name] = lit
            for kw in node.keywords:
                if kw.arg in ("instance_type", "max_replicas",
                              "expected_hours"):
                    lit = _literal(kw.value)
                    if lit is None:
                        unknowable = unknowable or kw.arg == "instance_type"
                    else:
                        kwargs[kw.arg] = lit
            if unknowable:
                continue
            plans.append(PlanSite(
                kind="endpoint",
                type_name=str(kwargs.get(
                    "instance_type", fields["instance_type"].default)),
                count=int(kwargs.get(
                    "max_replicas", fields["max_replicas"].default)),
                expected_hours=float(kwargs.get(
                    "expected_hours", fields["expected_hours"].default)),
                line=node.lineno, owner=owner))
        elif name == "create_notebook_instance":
            type_name: str | None = _NOTEBOOK_DEFAULT_TYPE
            if len(node.args) >= 2:
                lit = _literal(node.args[1])
                type_name = lit if isinstance(lit, str) else None
            for kw in node.keywords:
                if kw.arg == "type_name":
                    lit = _literal(kw.value)
                    type_name = lit if isinstance(lit, str) else None
            if type_name is None:
                continue
            plans.append(PlanSite(
                kind="notebook", type_name=type_name, count=1,
                expected_hours=BootstrapScript.expected_hours,
                line=node.lineno, owner=owner))
    try:
        tree._repro_plan_sites = plans
    except (AttributeError, TypeError):  # pragma: no cover - exotic tree
        pass
    return plans


def check_plan(plan: PlanSite, *, has_teardown: bool, has_spot: bool,
               filename: str = "",
               budget_cap_usd: float = DEFAULT_BUDGET_CAP_USD) -> Report:
    """All COST-* checks for one plan (shared by the static pass and
    direct object-level use)."""
    report = Report()
    try:
        cost = plan_cost(plan.type_name, plan.expected_hours, plan.count)
    except CloudError as exc:
        report.add(make_finding(
            "COST-UNKNOWN-TYPE", str(exc), file=filename, line=plan.line,
            context=plan.type_name))
        return report
    what = (f"{plan.count}× {plan.type_name} for "
            f"{plan.expected_hours:g} h ≈ ${cost:.2f}")
    if cost > budget_cap_usd:
        report.add(make_finding(
            "COST-BUDGET-CAP",
            f"{what}, over the ${budget_cap_usd:.0f} per-student hard cap",
            file=filename, line=plan.line, context=plan.type_name))
    elif cost > LAB_COST_ENVELOPE_USD:
        report.add(make_finding(
            "COST-LAB-ENVELOPE",
            f"{what}, over the ~${LAB_COST_ENVELOPE_USD:.2f} Fig 5 "
            "per-lab envelope",
            file=filename, line=plan.line, context=plan.type_name))
    if plan.is_gpu and not has_teardown:
        report.add(make_finding(
            "COST-IDLE",
            f"plan launches {plan.count}× {plan.type_name} but the file "
            "never calls teardown()/terminate() and runs no IdleReaper",
            file=filename, line=plan.line, context=plan.type_name))
    if plan.is_gpu and plan.expected_hours >= SPOT_CANDIDATE_HOURS \
            and not has_spot:
        report.add(make_finding(
            "COST-SPOT",
            f"{plan.expected_hours:g} h on-demand on {plan.type_name} "
            "with no spot fallback in scope",
            file=filename, line=plan.line, context=plan.type_name))
    return report


def cost_pass(tree: ast.Module, filename: str) -> Report:
    """Run the COST-* plan checks over a parsed module."""
    report = Report()
    plans = extract_plans(tree)
    if not plans:
        return report
    idents = _identifiers(tree)
    has_teardown = bool(idents & _TEARDOWN_MARKERS)
    has_spot = bool(idents & _SPOT_MARKERS)
    for plan in plans:
        report.extend(check_plan(plan, has_teardown=has_teardown,
                                 has_spot=has_spot,
                                 filename=filename).findings)
    return report
