"""IAM-* — least-privilege analysis of plans against attached policies.

The pass statically extracts, from one file, (a) the launch plans (via
:mod:`repro.perflint.costpass`) and (b) the IAM policies in scope —
``student_role("name")`` / ``instructor_role()`` factories,
``register_student("name")`` (which attaches a student role), and
literal ``Role(...)``/``Statement(...)`` constructions, including
later ``role.attach(Statement(...))`` calls.  It then diffs what the
plans *need* (the (action, resource) pairs their simulated API calls
authorize, from ``BootstrapScript.required_actions``) against what the
policies *grant* (via :func:`repro.cloud.iam.simulate_policy`):

* ``IAM-UNDER-GRANT`` (error) — a needed action every extracted policy
  denies: the plan will raise ``AccessDeniedError`` at runtime.  When a
  file defines several roles, the plan is judged against the one that
  covers it best — flagging a student plan because an unrelated
  instructor role also exists would be noise, and vice versa.
* ``IAM-OVER-GRANT`` (warning) — an Allow statement granting
  write/admin-class actions that match *none* of the plan's needs.
  Read-only grants (``Describe*``/``Get*``/``List*``/``Head*``) are
  considered benign and never flagged.

No plans in the file ⇒ no findings: a module that merely defines roles
(like ``repro.cloud.session``) has nothing to diff against.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import make_finding
from repro.cloud.iam import (
    Role,
    Statement,
    instructor_role,
    simulate_policy,
    student_role,
)
from repro.perflint.costpass import extract_plans
from repro.sanitize.findings import Report

_READONLY_VERBS = ("Describe", "Get", "List", "Head")


def _literal(node: ast.AST) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _build_statement(node: ast.Call) -> Statement | None:
    """A literal ``Statement(effect, actions, resources?)`` call."""
    args = [_literal(a) for a in node.args]
    kw = {k.arg: _literal(k.value) for k in node.keywords if k.arg}
    effect = kw.get("effect", args[0] if len(args) > 0 else None)
    actions = kw.get("actions", args[1] if len(args) > 1 else None)
    resources = kw.get("resources", args[2] if len(args) > 2 else ("*",))
    if not isinstance(effect, str) or actions is None:
        return None
    if isinstance(actions, str):
        actions = (actions,)
    if isinstance(resources, str):
        resources = (resources,)
    try:
        return Statement(effect=effect, actions=tuple(actions),
                         resources=tuple(resources))
    except Exception:
        return None


class _RoleCollector(ast.NodeVisitor):
    """Extract every policy construction (with source line) from a tree."""

    def __init__(self) -> None:
        self.roles: list[tuple[Role, int]] = []
        self._by_name: dict[str, Role] = {}   # env var -> role (for attach)

    def visit_Assign(self, node: ast.Assign) -> None:
        role = self._role_from(node.value)
        if role is not None:
            self.roles.append((role, node.lineno))
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self._by_name[t.id] = role
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "attach" and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.args and isinstance(node.args[0], ast.Call):
            role = self._by_name.get(node.func.value.id)
            st = _build_statement(node.args[0])
            if role is not None and st is not None:
                role.attach(st)
        elif name in ("register_student", "student_role",
                      "instructor_role"):
            # assigned factory calls are also reached here via
            # generic_visit; extract_roles collapses the duplicate by name
            role = self._role_from(node)
            if role is not None:
                self.roles.append((role, node.lineno))
        self.generic_visit(node)

    def _role_from(self, node: ast.AST) -> Role | None:
        if not isinstance(node, ast.Call):
            return None
        name = _call_name(node.func)
        if name in ("student_role", "register_student"):
            owner = _literal(node.args[0]) if node.args else None
            return student_role(owner if isinstance(owner, str)
                                else "student")
        if name == "instructor_role":
            return instructor_role()
        if name == "Role":
            kw = {k.arg: k.value for k in node.keywords if k.arg}
            role_name = _literal(kw.get("name",
                                        node.args[0] if node.args else None))
            stmts_node = kw.get("statements",
                                node.args[1] if len(node.args) > 1 else None)
            statements: list[Statement] = []
            if isinstance(stmts_node, (ast.List, ast.Tuple)):
                for elt in stmts_node.elts:
                    if isinstance(elt, ast.Call):
                        st = _build_statement(elt)
                        if st is not None:
                            statements.append(st)
            return Role(name=role_name if isinstance(role_name, str)
                        else "<role>", statements=statements)
        return None


def extract_roles(tree: ast.Module) -> list[tuple[Role, int]]:
    """Every IAM policy the module constructs, with its source line.

    Duplicate role constructions (e.g. a factory called once per student
    in a loop) collapse to the first occurrence by role name.
    """
    collector = _RoleCollector()
    collector.visit(tree)
    seen: set[str] = set()
    out: list[tuple[Role, int]] = []
    for role, line in collector.roles:
        key = role.name
        if key in seen:
            continue
        seen.add(key)
        out.append((role, line))
    return out


def _is_readonly(pattern: str) -> bool:
    """An action glob whose every expansion is read-only."""
    verb = pattern.split(":", 1)[-1]
    return verb.startswith(_READONLY_VERBS)


def diff_plan_against_role(needed: list[tuple[str, str]], role: Role,
                           filename: str = "", line: int = 0) -> Report:
    """IAM under/over-grant findings for one plan×policy pair."""
    report = Report()
    for action, resource in needed:
        verdict = simulate_policy(role, [action], resource=resource)
        if not verdict[action]:
            report.add(make_finding(
                "IAM-UNDER-GRANT",
                f"plan needs `{action}` on `{resource}` but role "
                f"`{role.name}` denies it — the run fails with "
                "AccessDeniedError",
                file=filename, line=line, context=role.name))
    needed_actions = [a for a, _ in needed]
    for st in role.statements:
        if st.effect != "Allow":
            continue
        if all(_is_readonly(p) for p in st.actions):
            continue
        if any(st.matches(action, resource)
               for action, resource in needed):
            continue
        report.add(make_finding(
            "IAM-OVER-GRANT",
            f"role `{role.name}` allows {list(st.actions)} on "
            f"{list(st.resources)}, none of which this plan's "
            f"{len(needed_actions)} simulated call(s) need",
            file=filename, line=line, context=role.name))
    return report


def iam_pass(tree: ast.Module, filename: str) -> Report:
    """Run the IAM-* least-privilege diff over a parsed module."""
    plans = extract_plans(tree)
    roles = extract_roles(tree)
    if not plans or not roles:
        return Report()
    report = Report()
    for plan in plans:
        needed = list(plan.required_actions())
        # judge the plan against its best-covering policy: the role with
        # the fewest denied needed actions (ties -> first defined)
        def denials(item: tuple[Role, int]) -> int:
            return sum(1 for a, r in needed
                       if not simulate_policy(item[0], [a],
                                              resource=r)[a])
        best_role, best_line = min(roles, key=denials)
        report.extend(diff_plan_against_role(
            needed, best_role, filename=filename, line=plan.line).findings)
    return report
