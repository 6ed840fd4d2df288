"""One parse and one walk per file: the :class:`AnalysisContext` every
pass shares.

Before the unified framework, each analyzer family re-read and
re-parsed the same file — the kernel linter, the perflint families, and
the memcheck pass each called ``ast.parse`` on identical source.  The
context parses **exactly once** and hands every pass the same tree,
source, line index, namespace aliases, and suppression table
(:meth:`AnalysisContext.is_suppressed`, which every entry point applies
through the driver).

:func:`module_nodes` walks a parsed module **once** and keeps its
nodes, in ``ast.walk`` order, on the tree itself.  Every family's
whole-module scan for file-level facts (imports, kernel defs, launch
plans) reads that sequence, whether the pass is handed the context
(``ctx.nodes``) or only the tree; sub-tree walks (one statement, one
scope) stay walks.

``parse_count()`` / ``reset_parse_count()`` expose the framework's own
instrumentation: the test-suite runs the full all-analyzers driver over
the repository and asserts one parse per file (and, counting
``ast.walk`` calls, one walk per module).
"""

from __future__ import annotations

import ast
import re
import textwrap
from functools import cached_property
from pathlib import Path

_parse_count = 0


def parse_count() -> int:
    """How many times the framework has called ``ast.parse``."""
    return _parse_count


def reset_parse_count() -> None:
    global _parse_count
    _parse_count = 0


def module_nodes(tree: ast.Module) -> tuple[ast.AST, ...]:
    """Every node of ``tree`` in ``ast.walk`` order, walked once per tree.

    Pure in the tree, so the sequence is memoized on the module node
    itself: every pass that scans the whole module, handed a context or
    only the tree, reads the same tuple.
    """
    nodes = getattr(tree, "_repro_nodes", None)
    if nodes is None:
        nodes = tuple(ast.walk(tree))
        tree._repro_nodes = nodes
    return nodes


def _cuda_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to a cuda-like namespace (default: cuda)."""
    names = {"cuda"}
    for node in module_nodes(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "cuda":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(".cuda") and alias.asname:
                    names.add(alias.asname)
    return names


def _is_kernel_def(fn: ast.FunctionDef, cuda_names: set[str]) -> bool:
    """Is ``fn`` decorated ``@cuda.jit`` (or ``@cuda.jit(...)``) through
    one of ``cuda_names``?"""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "jit" \
                and isinstance(target.value, ast.Name) \
                and target.value.id in cuda_names:
            return True
    return False


def is_sync(stmt, cuda_names) -> bool:
    """Is ``stmt`` a barrier statement: ``cuda.syncthreads()`` through
    one of ``cuda_names``, or a bare ``syncthreads()``?  The JIT launcher
    compiles exactly these statements into ``yield``, so the analyzer
    and the executor agree on what a barrier is."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    func = stmt.value.func
    if isinstance(func, ast.Name):
        return func.id == "syncthreads"
    return (isinstance(func, ast.Attribute) and func.attr == "syncthreads"
            and isinstance(func.value, ast.Name)
            and func.value.id in cuda_names)


#: rule ids joined by commas (``SAN-OOB``, ``mem-leak``, ruff's
#: ``A001``); the list ends at the first word that is not one, so prose
#: after it (``# noqa: MEM-LEAK - demo``) names no rule, and a ``=`` or
#: ``:`` with no id after it names none at all
_RULE_LIST = r"(?P<rules>(?:\w+(?:-\w+)*(?:\s*,\s*\w+(?:-\w+)*)*)?)"

#: ``# repro: disable=RULE-A,RULE-B`` (or bare ``# repro: disable``)
_DISABLE_RE = re.compile(r"#\s*repro:\s*disable(?:\s*=\s*" + _RULE_LIST
                         + ")?")

#: memcheck's legacy ``# noqa`` / ``# noqa: MEM-LEAK``; it speaks for
#: MEM-* rules only, since ruff reads the same comment (``# noqa: A001``)
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*" + _RULE_LIST + ")?",
                      re.IGNORECASE)


def _marks(lines, pattern, first: int) -> dict[int, set[str]]:
    """Line -> rule ids a comment ``pattern`` names on it (``{"*"}``
    when it names none), numbering ``lines`` from ``first``."""
    out: dict[int, set[str]] = {}
    for n, line in enumerate(lines, start=first):
        m = pattern.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[n] = {"*"}
        else:
            out[n] = {r.strip().upper() for r in rules.split(",")
                      if r.strip()}
    return out


class AnalysisContext:
    """Everything the passes need about one file, computed once."""

    def __init__(self, source: str, filename: str = "<string>", *,
                 line_offset: int = 0) -> None:
        global _parse_count
        self.filename = filename or "<string>"
        self.source = source
        self.dedented = textwrap.dedent(source)   # preserves line numbers
        self.line_offset = line_offset
        self.syntax_error: SyntaxError | None = None
        _parse_count += 1
        try:
            tree = ast.parse(self.dedented, filename=self.filename)
        except SyntaxError as exc:
            self.syntax_error = exc
            tree = None
        else:
            if line_offset:
                ast.increment_lineno(tree, line_offset)
        self.tree: ast.Module | None = tree

    @classmethod
    def from_file(cls, path: str | Path) -> "AnalysisContext":
        path = Path(path)
        return cls(path.read_text(), filename=str(path))

    @property
    def ok(self) -> bool:
        return self.syntax_error is None

    # -- derived views, each computed at most once ----------------------

    @cached_property
    def lines(self) -> list[str]:
        return self.dedented.splitlines()

    def line_text(self, lineno: int) -> str:
        """Source text of a 1-based (offset-adjusted) line, or ``""``."""
        idx = lineno - self.line_offset - 1
        if 0 <= idx < len(self.lines):
            return self.lines[idx]
        return ""

    @cached_property
    def suppressions(self) -> dict[int, set[str]]:
        """``# repro: disable`` table: line -> suppressed rule ids
        (``{"*"}`` for a bare disable)."""
        return _marks(self.lines, _DISABLE_RE, 1 + self.line_offset)

    @cached_property
    def noqa(self) -> dict[int, set[str]]:
        """``# noqa`` table, the same shape; read for MEM-* rules only."""
        return _marks(self.lines, _NOQA_RE, 1 + self.line_offset)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """The one suppression check of every family and entry point:
        ``# repro: disable[=RULES]`` for any rule, ``# noqa[: RULES]``
        for MEM-* rules, both on offset-adjusted lines."""
        rule = rule.upper()
        marks = self.suppressions.get(line, ())
        if "*" in marks or rule in marks:
            return True
        if not rule.startswith("MEM-"):
            return False
        marks = self.noqa.get(line, ())
        return "*" in marks or rule in marks

    @property
    def nodes(self) -> tuple[ast.AST, ...]:
        """The module's nodes in ``ast.walk`` order (:func:`module_nodes`)."""
        return () if self.tree is None else module_nodes(self.tree)

    @cached_property
    def cuda_names(self) -> set[str]:
        """Names bound to a cuda-like namespace (kernel rules)."""
        if self.tree is None:
            return {"cuda"}
        return _cuda_aliases(self.tree)

    @cached_property
    def namespaces(self) -> tuple[set[str], set[str], set[str]]:
        """``(xp_names, nn_names, np_names)`` alias sets (shape passes)."""
        from repro.perflint.shapes import _namespace_aliases

        if self.tree is None:
            return {"xp"}, set(), {"np", "numpy"}
        return _namespace_aliases(self.tree)

    @cached_property
    def imports_repro(self) -> bool:
        """Does the module import anything from the simulated stack?
        The DET wall-clock rule only applies to simulated-clock code."""
        for node in self.nodes:
            if isinstance(node, ast.Import):
                if any(a.name == "repro" or a.name.startswith("repro.")
                       for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level == 0 and (mod == "repro"
                                        or mod.startswith("repro.")):
                    return True
        return False


__all__ = ["AnalysisContext", "is_sync", "module_nodes", "parse_count",
           "reset_parse_count"]
