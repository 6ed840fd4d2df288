"""One parse and one walk per file: the :class:`AnalysisContext` every
pass shares, and the traversal layer every analyzer walks trees with.

Before the unified framework, each analyzer family re-read and
re-parsed the same file — the kernel linter, the perflint families, and
the memcheck pass each called ``ast.parse`` on identical source.  The
context parses **exactly once** and hands every pass the same tree,
source, line index, namespace aliases, and suppression table
(:meth:`AnalysisContext.is_suppressed`, which every entry point applies
through the driver).

The traversal layer replaces the stdlib's generators in every analyzer
(``analysis/``, ``perflint/``, ``memcheck/``, ``sanitize/``):

* :func:`children` and :func:`walk` return exactly the nodes
  ``ast.iter_child_nodes`` and ``ast.walk`` yield, in the same order,
  from one flat loop over each node's ``_fields`` instead of a pair of
  generators per node.
* :class:`Visitor` keeps ``ast.NodeVisitor``'s contract
  (``visit_<Class>`` methods, else :meth:`Visitor.generic_visit`) over
  :func:`children`, and looks each node class's method up once per
  visitor class.
* A parsed module is walked **once**: the nodes below it, in
  ``ast.walk`` order, are kept on the tree itself (never the tree, so
  a module is no reference cycle), and the same pass files each node's
  position under its class.  :func:`nodes_of` reads that index: the
  module's nodes of some concrete classes, in walk order.  Every
  family's whole-module scan for file-level facts (imports, kernel
  defs, launch plans) reads it, whether the pass is handed the context
  or only the tree, so no scan filters every node of the module.
  :func:`module_nodes` (``ctx.nodes``) is the whole sequence.  The
  walk stays lazy: parsing a file walks nothing.

``parse_count()`` / ``reset_parse_count()`` expose the framework's own
instrumentation: the test-suite runs the full all-analyzers driver over
the repository and asserts one parse per file (and, counting walks of
an ``ast.Module``, one walk per module).
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


_AST = ast.AST

#: node classes with nothing but a load/store context below them: a
#: walk that looks for calls, statements or assignments need not expand
#: them (names and contexts are about half of a module's nodes)
LEAVES = (ast.Name, ast.Constant, ast.expr_context)


def children(node: ast.AST) -> list[ast.AST]:
    """The nodes ``ast.iter_child_nodes(node)`` yields, in its order."""
    out = []
    for name in node._fields:
        field = getattr(node, name, None)
        if isinstance(field, _AST):
            out.append(field)
        elif isinstance(field, list):
            for item in field:
                if isinstance(item, _AST):
                    out.append(item)
    return out


def walk(node: ast.AST) -> list[ast.AST]:
    """The nodes ``ast.walk(node)`` yields, in its breadth-first order.

    The loop runs over the list it appends to, so each node's children
    join the queue as it is reached; the body is :func:`children`'s,
    inlined, since this is the analyzers' hottest loop."""
    nodes = [node]
    for node in nodes:
        for name in node._fields:
            field = getattr(node, name, None)
            if isinstance(field, _AST):
                nodes.append(field)
            elif isinstance(field, list):
                for item in field:
                    if isinstance(item, _AST):
                        nodes.append(item)
    return nodes


class Visitor:
    """``ast.NodeVisitor`` over :func:`children`: ``visit(node)`` calls
    the subclass's ``visit_<Class>`` method for the node's class, else
    :meth:`generic_visit`, which does the same for each child in order.
    The method for each node class is looked up once per visitor class,
    and :meth:`generic_visit` dispatches the children itself, so a
    subclass overrides ``visit_<Class>`` and ``generic_visit``, never
    ``visit``."""

    _methods: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._methods = {}

    @classmethod
    def _method(cls, kind: type):
        method = getattr(cls, "visit_" + kind.__name__, cls.generic_visit)
        cls._methods[kind] = method
        return method

    def visit(self, node: ast.AST):
        kind = node.__class__
        return (self._methods.get(kind) or self._method(kind))(self, node)

    def generic_visit(self, node: ast.AST) -> None:
        methods = self._methods
        for child in children(node):
            kind = child.__class__
            (methods.get(kind) or self._method(kind))(self, child)


def _walked(tree: ast.Module) -> tuple[tuple, dict]:
    """``(below, index)``: the nodes under ``tree`` in ``ast.walk``
    order, and each class's positions among them, from one walk
    memoized on the tree.  The memo never holds the tree itself: a
    sequence stored on the tree that held the tree would make every
    parsed module a reference cycle, freed only by a full garbage
    collection instead of when its last user drops it."""
    memo = getattr(tree, "_repro_walk", None)
    if memo is None:
        below = tuple(walk(tree)[1:])
        index: dict[type, list[int]] = {}
        for pos, node in enumerate(below):
            index.setdefault(node.__class__, []).append(pos)
        memo = tree._repro_walk = (below, index)
    return memo


def module_nodes(tree: ast.Module) -> tuple[ast.AST, ...]:
    """Every node of ``tree`` in ``ast.walk`` order, the tree first,
    from the one walk per tree that every pass shares, handed a context
    or only the tree."""
    return (tree, *_walked(tree)[0])


_CONCRETE: set[type] = set()


def _concrete(kind) -> type:
    """``kind`` if it is a class parsed nodes are instances of; an
    abstract class (``ast.stmt``, ``ast.expr``) has no fields of its own
    and node classes under it."""
    if kind not in _CONCRETE:
        if not (type(kind) is type and issubclass(kind, _AST)) \
                or (not kind._fields and kind.__subclasses__()):
            raise TypeError(f"nodes_of takes concrete node classes, "
                            f"not {kind!r}")
        _CONCRETE.add(kind)
    return kind


def nodes_of(tree: ast.Module, *kinds: type) -> list[ast.AST]:
    """The module's nodes whose class is one of ``kinds``, in
    ``ast.walk`` order (also when several classes are mixed): what
    filtering :func:`module_nodes` by ``isinstance`` gives, read from
    the per-class index instead of testing every node."""
    below, index = _walked(tree)
    if len(kinds) == 1:
        positions = index.get(_concrete(kinds[0]), ())
    else:
        positions = sorted(pos for kind in set(kinds)
                           for pos in index.get(_concrete(kind), ()))
    found = [below[pos] for pos in positions]
    if tree.__class__ in kinds:
        found.insert(0, tree)           # the walk yields the tree first
    return found


def loop_bound_names(loop: ast.stmt) -> frozenset[str]:
    """Every name a loop (re)binds: stores in its body and ``else``,
    then in its target (a ``for``'s; a ``while`` has none)."""
    parts: list[ast.AST] = [*loop.body, *loop.orelse]
    target = getattr(loop, "target", None)
    if target is not None:
        parts.append(target)
    return frozenset(n.id for part in parts for n in walk(part)
                     if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store))


def _cuda_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to a cuda-like namespace (default: cuda)."""
    names = {"cuda"}
    for node in nodes_of(tree, ast.Import, ast.ImportFrom):
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

    @cached_property
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
        if self.tree is None:
            return False
        for node in nodes_of(self.tree, ast.Import, ast.ImportFrom):
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


__all__ = ["LEAVES", "AnalysisContext", "Visitor", "children", "is_sync",
           "loop_bound_names", "module_nodes", "nodes_of", "parse_count",
           "reset_parse_count", "walk"]
