"""PERF-* — AST dataflow pass over host-side workflow code.

The anti-patterns the paper's labs lose the most simulated wall-clock
(and dollars) to live *outside* kernels, in the Python driving them:

* ``PERF-LOOP-TRANSFER`` — a host↔device transfer inside a loop whose
  arguments never change across iterations: the same bytes cross PCIe
  every pass.
* ``PERF-LOOP-ALLOC`` — a device allocation (``xp.zeros`` & co.,
  ``cuda.device_array``, ``make_system``) inside a loop with
  loop-invariant arguments: allocate once, reuse.
* ``PERF-BLOCKING-SYNC`` — ``stream.synchronize()`` / ``event.wait()``
  inside a loop drains the pipeline between every launch.
* ``PERF-UNBUCKETED`` — a per-tensor all-reduce issued once per
  parameter of a loop instead of one fused bucket
  (cross-checked against the analyzable markers exported by
  :mod:`repro.distributed.collectives`).

Loop-invariance is the hoistability test: a call is flagged only when
none of its argument names are bound inside the innermost enclosing
loop, i.e. when the offending line could move above the loop verbatim.
That keeps legitimately per-iteration work (fresh batches, loop-sized
buffers) silent — including everything in ``src/repro`` itself.
"""

from __future__ import annotations

import ast

from repro.analysis.context import Visitor, loop_bound_names, nodes_of, walk
from repro.analysis.rules import make_finding
from repro.distributed.collectives import PERFLINT_FUSED, PERFLINT_PER_TENSOR
from repro.sanitize.findings import Report

# host<->device transfer entry points; bare names or any attribute access
_TRANSFERS = {"to_device", "copy_to_host", "asnumpy"}
# transfers only when called through an xp-like alias (bare asarray/array
# is almost always numpy, which is host-side and cheap)
_XP_TRANSFERS = {"asarray", "array"}
# device allocators, only through an xp-like alias
_XP_ALLOCS = {"zeros", "ones", "empty", "full", "zeros_like", "ones_like",
              "empty_like", "arange", "linspace", "eye"}
# device allocators recognized under any spelling
_ALLOCS = {"device_array", "make_system"}
# blocking waits, only on names tainted as streams/events
_SYNC_ATTRS = {"synchronize", "wait", "wait_for"}
# producers that taint a name as a stream or event
_STREAM_MAKERS = {"stream", "create_stream", "event", "Event"}

_PER_TENSOR = set(PERFLINT_PER_TENSOR) - set(PERFLINT_FUSED)


def _xp_aliases(tree: ast.Module) -> set[str]:
    """Names bound to the ``repro.xp`` (or ``cupy``-like) namespace."""
    names = {"xp", "cp", "cupy"}
    for node in nodes_of(tree, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("repro.xp", "cupy") and alias.asname:
                    names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                for alias in node.names:
                    if alias.name == "xp":
                        names.add(alias.asname or alias.name)
    return names


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def _arg_names(call: ast.Call) -> set[str]:
    names: set[str] = set()
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for n in walk(arg):
            if isinstance(n, ast.Name):
                names.add(n.id)
    return names


class PerfPass(Visitor):
    """One file's PERF-* walk (module scope + every function body)."""

    def __init__(self, tree: ast.Module, filename: str) -> None:
        self.tree = tree
        self.filename = filename
        self.xp_names = _xp_aliases(tree)
        self.report = Report()
        self._loops: list[dict] = []      # {bound: set, targets: set}
        self._stream_names: set[str] = set()
        self._seen: set[tuple] = set()

    def run(self) -> Report:
        self.visit(self.tree)
        return self.report

    # -- bookkeeping ----------------------------------------------------

    def _emit(self, rule: str, message: str, line: int,
              context: str = "") -> None:
        key = (rule, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.add(make_finding(rule, message, file=self.filename,
                                     line=line, context=context))

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            name = _call_name(node.value.func)
            if name in _STREAM_MAKERS:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self._stream_names.add(t.id)
        self.generic_visit(node)

    def _visit_loop(self, node: ast.For | ast.While) -> None:
        targets: set[str] = set()
        if isinstance(node, ast.For):
            for n in walk(node.target):
                if isinstance(n, ast.Name):
                    targets.add(n.id)
            self.visit(node.iter)
        else:
            self.visit(node.test)
        self._loops.append({"bound": loop_bound_names(node),
                            "targets": targets})
        for stmt in list(node.body) + list(node.orelse):
            self.visit(stmt)
        self._loops.pop()

    visit_For = _visit_loop
    visit_While = _visit_loop

    # comprehensions build one element per iteration by design; their
    # bodies are not "loops" for the hoisting rules
    def visit_ListComp(self, node: ast.AST) -> None:  # noqa: D102
        pass

    visit_SetComp = visit_ListComp
    visit_DictComp = visit_ListComp
    visit_GeneratorExp = visit_ListComp

    # -- the rules ------------------------------------------------------

    def _loop_invariant(self, call: ast.Call) -> bool:
        if not self._loops:
            return False
        return not (_arg_names(call) & self._loops[-1]["bound"])

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        recv = _receiver(node.func)
        in_loop = bool(self._loops)
        is_xp = recv in self.xp_names

        if in_loop and (name in _TRANSFERS
                        or (is_xp and name in _XP_TRANSFERS)):
            if self._loop_invariant(node):
                self._emit(
                    "PERF-LOOP-TRANSFER",
                    f"`{ast.unparse(node.func)}(...)` transfers the same "
                    "data across PCIe on every iteration; nothing in its "
                    "arguments changes inside the loop",
                    node.lineno, context=name or "")
        elif in_loop and (name in _ALLOCS or (is_xp and name in _XP_ALLOCS)):
            if self._loop_invariant(node):
                self._emit(
                    "PERF-LOOP-ALLOC",
                    f"`{ast.unparse(node.func)}(...)` allocates a "
                    "same-shaped buffer on every iteration; allocate "
                    "once before the loop and reuse it",
                    node.lineno, context=name or "")
        elif in_loop and name in _SYNC_ATTRS and recv in self._stream_names:
            self._emit(
                "PERF-BLOCKING-SYNC",
                f"`{recv}.{name}()` blocks the host inside the loop, "
                "draining the pipeline between launches",
                node.lineno, context=recv or "")
        elif in_loop and name in _PER_TENSOR:
            if _arg_names(node) & self._loops[-1]["targets"]:
                self._emit(
                    "PERF-UNBUCKETED",
                    f"`{name}(...)` runs one ring per loop element "
                    "(per-parameter all-reduce); fuse the list into one "
                    "bucket with bucketed_allreduce",
                    node.lineno, context=name or "")
        self.generic_visit(node)


def perf_pass(tree: ast.Module, filename: str) -> Report:
    """Run the PERF-* loop/dataflow rules over a parsed module."""
    return PerfPass(tree, filename).run()
