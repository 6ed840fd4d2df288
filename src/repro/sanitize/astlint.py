"""Static AST linter for ``@cuda.jit`` kernels and stream usage.

The pass reproduces, on the simulator, the checks students get from
``compute-sanitizer`` and code review on real hardware:

* ``SAN-OOB`` — a *grid-derived* index reaches a global (parameter) array
  with no dominating bounds guard.  Launch grids are rounded up, so the
  last block always has threads past the end.
* ``SAN-SHARED-RACE`` — a shared-memory cell is read at a different index
  than it was written, with no ``syncthreads()`` between the phases.
* ``SAN-BARRIER-DIV`` — ``syncthreads()`` inside a branch whose condition
  depends on the thread index: threads that skip the branch never reach
  the barrier and the block deadlocks.
* ``SAN-UNCOALESCED`` — the innermost index of a global access multiplies
  a thread-varying value by a constant stride, so a warp touches
  scattered cache lines instead of one.
* ``SAN-BANK-CONFLICT`` — a shared-memory index uses a stride sharing a
  factor with the 32 banks, serializing warp lanes on the same bank.
* ``SAN-STREAM-HAZARD`` — the same device buffer is passed to kernel
  launches on two different streams with no event dependency or
  synchronization between them.

Everything is heuristic in the way a linter is: taint is propagated
through straight-line assignments, a name compared inside an ``if`` test
counts as bounds-checked in the branch body (and, after an early-exit
``if i >= n: return``, in the straight-line code that survives it), and
loops are unrolled once for the phase analysis.  That is enough to be
exact on the kernel shapes the course teaches (elementwise, stencil,
tiled reduction/matmul).

When the abstract interpreter (:mod:`repro.analysis.absint`) runs next
to this pass, its proof-grade verdicts *own* SAN-OOB and
SAN-BARRIER-DIV for the kernels it analyzed — the heuristics here are
the fallback for everything else (see ``docs/sanitizer.md``).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cfg import unrolled_schedule
from repro.analysis.context import AnalysisContext, module_nodes
from repro.sanitize.findings import Report
from repro.sanitize.rules import make_finding

# -- taint lattice ----------------------------------------------------------

T_NONE = 0      # uniform across the block (constants, blockDim, sizes)
T_BLOCK = 1     # varies per block only (blockIdx)
T_THREAD = 2    # varies within a warp (threadIdx)
T_GLOBAL = 3    # varies across the whole grid (cuda.grid, bI*bD+tI)

_THREAD_VARYING = (T_THREAD, T_GLOBAL)

# device-buffer producers recognized by the stream-hazard scan
_BUFFER_MAKERS = {"to_device", "device_array"}
_SYNC_ATTRS = {"synchronize", "wait_for", "record"}


def _gcd32(stride: int) -> int:
    return math.gcd(stride, 32)


@dataclass
class _KernelEnv:
    """Per-kernel symbol knowledge built up during the walk."""

    cuda_names: set[str]
    params: set[str] = field(default_factory=set)
    shared: set[str] = field(default_factory=set)
    local: set[str] = field(default_factory=set)
    taint: dict[str, int] = field(default_factory=dict)


class _KernelLinter:
    """Runs all intra-kernel rules over one ``@cuda.jit`` function."""

    def __init__(self, fn: ast.FunctionDef, cuda_names: set[str],
                 filename: str) -> None:
        self.fn = fn
        self.filename = filename
        self.env = _KernelEnv(cuda_names=cuda_names)
        self.env.params = {a.arg for a in fn.args.args}
        self.report = Report()
        self._seen: set[tuple] = set()

    # -- cuda namespace recognition ------------------------------------

    def _is_cuda_attr(self, node: ast.AST, *path: str) -> bool:
        """Match ``cuda.a.b`` attribute chains (any registered alias)."""
        for attr in reversed(path):
            if not (isinstance(node, ast.Attribute) and node.attr == attr):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.env.cuda_names

    def _is_sync_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if self._is_cuda_attr(f, "syncthreads"):
            return True
        return isinstance(f, ast.Name) and f.id == "syncthreads"

    # -- taint ----------------------------------------------------------

    def _expr_taint(self, node: ast.AST) -> int:
        """Worst-case taint of an expression (BLOCK+THREAD => GLOBAL)."""
        kinds: set[int] = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute):
                if self._is_cuda_attr(n.value, "threadIdx"):
                    kinds.add(T_THREAD)
                elif self._is_cuda_attr(n.value, "blockIdx"):
                    kinds.add(T_BLOCK)
            elif isinstance(n, ast.Call) and self._is_cuda_attr(n.func, "grid"):
                kinds.add(T_GLOBAL)
            elif isinstance(n, ast.Name):
                t = self.env.taint.get(n.id, T_NONE)
                if t:
                    kinds.add(t)
        if not kinds:
            return T_NONE
        if T_GLOBAL in kinds or (T_BLOCK in kinds and T_THREAD in kinds):
            return T_GLOBAL
        return max(kinds)

    def _record_assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Call) \
                and self._is_cuda_attr(value.func, "grid"):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env.taint[elt.id] = T_GLOBAL
            return
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._record_assign(t, v)
            return
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call):
                if self._is_cuda_attr(value.func, "shared", "array"):
                    self.env.shared.add(target.id)
                    self.env.taint[target.id] = T_NONE
                    return
                if self._is_cuda_attr(value.func, "local", "array"):
                    self.env.local.add(target.id)
                    self.env.taint[target.id] = T_NONE
                    return
            self.env.taint[target.id] = self._expr_taint(value)

    # -- findings -------------------------------------------------------

    def _emit(self, rule: str, message: str, line: int,
              dedupe_key: tuple) -> None:
        if dedupe_key in self._seen:
            return
        self._seen.add(dedupe_key)
        self.report.add(make_finding(
            rule, message, file=self.filename, line=line,
            context=self.fn.name))

    # -- main walk ------------------------------------------------------

    def run(self) -> Report:
        self._visit_body(self.fn.body, guards=set(), divergence=0)
        self._phase_analysis()
        return self.report

    def _guard_names(self, test: ast.AST) -> set[str]:
        """Names a conditional test bounds-checks (any compared name that
        carries taint counts — `if i < out.size`, `if 1 <= i < n - 1`)."""
        names: set[str] = set()
        for n in ast.walk(test):
            if isinstance(n, ast.Compare):
                for sub in ast.walk(n):
                    if isinstance(sub, ast.Name) \
                            and self.env.taint.get(sub.id, T_NONE):
                        names.add(sub.id)
        return names

    def _visit_body(self, stmts, guards: set[str], divergence: int) -> None:
        guards = set(guards)
        for stmt in stmts:
            self._visit_stmt(stmt, guards, divergence)
            # early-exit bound check: after `if i >= n: return`, the
            # surviving straight-line code is guarded on `i` exactly as
            # if it were nested under `if i < n:` — without this, the
            # guard idiom Lab 5 teaches second is a false SAN-OOB
            if isinstance(stmt, ast.If) and not stmt.orelse \
                    and stmt.body and isinstance(
                        stmt.body[-1],
                        (ast.Return, ast.Break, ast.Continue, ast.Raise)):
                guards |= self._guard_names(stmt.test)

    def _visit_stmt(self, stmt: ast.stmt, guards: set[str],
                    divergence: int) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value, guards)
            for t in stmt.targets:
                self._check_expr(t, guards)
            for t in stmt.targets:
                self._record_assign(t, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._check_expr(stmt.value, guards)
            self._check_expr(stmt.target, guards)
            if isinstance(stmt.target, ast.Name):
                self.env.taint[stmt.target.id] = max(
                    self.env.taint.get(stmt.target.id, T_NONE),
                    self._expr_taint(stmt.value))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._check_expr(stmt.value, guards)
                self._record_assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.test, guards)
            branch_div = divergence + (
                1 if self._expr_taint(stmt.test) in _THREAD_VARYING else 0)
            self._visit_body(stmt.body,
                             guards | self._guard_names(stmt.test),
                             branch_div)
            self._visit_body(stmt.orelse, guards, branch_div)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.test, guards)
            branch_div = divergence + (
                1 if self._expr_taint(stmt.test) in _THREAD_VARYING else 0)
            self._visit_body(stmt.body, guards, branch_div)
            self._visit_body(stmt.orelse, guards, branch_div)
        elif isinstance(stmt, ast.For):
            self._check_expr(stmt.iter, guards)
            loop_guards, loop_div = self._for_header(stmt, guards, divergence)
            self._visit_body(stmt.body, loop_guards, loop_div)
            self._visit_body(stmt.orelse, guards, divergence)
        elif isinstance(stmt, ast.Expr):
            if self._is_sync_call(stmt.value):
                if divergence > 0:
                    self._emit(
                        "SAN-BARRIER-DIV",
                        "syncthreads() inside a thread-divergent branch "
                        "deadlocks the block (threads that skip the branch "
                        "never reach the barrier)",
                        stmt.lineno, ("div", stmt.lineno))
            else:
                self._check_expr(stmt.value, guards)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, guards)
        # other statement kinds carry no kernel semantics we model

    def _for_header(self, stmt: ast.For, guards: set[str],
                    divergence: int):
        """Loop-variable taint and guarding for ``for v in range(...)``."""
        loop_guards = set(guards)
        loop_div = divergence
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and it.args:
            stop = it.args[1] if len(it.args) >= 2 else it.args[0]
            arg_taint = max((self._expr_taint(a) for a in it.args),
                            default=T_NONE)
            if isinstance(stmt.target, ast.Name):
                self.env.taint[stmt.target.id] = arg_taint
                # a loop bounded by a uniform extent (arr.size, a constant,
                # a scalar parameter) cannot run past that extent
                if self._expr_taint(stop) not in _THREAD_VARYING:
                    loop_guards.add(stmt.target.id)
            if arg_taint in _THREAD_VARYING:
                loop_div += 1
        elif isinstance(stmt.target, ast.Name):
            self.env.taint[stmt.target.id] = self._expr_taint(it)
        return loop_guards, loop_div

    # -- expression-level access checks ---------------------------------

    def _check_expr(self, node: ast.AST, guards: set[str]) -> None:
        if isinstance(node, ast.IfExp):
            self._check_expr(node.test, guards)
            self._check_expr(node.body,
                             guards | self._guard_names(node.test))
            self._check_expr(node.orelse, guards)
            return
        if isinstance(node, ast.Subscript):
            self._check_subscript(node, guards)
            self._check_expr(node.value, guards)
            self._check_expr(node.slice, guards)
            return
        for child in ast.iter_child_nodes(node):
            self._check_expr(child, guards)

    def _index_elements(self, node: ast.Subscript) -> list[ast.AST]:
        sl = node.slice
        if isinstance(sl, ast.Tuple):
            return list(sl.elts)
        return [sl]

    def _check_subscript(self, node: ast.Subscript, guards: set[str]) -> None:
        if not isinstance(node.value, ast.Name):
            return
        base = node.value.id
        elements = self._index_elements(node)
        if base in self.env.local:
            return
        if base in self.env.shared:
            self._check_bank_conflict(base, node, elements)
            return
        if base in self.env.params:
            self._check_oob(base, node, elements, guards)
            self._check_coalescing(base, node, elements)

    def _check_oob(self, base: str, node: ast.Subscript,
                   elements, guards: set[str]) -> None:
        for elem in elements:
            if self._expr_taint(elem) != T_GLOBAL:
                continue
            direct_grid = any(
                isinstance(n, ast.Call) and self._is_cuda_attr(n.func, "grid")
                for n in ast.walk(elem))
            tainted_names = {
                n.id for n in ast.walk(elem) if isinstance(n, ast.Name)
                and self.env.taint.get(n.id, T_NONE) == T_GLOBAL}
            if direct_grid or not tainted_names <= guards:
                self._emit(
                    "SAN-OOB",
                    f"grid-derived index into `{base}` has no bounds "
                    "guard; the rounded-up launch grid will index past "
                    "the end",
                    node.lineno, ("oob", base, node.lineno))
                return

    def _const_stride(self, elem: ast.AST) -> int | None:
        """Return c for ``tainted * c`` / ``c * tainted`` index shapes."""
        if not isinstance(elem, ast.BinOp) or not isinstance(elem.op, ast.Mult):
            return None
        left, right = elem.left, elem.right
        for var, const in ((left, right), (right, left)):
            if isinstance(const, ast.Constant) \
                    and isinstance(const.value, int) \
                    and self._expr_taint(var) in _THREAD_VARYING:
                return const.value
        return None

    def _check_coalescing(self, base: str, node: ast.Subscript,
                          elements) -> None:
        stride = self._const_stride(elements[-1])
        if stride is not None and stride > 1:
            self._emit(
                "SAN-UNCOALESCED",
                f"global access `{base}[... * {stride}]` makes a warp "
                f"touch every {stride}-th element; consecutive threads "
                "should touch consecutive elements",
                node.lineno, ("coalesce", base, node.lineno))

    def _check_bank_conflict(self, base: str, node: ast.Subscript,
                             elements) -> None:
        for elem in elements:
            stride = self._const_stride(elem)
            if stride is not None and stride > 1 and _gcd32(stride) > 1:
                self._emit(
                    "SAN-BANK-CONFLICT",
                    f"shared access `{base}[... * {stride}]` maps "
                    f"{_gcd32(stride)} warp lanes to the same bank "
                    f"({_gcd32(stride)}-way conflict)",
                    node.lineno, ("bank", base, node.lineno))

    # -- shared-memory phase analysis (SAN-SHARED-RACE) -----------------

    def _phase_analysis(self) -> None:
        events = self._events(unrolled_schedule(self.fn.body))
        pending: dict[str, list[tuple[str, int]]] = {}
        for ev in events:
            kind = ev[0]
            if kind == "sync":
                pending.clear()
            elif kind == "read":
                _, name, idx, line = ev
                for widx, wline in pending.get(name, ()):
                    if widx != idx:
                        self._emit(
                            "SAN-SHARED-RACE",
                            f"`{name}[{idx}]` is read without a "
                            "syncthreads() after the write to "
                            f"`{name}[{widx}]` on line {wline}; another "
                            "thread's write may not be visible yet",
                            line, ("race", name, line, wline))
            elif kind == "write":
                _, name, idx, line = ev
                pending.setdefault(name, []).append((idx, line))

    def _events(self, schedule) -> list[tuple]:
        """Map the canonical unrolled schedule (loop bodies repeated so a
        write in iteration N meets the read in N+1, ``if`` arms
        concatenated — see :func:`repro.analysis.cfg.unrolled_schedule`)
        to (sync|read|write) events."""
        out: list[tuple] = []
        for stmt in schedule:
            if isinstance(stmt, ast.Expr) and self._is_sync_call(stmt.value):
                out.append(("sync", stmt.lineno))
            else:
                out.extend(self._stmt_events(stmt))
        return out

    def _stmt_events(self, stmt: ast.stmt) -> list[tuple]:
        reads: list[tuple] = []
        writes: list[tuple] = []
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Subscript) \
                    or not isinstance(n.value, ast.Name) \
                    or n.value.id not in self.env.shared:
                continue
            idx = ast.unparse(n.slice)
            ev = (n.value.id, idx, n.lineno)
            if isinstance(n.ctx, ast.Store):
                writes.append(("write", *ev))
            else:
                reads.append(("read", *ev))
            if isinstance(stmt, ast.AugAssign) and n is stmt.target:
                # `a[i] op= ...` both reads and writes the target cell
                reads.append(("read", *ev))
        return reads + writes


# -- stream-hazard scan (module- or function-level straight-line code) -----

class _StreamScan:
    """Linear scan for same-buffer launches on two streams with no
    intervening event dependency or synchronization."""

    def __init__(self, cuda_names: set[str], filename: str) -> None:
        self.cuda_names = cuda_names
        self.filename = filename
        self.streams: set[str] = set()
        self.buffers: set[str] = set()
        self.last_stream: dict[str, tuple[str, int]] = {}
        self.report = Report()

    def scan(self, stmts) -> Report:
        for stmt in stmts:
            self._stmt(stmt)
        return self.report

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            self._classify_assign(stmt)
        for call in [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]:
            self._call(call)

    def _classify_assign(self, stmt: ast.Assign) -> None:
        func = stmt.value.func
        is_stream = (
            (isinstance(func, ast.Attribute) and func.attr in
             ("stream", "create_stream"))
        )
        is_buffer = (isinstance(func, ast.Attribute)
                     and func.attr in _BUFFER_MAKERS)
        for t in stmt.targets:
            if not isinstance(t, ast.Name):
                continue
            if is_stream:
                self.streams.add(t.id)
            elif is_buffer:
                self.buffers.add(t.id)

    def _call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SYNC_ATTRS:
            # a recorded event / wait / synchronize orders the streams;
            # the coarse reset matches how the labs actually fence
            self.last_stream.clear()
            return
        if not isinstance(func, ast.Subscript):
            return
        stream = self._launch_stream(func)
        line = call.lineno
        for arg in call.args:
            if not isinstance(arg, ast.Name) or arg.id not in self.buffers:
                continue
            prev = self.last_stream.get(arg.id)
            if prev is not None and prev[0] != stream:
                self.report.add(make_finding(
                    "SAN-STREAM-HAZARD",
                    f"buffer `{arg.id}` was enqueued on stream "
                    f"`{prev[0]}` (line {prev[1]}) and is re-enqueued on "
                    f"`{stream}` with no event dependency between them",
                    file=self.filename, line=line, context=arg.id))
            self.last_stream[arg.id] = (stream, line)

    def _launch_stream(self, func: ast.Subscript) -> str:
        sl = func.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) >= 3:
            third = sl.elts[2]
            if isinstance(third, ast.Name):
                return third.id
            return ast.dump(third)
        return "<default>"


# -- entry points -----------------------------------------------------------

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
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "jit" \
                and isinstance(target.value, ast.Name) \
                and target.value.id in cuda_names:
            return True
    return False


def lint_context(ctx) -> Report:
    """Lint every ``@cuda.jit`` kernel (and the stream usage) in one
    shared :class:`repro.analysis.context.AnalysisContext` — the parse
    already happened; this pass reads the shared ``ctx.nodes``."""
    report = Report()
    filename = ctx.filename
    if ctx.tree is None:
        exc = ctx.syntax_error
        report.add(make_finding(
            "SAN-SYNTAX", f"syntax error: {exc.msg}", file=filename,
            line=(exc.lineno or 0) + ctx.line_offset))
        return report
    tree = ctx.tree
    cuda_names = ctx.cuda_names
    for node in ctx.nodes:
        if isinstance(node, ast.FunctionDef):
            if _is_kernel_def(node, cuda_names):
                report.extend(
                    _KernelLinter(node, cuda_names, filename).run().findings)
            else:
                report.extend(
                    _StreamScan(cuda_names, filename).scan(node.body).findings)
    report.extend(_StreamScan(cuda_names, filename).scan(tree.body).findings)
    return report


def lint_source(source: str, filename: str = "<string>",
                line_offset: int = 0) -> Report:
    """Lint a source string; ``line_offset`` shifts reported lines for
    snippets extracted from a larger file."""
    return lint_context(AnalysisContext(source, filename=filename,
                                        line_offset=line_offset))


def lint_file(path: str | Path) -> Report:
    path = Path(path)
    return lint_source(path.read_text(), filename=str(path))


def lint_paths(paths) -> Report:
    """Lint files and/or directories (recursing into ``*.py``)."""
    report = Report()
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            report.extend(lint_file(f).findings)
    return report


def lint_kernel(kernel) -> Report:
    """Lint a live kernel: a :class:`repro.jit.cuda.CudaKernel`, a plain
    function, or a source string."""
    import inspect

    if isinstance(kernel, str):
        return lint_source(kernel)
    fn = getattr(kernel, "fn", kernel)
    try:
        lines, start = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<kernel>"
    except (OSError, TypeError):
        raise ValueError(
            f"cannot retrieve source for {fn!r}; pass the source string")
    return lint_source("".join(lines), filename=filename,
                       line_offset=start - 1)
