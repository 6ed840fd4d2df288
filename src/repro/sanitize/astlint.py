"""Static AST linter for ``@cuda.jit`` kernels and stream usage.

The pass reproduces, on the simulator, the checks students get from
``compute-sanitizer`` and code review on real hardware:

* ``SAN-OOB`` — a grid-derived index can run past a global (parameter)
  array's extent.  Launch grids are rounded up, so the last block
  always has threads past the end.
* ``SAN-SHARED-RACE`` — a shared-memory array is read at a different
  index than it was written, with no ``syncthreads()`` between the
  phases.
* ``SAN-BARRIER-DIV`` — ``syncthreads()`` under a branch whose predicate
  varies within a block: threads that skip the branch never reach the
  barrier and the block deadlocks.
* ``SAN-UNCOALESCED`` — neighbouring lanes of a warp index the innermost
  axis of a global array more than one element apart, so a warp touches
  scattered cache lines instead of one.
* ``SAN-BANK-CONFLICT`` — neighbouring lanes index a shared array with a
  stride sharing a factor with the 32 banks, serializing them on the
  same bank.
* ``SAN-STREAM-HAZARD`` — the same device buffer is passed to kernel
  launches on two different streams with no event dependency or
  synchronization between them.

Every kernel rule comes from one engine, the abstract interpreter
(:mod:`repro.analysis.absint`), which runs each kernel to a fixpoint
over intervals, affine index forms and the branch constraints on each
path (see ``docs/sanitizer.md``): SAN-OOB and SAN-BARRIER-DIV are its
proofs, SAN-UNCOALESCED and SAN-BANK-CONFLICT read the lane stride of
its affine forms, and SAN-SHARED-RACE is its phase rule over the
canonical unrolled schedule.  This module adds the host-side stream
scan.  Source reaches it only through the :mod:`repro.analysis` driver
(``analyze_source(src, name, analyzers=("kernel",))``, the CLI), which
also reports unparsable files and applies suppressions;
:func:`lint_kernel` finds a live kernel's source and hands it there.
"""

from __future__ import annotations

import ast

from repro.analysis.context import _is_kernel_def
from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report

# device-buffer producers recognized by the stream-hazard scan
_BUFFER_MAKERS = {"to_device", "device_array"}
_SYNC_ATTRS = {"synchronize", "wait_for", "record"}


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

def lint_context(ctx) -> Report:
    """Lint every ``@cuda.jit`` kernel (and the stream usage) in one
    parsed :class:`repro.analysis.context.AnalysisContext` — the
    driver's ``kernel`` family; this pass reads the shared
    ``ctx.nodes``.

    Every kernel rule is the abstract interpreter's
    (:func:`repro.analysis.absint.absint_context`, cached on the
    context, so the ``absint`` family reuses the same run): its SAN-*
    findings, without the VEC-* notes."""
    # the interpreter loads only when a file is linted
    from repro.analysis.absint import absint_context

    report = Report()
    filename = ctx.filename
    report.extend(f for f in absint_context(ctx).report.findings
                  if f.rule.startswith("SAN-"))
    cuda_names = ctx.cuda_names
    for node in ctx.nodes:
        if isinstance(node, ast.FunctionDef) \
                and not _is_kernel_def(node, cuda_names):
            report.extend(
                _StreamScan(cuda_names, filename).scan(node.body).findings)
    report.extend(
        _StreamScan(cuda_names, filename).scan(ctx.tree.body).findings)
    return report


def lint_kernel(kernel) -> Report:
    """Lint a live kernel: a :class:`repro.jit.cuda.CudaKernel`, a plain
    function, or a source string.  Its source runs through the driver's
    ``kernel`` family at the kernel's own lines, so suppressions and
    de-duplication are the CLI's."""
    import inspect

    from repro.analysis.driver import analyze_source

    if isinstance(kernel, str):
        return analyze_source(kernel, analyzers=("kernel",))
    fn = getattr(kernel, "fn", kernel)
    try:
        lines, start = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<kernel>"
    except (OSError, TypeError):
        raise ValueError(
            f"cannot retrieve source for {fn!r}; pass the source string")
    return analyze_source("".join(lines), filename, analyzers=("kernel",),
                          line_offset=start - 1)
