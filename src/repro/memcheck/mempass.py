"""MEM-* — device-memory liveness analysis over workflow ASTs.

A dataflow pass built on perflint's abstract shape interpreter
(:class:`repro.perflint.shapes.ShapeInterp`): while the parent class
propagates shapes/dtypes through ``xp``/``nn`` call chains, this
subclass additionally

* tracks named device buffers produced by ``device.alloc(...)`` through
  a live → freed state machine, emitting ``MEM-LEAK`` on rebinding or
  loop re-allocation without ``.free()``, ``MEM-UAF`` on any use after a
  ``.free()`` reaches the name, and ``MEM-CHURN`` for loop-invariant
  alloc/free pairs that should hoist;
* measures the *live set* after every statement — the bytes of every
  device-resident abstract array, module parameter block, and tracked
  buffer currently reachable — and keeps the high-water mark, which
  :func:`mem_pass` then checks against the target instance's GPU memory
  (``MEM-PEAK-OOM`` with a priced right-sizing suggestion);
* accumulates pinned host staging (``pinned_empty`` and friends) and
  flags oversubscription (``MEM-PINNED-OVERSUB``).

Loops run their body *twice*: the second pass observes the bindings the
first pass left behind, which is what catches allocated-every-iteration
leaks and cross-iteration use-after-free without path explosion.
Findings dedup on (rule, line), so the double walk never double-reports.

Like the shape pass, precision beats recall: a buffer the interpreter
cannot size is still tracked for leak/UAF state, but anything it cannot
*prove* is never reported.  The pass itself suppresses nothing: the
:mod:`repro.analysis` driver drops findings on lines marked ``# noqa`` /
``# noqa: MEM-LEAK`` (or ``# repro: disable``), which is how an
intentionally-leaky teaching fixture ships without tripping the CI gate.
"""

from __future__ import annotations

import ast

import numpy as np

from repro.analysis.cfg import LOOP_PASSES
from repro.analysis.context import module_nodes
from repro.analysis.rules import make_finding
from repro.cloud.pricing import get_instance_type
from repro.errors import CloudError
from repro.gpu.specs import get_spec
from repro.memcheck.estimate import (
    Preflight,
    preflight,
    right_size,
    usable_gpu_bytes,
)
from repro.gpu.memory import DEFAULT_HOST_RAM_BYTES, DEFAULT_RESERVE_FRACTION, format_bytes
from repro.perflint.costpass import extract_plans
from repro.perflint.shapes import (
    _UNKNOWN,
    AbstractArray,
    AbstractModule,
    ShapeInterp,
    _namespace_aliases,
)
from repro.sanitize.findings import Report

#: method names whose call result is a tracked device buffer
_BUFFER_PRODUCERS = {"alloc"}

#: call names that wire down pinned host staging
_PINNED_PRODUCERS = {"pinned_empty", "pinned_array", "page_locked_empty"}

#: flag when cumulative pinned staging crosses this fraction of host RAM
PINNED_OVERSUB_FRACTION = 0.5

class BufferInfo:
    """Liveness state of one named device buffer."""

    __slots__ = ("name", "nbytes", "line", "state", "loop", "freed_line",
                 "arg_names")

    def __init__(self, name: str, nbytes: int, line: int,
                 loop: bool, arg_names: frozenset[str]) -> None:
        self.name = name
        self.nbytes = nbytes          # -1 when the size is unknowable
        self.line = line
        self.state = "live"           # "live" | "freed"
        self.loop = loop
        self.freed_line = 0
        self.arg_names = arg_names

    def copy(self) -> "BufferInfo":
        dup = BufferInfo(self.name, self.nbytes, self.line, self.loop,
                         self.arg_names)
        dup.state = self.state
        dup.freed_line = self.freed_line
        return dup


class MemInterp(ShapeInterp):
    """Shape interpretation + buffer liveness + live-set accounting."""

    def __init__(self, filename: str, report: Report,
                 xp_names: set[str], nn_names: set[str],
                 np_names: set[str], *,
                 host_ram_bytes: int = DEFAULT_HOST_RAM_BYTES) -> None:
        super().__init__(filename, report, xp_names, nn_names, np_names)
        self.host_ram_bytes = host_ram_bytes
        self.buffers: dict[str, BufferInfo] = {}
        self.peak_live_bytes = 0
        self.peak_line = 0
        self.pinned_bytes = 0
        self._loop_bound: list[set[str]] = []

    # -- findings -------------------------------------------------------

    def _emit(self, rule: str, message: str, line: int) -> None:
        # the inherited shape machinery reports PERF-SHAPE / PERF-DTYPE;
        # those belong to the perf family, not this pass — drop them so
        # `--analyzers mem` emits only MEM-* and `perf,mem` runs never
        # double-report
        if not rule.startswith("MEM-"):
            return
        self._emit_mem(rule, message, line)

    def _emit_mem(self, rule: str, message: str, line: int,
                  context: str = "") -> None:
        key = (rule, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.add(make_finding(rule, message, file=self.filename,
                                     line=line, context=context))

    # -- live-set accounting --------------------------------------------

    def _module_bytes(self, mod: AbstractModule) -> int:
        if mod.kind == "linear" and mod.in_features > 0:
            return 4 * (mod.in_features * mod.out_features
                        + mod.out_features)
        if mod.kind == "seq":
            return sum(self._module_bytes(c) for c in mod.children)
        return 0

    def _live_bytes(self) -> int:
        total = 0
        seen_ids: set[int] = set()
        for value in self.env.values():
            if id(value) in seen_ids:
                continue               # aliases (b = a) count once
            seen_ids.add(id(value))
            if isinstance(value, AbstractArray) and value.device:
                try:
                    itemsize = np.dtype(value.dtype).itemsize
                except TypeError:
                    itemsize = 4
                total += value.size * itemsize
            elif isinstance(value, AbstractModule):
                total += self._module_bytes(value)
        for buf in self.buffers.values():
            if buf.state == "live" and buf.nbytes > 0:
                total += buf.nbytes
        return total

    def _note_live(self, line: int) -> None:
        live = self._live_bytes()
        if live > self.peak_live_bytes:
            self.peak_live_bytes = live
            self.peak_line = line

    # -- statement walk -------------------------------------------------

    def run(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)
            self._note_live(stmt.lineno)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_rebinds(stmt)
            super()._stmt(stmt)
            self._track_alloc_assign(stmt)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    buf = self.buffers.get(target.id)
                    if buf is not None and buf.state == "live":
                        self._emit_mem(
                            "MEM-LEAK",
                            f"device buffer {target.id!r} (allocated at "
                            f"line {buf.line}{self._size_note(buf)}) is "
                            f"deleted without .free(); the pool never "
                            f"gets the bytes back",
                            stmt.lineno, context=target.id)
                        del self.buffers[target.id]
            return
        if isinstance(stmt, (ast.For, ast.While)):
            self._loop(stmt)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = MemInterp(self.filename, self.report, self.xp_names,
                              self.nn_names, self.np_names,
                              host_ram_bytes=self.host_ram_bytes)
            inner.env = dict(self.env)
            inner._seen = self._seen
            # the function body sees (copies of) outer buffers, so a
            # free inside the function neither leaks nor poisons the
            # caller's view — one-shot inlining, precision over recall
            inner.buffers = {k: b.copy() for k, b in self.buffers.items()}
            inner.pinned_bytes = self.pinned_bytes
            for a in (stmt.args.args + stmt.args.kwonlyargs
                      + stmt.args.posonlyargs):
                inner.env[a.arg] = _UNKNOWN
            inner.run(list(stmt.body))
            if inner.peak_live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = inner.peak_live_bytes
                self.peak_line = inner.peak_line
            self.pinned_bytes = max(self.pinned_bytes, inner.pinned_bytes)
            return
        super()._stmt(stmt)

    def _loop(self, stmt: ast.For | ast.While) -> None:
        if isinstance(stmt, ast.For):
            self._eval(stmt.iter)
            for n in ast.walk(stmt.target):
                if isinstance(n, ast.Name):
                    self.env[n.id] = _UNKNOWN
        else:
            self._eval(stmt.test)
        bound: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
        self._loop_bound.append(bound)
        try:
            # the framework's canonical schedule: LOOP_PASSES passes, so
            # the second observes what iteration one left bound, catching
            # realloc-without-free and cross-iteration UAF; (rule, line)
            # dedup keeps reports single
            for _ in range(LOOP_PASSES):
                self.run(list(stmt.body))
        finally:
            self._loop_bound.pop()
        self.run(list(stmt.orelse))

    @property
    def _in_loop(self) -> bool:
        return bool(self._loop_bound)

    def _all_loop_bound(self) -> set[str]:
        out: set[str] = set()
        for s in self._loop_bound:
            out |= s
        return out

    # -- buffer tracking ------------------------------------------------

    @staticmethod
    def _size_note(buf: BufferInfo) -> str:
        return f", {format_bytes(buf.nbytes)}" if buf.nbytes > 0 else ""

    def _check_rebinds(self, stmt: ast.Assign) -> None:
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            buf = self.buffers.get(target.id)
            if buf is None:
                continue
            if buf.state == "live":
                if self._in_loop and buf.loop:
                    msg = (f"device buffer {target.id!r} is allocated in "
                           f"a loop (line {buf.line}"
                           f"{self._size_note(buf)}) and never freed: "
                           f"every iteration leaks the previous buffer")
                else:
                    msg = (f"device buffer {target.id!r} (allocated at "
                           f"line {buf.line}{self._size_note(buf)}) is "
                           f"rebound without .free(); its storage is "
                           f"unreachable but still charged to the pool")
                self._emit_mem("MEM-LEAK", msg, stmt.lineno,
                               context=target.id)
            del self.buffers[target.id]

    def _track_alloc_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0],
                                                    ast.Name):
            return
        call = stmt.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _BUFFER_PRODUCERS):
            return
        name = stmt.targets[0].id
        nbytes = -1
        if call.args:
            src = self._eval(call.args[0])
            if isinstance(src, AbstractArray):
                try:
                    nbytes = src.size * np.dtype(src.dtype).itemsize
                except TypeError:
                    nbytes = -1
        arg_names = frozenset(
            n.id for a in call.args for n in ast.walk(a)
            if isinstance(n, ast.Name))
        self.buffers[name] = BufferInfo(
            name, nbytes, stmt.lineno, loop=self._in_loop,
            arg_names=arg_names)
        # the binding is the buffer handle, not an array — keep the env
        # entry opaque so the live set does not double-count it
        self.env[name] = _UNKNOWN

    # -- expression hooks -----------------------------------------------

    def _binop_value(self, left: object, right: object, op: ast.operator,
                     line: int, is_compare: bool = False) -> object:
        out = super()._binop_value(left, right, op, line, is_compare)
        # scalar ops return the operand *instance* unchanged in the shape
        # pass; at runtime they materialize a new array, and the live set
        # dedups on identity to handle aliasing (b = a) — so freshen the
        # identity to count the result separately
        if isinstance(out, AbstractArray) and (out is left or out is right):
            return AbstractArray(shape=out.shape, dtype=out.dtype,
                                 device=out.device)
        return out

    def _eval(self, node: ast.AST) -> object:
        if isinstance(node, ast.Name):
            buf = self.buffers.get(node.id)
            if buf is not None and buf.state == "freed":
                self._emit_mem(
                    "MEM-UAF",
                    f"use of device buffer {node.id!r} after .free() at "
                    f"line {buf.freed_line}; at runtime this raises "
                    f"DeviceError",
                    node.lineno, context=node.id)
        return super()._eval(node)

    def _call(self, node: ast.Call) -> object:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            buf = self.buffers.get(func.value.id)
            if buf is not None and func.attr == "free" and not node.args:
                # intercepted before the receiver Name is evaluated, so
                # a repeated .free() (idempotent at runtime) is not
                # mistaken for a use-after-free
                if buf.state == "live":
                    buf.state = "freed"
                    buf.freed_line = node.lineno
                    if self._in_loop and buf.loop \
                            and not (buf.arg_names & self._all_loop_bound()):
                        self._emit_mem(
                            "MEM-CHURN",
                            f"device buffer {buf.name!r}"
                            f"{self._size_note(buf)} is allocated (line "
                            f"{buf.line}) and freed (line {node.lineno}) "
                            f"every iteration with loop-invariant "
                            f"arguments; hoist the allocation",
                            buf.line, context=buf.name)
                return _UNKNOWN
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _PINNED_PRODUCERS:
            self._track_pinned(node)
        return super()._call(node)

    def _track_pinned(self, node: ast.Call) -> None:
        if not node.args:
            return
        shape = self._literal(node.args[0])
        if isinstance(shape, int):
            shape = (shape,)
        if not (isinstance(shape, tuple)
                and all(isinstance(d, int) and d >= 0 for d in shape)):
            return
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        itemsize = 4
        if "dtype" in kw:
            dtype = self._dtype_of(kw["dtype"])
            if dtype:
                try:
                    itemsize = np.dtype(dtype).itemsize
                except TypeError:
                    itemsize = 4
        nbytes = int(np.prod(shape)) * itemsize if shape else itemsize
        before = self.pinned_bytes
        self.pinned_bytes += nbytes
        threshold = PINNED_OVERSUB_FRACTION * self.host_ram_bytes
        if self.pinned_bytes > threshold >= before:
            self._emit_mem(
                "MEM-PINNED-OVERSUB",
                f"cumulative pinned host staging reaches "
                f"{format_bytes(self.pinned_bytes)}, over "
                f"{PINNED_OVERSUB_FRACTION:.0%} of the "
                f"{format_bytes(self.host_ram_bytes)} host RAM",
                node.lineno)


# ---------------------------------------------------------------------------
# Module-level entry: budgets and the peak check
# ---------------------------------------------------------------------------


def _device_budget(tree: ast.Module) -> tuple[int, str, object | None]:
    """Infer the target GPU's memory from the file itself.

    Preference order: a literal ``make_system(n, "PART")`` call (the
    part names the card directly), else the first GPU plan the cost
    pass can extract (the instance SKU names the card *and* prices the
    current choice for the cost delta).  Returns ``(budget_bytes,
    target_label, current_instance_or_None)``; ``(0, "", None)`` when
    nothing in the file names a target — no target, no OOM verdict.
    """
    for node in module_nodes(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name != "make_system":
            continue
        part = "T4"
        if len(node.args) >= 2:
            try:
                lit = ast.literal_eval(node.args[1])
            except (ValueError, SyntaxError):
                continue               # non-literal part: unknowable
            if not isinstance(lit, str):
                continue
            part = lit
        for kw in node.keywords:
            if kw.arg == "part":
                try:
                    lit = ast.literal_eval(kw.value)
                except (ValueError, SyntaxError):
                    lit = None
                if not isinstance(lit, str):
                    part = None
                    break
                part = lit
        if part is None:
            continue
        try:
            spec = get_spec(part)
        except KeyError:
            continue
        return spec.mem_bytes, f"a {spec.name}", None
    for plan in extract_plans(tree):
        try:
            itype = get_instance_type(plan.type_name)
        except CloudError:
            continue
        if itype.is_gpu:
            return (itype.gpu_memory_bytes,
                    f"{itype.name} ({itype.gpu_part})", itype)
    return 0, "", None


def _host_ram_bytes(tree: ast.Module) -> int:
    """Host RAM budget for the pinned-memory check: the planned
    instance's RAM when one is named, else the 16 GiB default."""
    for plan in extract_plans(tree):
        try:
            itype = get_instance_type(plan.type_name)
        except CloudError:
            continue
        return int(itype.memory_gib * (1 << 30))
    return DEFAULT_HOST_RAM_BYTES


def _check_peak(interp: MemInterp, tree: ast.Module, filename: str) -> None:
    budget, label, current = _device_budget(tree)
    if budget <= 0 or interp.peak_live_bytes <= 0:
        return
    usable = int(budget * (1.0 - DEFAULT_RESERVE_FRACTION))
    if interp.peak_live_bytes <= usable:
        return
    peak = interp.peak_live_bytes
    rec = right_size(peak)
    msg = (f"estimated peak device memory {format_bytes(peak)} exceeds "
           f"the {format_bytes(usable)} usable on {label}")
    if rec is not None:
        delta = (rec.hourly_usd - current.hourly_usd
                 if current is not None else None)
        msg += (f"; right-size to {rec.name} ({rec.gpu_part}, "
                f"{format_bytes(usable_gpu_bytes(rec))} usable) at "
                f"${rec.hourly_usd:.2f}/h")
        if delta is not None:
            msg += f" ({delta:+.2f} $/h vs the current plan)"
    else:
        msg += "; no catalog instance holds this working set — shard it"
    interp._emit_mem("MEM-PEAK-OOM", msg, interp.peak_line or 1)


def mem_pass(tree: ast.Module, filename: str) -> Report:
    """Run the device-memory liveness pass over a parsed module."""
    report = Report()
    xp, nn, np_names = _namespace_aliases(tree)
    interp = MemInterp(filename, report, xp, nn, np_names,
                       host_ram_bytes=_host_ram_bytes(tree))
    interp.run(list(tree.body))
    _check_peak(interp, tree, filename)
    return report


__all__ = [
    "BufferInfo",
    "MemInterp",
    "Preflight",
    "mem_pass",
    "preflight",
]
