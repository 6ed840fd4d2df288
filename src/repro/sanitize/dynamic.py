"""Dynamic race detector for the ``@cuda.jit`` simulator.

The moral equivalent of ``compute-sanitizer --tool racecheck``: while a
kernel executes on the simulator's per-thread executor (sequential, or
barrier blocks on generators or OS threads — an attached detector keeps
a launch off the whole-array lowered path), every shared- and
global-array element access is
shadow-tracked with the accessing thread's coordinates and its *barrier
epoch* — the number of ``syncthreads()`` barriers the thread has passed.

Two accesses to the same cell conflict when they are not ordered by the
execution model:

* same block — different threads in the **same** barrier epoch (nothing
  orders them);
* different blocks — **always** (CUDA blocks never synchronize inside a
  kernel), unless through atomics.

A conflicting write/write pair raises ``SAN-DYN-WW``; a read paired with
an unordered write raises ``SAN-DYN-RW``.  Both report the two thread
coordinates, the cell index, and the epoch, which is exactly the output
students need to find the missing ``syncthreads``.

Atomics (``cuda.atomic.*``) are serialization points and are excluded.

Usage::

    det = RaceDetector()
    with det.attach():
        kernel[blocks, threads](dev_in, dev_out)
    assert det.report.ok, det.report.render_text()

or in one line: ``check_launch(kernel, blocks, threads, dev_in, dev_out)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report


def _normalize_index(idx):
    """Hashable cell key for scalar element accesses; ``None`` means the
    access is a slice/fancy view and is not tracked per-cell."""
    if isinstance(idx, (int, np.integer)):
        return int(idx)
    if isinstance(idx, tuple):
        out = []
        for e in idx:
            if isinstance(e, (int, np.integer)):
                out.append(int(e))
            else:
                return None
        return tuple(out)
    return None


class ShadowArray(np.ndarray):
    """ndarray view that reports element reads/writes to a tracker."""

    def __array_finalize__(self, obj):
        if obj is not None:
            self._san_tracker = getattr(obj, "_san_tracker", None)
            self._san_key = getattr(obj, "_san_key", None)
            self._san_label = getattr(obj, "_san_label", "")

    def __getitem__(self, idx):
        tracker = getattr(self, "_san_tracker", None)
        if tracker is not None:
            tracker.on_access(self._san_key, self._san_label, idx,
                              is_write=False)
        return super().__getitem__(idx)

    def __setitem__(self, idx, value):
        tracker = getattr(self, "_san_tracker", None)
        if tracker is not None:
            tracker.on_access(self._san_key, self._san_label, idx,
                              is_write=True)
        super().__setitem__(idx, value)


class RaceDetector:
    """Shadow-memory write/write and read/write race detector.

    One detector may observe several launches; findings accumulate in
    :attr:`report` (deduplicated per array cell and race kind).
    """

    def __init__(self) -> None:
        self.report = Report()
        self._lock = threading.Lock()
        # (array key, cell) -> {"writer": (thread, epoch) | None,
        #                       "readers": {thread: epoch}}
        self._cells: dict = {}
        self._reported: set = set()
        self._kernel = ""
        self._keepalive: list = []

    @property
    def races(self):
        return self.report.findings

    # -- instrumentation hooks (called by repro.jit.cuda) ----------------

    def begin_launch(self, kernel_name: str) -> None:
        self._kernel = kernel_name

    def wrap_global(self, arr: np.ndarray, name: str) -> np.ndarray:
        self._keepalive.append(arr)
        view = arr.view(ShadowArray)
        view._san_tracker = self
        view._san_key = ("global", id(arr))
        view._san_label = name
        return view

    def wrap_shared(self, arr: np.ndarray, slot: int,
                    block: tuple) -> np.ndarray:
        view = arr.view(ShadowArray)
        view._san_tracker = self
        # keyed by (block, allocation slot): shared arrays are per block,
        # so a fresh block can never alias a finished one
        view._san_key = ("shared", block, slot)
        view._san_label = f"shared[{slot}]"
        return view

    # -- the check itself ------------------------------------------------

    def on_access(self, key, label: str, idx, is_write: bool) -> None:
        from repro.jit import cuda

        ctx = cuda._ctx
        if not ctx.active or ctx.in_atomic:
            return
        cell_idx = _normalize_index(idx)
        if cell_idx is None:
            return
        thread = ((ctx.block_idx.x, ctx.block_idx.y, ctx.block_idx.z),
                  (ctx.thread_idx.x, ctx.thread_idx.y, ctx.thread_idx.z))
        epoch = ctx.barrier_epoch
        with self._lock:
            cell = self._cells.setdefault(
                (key, cell_idx), {"writer": None, "readers": {}})
            if is_write:
                w = cell["writer"]
                if w is not None and self._concurrent(thread, epoch, *w):
                    self._report("SAN-DYN-WW", label, cell_idx,
                                 w[0], thread, epoch, "wrote", "writes")
                for r_thread, r_epoch in cell["readers"].items():
                    if self._concurrent(thread, epoch, r_thread, r_epoch):
                        self._report("SAN-DYN-RW", label, cell_idx,
                                     r_thread, thread, epoch,
                                     "read", "writes")
                        break
                cell["writer"] = (thread, epoch)
            else:
                w = cell["writer"]
                if w is not None and self._concurrent(thread, epoch, *w):
                    self._report("SAN-DYN-RW", label, cell_idx,
                                 w[0], thread, epoch, "wrote", "reads")
                cell["readers"][thread] = epoch

    @staticmethod
    def _concurrent(thread, epoch, other_thread, other_epoch) -> bool:
        if other_thread == thread:
            return False
        if other_thread[0] != thread[0]:       # different blocks: no order
            return True
        return other_epoch == epoch            # same block: barrier epochs

    def _report(self, rule: str, label: str, cell_idx, first, second,
                epoch: int, first_verb: str, second_verb: str) -> None:
        dedupe = (rule, label, cell_idx)
        if dedupe in self._reported:
            return
        self._reported.add(dedupe)
        self.report.add(make_finding(
            rule,
            f"{self._kernel}: thread (block={first[0]}, tid={first[1]}) "
            f"{first_verb} `{label}[{cell_idx}]` and thread "
            f"(block={second[0]}, tid={second[1]}) {second_verb} it in the "
            f"same barrier interval (epoch {epoch})",
            context=self._kernel or label))

    # -- lifecycle -------------------------------------------------------

    @contextmanager
    def attach(self):
        """Route every launch inside the block through this detector."""
        from repro.jit import cuda

        cuda.set_instrumentation(self)
        try:
            yield self
        finally:
            cuda.set_instrumentation(None)


def check_launch(kernel, grid, block, *args) -> Report:
    """Launch ``kernel[grid, block](*args)`` under race detection and
    return the report (empty = race-free for these inputs)."""
    det = RaceDetector()
    with det.attach():
        kernel[grid, block](*args)
    return det.report
