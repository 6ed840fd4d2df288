"""A ``numba.cuda``-style kernel simulator on the virtual GPU.

Kernels are ordinary Python functions decorated with :func:`jit` and
launched with the ``kernel[grid, block](args...)`` bracket syntax.  Each
simulated CUDA thread sees the standard intrinsics (:data:`threadIdx`,
:data:`blockIdx`, :func:`grid`, :func:`syncthreads`,
:func:`shared.array <SharedMemory.array>`, :func:`atomic.add
<AtomicNamespace.add>`).

Four execution paths, chosen per launch from the kernel and the launch
alone (no option selects one), all giving the same output bytes:

* **Lowered**: a kernel whose statements are assignments, tests and
  ``range``/``while`` loops over its array arguments, shared arrays and
  the thread indices runs a chunk of whole blocks at a time as NumPy,
  each statement for all of the chunk's threads before the next, split
  into phases at each ``syncthreads()`` (:mod:`repro.jit.lowering`).  A
  loop whose test or bound varies by thread (a data-dependent ``while``
  like Collatz's, or ``range(lens[i])``) runs pass by pass for the
  threads still in it, and an ``if`` on data runs each branch for its
  own threads; under such a test sit only assignments to temporaries,
  never a subscript, barrier or call.  It does so when a trace of the
  launch's tests and subscripts finds every subscript an in-bounds
  integer, no shared cell that one thread writes touched by another
  thread in the same phase, and no cell of a written argument touched
  by two threads.  The trace decides alone, once per launch signature;
  no launch runs the static analyzer.
* **Sequential**: any other kernel that never calls ``syncthreads``.
  The threads of a block run one after another; this per-thread
  interpreter is the reference the other paths are tested against.
* **Generator blocks**: any other kernel that calls ``syncthreads`` in
  its own body is recompiled with each barrier statement turned into
  ``yield``, and a block's threads are resumed round-robin in thread
  order on the launching thread, so producer/consumer shared-memory
  patterns execute correctly without OS threads.
* **OS-thread blocks**: only for a barrier kernel whose source cannot be
  retrieved (``exec``'d or REPL kernels) or that reaches a barrier
  through a helper function.  Each simulated thread gets an OS thread —
  the strategy of ``numba.cuda.simulator`` — but the same round-robin
  scheduler passes a baton at every barrier, so one thread runs at a
  time, in the same order as on the generator path.

An attached race detector (:func:`set_instrumentation`) keeps a launch
off the lowered path.  On both block schedulers an exception in a
simulated thread is re-raised from the launch, and a block in which some
threads return while others wait at a barrier raises
:class:`~repro.errors.DeviceError` (barrier divergence) instead of
hanging.

Launches are *costed* via the roofline model: the decorator's
``flops_per_thread`` / ``bytes_per_thread`` hints (or conservative
defaults) feed :class:`~repro.gpu.kernelmodel.KernelCost`, so student
kernels appear in profiles alongside :mod:`repro.xp` library kernels.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DeviceError
from repro.gpu.device import VirtualGpu
from repro.gpu.kernelmodel import KernelCost, normalize_launch
from repro.gpu.system import current_device
from repro.jit import lowering
from repro.xp.ndarray import ndarray as XpArray


# ---------------------------------------------------------------------------
# Per-thread execution context (the intrinsics read from here)
# ---------------------------------------------------------------------------

@dataclass
class Dim3:
    """CUDA's ``dim3``: x/y/z indices or extents."""

    x: int = 0
    y: int = 0
    z: int = 0

    def __iter__(self):
        yield from (self.x, self.y, self.z)


class _ThreadCtx(threading.local):
    """Thread-local CUDA context: set by the executor before each simulated
    thread runs, read by the intrinsics below."""

    def __init__(self) -> None:
        self.active = False
        self.thread_idx = Dim3()
        self.block_idx = Dim3()
        self.block_dim = Dim3(1, 1, 1)
        self.grid_dim = Dim3(1, 1, 1)
        self.block_state: "_BlockState | None" = None
        self.shared_call_index = 0
        self.barrier_epoch = 0      # syncthreads barriers passed so far
        self.in_atomic = False      # suppresses race tracking in atomics
        self.baton: "_OsThread | None" = None   # set on an OS-thread block


_ctx = _ThreadCtx()

# Optional launch instrumentation (the sanitizer's race detector).  When
# set, array arguments and shared allocations are wrapped in shadow-
# tracking views; see repro.sanitize.dynamic.RaceDetector for the hooks.
_instrumentation = None


def set_instrumentation(obj) -> None:
    """Install (or clear, with ``None``) the active launch instrumentation.

    The object must provide ``begin_launch(name)``, ``wrap_global(arr,
    name)``, and ``wrap_shared(arr, slot, block)``.
    """
    global _instrumentation
    _instrumentation = obj


def _require_kernel_context() -> _ThreadCtx:
    if not _ctx.active:
        raise DeviceError(
            "CUDA intrinsic used outside a kernel launch; call this only "
            "from inside an @cuda.jit function"
        )
    return _ctx


class _BlockState:
    """State shared by every thread of one block: the shared-memory
    allocations (keyed by call order, so all threads get the same array)
    and what ``syncthreads`` needs to report a barrier it cannot honour."""

    def __init__(self, kernel: str, n_threads: int) -> None:
        self.shared_arrays: list[np.ndarray] = []
        self.lock = threading.Lock()
        self.kernel = kernel
        self.n_threads = n_threads


# ---------------------------------------------------------------------------
# Intrinsics (module-level, like the numba.cuda namespace)
# ---------------------------------------------------------------------------

class _IndexProxy:
    """Lazily reads the live thread context so ``cuda.threadIdx.x`` works
    as an attribute chain, exactly like Numba's."""

    def __init__(self, field: str) -> None:
        self._field = field

    @property
    def x(self) -> int:
        return getattr(_require_kernel_context(), self._field).x

    @property
    def y(self) -> int:
        return getattr(_require_kernel_context(), self._field).y

    @property
    def z(self) -> int:
        return getattr(_require_kernel_context(), self._field).z


threadIdx = _IndexProxy("thread_idx")
blockIdx = _IndexProxy("block_idx")
blockDim = _IndexProxy("block_dim")
gridDim = _IndexProxy("grid_dim")


def grid(ndim: int):
    """Global thread index (``cuda.grid``): flat int for ``ndim=1``,
    tuples for 2-D/3-D."""
    c = _require_kernel_context()
    gx = c.block_idx.x * c.block_dim.x + c.thread_idx.x
    if ndim == 1:
        return gx
    gy = c.block_idx.y * c.block_dim.y + c.thread_idx.y
    if ndim == 2:
        return gx, gy
    gz = c.block_idx.z * c.block_dim.z + c.thread_idx.z
    if ndim == 3:
        return gx, gy, gz
    raise DeviceError(f"cuda.grid ndim must be 1, 2, or 3; got {ndim}")


def gridsize(ndim: int):
    """Total launched threads per axis (``cuda.gridsize``)."""
    c = _require_kernel_context()
    sx = c.grid_dim.x * c.block_dim.x
    if ndim == 1:
        return sx
    sy = c.grid_dim.y * c.block_dim.y
    if ndim == 2:
        return sx, sy
    if ndim == 3:
        return sx, sy, c.grid_dim.z * c.block_dim.z
    raise DeviceError(f"cuda.gridsize ndim must be 1, 2, or 3; got {ndim}")


def syncthreads() -> None:
    """Block-wide barrier.

    A barrier statement written in the kernel never calls this on the
    generator path: it was compiled into ``yield``, and the block
    scheduler resumes the thread past it.  On the OS-thread path this
    hands the baton back to the scheduler.  Anywhere else it was reached
    through a function the kernel does not name (one passed in as an
    argument, say), so the launcher did not prepare the block for it; it
    cannot hold the other threads, and in a block of more than one
    thread it raises.
    """
    c = _require_kernel_context()
    if c.baton is not None:
        c.baton.park()
    elif c.block_state.n_threads > 1:
        raise DeviceError(
            f"kernel {c.block_state.kernel}: syncthreads() reached through "
            "a function the kernel does not name (passed as an argument?) "
            f"in a block of {c.block_state.n_threads} threads; only a "
            "barrier in the kernel body or in a helper it calls by name "
            "can hold the other threads")
    # the epoch counts barrier intervals: accesses in different epochs of
    # the same block are ordered, same-epoch ones are not (race detector)
    c.barrier_epoch += 1


class SharedMemory:
    """The ``cuda.shared`` namespace."""

    @staticmethod
    def array(shape, dtype=np.float32) -> np.ndarray:
        """Allocate (or fetch, for threads after the first) this block's
        shared array for the current allocation site, identified by call
        order within the thread — the same convention Numba's simulator
        uses."""
        c = _require_kernel_context()
        state = c.block_state
        assert state is not None
        idx = c.shared_call_index
        c.shared_call_index += 1
        with state.lock:
            if idx >= len(state.shared_arrays):
                state.shared_arrays.append(np.zeros(shape, dtype=dtype))
            arr = state.shared_arrays[idx]
        if _instrumentation is not None:
            return _instrumentation.wrap_shared(
                arr, idx, (c.block_idx.x, c.block_idx.y, c.block_idx.z))
        return arr


shared = SharedMemory()


class LocalMemory:
    """The ``cuda.local`` namespace: per-thread scratch arrays."""

    @staticmethod
    def array(shape, dtype=np.float32) -> np.ndarray:
        _require_kernel_context()
        return np.zeros(shape, dtype=dtype)


local = LocalMemory()


def syncwarp(mask: int = 0xFFFFFFFF) -> None:
    """Warp-level barrier.  The simulator executes warps as ordinary
    threads under the block barrier, so this validates context and
    returns — matching ``numba.cuda.simulator``'s treatment."""
    _require_kernel_context()


_atomic_lock = threading.Lock()


class _AtomicSection:
    """Holds the global atomic lock and marks the thread as inside an
    atomic op, so the race detector treats it as a serialization point."""

    def __enter__(self):
        _atomic_lock.acquire()
        _ctx.in_atomic = True

    def __exit__(self, *exc):
        _ctx.in_atomic = False
        _atomic_lock.release()


class AtomicNamespace:
    """The ``cuda.atomic`` namespace: read-modify-write with a global lock
    (the simulator's serialization point, like Numba's)."""

    @staticmethod
    def add(ary: np.ndarray, idx, val):
        with _AtomicSection():
            old = ary[idx]
            ary[idx] = old + val
            return old

    @staticmethod
    def max(ary: np.ndarray, idx, val):
        with _AtomicSection():
            old = ary[idx]
            if val > old:
                ary[idx] = val
            return old

    @staticmethod
    def min(ary: np.ndarray, idx, val):
        with _AtomicSection():
            old = ary[idx]
            if val < old:
                ary[idx] = val
            return old

    @staticmethod
    def exch(ary: np.ndarray, idx, val):
        """Atomic exchange: store ``val``, return the previous value."""
        with _AtomicSection():
            old = ary[idx]
            ary[idx] = val
            return old

    @staticmethod
    def compare_and_swap(ary: np.ndarray, expected, val):
        """CAS on element 0 (Numba's signature): store ``val`` iff the
        current value equals ``expected``; returns the old value."""
        with _AtomicSection():
            old = ary[0]
            if old == expected:
                ary[0] = val
            return old


atomic = AtomicNamespace()


# ---------------------------------------------------------------------------
# Device-array helpers (numba.cuda.to_device / device_array)
# ---------------------------------------------------------------------------

def stream(device: VirtualGpu | None = None):
    """Create an asynchronous stream on the (current) device — usable as
    the third element of a launch config: ``kernel[g, b, s](...)``."""
    dev = device if device is not None else current_device()
    return dev.create_stream("cuda.stream")


def to_device(host_array: np.ndarray, device: VirtualGpu | None = None) -> XpArray:
    """Copy a host array to the (current) device, charging the transfer."""
    from repro.xp.creation import array as xp_array
    return xp_array(host_array, device=device)


def device_array(shape, dtype=np.float32, device: VirtualGpu | None = None) -> XpArray:
    """Allocate an uninitialized (zeroed) device array."""
    from repro.xp.creation import empty
    return empty(shape, dtype=dtype, device=device)


# ---------------------------------------------------------------------------
# The kernel object and launcher
# ---------------------------------------------------------------------------

class CudaKernel:
    """A compiled (simulated) CUDA kernel.

    Launch with ``kernel[grid, block](*args)``.  Array arguments may be
    :class:`repro.xp.ndarray` device arrays (preferred) or host numpy
    arrays — host arrays trigger an implicit round-trip transfer and a
    recorded performance warning, reproducing Numba's
    ``NumbaPerformanceWarning`` teaching moment.
    """

    def __init__(self, fn: Callable, flops_per_thread: float = 8.0,
                 bytes_per_thread: float = 16.0) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.flops_per_thread = flops_per_thread
        self.bytes_per_thread = bytes_per_thread
        self.launch_count = 0
        self.performance_warnings: list[str] = []
        #: the execution path of the latest launch: ``"lowered"``,
        #: ``"sequential"``, ``"generator"`` or ``"os-threads"``
        self.last_path: str | None = None
        # compiled variants by kind, built on first use (None: the
        # kernel's source does not allow that variant)
        self._variants: dict = {}

    @functools.cached_property
    def uses_syncthreads(self) -> bool:
        """Does the kernel call ``syncthreads``, itself or through a
        helper it names?  Read from the bytecode, so it holds for kernels
        without retrievable source, and on first use, so helpers defined
        after the kernel are seen."""
        return ("syncthreads" in self.fn.__code__.co_names
                or lowering.helper_syncs(self.fn))

    def _variant(self, kind: str):
        """The ``"lowered"`` or ``"generator"`` variant, or ``None``."""
        if kind not in self._variants:
            build = (lowering.lower if kind == "lowered"
                     else lowering.generator_variant)
            self._variants[kind] = build(
                self.fn, lowering.cuda_names(self.fn, sys.modules[__name__]))
        return self._variants[kind]

    def __getitem__(self, launch_config) -> "_Launcher":
        if not isinstance(launch_config, tuple) \
                or not 2 <= len(launch_config) <= 4:
            raise DeviceError(
                "kernel launch requires kernel[grid, block](...) syntax "
                "(optionally kernel[grid, block, stream, shared_bytes])"
            )
        grid_spec, block_spec = launch_config[0], launch_config[1]
        stream = launch_config[2] if len(launch_config) > 2 else None
        return _Launcher(self, grid_spec, block_spec, stream=stream)

    def __call__(self, *args):  # pragma: no cover - guard rail
        raise DeviceError(
            f"kernel {self.name} must be launched with "
            f"{self.name}[grid, block](...), not called directly"
        )

    def classify(self):
        """Statically classify this kernel.

        Runs the abstract interpreter
        (:func:`repro.analysis.absint.classify_kernel`) over the
        kernel's source and returns its
        :class:`~repro.analysis.kernelclass.KernelClass` — the
        vectorizability archetype, per-array access footprints, and
        OOB/barrier verdicts.  Extents are anonymous (no launch site is
        visible from here), so bound guards still prove safety but
        launch-dependent bounds report ``unknown``.  A report for the
        student, not an input of the launcher, which admits a launch to
        the lowered path by its own trace.
        """
        from repro.analysis.absint import classify_kernel
        return classify_kernel(self)


class _GeneratorThread:
    """One simulated thread as a generator on the launching thread; its
    own part of the thread context is swapped in at every resume."""

    __slots__ = ("gen", "tid", "shared_index", "epoch")

    def __init__(self, gen, tid: Dim3) -> None:
        self.gen = gen
        self.tid = tid
        self.shared_index = 0
        self.epoch = 0

    def resume(self) -> bool:
        """Run to the next barrier (``True``) or to the end (``False``)."""
        c = _ctx
        c.thread_idx = self.tid
        c.shared_call_index = self.shared_index
        c.barrier_epoch = self.epoch
        try:
            next(self.gen)
        except StopIteration:
            return False
        self.shared_index = c.shared_call_index
        self.epoch = c.barrier_epoch + 1
        return True

    def close(self) -> None:
        self.gen.close()


class _Cancelled(BaseException):
    """Unwinds a parked OS thread whose launch was abandoned."""


class _OsThread:
    """One simulated thread on its own OS thread, for a barrier kernel
    whose source cannot be recompiled.  It runs only while it holds the
    baton: :meth:`resume` hands it over and waits until the thread parks
    at a barrier (``syncthreads`` calls :meth:`park`) or returns."""

    def __init__(self, launcher: "_Launcher", tid: Dim3, block_idx: Dim3,
                 state: _BlockState, run_args) -> None:
        self._go = threading.Semaphore(0)
        self._back = threading.Semaphore(0)
        self._done = False
        self._cancelled = False
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, daemon=True,
            args=(launcher, tid, block_idx, state, run_args))
        self._thread.start()

    def _main(self, launcher, tid, block_idx, state, run_args) -> None:
        self._go.acquire()
        try:
            if not self._cancelled:
                launcher._run_thread(tid, block_idx, state, run_args,
                                     baton=self)
        except _Cancelled:
            pass
        except BaseException as exc:    # re-raised by resume()
            self._error = exc
        finally:
            self._done = True
            self._back.release()

    def park(self) -> None:
        """Hand the baton back at a barrier; wait for the next turn."""
        self._back.release()
        self._go.acquire()
        if self._cancelled:
            raise _Cancelled

    def resume(self) -> bool:
        """Run to the next barrier (``True``) or to the end (``False``)."""
        self._go.release()
        self._back.acquire()
        if self._error is not None:
            raise self._error
        return not self._done

    def close(self) -> None:
        if not self._done:
            self._cancelled = True
            self._go.release()
            self._back.acquire()
        self._thread.join()


class _Launcher:
    """One configured launch of a :class:`CudaKernel`."""

    def __init__(self, kernel: CudaKernel, grid_spec, block_spec,
                 stream=None) -> None:
        self.kernel = kernel
        self.stream = stream
        self.cfg = normalize_launch(grid_spec, block_spec)
        self.grid3 = tuple(list(self.cfg.grid) + [1] * (3 - len(self.cfg.grid)))
        self.block3 = tuple(list(self.cfg.block) + [1] * (3 - len(self.cfg.block)))
        self.grid_dim = Dim3(*self.grid3)
        self.block_dim = Dim3(*self.block3)

    def __call__(self, *args) -> None:
        device = current_device()
        if _instrumentation is not None:
            _instrumentation.begin_launch(self.kernel.name)
        run_args, writeback, traffic_bytes, buffers = \
            self._prepare_args(args, device)
        self._execute(run_args)
        self._writeback(writeback, device)
        self._charge(device, traffic_bytes, buffers)

    # -- argument marshalling ------------------------------------------------

    def _prepare_args(self, args, device: VirtualGpu):
        run_args: list = []
        writeback: list[tuple[np.ndarray, np.ndarray]] = []
        traffic = 0.0
        buffers: list[int] = []
        for pos, a in enumerate(args):
            if isinstance(a, XpArray):
                if a.device is not device:
                    raise DeviceError(
                        f"kernel argument lives on {a.device.name} but the "
                        f"current device is {device.name}"
                    )
                raw = a._unwrap()
                buffers.append(id(raw))
                run_args.append(self._maybe_shadow(raw, pos))
                traffic += a.nbytes
            elif isinstance(a, np.ndarray):
                self.kernel.performance_warnings.append(
                    f"{self.kernel.name}: host array argument forced an "
                    "implicit H2D+D2H round trip (pass a device array)"
                )
                device.copy_h2d(a.nbytes)
                staged = a.copy()
                buffers.append(id(a))
                run_args.append(self._maybe_shadow(staged, pos))
                writeback.append((a, staged))
                traffic += a.nbytes
            else:
                run_args.append(a)
        return run_args, writeback, traffic, tuple(buffers)

    def _maybe_shadow(self, arr: np.ndarray, pos: int) -> np.ndarray:
        if _instrumentation is None:
            return arr
        return _instrumentation.wrap_global(
            arr, f"{self.kernel.name}:arg{pos}")

    def _writeback(self, writeback, device: VirtualGpu) -> None:
        for host, staged in writeback:
            device.copy_d2h(host.nbytes)
            np.copyto(host, staged)

    # -- functional execution --------------------------------------------------

    def _execute(self, run_args) -> None:
        kernel = self.kernel
        if _instrumentation is None and self._run_lowered(run_args):
            kernel.last_path = "lowered"
            return
        if not kernel.uses_syncthreads:
            kernel.last_path, run_block = "sequential", self._run_sequential
        elif kernel._variant("generator") is not None:
            kernel.last_path, run_block = "generator", self._run_generators
        else:
            kernel.last_path, run_block = "os-threads", self._run_os_threads
        bx, by, bz = self.block3
        tids = [Dim3(tx, ty, tz)
                for tz in range(bz) for ty in range(by) for tx in range(bx)]
        gx, gy, gz = self.grid3
        for z in range(gz):
            for y in range(gy):
                for x in range(gx):
                    run_block(Dim3(x, y, z), tids, run_args)

    def _run_lowered(self, run_args) -> bool:
        """Run the launch as whole-block NumPy when the kernel's form and
        a trace of the launch admit it."""
        lowered = self.kernel._variant("lowered")
        if lowered is None:
            return False
        written = lowered.admitted(self.grid3, self.block3, run_args)
        return written is not None and lowered.run(
            self.grid3, self.block3, run_args, written)

    def _run_sequential(self, block_idx: Dim3, tids, run_args) -> None:
        state = _BlockState(self.kernel.name, len(tids))
        for tid in tids:
            self._run_thread(tid, block_idx, state, run_args)

    def _run_generators(self, block_idx: Dim3, tids, run_args) -> None:
        body = self.kernel._variant("generator")
        self._enter(block_idx, _BlockState(self.kernel.name, len(tids)))
        try:
            self._schedule(block_idx, [_GeneratorThread(body(*run_args), tid)
                                       for tid in tids])
        finally:
            self._leave()

    def _run_os_threads(self, block_idx: Dim3, tids, run_args) -> None:
        state = _BlockState(self.kernel.name, len(tids))
        self._schedule(block_idx, [
            _OsThread(self, tid, block_idx, state, run_args) for tid in tids])

    def _schedule(self, block_idx: Dim3, threads: list) -> None:
        """Run one block's threads round-robin in thread order, each until
        it parks at a barrier or returns, so all pass each barrier
        together.  A round in which some park and others return is
        barrier divergence, which would hang a real block."""
        waiting = threads
        try:
            while waiting:
                parked = [t for t in waiting if t.resume()]
                if parked and len(parked) < len(waiting):
                    raise DeviceError(
                        f"kernel {self.kernel.name}: barrier divergence in "
                        f"block {tuple(block_idx)}: {len(parked)} of "
                        f"{len(threads)} threads reached syncthreads() and "
                        "the others returned without it")
                waiting = parked
        finally:
            for t in threads:
                t.close()

    def _enter(self, block_idx: Dim3, state: _BlockState) -> None:
        """Set the block-wide part of this OS thread's kernel context."""
        _ctx.active = True
        _ctx.block_idx = block_idx
        _ctx.block_dim = self.block_dim
        _ctx.grid_dim = self.grid_dim
        _ctx.block_state = state
        _ctx.in_atomic = False

    @staticmethod
    def _leave() -> None:
        _ctx.active = False
        _ctx.block_state = None
        _ctx.baton = None

    def _run_thread(self, tid: Dim3, block_idx: Dim3, state: _BlockState,
                    run_args, baton: "_OsThread | None" = None) -> None:
        self._enter(block_idx, state)
        _ctx.thread_idx = tid
        _ctx.shared_call_index = 0
        _ctx.barrier_epoch = 0
        _ctx.baton = baton
        try:
            self.kernel.fn(*run_args)
        finally:
            self._leave()

    # -- timing -----------------------------------------------------------------

    def _charge(self, device: VirtualGpu, traffic_bytes: float,
                buffers: tuple = ()) -> None:
        n = self.cfg.total_threads
        cost = KernelCost(
            flops=self.kernel.flops_per_thread * n,
            bytes_read=max(traffic_bytes, self.kernel.bytes_per_thread * n),
            bytes_written=self.kernel.bytes_per_thread * n / 2,
            name=f"cuda_jit::{self.kernel.name}",
            compute_efficiency=0.3,  # student scalar code, no tensor cores
        )
        device.launch(cost, self.cfg.grid, self.cfg.block,
                      stream=self.stream, buffers=buffers)
        self.kernel.launch_count += 1


def jit(fn: Callable | None = None, *, flops_per_thread: float = 8.0,
        bytes_per_thread: float = 16.0):
    """Decorator creating a :class:`CudaKernel` (``@cuda.jit``).

    ``flops_per_thread`` / ``bytes_per_thread`` are optional cost hints for
    the roofline model; the defaults describe a light arithmetic kernel.
    """
    def wrap(f: Callable) -> CudaKernel:
        return CudaKernel(f, flops_per_thread=flops_per_thread,
                          bytes_per_thread=bytes_per_thread)

    if fn is not None:
        return wrap(fn)
    return wrap


class Reduce:
    """``@cuda.reduce``: build a device reduction from a binary op.

    Numba's ``cuda.Reduce`` wraps a scalar ``fn(a, b)`` into a tree
    reduction over a device array.  The simulator computes the exact
    result with a left fold (associativity is the caller's contract, as
    in Numba) and charges a log-depth tree of partial-reduction kernels.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.name = getattr(fn, "__name__", "reduce_op")

    def __call__(self, arr, init=None):
        if isinstance(arr, XpArray):
            device = arr.device
            data = arr._unwrap().ravel()
        elif isinstance(arr, np.ndarray):
            device = current_device()
            device.copy_h2d(arr.nbytes)
            data = arr.ravel()
        else:
            raise DeviceError("reduce expects a device or numpy array")
        if data.size == 0:
            if init is None:
                raise DeviceError("reduction of empty array needs init")
            return init
        acc = data[0] if init is None else self.fn(init, data[0])
        for v in data[1:]:
            acc = self.fn(acc, v)
        # tree reduction: ~n ops, ~2n element traffic, log-depth launches
        depth = max(int(np.ceil(np.log2(max(data.size, 2)))), 1)
        for level in range(depth):
            n_level = max(data.size >> (level + 1), 1)
            device.launch_auto(
                KernelCost(flops=float(n_level),
                           bytes_read=8.0 * n_level,
                           bytes_written=4.0 * n_level,
                           name=f"cuda_reduce::{self.name}",
                           compute_efficiency=0.4),
                n_elements=n_level)
        return acc


def reduce(fn: Callable) -> Reduce:
    """Decorator form: ``@cuda.reduce`` (Numba's spelling)."""
    return Reduce(fn)
