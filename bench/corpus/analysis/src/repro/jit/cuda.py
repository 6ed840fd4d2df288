"""A ``numba.cuda``-style kernel simulator on the virtual GPU.

Kernels are ordinary Python functions decorated with :func:`jit` and
launched with the ``kernel[grid, block](args...)`` bracket syntax.  Each
simulated CUDA thread sees the standard intrinsics (:data:`threadIdx`,
:data:`blockIdx`, :func:`grid`, :func:`syncthreads`,
:func:`shared.array <SharedMemory.array>`, :func:`atomic.add
<AtomicNamespace.add>`).

Two execution strategies, chosen automatically:

* **Sequential** (default): threads of a block run one after another.
  Correct for the overwhelmingly common data-parallel kernels where
  threads only communicate through *global* memory or not at all.
* **Barrier-threaded**: if the kernel's source mentions ``syncthreads``,
  every CUDA thread of a block becomes a real OS thread synchronized on a
  ``threading.Barrier`` — the strategy ``numba.cuda.simulator`` itself
  uses — so producer/consumer shared-memory patterns (tiled matmul,
  block reductions) execute correctly.

Launches are *costed* via the roofline model: the decorator's
``flops_per_thread`` / ``bytes_per_thread`` hints (or conservative
defaults) feed :class:`~repro.gpu.kernelmodel.KernelCost`, so student
kernels appear in profiles alongside :mod:`repro.xp` library kernels.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DeviceError
from repro.gpu.device import VirtualGpu
from repro.gpu.kernelmodel import KernelCost, normalize_launch
from repro.gpu.system import current_device
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
    and the barrier for ``syncthreads``."""

    def __init__(self, n_threads: int, threaded: bool) -> None:
        self.shared_arrays: list[np.ndarray] = []
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(n_threads) if threaded else None


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
    return sx, sy, c.grid_dim.z * c.block_dim.z


def syncthreads() -> None:
    """Block-wide barrier.  In sequential mode the executor has already
    proven no thread is concurrently running, so it is a no-op; in
    barrier-threaded mode it is a real ``threading.Barrier`` wait."""
    c = _require_kernel_context()
    if c.block_state and c.block_state.barrier is not None:
        c.block_state.barrier.wait()
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
        # Attribute/global names referenced by the bytecode include
        # "syncthreads" whenever the kernel calls it (robust even when
        # inspect.getsource fails, e.g. for REPL-defined kernels).
        self.uses_syncthreads = "syncthreads" in fn.__code__.co_names
        self.launch_count = 0
        self.performance_warnings: list[str] = []

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
        """Statically classify this kernel for the JIT roadmap.

        Runs the abstract interpreter
        (:func:`repro.analysis.absint.classify_kernel`) over the
        kernel's source and returns its
        :class:`~repro.analysis.kernelclass.KernelClass` — the
        vectorizability archetype, per-array access footprints, and
        OOB/barrier verdicts a lowering pass must respect.  Extents
        are anonymous (no launch site is visible from here), so bound
        guards still prove safety but launch-dependent bounds report
        ``unknown``.
        """
        from repro.analysis.absint import classify_kernel
        return classify_kernel(self)


class _Launcher:
    """One configured launch of a :class:`CudaKernel`."""

    def __init__(self, kernel: CudaKernel, grid_spec, block_spec,
                 stream=None) -> None:
        self.kernel = kernel
        self.stream = stream
        self.cfg = normalize_launch(grid_spec, block_spec)
        self.grid3 = tuple(list(self.cfg.grid) + [1] * (3 - len(self.cfg.grid)))
        self.block3 = tuple(list(self.cfg.block) + [1] * (3 - len(self.cfg.block)))

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
        threaded = self.kernel.uses_syncthreads
        gx, gy, gz = self.grid3
        for bz in range(gz):
            for by in range(gy):
                for bx in range(gx):
                    self._run_block(Dim3(bx, by, bz), run_args, threaded)

    def _run_block(self, block_idx: Dim3, run_args, threaded: bool) -> None:
        bx, by, bz = self.block3
        n_threads = bx * by * bz
        state = _BlockState(n_threads, threaded)
        thread_ids = [Dim3(tx, ty, tz)
                      for tz in range(bz) for ty in range(by) for tx in range(bx)]
        if not threaded:
            for tid in thread_ids:
                self._run_thread(tid, block_idx, state, run_args)
            return
        workers = [
            threading.Thread(
                target=self._run_thread, args=(tid, block_idx, state, run_args)
            )
            for tid in thread_ids
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    def _run_thread(self, tid: Dim3, block_idx: Dim3, state: _BlockState,
                    run_args) -> None:
        _ctx.active = True
        _ctx.thread_idx = tid
        _ctx.block_idx = block_idx
        _ctx.block_dim = Dim3(*self.block3)
        _ctx.grid_dim = Dim3(*self.grid3)
        _ctx.block_state = state
        _ctx.shared_call_index = 0
        _ctx.barrier_epoch = 0
        _ctx.in_atomic = False
        try:
            self.kernel.fn(*run_args)
        finally:
            _ctx.active = False
            _ctx.block_state = None

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
