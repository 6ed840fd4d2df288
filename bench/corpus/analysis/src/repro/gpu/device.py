"""The virtual GPU device and the host CPU it hangs off.

A :class:`VirtualGpu` owns a memory pool, a default stream, and a record of
every span of work it executed (kernels, copies, collectives).  Durations
come from the analytic model in :mod:`repro.gpu.kernelmodel`; time comes
from the shared :class:`~repro.gpu.clock.SimClock` of the owning
:class:`~repro.gpu.system.GpuSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import DeviceError
from repro.gpu.clock import SimClock
from repro.gpu.kernelmodel import (
    KernelCost,
    LaunchConfig,
    host_compute_duration_ns,
    kernel_duration_ns,
    normalize_launch,
    transfer_duration_ns,
)
from repro.gpu.memory import DeviceBuffer, LeakReport, MemoryPool, PinnedHostPool
from repro.gpu.specs import DeviceSpec, HostSpec
from repro.gpu.stream import Stream


@dataclass(frozen=True)
class Span:
    """One interval of work on a device timeline.

    ``kind`` is one of :data:`repro.gpu.stream.KNOWN_SPAN_KINDS`
    (``"kernel"``, ``"memcpy_h2d"``, ``"memcpy_d2h"``, ``"memcpy_p2p"``,
    ``"collective"``, ``"host"``, ``"task"``, ``"nvtx"``) — the categories
    Nsight Systems colors differently, and the ones the profiler groups by.
    """

    start_ns: int
    end_ns: int
    name: str
    kind: str
    stream_id: int
    device_id: int
    flops: float = 0.0
    bytes: float = 0.0
    buffers: tuple = ()        # ids of device buffers the work touches

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


def merge_busy_ns(spans: Iterable[Span], window: tuple[int, int] | None = None) -> int:
    """Total busy nanoseconds covered by ``spans``, merging overlaps.

    Overlap happens whenever work ran on multiple streams concurrently; a
    device is "busy" if *any* stream is executing, which is also how
    ``nvidia-smi`` utilization counts.
    """
    intervals = sorted(
        (s.start_ns, s.end_ns) for s in spans if s.end_ns > s.start_ns
    )
    if window is not None:
        lo, hi = window
        intervals = [
            (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
        ]
    busy = 0
    cur_start: int | None = None
    cur_end = 0
    for a, b in intervals:
        if cur_start is None:
            cur_start, cur_end = a, b
        elif a <= cur_end:
            cur_end = max(cur_end, b)
        else:
            busy += cur_end - cur_start
            cur_start, cur_end = a, b
    if cur_start is not None:
        busy += cur_end - cur_start
    return busy


class VirtualGpu:
    """One simulated GPU.

    Parameters
    ----------
    device_id:
        Ordinal within the owning system (the CUDA device index).
    spec:
        Static part description from the catalog.
    clock:
        The system-wide simulated clock (shared with peers and the host).
    """

    def __init__(self, device_id: int, spec: DeviceSpec, clock: SimClock) -> None:
        self.device_id = device_id
        self.spec = spec
        self.clock = clock
        self.memory = MemoryPool(spec.mem_bytes)
        self.spans: list[Span] = []
        self.default_stream = Stream(self, name=f"dev{device_id}-default")
        self._streams: list[Stream] = [self.default_stream]
        self._span_listeners: list[Callable[[Span], None]] = []
        self.kernel_count = 0

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return f"cuda:{self.device_id} ({self.spec.name})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualGpu({self.name})"

    # -- streams ----------------------------------------------------------

    def create_stream(self, name: str = "") -> Stream:
        """Create a new asynchronous stream on this device."""
        s = Stream(self, name=name)
        self._streams.append(s)
        return s

    def synchronize(self) -> int:
        """Host-blocking ``cudaDeviceSynchronize``: drain every stream.

        Also the natural reporting point for memory pressure: if a tracer
        is active, the pool's used/peak/live gauges are published here (a
        pure observation — the simulated clock is not touched)."""
        latest = max(s.ready_at for s in self._streams)
        t = self.clock.advance_to(latest)
        self._publish_memory_gauges()
        return t

    def _publish_memory_gauges(self, leaked_bytes: int | None = None) -> None:
        """Push ``device.memory.*`` gauges to the active tracer, if any."""
        from repro.telemetry import api
        if api.current_tracer() is None:
            return
        api.gauge("device.memory.used", self.memory.used_bytes,
                  device=self.device_id)
        api.gauge("device.memory.peak", self.memory.peak_bytes,
                  device=self.device_id)
        api.gauge("device.memory.live_allocs", self.memory.live_allocations,
                  device=self.device_id)
        if leaked_bytes is not None:
            api.gauge("device.memory.leaked", leaked_bytes,
                      device=self.device_id)

    # -- span recording ---------------------------------------------------

    def add_span_listener(self, fn: Callable[[Span], None]) -> None:
        """Register a callback invoked for every new span (profilers)."""
        self._span_listeners.append(fn)

    def remove_span_listener(self, fn: Callable[[Span], None]) -> None:
        self._span_listeners.remove(fn)

    def _record_span(self, start: int, end: int, name: str, kind: str,
                     stream_id: int, flops: float = 0.0,
                     nbytes: float = 0.0, buffers: tuple = ()) -> Span:
        span = Span(start, end, name, kind, stream_id, self.device_id,
                    flops=flops, bytes=nbytes, buffers=buffers)
        self.spans.append(span)
        for fn in self._span_listeners:
            fn(span)
        return span

    # -- memory -----------------------------------------------------------

    def alloc(self, array: np.ndarray, tag: str = "") -> DeviceBuffer:
        """Allocate device storage for ``array`` (which becomes the backing
        store).  Raises :class:`~repro.errors.OutOfMemoryError` on
        exhaustion; allocation itself is host-side and instantaneous."""
        allocation = self.memory.allocate(
            array.nbytes, tag=tag or "device.alloc")
        return DeviceBuffer(self, array, tag=tag, allocation=allocation)

    def leak_report(self) -> LeakReport:
        """What is still resident in this device's pool, grouped by tag
        and allocation site (``compute-sanitizer --leak-check full``)."""
        return self.memory.leak_report(device_name=self.name)

    def teardown(self) -> LeakReport:
        """Drain the device and report what was never freed.

        The dynamic half of :mod:`repro.memcheck`: call at end of job
        (``GpuSystem.teardown`` does it for every device) and anything
        still in the ledger is a leak."""
        self.synchronize()
        report = self.leak_report()
        self._publish_memory_gauges(leaked_bytes=report.total_bytes)
        return report

    # -- kernels ----------------------------------------------------------

    def launch(self, cost: KernelCost, grid, block, stream: Stream | None = None,
               buffers: tuple = ()) -> Span:
        """Launch a kernel described by ``cost`` with ``<<<grid, block>>>``.

        Asynchronous: the span lands on the stream's timeline and the host
        continues immediately, as in CUDA.  ``buffers`` (opaque buffer
        ids) let the sanitizer correlate same-buffer work across streams.
        """
        cfg = normalize_launch(grid, block)
        stream = stream or self.default_stream
        if stream.device is not self:
            raise DeviceError(
                f"stream {stream.name} belongs to {stream.device.name}, "
                f"not {self.name}"
            )
        duration = kernel_duration_ns(cost, cfg, self.spec)
        self.kernel_count += 1
        return stream.enqueue(duration, cost.name, "kernel",
                              flops=cost.flops, nbytes=cost.bytes_total,
                              buffers=buffers)

    def launch_auto(self, cost: KernelCost, n_elements: int,
                    threads_per_block: int = 256,
                    stream: Stream | None = None) -> Span:
        """Launch with the 1D grid covering ``n_elements`` — the standard
        ``(n + tpb - 1) // tpb`` idiom every lab writes on day one."""
        if n_elements <= 0:
            raise DeviceError("n_elements must be positive")
        blocks = (n_elements + threads_per_block - 1) // threads_per_block
        return self.launch(cost, blocks, threads_per_block, stream=stream)

    # -- transfers --------------------------------------------------------

    def copy_h2d(self, nbytes: int, stream: Stream | None = None,
                 blocking: bool = True, name: str = "memcpy H2D") -> Span:
        """Host-to-device copy over PCIe.

        Pageable-host copies (the default, ``blocking=True``) synchronize
        the host, as real ``cudaMemcpy`` does; pass ``blocking=False`` to
        model pinned-memory async copies (the Lab 3 optimization).
        """
        stream = stream or self.default_stream
        dur = transfer_duration_ns(nbytes, self.spec.pcie_gbps,
                                   self.spec.transfer_latency_us)
        span = stream.enqueue(dur, name, "memcpy_h2d", nbytes=nbytes)
        if blocking:
            self.clock.advance_to(span.end_ns)
        return span

    def copy_d2h(self, nbytes: int, stream: Stream | None = None,
                 blocking: bool = True, name: str = "memcpy D2H") -> Span:
        """Device-to-host copy over PCIe (see :meth:`copy_h2d`)."""
        stream = stream or self.default_stream
        dur = transfer_duration_ns(nbytes, self.spec.pcie_gbps,
                                   self.spec.transfer_latency_us)
        span = stream.enqueue(dur, name, "memcpy_d2h", nbytes=nbytes)
        if blocking:
            self.clock.advance_to(span.end_ns)
        return span

    def copy_p2p(self, peer: "VirtualGpu", nbytes: int,
                 name: str = "memcpy P2P") -> tuple[Span, Span]:
        """Peer-to-peer copy; uses NVLink when both parts have it, else the
        PCIe switch.  Occupies both devices' default streams (send/recv)."""
        if peer is self:
            raise DeviceError("peer-to-peer copy requires two distinct devices")
        link = (min(self.spec.nvlink_gbps, peer.spec.nvlink_gbps)
                if self.spec.nvlink_gbps and peer.spec.nvlink_gbps
                else min(self.spec.pcie_gbps, peer.spec.pcie_gbps))
        dur = transfer_duration_ns(nbytes, link, self.spec.transfer_latency_us)
        start = max(self.default_stream.ready_at, peer.default_stream.ready_at,
                    self.clock.now_ns)
        end = start + dur
        self.default_stream.ready_at = end
        peer.default_stream.ready_at = end
        s1 = self._record_span(start, end, name + " (send)", "memcpy_p2p",
                               self.default_stream.stream_id, 0.0, nbytes)
        s2 = peer._record_span(start, end, name + " (recv)", "memcpy_p2p",
                               peer.default_stream.stream_id, 0.0, nbytes)
        return s1, s2

    # -- accounting -------------------------------------------------------

    def busy_ns(self, window: tuple[int, int] | None = None) -> int:
        """Merged busy time on this device (optionally within a window)."""
        return merge_busy_ns(self.spans, window)

    def utilization(self, window: tuple[int, int] | None = None) -> float:
        """Fraction of the window this device was busy, the ``nvidia-smi``
        number students chart in the partitioning lab.  With no window the
        span [first-op-start, now] is used."""
        if window is None:
            if not self.spans:
                return 0.0
            window = (min(s.start_ns for s in self.spans), self.clock.now_ns)
        lo, hi = window
        if hi <= lo:
            return 0.0
        return self.busy_ns(window) / (hi - lo)


class Host:
    """The CPU side of the instance; runs baselines and launches work.

    Host computations are synchronous: they advance the shared clock
    immediately (there is exactly one host thread in this model).
    """

    HOST_DEVICE_ID = -1

    def __init__(self, spec: HostSpec, clock: SimClock) -> None:
        self.spec = spec
        self.clock = clock
        self.spans: list[Span] = []
        self._span_listeners: list[Callable[[Span], None]] = []
        self.pinned = PinnedHostPool()

    def add_span_listener(self, fn: Callable[[Span], None]) -> None:
        self._span_listeners.append(fn)

    def remove_span_listener(self, fn: Callable[[Span], None]) -> None:
        self._span_listeners.remove(fn)

    def compute(self, flops: float, nbytes: float, name: str = "host compute") -> Span:
        """Run a CPU-side computation and advance the clock by its roofline
        duration."""
        dur = host_compute_duration_ns(
            flops, nbytes, self.spec.peak_flops, self.spec.peak_bandwidth,
            self.spec.dispatch_overhead_us,
        )
        start = self.clock.now_ns
        end = self.clock.advance(dur)
        span = Span(start, end, name, "host", 0, self.HOST_DEVICE_ID,
                    flops=flops, bytes=nbytes)
        self.spans.append(span)
        for fn in self._span_listeners:
            fn(span)
        return span
