"""Analytic roofline kernel-cost model.

The virtual GPU prices each kernel with the classic roofline bound

    t = overhead + max( flops / (peak_flops * eff),  bytes / (bw * eff) )

where ``eff`` folds in occupancy and warp efficiency.  This is exactly the
mental model Week 4 of the course teaches via Nsight Systems and the
PyTorch profiler: a kernel is either compute-bound or memory-bound, and the
fix differs depending on which.  Because the model is analytic and the clock
is simulated, the profiler tables the labs produce are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.errors import DeviceError
from repro.gpu.clock import ns_from_s
from repro.gpu.specs import DeviceSpec


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA-style execution configuration ``<<<grid, block>>>``.

    ``grid`` and ``block`` are 1-3 element tuples; a bare int is promoted by
    :func:`normalize_launch`.  Total threads = prod(grid) * prod(block).
    """

    grid: tuple[int, ...]
    block: tuple[int, ...]

    @property
    def blocks(self) -> int:
        return math.prod(self.grid)

    @property
    def threads_per_block(self) -> int:
        return math.prod(self.block)

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads_per_block


def normalize_launch(grid, block) -> LaunchConfig:
    """Validate and normalize a ``<<<grid, block>>>`` pair.

    Accepts integers (Python or NumPy) or tuples or lists of them, as
    Numba does, and enforces CUDA's hard limits: at most 1024 threads per
    block, positive dimensions, 3 axes max.  A dimension that is not an
    integer (``n / 32``, say) raises rather than being truncated.
    """
    def norm(v, what: str) -> tuple[int, ...]:
        dims = tuple(v) if isinstance(v, (tuple, list)) else (v,)
        try:
            v = tuple(operator.index(x) for x in dims)
        except TypeError:
            raise DeviceError(
                f"{what} dimensions must be integers, got {v!r}") from None
        if not 1 <= len(v) <= 3:
            raise DeviceError(f"{what} must have 1-3 dimensions, got {len(v)}")
        if any(x <= 0 for x in v):
            raise DeviceError(f"{what} dimensions must be positive, got {v}")
        return v

    cfg = LaunchConfig(grid=norm(grid, "grid"), block=norm(block, "block"))
    if cfg.threads_per_block > 1024:
        raise DeviceError(
            f"invalid launch: {cfg.threads_per_block} threads per block "
            "exceeds the 1024-thread CUDA limit"
        )
    return cfg


@dataclass(frozen=True)
class KernelCost:
    """Abstract work description of one kernel launch.

    Attributes
    ----------
    flops:
        Floating-point operations the kernel performs.
    bytes_read / bytes_written:
        Global-memory traffic.  ``bytes_total`` is what the bandwidth term
        of the roofline sees.
    name:
        Kernel name shown in profiler timelines.
    compute_efficiency:
        Fraction of peak FLOPs attainable by this kernel family even at
        full occupancy (e.g. ~0.85 for dense matmul through a tuned
        library, ~0.3 for scalar elementwise code) — the "ceiling below the
        roof" of real rooflines.
    """

    flops: float
    bytes_read: float
    bytes_written: float = 0.0
    name: str = "kernel"
    compute_efficiency: float = 0.7

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of global traffic (the roofline x-axis)."""
        if self.bytes_total == 0:
            return math.inf
        return self.flops / self.bytes_total

    def is_compute_bound(self, spec: DeviceSpec) -> bool:
        """True when this kernel sits right of the device's ridge point."""
        return self.arithmetic_intensity >= spec.machine_balance


def warp_efficiency(threads_per_block: int, warp_size: int = 32) -> float:
    """Fraction of lanes doing useful work in the last (partial) warp.

    128 threads/block → 1.0; 100 threads/block → 100/128 ≈ 0.78.  This is
    the penalty Lab 2 asks students to measure by sweeping block sizes.
    """
    if threads_per_block <= 0:
        raise DeviceError("threads_per_block must be positive")
    warps = math.ceil(threads_per_block / warp_size)
    return threads_per_block / (warps * warp_size)


def occupancy(cfg: LaunchConfig, spec: DeviceSpec) -> float:
    """Achieved occupancy in (0, 1]: resident threads / device capacity.

    Small grids cannot fill the machine (the "tail effect"); the model
    caps per-SM residency at ``max_threads_per_sm`` and spreads blocks
    round-robin across SMs, so a 1-block launch on an 80-SM part reports
    tiny occupancy — which is why naive single-block student kernels are
    slow regardless of block size.
    """
    device_capacity = spec.sm_count * spec.max_threads_per_sm
    active_sms = min(cfg.blocks, spec.sm_count)
    blocks_per_active_sm = math.ceil(cfg.blocks / spec.sm_count)
    resident_per_active_sm = min(
        blocks_per_active_sm * cfg.threads_per_block, spec.max_threads_per_sm
    )
    resident = min(active_sms * resident_per_active_sm, cfg.total_threads)
    return max(resident / device_capacity, 1e-4)


def kernel_duration_ns(cost: KernelCost, cfg: LaunchConfig, spec: DeviceSpec) -> int:
    """Roofline duration of one launch, in simulated nanoseconds.

    The effective compute roof is ``peak * occupancy * warp_eff * ceiling``
    and the effective bandwidth roof degrades only mildly with occupancy
    (memory systems saturate with far fewer threads than ALUs do — the
    square-root term models that.)
    """
    occ = occupancy(cfg, spec)
    weff = warp_efficiency(cfg.threads_per_block, spec.warp_size)
    compute_roof = spec.peak_flops * occ * weff * cost.compute_efficiency
    bandwidth_roof = spec.peak_bandwidth * math.sqrt(occ) * weff
    t_compute = cost.flops / compute_roof if cost.flops else 0.0
    t_memory = cost.bytes_total / bandwidth_roof if cost.bytes_total else 0.0
    seconds = spec.launch_overhead_us * 1e-6 + max(t_compute, t_memory)
    return ns_from_s(seconds)


def transfer_duration_ns(nbytes: int, link_gbps: float, latency_us: float) -> int:
    """Duration of a host<->device or peer copy over a link.

    The fixed latency term dominates small transfers — the effect behind
    the Week 3 lesson "batch your copies".
    """
    if nbytes < 0:
        raise DeviceError("cannot transfer negative bytes")
    seconds = latency_us * 1e-6 + nbytes / (link_gbps * 1e9)
    return ns_from_s(seconds)


def host_compute_duration_ns(flops: float, nbytes: float, host_peak_flops: float,
                             host_peak_bw: float, overhead_us: float = 0.5) -> int:
    """Roofline duration of a CPU-side computation (for CPU baselines)."""
    t_compute = flops / host_peak_flops if flops else 0.0
    t_memory = nbytes / host_peak_bw if nbytes else 0.0
    return ns_from_s(overhead_us * 1e-6 + max(t_compute, t_memory))
