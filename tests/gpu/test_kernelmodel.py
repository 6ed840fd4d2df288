"""Unit tests for the roofline kernel-cost model."""

import math

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu.kernelmodel import (
    KernelCost,
    LaunchConfig,
    kernel_duration_ns,
    normalize_launch,
    occupancy,
    transfer_duration_ns,
    warp_efficiency,
)
from repro.gpu.specs import get_spec

T4 = get_spec("T4")
V100 = get_spec("V100")


class TestLaunchConfig:
    def test_int_promotion(self):
        cfg = normalize_launch(4, 128)
        assert cfg.grid == (4,) and cfg.block == (128,)
        assert cfg.total_threads == 512

    def test_2d_launch(self):
        cfg = normalize_launch((2, 3), (16, 16))
        assert cfg.blocks == 6
        assert cfg.threads_per_block == 256

    def test_block_limit_enforced(self):
        with pytest.raises(DeviceError, match="1024"):
            normalize_launch(1, 2048)

    def test_zero_dim_rejected(self):
        with pytest.raises(DeviceError):
            normalize_launch(0, 32)

    def test_too_many_dims_rejected(self):
        with pytest.raises(DeviceError):
            normalize_launch((1, 1, 1, 1), 32)

    def test_numpy_integer_dimensions(self):
        cfg = normalize_launch(np.int64(4), np.int32(32))
        assert cfg.grid == (4,) and cfg.block == (32,)
        assert all(type(d) is int for d in cfg.grid + cfg.block)
        cfg = normalize_launch([np.int16(2), 3], (np.uint8(16), 16))
        assert cfg.grid == (2, 3) and cfg.block == (16, 16)

    @pytest.mark.parametrize("grid, block, what", [
        (100 / 32, 32, "grid"), ((100 / 32,), 32, "grid"),
        (4, (32.7,), "block"), (4, np.float32(32.0), "block"),
        ("4", 32, "grid")])
    def test_non_integer_dimension_rejected(self, grid, block, what):
        # truncating would run 3 blocks for 3.125 and leave elements unset
        with pytest.raises(DeviceError, match=f"{what} dimensions must be "
                                              "integers"):
            normalize_launch(grid, block)


class TestWarpEfficiency:
    def test_full_warps(self):
        assert warp_efficiency(128) == 1.0

    def test_partial_warp_penalty(self):
        assert warp_efficiency(100) == pytest.approx(100 / 128)

    def test_single_thread(self):
        assert warp_efficiency(1) == pytest.approx(1 / 32)

    def test_invalid(self):
        with pytest.raises(DeviceError):
            warp_efficiency(0)


class TestOccupancy:
    def test_big_grid_saturates(self):
        cfg = normalize_launch(10_000, 256)
        assert occupancy(cfg, T4) == pytest.approx(1.0)

    def test_single_block_is_tiny(self):
        cfg = normalize_launch(1, 256)
        occ = occupancy(cfg, T4)
        assert occ < 0.01

    def test_occupancy_monotone_in_blocks(self):
        occs = [occupancy(normalize_launch(b, 256), T4) for b in (1, 10, 100, 1000)]
        assert occs == sorted(occs)

    def test_never_zero(self):
        assert occupancy(normalize_launch(1, 1), V100) > 0


class TestKernelDuration:
    def test_compute_bound_scales_with_flops(self):
        cfg = normalize_launch(4096, 256)
        small = KernelCost(flops=1e9, bytes_read=1e6, name="s")
        large = KernelCost(flops=4e9, bytes_read=1e6, name="l")
        t_small = kernel_duration_ns(small, cfg, T4)
        t_large = kernel_duration_ns(large, cfg, T4)
        assert 3.0 < t_large / t_small < 4.5

    def test_memory_bound_insensitive_to_flops(self):
        cfg = normalize_launch(4096, 256)
        a = KernelCost(flops=1e6, bytes_read=1e9, name="a")
        b = KernelCost(flops=2e6, bytes_read=1e9, name="b")
        assert kernel_duration_ns(a, cfg, T4) == kernel_duration_ns(b, cfg, T4)

    def test_launch_overhead_floor(self):
        cfg = normalize_launch(1, 32)
        tiny = KernelCost(flops=10, bytes_read=10, name="tiny")
        t = kernel_duration_ns(tiny, cfg, T4)
        assert t >= T4.launch_overhead_us * 1000

    def test_v100_faster_than_t4_compute_bound(self):
        cfg = normalize_launch(4096, 256)
        cost = KernelCost(flops=1e10, bytes_read=1e6, name="k")
        assert kernel_duration_ns(cost, cfg, V100) < kernel_duration_ns(cost, cfg, T4)

    def test_is_compute_bound_classification(self):
        gemm = KernelCost(flops=2e9, bytes_read=1e6, bytes_written=1e6, name="gemm")
        axpy = KernelCost(flops=1e6, bytes_read=1.2e7, name="axpy")
        assert gemm.is_compute_bound(T4)
        assert not axpy.is_compute_bound(T4)

    def test_arithmetic_intensity_infinite_without_traffic(self):
        c = KernelCost(flops=10.0, bytes_read=0.0)
        assert math.isinf(c.arithmetic_intensity)


class TestTransferDuration:
    def test_latency_floor(self):
        t = transfer_duration_ns(1, link_gbps=12.0, latency_us=10.0)
        assert t >= 10_000

    def test_bandwidth_term(self):
        one_gb = transfer_duration_ns(10**9, link_gbps=10.0, latency_us=0.0)
        assert one_gb == pytest.approx(0.1e9, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(DeviceError):
            transfer_duration_ns(-1, 12.0, 10.0)

    def test_small_transfers_dominated_by_latency(self):
        # The Lab 3 lesson: 1000 x 1 KB costs ~1000 latencies; 1 x 1 MB
        # costs one.
        many = 1000 * transfer_duration_ns(1024, 12.0, 10.0)
        one = transfer_duration_ns(1024 * 1000, 12.0, 10.0)
        assert many > 50 * one
