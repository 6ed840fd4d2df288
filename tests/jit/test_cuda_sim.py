"""Tests for the @cuda.jit kernel simulator (Lab 5 territory)."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.jit import cuda


class TestBasicKernels:
    def test_saxpy(self, system1):
        @cuda.jit
        def saxpy(a, x, y, out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] = a * x[i] + y[i]

        n = 1000
        x = cuda.to_device(np.arange(n, dtype=np.float32))
        y = cuda.to_device(np.ones(n, dtype=np.float32))
        out = cuda.device_array(n)
        saxpy[(n + 255) // 256, 256](2.0, x, y, out)
        np.testing.assert_allclose(out.get(), 2 * np.arange(n) + 1)

    def test_2d_grid(self, system1):
        @cuda.jit
        def fill2d(out):
            i, j = cuda.grid(2)
            if i < out.shape[0] and j < out.shape[1]:
                out[i, j] = i * 10 + j

        out = cuda.device_array((4, 6))
        fill2d[(1, 1), (8, 8)](out)
        expect = np.add.outer(np.arange(4) * 10, np.arange(6))
        np.testing.assert_array_equal(out.get(), expect)

    def test_gridsize_stride_loop(self, system1):
        @cuda.jit
        def strided_inc(out):
            start = cuda.grid(1)
            step = cuda.gridsize(1)
            for i in range(start, out.size, step):
                out[i] += 1.0

        out = cuda.to_device(np.zeros(100, dtype=np.float32))
        strided_inc[2, 16](out)  # 32 threads cover 100 elements
        np.testing.assert_array_equal(out.get(), np.ones(100))

    def test_thread_block_indices(self, system1):
        @cuda.jit
        def record(out):
            i = cuda.blockIdx.x * cuda.blockDim.x + cuda.threadIdx.x
            out[i] = cuda.blockIdx.x

        out = cuda.device_array(8, dtype=np.float32)
        record[4, 2](out)
        np.testing.assert_array_equal(out.get(), [0, 0, 1, 1, 2, 2, 3, 3])


class TestSharedMemoryAndSync:
    def test_block_reduction_with_barrier(self, system1):
        @cuda.jit
        def block_sum(x, out):
            tile = cuda.shared.array(32, np.float32)
            tx = cuda.threadIdx.x
            i = cuda.grid(1)
            tile[tx] = x[i] if i < x.size else 0.0
            cuda.syncthreads()
            if tx == 0:
                s = 0.0
                for j in range(32):
                    s += tile[j]
                cuda.atomic.add(out, 0, s)

        x = cuda.to_device(np.arange(128, dtype=np.float32))
        out = cuda.to_device(np.zeros(1, dtype=np.float32))
        block_sum[4, 32](x, out)
        assert out.get()[0] == pytest.approx(np.arange(128).sum())
        assert block_sum.uses_syncthreads

    def test_shared_array_is_per_block(self, system1):
        @cuda.jit
        def leak_check(out):
            tile = cuda.shared.array(4, np.float32)
            tx = cuda.threadIdx.x
            tile[tx] = cuda.blockIdx.x + 1.0
            cuda.syncthreads()
            out[cuda.grid(1)] = tile[tx]

        out = cuda.device_array(8, dtype=np.float32)
        leak_check[2, 4](out)
        np.testing.assert_array_equal(out.get(), [1, 1, 1, 1, 2, 2, 2, 2])

    def test_sequential_kernels_skip_barrier_machinery(self, system1):
        @cuda.jit
        def plain(out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] = i

        assert not plain.uses_syncthreads


class TestAtomics:
    def test_atomic_add_counts_all_threads(self, system1):
        @cuda.jit
        def count(out):
            cuda.atomic.add(out, 0, 1.0)

        out = cuda.to_device(np.zeros(1, dtype=np.float64))
        count[8, 32](out)
        assert out.get()[0] == 256

    def test_atomic_max(self, system1):
        @cuda.jit
        def kmax(x, out):
            i = cuda.grid(1)
            if i < x.size:
                cuda.atomic.max(out, 0, x[i])

        x = cuda.to_device(np.array([3.0, 9.0, 1.0, 7.0], dtype=np.float32))
        out = cuda.to_device(np.zeros(1, dtype=np.float32))
        kmax[1, 4](x, out)
        assert out.get()[0] == 9.0


class TestLaunchMechanics:
    def test_direct_call_rejected(self, system1):
        @cuda.jit
        def k(out):
            pass

        with pytest.raises(DeviceError, match="grid, block"):
            k(np.zeros(1))

    def test_bad_launch_syntax_rejected(self, system1):
        @cuda.jit
        def k(out):
            pass

        with pytest.raises(DeviceError):
            k[32](np.zeros(1))  # missing block

    def test_numpy_integer_launch_dimensions(self, system1):
        @cuda.jit
        def fill(out, n):
            i = cuda.grid(1)
            if i < n:
                out[i] = 1.0

        n = 100
        for grid, block in ((np.int64(4), 32), (4, np.int32(32)),
                            ((np.int64(4),), [np.int32(32)])):
            out = cuda.device_array(n)
            fill[grid, block](out, n)
            np.testing.assert_array_equal(out.get(), np.ones(n))

    def test_fractional_launch_dimensions_rejected(self, system1):
        @cuda.jit
        def fill(out, n):
            i = cuda.grid(1)
            if i < n:
                out[i] = 1.0

        n = 100
        out = cuda.device_array(n)
        # (n / 32,) once ran int(3.125) = 3 blocks and filled 96 of 100
        for grid, block, what in ((n / 32, 32, "grid"),
                                  ((n / 32,), 32, "grid"),
                                  (4, (32.7,), "block")):
            with pytest.raises(DeviceError, match=f"{what} dimensions"):
                fill[grid, block](out, n)
        assert fill.launch_count == 0
        np.testing.assert_array_equal(out.get(), np.zeros(n))

    def test_intrinsic_outside_kernel_rejected(self, system1):
        with pytest.raises(DeviceError, match="outside a kernel"):
            cuda.grid(1)

    def test_gridsize_rejects_what_grid_rejects(self, system1):
        for ndim in (0, 4):
            @cuda.jit
            def ask_gridsize(out):
                out[0] = cuda.gridsize(ndim)[0]

            with pytest.raises(DeviceError, match="gridsize ndim"):
                ask_gridsize[1, 1](cuda.device_array(1))

    def test_launch_charges_device_time(self, system1):
        @cuda.jit
        def k(out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] = 1.0

        out = cuda.device_array(1024)
        dev = system1.device(0)
        k0 = dev.kernel_count
        k[4, 256](out)
        assert dev.kernel_count == k0 + 1
        assert k.launch_count == 1

    def test_host_array_argument_roundtrips_with_warning(self, system1):
        @cuda.jit
        def inc(out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] += 1.0

        host = np.zeros(16, dtype=np.float32)
        inc[1, 16](host)
        np.testing.assert_array_equal(host, np.ones(16))
        assert inc.performance_warnings  # the teaching moment

    def test_cost_hints_affect_duration(self, system1):
        @cuda.jit(flops_per_thread=1.0)
        def cheap(out):
            pass

        @cuda.jit(flops_per_thread=100000.0)
        def pricey(out):
            pass

        dev = system1.device(0)
        out = cuda.device_array(64)
        cheap[512, 256](out)
        t_cheap = dev.spans[-1].duration_ns
        pricey[512, 256](out)
        t_pricey = dev.spans[-1].duration_ns
        assert t_pricey > t_cheap


class TestBarrierThreadedExecutor:
    """Kernels containing ``syncthreads`` run on real OS threads with a
    real barrier — the executor path the sanitizer's dynamic race
    detector instruments."""

    def test_tiled_matmul_with_syncthreads(self, system1):
        TILE = 4

        @cuda.jit
        def tiled_matmul(a, b, c):
            tile_a = cuda.shared.array((4, 4))
            tile_b = cuda.shared.array((4, 4))
            tx = cuda.threadIdx.x
            ty = cuda.threadIdx.y
            col, row = cuda.grid(2)
            acc = 0.0
            for t in range(a.shape[1] // 4):
                if row < a.shape[0] and col < b.shape[1]:
                    tile_a[ty, tx] = a[row, t * 4 + tx]
                    tile_b[ty, tx] = b[t * 4 + ty, col]
                cuda.syncthreads()
                for k in range(4):
                    acc += tile_a[ty, k] * tile_b[k, tx]
                cuda.syncthreads()
            if row < c.shape[0] and col < c.shape[1]:
                c[row, col] = acc

        n = 8
        rng = np.random.default_rng(7)
        a_h = rng.standard_normal((n, n)).astype(np.float32)
        b_h = rng.standard_normal((n, n)).astype(np.float32)
        a = cuda.to_device(a_h)
        b = cuda.to_device(b_h)
        c = cuda.device_array((n, n))
        grid = (n // TILE, n // TILE)
        tiled_matmul[grid, (TILE, TILE)](a, b, c)
        np.testing.assert_allclose(c.get(), a_h @ b_h, rtol=1e-4)

    def test_tiled_matmul_is_race_free_under_detector(self, system1):
        from repro.sanitize import check_launch

        @cuda.jit
        def tiled_sum(v, out):
            tile = cuda.shared.array(16)
            tx = cuda.threadIdx.x
            i = cuda.grid(1)
            tile[tx] = v[i] if i < v.size else 0.0
            cuda.syncthreads()
            if tx == 0:
                s = 0.0
                for k in range(16):
                    s += tile[k]
                out[cuda.blockIdx.x] = s

        v = cuda.to_device(np.ones(64, dtype=np.float32))
        out = cuda.device_array(4)
        report = check_launch(tiled_sum, 4, 16, v, out)
        assert report.ok, report.render_text()
        assert out.get().sum() == 64

    def test_racy_kernel_is_caught_by_dynamic_detector(self, system1):
        from repro.sanitize import check_launch

        @cuda.jit
        def racy_reverse(v, out):
            tile = cuda.shared.array(32)
            tx = cuda.threadIdx.x
            tile[tx] = v[tx]
            # missing cuda.syncthreads(): reads race the writes above
            out[tx] = tile[31 - tx]

        v = cuda.to_device(np.arange(32, dtype=np.float32))
        out = cuda.device_array(32)
        report = check_launch(racy_reverse, 1, 32, v, out)
        assert any(f.rule in ("SAN-DYN-RW", "SAN-DYN-WW")
                   for f in report.findings), report.render_text()


class TestKernelClassify:
    """`CudaKernel.classify()` — the live bridge into the abstract
    interpreter's vectorizability contract."""

    def test_elementwise_kernel_classifies(self, system1):
        @cuda.jit
        def double(x, out):
            i = cuda.grid(1)
            if i < x.size and i < out.size:
                out[i] = 2.0 * x[i]

        kc = double.classify()
        assert kc.kernel == "double"
        assert kc.klass == "elementwise"
        assert kc.vectorizable
        # guards bound every array, so even the launch-free extraction
        # proves the accesses safe
        assert kc.oob == "proven_safe"

    def test_divergent_kernel_falls_back(self, system1):
        @cuda.jit
        def gather(idx, x, out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] = x[idx[i]]

        kc = gather.classify()
        assert kc.klass == "divergent-fallback"
        assert not kc.vectorizable
        assert kc.reasons

    def test_classification_does_not_interfere_with_launch(self, system1):
        @cuda.jit
        def fill(out):
            i = cuda.grid(1)
            if i < out.size:
                out[i] = 1.0

        assert fill.classify().klass == "elementwise"
        out = cuda.device_array(64)
        fill[1, 64](out)
        assert out.get().sum() == 64
