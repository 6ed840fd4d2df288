"""The launcher's execution paths against the per-thread interpreter.

A kernel launch runs twice: as the launcher chooses (lowered, generator
blocks or the interpreter), and with both compiled variants disabled so
that only the per-thread paths remain.  Both runs must give the same
output bytes, device span durations and ``launch_count``.  The scenarios
are every test of ``test_cuda_sim.py``, the walkthrough in
``examples/custom_kernels.py``, the course's Lab 5, and derandomized
saxpy and blur shapes.  The launcher decides each launch signature by
its own trace on the signature's first launch, so small one-off
launches take their fast path too; ``TestAdmission`` covers how often
it decides.
"""

import contextlib
import importlib.util
import inspect
import json
import os
import runpy
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.course.labs import lab5_custom_kernel
from repro.errors import DeviceError
from repro.gpu import make_system
from repro.gpu.system import current_device
from repro.jit import cuda, lowering
from repro.sanitize import check_launch

from . import test_cuda_sim

REPO = Path(__file__).resolve().parents[2]


@contextlib.contextmanager
def per_thread_only():
    """Kernels whose variants are built inside take only the per-thread
    paths: sequential, or OS-thread blocks for barrier kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowering, "lower", lambda fn, names: None)
        mp.setattr(lowering, "generator_variant", lambda fn, names: None)
        yield


def launches(scenario, *, reference: bool) -> list:
    """Run ``scenario`` and record each kernel launch: name, path,
    ``launch_count``, the span's duration, and the bytes of every array
    argument after the launch."""
    records = []
    call = cuda._Launcher.__call__

    def recording(self, *args):
        call(self, *args)
        records.append((
            self.kernel.name, self.kernel.last_path, self.kernel.launch_count,
            current_device().spans[-1].duration_ns,
            [a._unwrap().tobytes() if isinstance(a, cuda.XpArray)
             else a.tobytes() for a in args
             if isinstance(a, (cuda.XpArray, np.ndarray))]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuda._Launcher, "__call__", recording)
        with per_thread_only() if reference else contextlib.nullcontext():
            scenario()
    return records


def paths_match_interpreter(scenario, label: str = "") -> dict:
    """Assert the fast run equals the reference run launch by launch;
    return the path each kernel took on the fast run."""
    fast = launches(scenario, reference=False)
    ref = launches(scenario, reference=True)
    assert [r[:1] + r[2:] for r in fast] == [r[:1] + r[2:] for r in ref], \
        label
    assert all(r[1] in ("sequential", "os-threads") for r in ref), label
    return {r[0]: r[1] for r in fast}


SIM_TESTS = sorted(
    (cls.__name__, name) for cls in vars(test_cuda_sim).values()
    if isinstance(cls, type) and cls.__name__.startswith("Test")
    for name in vars(cls) if name.startswith("test_"))


def saxpy_undecorated(a, x, y, out, n):
    i = cuda.grid(1)
    if i < n:
        out[i] = a * x[i] + y[i]


#: a kernel made by calling ``cuda.jit`` on a def with no decorator
saxpy_called = cuda.jit(saxpy_undecorated)


class TestByteIdentity:
    def test_cuda_sim_kernels(self):
        paths = {}
        for cls, name in SIM_TESTS:
            paths.update(paths_match_interpreter(
                lambda: getattr(getattr(test_cuda_sim, cls)(), name)(
                    make_system(1, "T4")), f"{cls}.{name}"))
        assert paths["saxpy"] == "lowered"
        assert paths["inc"] == "lowered"            # host-array round trip
        assert paths["tiled_matmul"] == "lowered"
        assert paths["block_sum"] == "generator"     # atomic add
        assert paths["fill2d"] == "sequential"      # index in the value
        assert paths["strided_inc"] == "sequential"

    def test_custom_kernels_example(self, capsys):
        example = runpy.run_path(str(REPO / "examples" / "custom_kernels.py"))
        paths = paths_match_interpreter(example["main"])
        assert paths == {"saxpy": "lowered", "blur": "lowered",
                         "block_sum": "lowered"}

    def test_lab5(self):
        assert paths_match_interpreter(lab5_custom_kernel) == {
            "saxpy": "lowered"}

    def test_kernel_made_by_calling_cuda_jit(self, system1):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(1000), rng.standard_normal(1000)
        assert run_both(saxpy_called, 8, 128, 2.0, x, y, np.zeros(1000),
                        1000) == "lowered"


# -- derandomized shapes, block sizes and guard bounds ------------------------

@cuda.jit
def saxpy_upto(a, x, y, out, n):
    i = cuda.grid(1)
    if i < n:
        out[i] = a * x[i] + y[i]


@cuda.jit
def blur_within(img, out, lo, hi):
    i, j = cuda.grid(2)
    if lo <= i < img.shape[0] - hi and lo <= j < img.shape[1] - hi:
        out[i, j] = (img[i, j] + img[i - 1, j] + img[i + 1, j]
                     + img[i, j - 1] + img[i, j + 1]) / 5.0


def run_both(kernel, grid, block, *args) -> str:
    """Launch ``kernel`` and a per-thread-only copy on copies of ``args``;
    assert equal bytes and span durations; return the fast path."""
    results = []
    for reference in (False, True):
        copies = [cuda.to_device(a) if isinstance(a, np.ndarray) else a
                  for a in args]
        with per_thread_only() if reference else contextlib.nullcontext():
            k = cuda.CudaKernel(kernel.fn) if reference else kernel
            k[grid, block](*copies)
        results.append(([c.get().tobytes() for c in copies
                         if isinstance(c, cuda.XpArray)],
                        current_device().spans[-1].duration_ns))
    assert results[0] == results[1]
    return kernel.last_path


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 700), block=st.sampled_from([32, 64, 100, 128]),
       bound=st.floats(0.0, 1.0),
       dtype=st.sampled_from([np.float32, np.float64]),
       a=st.one_of(st.floats(-4, 4, width=32), st.just(np.float32(1.5))))
def test_saxpy_shapes_lower_byte_identically(n, block, bound, dtype, a):
    make_system(1, "T4")
    rng = np.random.default_rng(n)
    x, y = (rng.standard_normal(n).astype(dtype) for _ in range(2))
    assert run_both(saxpy_upto, -(-n // block), block, a, x, y,
                    np.zeros(n, dtype), int(bound * n)) == "lowered"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=st.integers(3, 40), cols=st.integers(3, 40),
       block=st.sampled_from([(8, 8), (4, 16), (10, 10), (16, 2)]),
       lo=st.integers(1, 3), hi=st.integers(1, 3))
def test_blur_shapes_lower_byte_identically(rows, cols, block, lo, hi):
    make_system(1, "T4")
    img = np.random.default_rng(rows * cols).random((rows, cols),
                                                    dtype=np.float32)
    grid = (-(-rows // block[0]), -(-cols // block[1]))
    assert run_both(blur_within, grid, block, img,
                    np.zeros_like(img), lo, hi) == "lowered"


# -- augmented assignment promotes as on scalars ------------------------------

@cuda.jit
def widening_sum(x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        acc = x[i]
        acc += y[i]
        out[i] = acc


@cuda.jit
def halve_and_tally(counts, halves, tally):
    i = cuda.grid(1)
    if i < counts.size:
        v = counts[i]
        v /= 2
        halves[i] = v
        tally[i] += 0.5
        tally[i] *= 3


class TestAugmentedAssignment:
    """``t op= v`` rebinds a scalar to the promoted result in the
    interpreter; the lowered path must not cast into the target."""

    def test_accumulator_widens(self, system1):
        rng = np.random.default_rng(0)
        assert run_both(widening_sum, 4, 100,
                        rng.random(400, dtype=np.float32),
                        rng.random(400), np.zeros(400)) == "lowered"

    def test_integer_targets_take_float_results(self, system1):
        assert run_both(halve_and_tally, 3, 100, np.arange(300),
                        np.zeros(300), np.arange(300)) == "lowered"


# -- barrier kernels: whole-block lowering ------------------------------------

DTYPES = (np.float32, np.float64, np.int64)


def tree_sum_kernel(dtype):
    @cuda.jit
    def tree_sum(v, partials):
        tile = cuda.shared.array(128, dtype)
        tx = cuda.threadIdx.x
        i = cuda.grid(1)
        tile[tx] = v[i] if i < v.size else 0
        cuda.syncthreads()
        stride = cuda.blockDim.x // 2
        while stride > 0:
            if tx < stride:
                tile[tx] += tile[tx + stride]
            cuda.syncthreads()
            stride //= 2
        if tx == 0:
            partials[cuda.blockIdx.x] = tile[0]
    return tree_sum


def reverse_kernel(dtype):
    # ``heads`` makes it a reduction to the analyzer, which has no
    # archetype for a reverse alone
    @cuda.jit
    def block_reverse(v, out, heads):
        tile = cuda.shared.array(128, dtype)
        tx = cuda.threadIdx.x
        i = cuda.grid(1)
        if i < v.size:
            tile[tx] = v[i]
        cuda.syncthreads()
        if i < out.size:
            out[i] = tile[cuda.blockDim.x - 1 - tx]
        if tx == 0:
            heads[cuda.blockIdx.x] = tile[cuda.blockDim.x - 1]
    return block_reverse


def matmul_kernel(dtype):
    @cuda.jit
    def tiled_matmul(a, b, c):
        sa = cuda.shared.array((4, 4), dtype)
        sb = cuda.shared.array((4, 4), dtype)
        tx = cuda.threadIdx.x
        ty = cuda.threadIdx.y
        col, row = cuda.grid(2)
        acc = 0
        for t in range((a.shape[1] + 3) // 4):
            k = t * 4 + tx
            if row < a.shape[0] and k < a.shape[1]:
                sa[ty, tx] = a[row, k]
            else:
                sa[ty, tx] = 0
            k = t * 4 + ty
            if col < b.shape[1] and k < b.shape[0]:
                sb[ty, tx] = b[k, col]
            else:
                sb[ty, tx] = 0
            cuda.syncthreads()
            for m in range(4):
                acc += sa[ty, m] * sb[m, tx]
            cuda.syncthreads()
        if row < c.shape[0] and col < c.shape[1]:
            c[row, col] = acc
    return tiled_matmul


TREE_SUM = {dt: tree_sum_kernel(dt) for dt in DTYPES}
REVERSE = {dt: reverse_kernel(dt) for dt in DTYPES}
MATMUL = {dt: matmul_kernel(dt) for dt in DTYPES}


def sample(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    if dtype == np.int64:
        return rng.integers(-1000, 1000, size=shape)
    return rng.standard_normal(shape).astype(dtype)


@contextlib.contextmanager
def chunks_of(threads: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowering, "CHUNK_THREADS", threads)
        yield


# the reference runs each block's threads on OS threads, so the launches
# stay a few blocks of at most 128 threads
@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), block=st.sampled_from([32, 64, 128]),
       dtype=st.sampled_from(DTYPES),
       chunk=st.sampled_from([lowering.CHUNK_THREADS, 100]))
def test_block_reductions_lower_byte_identically(n, block, dtype, chunk):
    make_system(1, "T4")
    v = sample(dtype, n, n)
    blocks = -(-n // block)
    with chunks_of(chunk):
        assert run_both(TREE_SUM[dtype], blocks, block, v,
                        np.zeros(blocks, dtype)) == "lowered"
        assert run_both(REVERSE[dtype], blocks, block, v, np.zeros(n, dtype),
                        np.zeros(blocks, dtype)) == "lowered"


@settings(max_examples=15, deadline=None, derandomize=True)
@given(rows=st.integers(1, 10), inner=st.integers(1, 10),
       cols=st.integers(1, 10), dtype=st.sampled_from(DTYPES),
       chunk=st.sampled_from([lowering.CHUNK_THREADS, 20]))
def test_tiled_matmuls_lower_byte_identically(rows, inner, cols, dtype,
                                              chunk):
    make_system(1, "T4")
    a = sample(dtype, (rows, inner), rows)
    b = sample(dtype, (inner, cols), cols)
    with chunks_of(chunk):
        assert run_both(MATMUL[dtype], (-(-cols // 4), -(-rows // 4)),
                        (4, 4), a, b, np.zeros((rows, cols), dtype)) \
            == "lowered"


@cuda.jit
def shift_sum(v, out):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = v[cuda.grid(1)]
    cuda.syncthreads()
    if tx > 0:
        tile[tx] = tile[tx - 1] + tile[tx]
    cuda.syncthreads()
    if tx == 0:
        out[cuda.blockIdx.x] = tile[63]


@cuda.jit
def chain(v, partials):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    b = cuda.blockIdx.x
    tile[tx] = v[cuda.grid(1)]
    cuda.syncthreads()
    if tx == 0 and b > 0:
        partials[b] = tile[0] + partials[b - 1]


@cuda.jit
def masked_temp(v, out):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    t = 0.0
    if tx < 32:
        t = v[cuda.grid(1)]
    tile[tx] = t
    cuda.syncthreads()
    if tx == 0:
        out[cuda.blockIdx.x] = tile[0] + tile[63]


class TestBarrierKernelsKept:
    """Barrier kernels the abstract interpreter calls a verified
    ``reduction`` that stay on the generator path.  In the first two
    (SAN-SHARED-RACE misses both) threads depend on one another inside a
    phase or across blocks, so lockstep would change their bytes and the
    trace refuses them."""

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_neighbour_read_before_its_write(self, system1, chunk):
        v = cuda.to_device(np.ones(128, np.float32))
        out = cuda.device_array(2)
        with chunks_of(chunk):
            assert run_both(shift_sum, 2, 64, np.ones(128, np.float32),
                            np.zeros(2, np.float32)) == "generator"
            shift_sum[2, 64](v, out)
        np.testing.assert_array_equal(out.get(), [64, 64])

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_block_reads_another_blocks_write(self, system1, chunk):
        partials = cuda.device_array(4)
        with chunks_of(chunk):
            assert run_both(chain, 4, 64, np.ones(256, np.float32),
                            np.zeros(4, np.float32)) == "generator"
            chain[4, 64](cuda.to_device(np.ones(256, np.float32)), partials)
        np.testing.assert_array_equal(partials.get(), [0, 1, 2, 3])

    def test_temporary_assigned_under_a_mask_read_outside(self, system1):
        assert run_both(masked_temp, 2, 64, np.arange(128, dtype=np.float32),
                        np.zeros(2, np.float32)) == "generator"


# -- loops and tests on data --------------------------------------------------

@cuda.jit
def collatz(start, steps):
    i = cuda.grid(1)
    if i < start.size:
        n = start[i]
        count = 0
        while n != 1:
            if n % 2 == 0:
                n = n // 2
            else:
                n = 3 * n + 1
            count += 1
        steps[i] = count


@cuda.jit
def newton_sqrt(x, out, steps):
    i = cuda.grid(1)
    if i < x.size:
        a = x[i]
        r = a + 1.0
        nxt = 0.5 * (r + a / r)
        count = 0
        while nxt < r:      # strictly falling, so it stops
            r = nxt
            nxt = 0.5 * (r + a / r)
            count += 1
        out[i] = r
        steps[i] = count


@cuda.jit
def damped(lens, x, out, sums):
    i = cuda.grid(1)
    if i < lens.size:
        v = x[i]
        total = 0
        for k in range(lens[i]):
            v = v * 0.5 + 1.0
            total += k
        out[i] = v
        sums[i] = total


@cuda.jit
def stepped(lo, hi, step, x, out, sums):
    i = cuda.grid(1)
    if i < lo.size:
        v = x[i]
        total = 0
        for k in range(lo[i], hi[i], step):
            if k < 5:
                v = v * 0.5 + 1.0
            total += k
        out[i] = v
        sums[i] = total


def both_chunkings(kernel, grid, block, *args):
    """``run_both`` at the default chunk cap and in chunks of 64
    threads; asserts the launch lowers."""
    for chunk in (lowering.CHUNK_THREADS, 64):
        with chunks_of(chunk):
            assert run_both(kernel, grid, block, *args) == "lowered"


def short_of_blocks(blocks: int, block: int, short: int) -> int:
    """A thread count that leaves the last of ``blocks`` blocks short."""
    return blocks * block - 1 - short % (block - 1)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(blocks=st.integers(1, 4), block=st.sampled_from([32, 64, 128, 256]),
       short=st.integers(0, 255), top=st.integers(2, 5000))
def test_collatz_lowers_byte_identically(blocks, block, short, top):
    make_system(1, "T4")
    n = short_of_blocks(blocks, block, short)
    start = np.random.default_rng(n + top).integers(1, top, n)
    both_chunkings(collatz, blocks, block, start, np.zeros(n, np.int64))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), block=st.sampled_from([32, 64, 100]),
       dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.sampled_from([1.0, 1e3, 1e6]))
def test_newton_sqrt_lowers_byte_identically(n, block, dtype, scale):
    make_system(1, "T4")
    x = np.random.default_rng(n).uniform(1e-3, scale, n).astype(dtype)
    both_chunkings(newton_sqrt, -(-n // block), block, x, np.zeros(n, dtype),
                   np.zeros(n, np.int64))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), block=st.sampled_from([32, 64, 100]),
       dtype=st.sampled_from([np.float32, np.float64]),
       step=st.sampled_from([-3, -1, 1, 2]))
def test_thread_varying_ranges_lower_byte_identically(n, block, dtype, step):
    make_system(1, "T4")
    rng = np.random.default_rng(n)
    x = rng.random(n).astype(dtype)
    grid = -(-n // block)
    both_chunkings(damped, grid, block, rng.integers(0, 20, n), x,
                   np.zeros(n, dtype), np.zeros(n, np.int64))
    both_chunkings(stepped, grid, block, rng.integers(-10, 20, n),
                   rng.integers(-10, 20, n), step, x, np.zeros(n, dtype),
                   np.zeros(n, np.int64))


@cuda.jit
def magnitude(x, out):
    i = cuda.grid(1)
    if i < x.size:
        t = x[i]
        if t < 0:
            t = -t
        out[i] = t


@cuda.jit
def nested(lens, x, out):
    i = cuda.grid(1)
    if i < lens.size:
        v = x[i]
        for k in range(lens[i]):
            while v > 2.0:
                v = v * 0.5
            v = v * 3.0 + k
        out[i] = v


@cuda.jit
def relu(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[i] = x[i] if x[i] > 0 else 0.0


@cuda.jit
def decay_reload(x, decay, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        while v > 1.0:
            v = v * decay[i]
        out[i] = v


@cuda.jit
def float_accumulator(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        acc = 0.0
        while v > 1.0:
            acc += v
            v = v * 0.5
        out[i] = acc


@cuda.jit
def scaled_count(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        count = 0
        while v > 1.0:
            v = v * 0.5
            count += 1
        out[i] = count * x[i]


@cuda.jit
def halving(start, out):
    i = cuda.grid(1)
    if i < start.size:
        n = start[i]
        while n > 1:
            n = n / 2
        out[i] = n


@cuda.jit
def early_stop(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        while v > 1.0:
            v = v * 0.5
            if v < 3.0:
                break
        out[i] = v


@cuda.jit
def tripling(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        p = 1
        while v > 1.0:
            v = v * 0.5
            p = p * 3
        out[i] = p


# temporaries that only the branch or loop assigning them reads, which an
# enclosing loop runs again: each run starts from the value the last one
# left for that thread

@cuda.jit
def shrinking_step(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        w = 0.1 * x[i]
        for j in range(4):
            if v < 4.0:
                w = w * 0.5
                v = v - w
        out[i] = v


@cuda.jit
def tally_under_a_test(x, out):
    i = cuda.grid(1)
    if i < x.size:
        v = x[i]
        c = 0
        total = 0
        while v > 1.0:
            if v < 4.0:
                c += 1
                total += c
            v = v * 0.5
        out[i] = total


@cuda.jit
def inner_step(lens, x, out):
    i = cuda.grid(1)
    if i < lens.size:
        v = x[i]
        t = 0.5 * x[i]
        for k in range(lens[i]):
            while v > 2.0:
                t = t * 0.5 + 0.25
                v = v - t
            v = v * 3.0 + k
        out[i] = v


@cuda.jit
def count_then_halve(m0, out):
    i = cuda.grid(1)
    if i < m0.size:
        m = m0[i]
        c = 0
        while m > 1:
            c += 1
            if c > 2:
                m = m // 2
            else:
                m = m - 1
        out[i] = m


@cuda.jit
def count_then_divide(m0, out):
    i = cuda.grid(1)
    if i < m0.size:
        m = m0[i]
        c = 0
        while m > 1:
            c += 1
            if c > 2:
                m = m / 2
            else:
                m = m - 1
        out[i] = m


@cuda.jit
def late_halving(lens, m0, out):
    i = cuda.grid(1)
    if i < lens.size:
        m = m0[i]
        for k in range(lens[i]):
            if k > 2:
                m = m // 2
            else:
                m = m - 1
        out[i] = m


@cuda.jit
def late_division(lens, m0, out):
    i = cuda.grid(1)
    if i < lens.size:
        m = m0[i]
        for k in range(lens[i]):
            if k > 2:
                m = m / 2
            else:
                m = m - 1
        out[i] = m


@cuda.jit
def divide_k_times(lens, m0, out):
    i = cuda.grid(1)
    if i < lens.size:
        m = m0[i]
        for k in range(lens[i]):
            for j in range(k):
                m = m / 2
            m = m - 1
        out[i] = m


@cuda.jit
def scale_by_powers(lens, m0, out):
    i = cuda.grid(1)
    if i < lens.size:
        m = m0[i]
        for k in range(1, -lens[i], -1):
            m = m * 2 ** k
        out[i] = m


class TestThreadVaryingLoops:
    """A test on data governs only temporaries that keep one dtype on
    every path; anything else keeps the kernel on the interpreter."""

    def test_data_dependent_loop(self, system1):
        assert run_both(collatz, 4, 64, np.arange(1, 257),
                        np.zeros(256, np.int64)) == "lowered"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_if_on_data_outside_a_loop(self, system1, chunk):
        x = np.random.default_rng(6).standard_normal(300).astype(np.float32)
        with chunks_of(chunk):
            assert run_both(magnitude, 3, 128, x,
                            np.zeros(300, np.float32)) == "lowered"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_loop_on_data_inside_another(self, system1, chunk):
        rng = np.random.default_rng(7)
        with chunks_of(chunk):
            assert run_both(nested, 3, 100, rng.integers(0, 6, 300),
                            rng.uniform(0, 40, 300), np.zeros(300)) \
                == "lowered"

    def test_store_under_a_test_on_data(self, system1):
        x = np.random.default_rng(0).standard_normal(300).astype(np.float32)
        assert run_both(relu, 3, 128, x, np.zeros(300, np.float32)) \
            == "sequential"

    def test_load_inside_a_loop_on_data(self, system1):
        rng = np.random.default_rng(1)
        assert run_both(decay_reload, 2, 128, rng.uniform(0.5, 50, 256),
                        rng.uniform(0.1, 0.9, 256), np.zeros(256)) \
            == "sequential"

    def test_python_float_accumulating_elements(self, system1):
        # 0.0 stays a Python float where the loop never runs, and becomes
        # float32 where it does
        x = np.random.default_rng(2).uniform(0.5, 50, 256).astype(np.float32)
        assert run_both(float_accumulator, 2, 128, x,
                        np.zeros(256, np.float32)) == "sequential"

    def test_counter_times_an_element(self, system1):
        # a Python int times float32 is float32, int64 times float32 is
        # float64
        x = np.random.default_rng(3).uniform(0.5, 50, 256).astype(np.float32)
        assert run_both(scaled_count, 2, 128, x, np.zeros(256)) \
            == "sequential"

    def test_value_changing_dtype_in_the_loop(self, system1):
        # int64 where the loop never runs, float64 where it does
        start = np.random.default_rng(4).integers(0, 9, 256)
        assert run_both(halving, 2, 128, start, np.zeros(256)) \
            == "sequential"

    def test_break_in_a_loop_on_data(self, system1):
        x = np.random.default_rng(5).uniform(0.5, 50, 256)
        assert run_both(early_stop, 2, 128, x, np.zeros(256)) == "sequential"

    def test_counter_times_a_number(self, system1):
        # an int64 array wraps where the interpreter's Python int grows
        x = np.random.default_rng(8).uniform(0.5, 50, 256)
        assert run_both(tripling, 2, 128, x, np.zeros(256, np.int64)) \
            == "sequential"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_value_read_only_under_a_test_in_a_host_loop(self, system1,
                                                         chunk):
        x = np.random.default_rng(9).uniform(0.5, 30, 300)
        with chunks_of(chunk):
            assert run_both(shrinking_step, 3, 128, x, np.zeros(300)) \
                == "lowered"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_number_read_only_under_a_test_in_a_loop(self, system1, chunk):
        x = np.random.default_rng(10).uniform(0.5, 30, 300)
        with chunks_of(chunk):
            assert run_both(tally_under_a_test, 3, 128, x,
                            np.zeros(300, np.int64)) == "lowered"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_value_read_only_in_an_inner_loop(self, system1, chunk):
        rng = np.random.default_rng(11)
        with chunks_of(chunk):
            assert run_both(inner_step, 3, 100, rng.integers(0, 5, 300),
                            rng.uniform(0.5, 30, 300), np.zeros(300)) \
                == "lowered"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_if_on_a_pass_count(self, system1, chunk):
        m0 = np.random.default_rng(12).integers(0, 40, 300)
        with chunks_of(chunk):
            assert run_both(count_then_halve, 3, 128, m0,
                            np.zeros(300, np.int64)) == "lowered"

    def test_pass_count_choosing_a_dtype(self, system1):
        # int64 while two passes or fewer run, float64 from the third
        m0 = np.random.default_rng(12).integers(0, 40, 300)
        assert run_both(count_then_divide, 3, 128, m0, np.zeros(300)) \
            == "sequential"

    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_if_on_a_range_variable(self, system1, chunk):
        rng = np.random.default_rng(13)
        with chunks_of(chunk):
            assert run_both(late_halving, 3, 128, rng.integers(0, 8, 300),
                            rng.integers(0, 100, 300),
                            np.zeros(300, np.int64)) == "lowered"

    @pytest.mark.parametrize("kernel", [late_division, divide_k_times,
                                        scale_by_powers],
                             ids=["if", "range", "power"])
    def test_range_variable_choosing_a_dtype(self, system1, kernel):
        # the first pass keeps int64, a later one makes float64
        rng = np.random.default_rng(13)
        assert run_both(kernel, 3, 128, rng.integers(0, 8, 300),
                        rng.integers(0, 100, 300), np.zeros(300)) \
            == "sequential"


# -- what stays on the interpreter --------------------------------------------

@cuda.jit
def strided_inc(out):
    start = cuda.grid(1)
    step = cuda.gridsize(1)
    for i in range(start, out.size, step):
        out[i] += 1.0


@cuda.jit
def by_lane(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[cuda.threadIdx.x] = x[i]


@cuda.jit
def shift_in_place(x):
    i = cuda.grid(1)
    if 1 <= i < x.size:
        x[i] = x[i - 1]


@cuda.jit
def copy_prev(src, dst):
    i = cuda.grid(1)
    if 1 <= i < dst.size:
        dst[i] = src[i - 1]


@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]


class TestInterpreterKept:
    """Each lowering condition keeps a kernel on the interpreter."""

    def test_grid_stride_loop(self, system1):
        assert run_both(strided_inc, 2, 16,
                        np.zeros(100, np.float32)) == "sequential"

    def test_write_not_at_the_global_index(self, system1):
        assert run_both(by_lane, 4, 8, np.arange(32, dtype=np.float32),
                        np.zeros(8, np.float32)) == "sequential"

    def test_written_array_read_at_another_cell(self, system1):
        x = cuda.to_device(np.arange(16, dtype=np.float32))
        shift_in_place[1, 16](x)
        assert shift_in_place.last_path == "sequential"
        np.testing.assert_array_equal(x.get(), np.zeros(16))

    def test_written_array_aliasing_another_argument(self, system1):
        x = cuda.to_device(np.arange(16, dtype=np.float32))
        copy_prev[1, 16](x, x)
        assert copy_prev.last_path == "sequential"
        np.testing.assert_array_equal(x.get(), np.zeros(16))
        y = cuda.to_device(np.arange(16, dtype=np.float32))
        out = cuda.device_array(16)
        copy_prev[1, 16](y, out)
        assert copy_prev.last_path == "lowered"
        np.testing.assert_array_equal(out.get()[1:], np.arange(15))

    def test_race_detector_forces_the_interpreter(self, system1):
        x = cuda.to_device(np.ones(512, np.float32))
        out = cuda.device_array(512)
        assert check_launch(saxpy, 2, 256, 2.0, x, x, out).ok
        assert saxpy.last_path == "sequential"
        np.testing.assert_array_equal(out.get(), np.full(512, 3.0))

    def test_source_edited_after_import(self, system1, tmp_path):
        # the notebook workflow: the file changes, the module is not
        # re-imported, and inspect would hand back the edited body
        path = tmp_path / "edited_kernel.py"
        source = ("from repro.jit import cuda\n\n\n@cuda.jit\n"
                  "def scale(x, out):\n    i = cuda.grid(1)\n"
                  "    if i < out.size:\n        out[i] = {} * x[i]\n")
        path.write_text(source.format("2.0"))
        spec = importlib.util.spec_from_file_location("edited_kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path.write_text(source.format("30.0"))
        x = cuda.to_device(np.arange(64, dtype=np.float32))
        out = cuda.device_array(64)
        module.scale[1, 64](x, out)
        assert module.scale.last_path == "sequential"
        np.testing.assert_array_equal(out.get(), 2.0 * np.arange(64))


# -- kernels the trace admits and the static classifier does not -------------

@cuda.jit
def block_heads(x, out):
    if cuda.threadIdx.x == 0:
        out[cuda.blockIdx.x] = x[cuda.blockIdx.x * cuda.blockDim.x] * 2.0


@cuda.jit
def squares(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * i]


@cuda.jit
def previous(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i - 1]       # x[-1] at i = 0, as NumPy indexes


def trace_only_launch(kernel, n: int, block: int, dtype) -> tuple:
    """``(grid, block, *args)`` for one launch of ``kernel`` over ``n``
    threads' worth of data."""
    rng = np.random.default_rng(n)
    grid = -(-n // block)
    if kernel is block_heads:
        return grid, block, rng.standard_normal(n).astype(dtype), \
            np.zeros(grid, dtype)
    size = (n - 1) ** 2 + 1 if kernel is squares else n
    return grid, block, rng.standard_normal(size).astype(dtype), \
        np.zeros(n, dtype)


TRACE_ONLY = [block_heads, squares, previous]


class TestTraceAdmits:
    """Launches the abstract interpreter calls unverified or irregular
    (a lane-0 write, a non-affine index, an index that reaches -1) that
    the trace shows give the interpreter's bytes, so they run lowered."""

    @pytest.mark.parametrize("kernel", TRACE_ONLY,
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("chunk", [lowering.CHUNK_THREADS, 64])
    def test_lowered_at_both_chunk_caps(self, system1, kernel, chunk):
        with chunks_of(chunk):
            assert run_both(kernel, *trace_only_launch(
                kernel, 300, 64, np.float32)) == "lowered"

    def test_lowered_launches_load_no_analyzer(self):
        # a fresh process: the Lab 5 kernels of the benchmark, lowered
        script = textwrap.dedent(f"""
            import json, sys
            import numpy as np
            sys.path.insert(0, {str(REPO / "bench")!r})
            import kernels
            from repro.gpu import make_system
            from repro.jit import cuda

            make_system(1, "T4")
            n = 4096
            x = cuda.to_device(np.ones(n, np.float32))
            out = cuda.device_array(n)
            kernels.saxpy[n // 256, 256](2.0, x, x, out)
            img = cuda.to_device(np.ones((64, 64), np.float32))
            kernels.blur[(4, 4), (16, 16)](img, cuda.device_array((64, 64)))
            kernels.block_sum[n // 64, 64](x, cuda.device_array(n // 64))
            start = cuda.to_device(np.arange(1, n + 1))
            kernels.collatz[n // 256, 256](start, cuda.device_array(
                n, dtype=np.int64))
            print(json.dumps({{
                "paths": [k.last_path for k in (kernels.saxpy, kernels.blur,
                          kernels.block_sum, kernels.collatz)],
                "analysis": sorted(m for m in sys.modules
                                   if m.startswith("repro.analysis"))}}))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["paths"] == ["lowered"] * 4
        assert loaded["analysis"] == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(TRACE_ONLY), n=st.integers(1, 300),
       block=st.sampled_from([16, 32, 64, 100]),
       dtype=st.sampled_from([np.float32, np.float64]),
       chunk=st.sampled_from([lowering.CHUNK_THREADS, 64]))
def test_trace_only_shapes_lower_byte_identically(kernel, n, block, dtype,
                                                  chunk):
    make_system(1, "T4")
    with chunks_of(chunk):
        assert run_both(kernel, *trace_only_launch(kernel, n, block,
                                                   dtype)) == "lowered"


# -- when a launch is decided ------------------------------------------------

@cuda.jit
def add_step(x, out, step):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i] + step


@cuda.jit
def copy_upto(x, out, n):
    i = cuda.grid(1)
    last = n - 1
    if i <= last:
        out[i] = x[i]


@pytest.fixture
def admissions(monkeypatch):
    """The launches the launcher decides (:meth:`Lowered._admit`), by
    kernel name."""
    calls = []
    admit = lowering.Lowered._admit

    def counting(self, grid3, block3, args):
        calls.append(self.fn.__name__)
        return admit(self, grid3, block3, args)

    monkeypatch.setattr(lowering.Lowered, "_admit", counting)
    return calls


class TestAdmission:
    """One trace per launch signature, whatever the launch's size."""

    def test_small_launch_is_decided_once(self, system1, admissions):
        k = cuda.CudaKernel(saxpy.fn)
        x = cuda.to_device(np.ones(256, np.float32))
        out = cuda.device_array(256)
        paths = []
        for _ in range(3):
            k[2, 128](2.0, x, x, out)
            paths.append(k.last_path)
        assert paths == ["lowered"] * 3
        assert admissions == ["saxpy"]

    def test_large_launch_is_decided_at_once(self, system1, admissions):
        k = cuda.CudaKernel(saxpy.fn)
        n = 1024
        x = cuda.to_device(np.ones(n, np.float32))
        out = cuda.device_array(n)
        k[n // 256, 256](2.0, x, x, out)
        assert k.last_path == "lowered"
        np.testing.assert_array_equal(out.get(), np.full(n, 3.0))
        assert admissions == ["saxpy"]

    def test_integer_read_only_as_a_value_is_not_part_of_the_key(
            self, system1, admissions):
        x = cuda.to_device(np.ones(4096, np.float32))
        out = cuda.device_array(4096)
        for step in range(5):
            add_step[16, 256](x, out, step)
            assert add_step.last_path == "lowered"
        np.testing.assert_array_equal(out.get(), np.full(4096, 5.0))
        assert admissions == ["add_step"]

    def test_integer_in_the_guard_is(self, system1, admissions):
        # through a temporary, too: each new bound is a new trace
        x = cuda.to_device(np.arange(4096, dtype=np.float32))
        out = cuda.device_array(4096)
        for n in (4096, 100, 4096, 2000):
            copy_upto[16, 256](x, out, n)
            assert copy_upto.last_path == "lowered"
        np.testing.assert_array_equal(out.get(), np.arange(4096))
        assert admissions == ["copy_upto"] * 3

    def test_one_off_launches_keep_the_latest_decisions(self, system1,
                                                        admissions):
        k = cuda.CudaKernel(copy_upto.fn)
        x = cuda.to_device(np.arange(64, dtype=np.float32))
        out = cuda.device_array(64)
        for n in range(1, 301):
            k[1, 64](x, out, n)
            assert k.last_path == "lowered"
        np.testing.assert_array_equal(out.get(), np.arange(64))
        assert admissions == ["copy_upto"] * 300
        assert len(k._variant("lowered")._decisions) == lowering._DECISIONS


# -- barrier blocks: generators, and OS threads for exec'd kernels ------------

def sync():
    cuda.syncthreads()


@cuda.jit
def raises(x, out):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx + 100]
    cuda.syncthreads()
    out[tx] = tile[7 - tx]


@cuda.jit
def early_exit(out):
    tx = cuda.threadIdx.x
    if tx >= 3:
        return
    cuda.syncthreads()
    out[tx] = 1.0


@cuda.jit
def racy_sum(v, partials):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    tile[tx] = v[i] if i < v.size else 0.0
    cuda.syncthreads()
    stride = 32
    while stride > 0:
        if tx < stride:
            tile[tx] += tile[tx + stride]
        stride //= 2
    if tx == 0:
        partials[cuda.blockIdx.x] = tile[0]


@cuda.jit
def reverse_via_helper(x, out):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
    sync()
    out[tx] = tile[7 - tx]


@cuda.jit
def reverse_twice(x, out):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
    cuda.syncthreads()
    sync()
    out[tx] = tile[7 - tx]


@cuda.jit
def reverse_via_chain(x, out):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
    chained_sync()          # defined below the kernel
    out[tx] = tile[7 - tx]


def chained_sync():
    sync()


@cuda.jit
def reverse_via_argument(x, out, barrier):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
    barrier()
    out[tx] = tile[7 - tx]


@cuda.jit
def reverse_then_argument(x, out, barrier):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
    cuda.syncthreads()
    barrier()
    out[tx] = tile[7 - tx]


def exec_copy(kernel):
    """``kernel`` re-created by ``exec`` from its source: the same code
    with no retrievable source, as for a kernel typed into a REPL."""
    ns = {"cuda": cuda, "np": np, "sync": sync}
    exec(compile(textwrap.dedent(inspect.getsource(kernel.fn)), "<exec>",
                 "exec"), ns)
    return ns[kernel.name]


def on_path(kernel, path: str):
    return kernel if path == "generator" else exec_copy(kernel)


def within(seconds: float, fn, *args):
    """Run ``fn`` on a helper thread and fail if it has not finished in
    time: a barrier bug hangs instead of failing."""
    box = {}

    def target():
        try:
            box["result"] = fn(*args)
        except BaseException as exc:      # handed to the test thread
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "launch did not finish"
    if "error" in box:
        raise box["error"]
    return box.get("result")


@pytest.mark.parametrize("path", ["generator", "os-threads"])
class TestBarrierBlocks:
    def test_thread_exception_surfaces_at_launch(self, system1, path):
        k = on_path(raises, path)
        x = cuda.to_device(np.arange(8, dtype=np.float32))
        out = cuda.device_array(8)
        with pytest.raises(IndexError):
            within(10, k[1, 8], x, out)
        assert k.last_path == path
        assert k.launch_count == 0

    def test_barrier_divergence_raises(self, system1, path):
        k = on_path(early_exit, path)
        out = cuda.device_array(16)
        with pytest.raises(DeviceError, match=r"early_exit.*block \(0, 0, 0\)"
                           r".*3 of 8 threads reached syncthreads"):
            within(10, k[2, 8], out)
        assert k.last_path == path

    def test_racy_reruns_are_byte_identical(self, system1, path):
        k = on_path(racy_sum, path)
        v = cuda.to_device(np.arange(128, dtype=np.float32))
        runs = []
        for _ in range(3):
            partials = cuda.device_array(2)
            within(10, k[2, 64], v, partials)
            runs.append(partials.get().tobytes())
        assert k.last_path == path
        assert runs[0] == runs[1] == runs[2]


class TestHelperBarrier:
    """``syncthreads()`` reached through a device helper."""

    @pytest.mark.parametrize("kernel", [
        reverse_via_helper, reverse_twice, reverse_via_chain,
        exec_copy(reverse_twice)], ids=["helper", "own-and-helper",
                                        "helper-chain", "exec"])
    def test_os_thread_blocks_honour_it(self, system1, kernel):
        # a generator can yield only at the kernel's own statements, so a
        # kernel whose helper waits takes the OS-thread path; on the
        # sequential path the barrier used to be a silent no-op
        x = cuda.to_device(np.arange(8, dtype=np.float32))
        out = cuda.device_array(8)
        within(10, kernel[1, 8], x, out)
        assert kernel.uses_syncthreads
        assert kernel.last_path == "os-threads"
        np.testing.assert_array_equal(out.get(), np.arange(8)[::-1])

    @pytest.mark.parametrize("kernel, path", [
        (reverse_via_argument, "sequential"),
        (reverse_then_argument, "generator")])
    def test_unnamed_helper_raises(self, system1, kernel, path):
        x = cuda.to_device(np.arange(8, dtype=np.float32))
        out = cuda.device_array(8)
        with pytest.raises(DeviceError,
                           match=f"{kernel.name}.*does not name.*8 threads"):
            kernel[1, 8](x, out, sync)
        assert kernel.last_path == path

    def test_single_thread_blocks_need_no_barrier(self, system1):
        x = cuda.to_device(np.arange(8, dtype=np.float32))
        out = cuda.device_array(8)
        reverse_via_argument[8, 1](x, out, sync)
        assert reverse_via_argument.last_path == "sequential"
