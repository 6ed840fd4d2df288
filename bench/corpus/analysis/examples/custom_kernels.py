#!/usr/bin/env python
"""Lab 5 walkthrough: hand-written CUDA kernels from Python.

A saxpy, a 2-D stencil, and a shared-memory block reduction — the three
kernel archetypes of Week 5 — written with the `@cuda.jit` simulator,
validated numerically, and profiled against the library kernels.

Run:  python examples/custom_kernels.py
"""

import numpy as np

import repro.xp as xp
from repro.gpu import make_system
from repro.jit import cuda
from repro.profiling import Profiler


def main() -> None:
    system = make_system(1, "T4")
    n = 1 << 14

    # --- archetype 1: elementwise (saxpy) ----------------------------------
    @cuda.jit(flops_per_thread=2.0, bytes_per_thread=12.0)
    def saxpy(a, x, y, out):
        i = cuda.grid(1)
        if i < out.size:
            out[i] = a * x[i] + y[i]

    x = cuda.to_device(np.arange(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[(n + 255) // 256, 256](2.0, x, y, out)
    assert np.allclose(out.get(), 2 * np.arange(n) + 1)
    print("saxpy: correct")

    # --- archetype 2: 2-D stencil (grid-stride halo-free interior) -----------
    @cuda.jit(flops_per_thread=5.0, bytes_per_thread=24.0)
    def blur(img, out):
        i, j = cuda.grid(2)
        if 1 <= i < img.shape[0] - 1 and 1 <= j < img.shape[1] - 1:
            out[i, j] = (img[i, j] + img[i - 1, j] + img[i + 1, j]
                         + img[i, j - 1] + img[i, j + 1]) / 5.0

    img = cuda.to_device(np.random.default_rng(0)
                         .random((64, 64)).astype(np.float32))
    blurred = cuda.device_array((64, 64))
    blur[(8, 8), (8, 8)](img, blurred)
    interior = blurred.get()[1:-1, 1:-1]
    assert interior.std() < img.get()[1:-1, 1:-1].std()  # smoothing worked
    print("stencil: smooths (std down "
          f"{img.get()[1:-1,1:-1].std():.3f} -> {interior.std():.3f})")

    # --- archetype 3: shared-memory block reduction ---------------------------
    @cuda.jit(flops_per_thread=3.0, bytes_per_thread=8.0)
    def block_sum(v, partials):
        tile = cuda.shared.array(64, np.float32)
        tx = cuda.threadIdx.x
        i = cuda.grid(1)
        tile[tx] = v[i] if i < v.size else 0.0
        cuda.syncthreads()
        stride = 32
        while stride > 0:
            if tx < stride:
                tile[tx] += tile[tx + stride]
            cuda.syncthreads()
            stride //= 2
        if tx == 0:
            partials[cuda.blockIdx.x] = tile[0]

    v = cuda.to_device(np.ones(1024, dtype=np.float32))
    partials = cuda.device_array(16)
    block_sum[16, 64](v, partials)
    assert partials.get().sum() == 1024
    print("block reduction: tree-sum in shared memory, correct")

    # --- compare against the library kernel under the profiler -----------------
    with Profiler(system) as prof:
        big = xp.ones(1 << 20)
        _ = big * 2.0 + 1.0                       # library elementwise
        dx = cuda.to_device(np.ones(1 << 20, dtype=np.float32))
        dy = cuda.to_device(np.zeros(1 << 20, dtype=np.float32))
        dout = cuda.device_array(1 << 20)
        saxpy[(1 << 20) // 256, 256](2.0, dx, dy, dout)  # hand-written
    print("\n--- profile: library vs custom kernel ---")
    print(prof.table(limit=8))


if __name__ == "__main__":
    main()
