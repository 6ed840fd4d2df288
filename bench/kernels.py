"""The Lab 5 kernels the ``lab5-kernels`` workload launches.

The first three are the Week-5 archetypes of ``examples/custom_kernels.py``
(elementwise, 2-D stencil, shared-memory block reduction); ``collatz``
adds a data-dependent loop.  Each has a NumPy reference its output is
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.jit import cuda


@cuda.jit(flops_per_thread=2.0, bytes_per_thread=12.0)
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]


@cuda.jit(flops_per_thread=5.0, bytes_per_thread=24.0)
def blur(img, out):
    i, j = cuda.grid(2)
    if 1 <= i < img.shape[0] - 1 and 1 <= j < img.shape[1] - 1:
        out[i, j] = (img[i, j] + img[i - 1, j] + img[i + 1, j]
                     + img[i, j - 1] + img[i, j + 1]) / 5.0


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


@cuda.jit(flops_per_thread=40.0, bytes_per_thread=12.0)
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


def saxpy_ref(a, x, y):
    return (np.float32(a) * x + y).astype(np.float32)


def blur_ref(img):
    out = np.zeros_like(img)
    out[1:-1, 1:-1] = (img[1:-1, 1:-1] + img[:-2, 1:-1] + img[2:, 1:-1]
                       + img[1:-1, :-2] + img[1:-1, 2:]) / 5.0
    return out


def block_sum_ref(v, block):
    return v.reshape(-1, block).sum(axis=1)


def collatz_ref(start):
    steps = np.zeros(start.shape, dtype=np.int64)
    for i, n in enumerate(start.tolist()):
        count = 0
        while n != 1:
            n = n // 2 if n % 2 == 0 else 3 * n + 1
            count += 1
        steps[i] = count
    return steps
