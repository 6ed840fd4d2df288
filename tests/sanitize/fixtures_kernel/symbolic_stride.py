"""Guarded strided reads with sizes a launch gives only symbolically:
``x`` holds ``2 * n`` elements, so the stride-2 read stays in bounds
and the stride-4 read runs past the end."""

import numpy as np

from repro.jit import cuda


@cuda.jit
def gather_even(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * 2]


@cuda.jit
def gather_fourth(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * 4]


def run(n):
    x = cuda.to_device(np.ones(2 * n, np.float32))
    out = cuda.device_array(n)
    gather_even[(n + 127) // 128, 128](x, out)
    gather_fourth[(n + 127) // 128, 128](x, out)
