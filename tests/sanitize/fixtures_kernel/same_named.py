"""Two kernels named ``k`` in one source; the second reads with a stride.

Each launch binds to the def visible where it is made, so each ``k`` is
checked under its own launch."""

import numpy as np

from repro.jit import cuda


def contiguous(n):
    @cuda.jit
    def k(x, out):
        i = cuda.grid(1)
        if i < out.size:
            out[i] = x[i]

    x = cuda.to_device(np.ones(n, np.float32))
    out = cuda.device_array(n)
    k[(n + 127) // 128, 128](x, out)


def strided(n):
    @cuda.jit
    def k(x, out):
        i = cuda.grid(1)
        out[i] = x[i * 2]

    x = cuda.to_device(np.ones(2 * n, np.float32))
    out = cuda.device_array(n)
    k[(n + 127) // 128, 128](x, out)
