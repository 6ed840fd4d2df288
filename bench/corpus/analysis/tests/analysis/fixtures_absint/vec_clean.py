"""Fixture: a guarded saxpy with its launch site — the abstract
interpreter proves the accesses safe and classifies it elementwise
(one VEC-VECTORIZABLE note, nothing else)."""

import numpy as np

from repro.jit import cuda


@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]


def main():
    n = 1 << 12
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[(n + 255) // 256, 256](2.0, x, y, out)
