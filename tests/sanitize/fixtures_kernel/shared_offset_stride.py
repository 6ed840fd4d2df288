"""A stride-2 shared-memory index with a constant offset: a 2-way bank
conflict."""

import numpy as np

from repro.jit import cuda


@cuda.jit
def odd_slots(x, out):
    tile = cuda.shared.array(256, np.float32)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    tile[cuda.threadIdx.x * 2 + 1] = x[i] if i < x.size else 0.0
    cuda.syncthreads()
    if i < out.size:
        out[i] = tile[tx * 2 + 1]
