"""A shared index strided by ``threadIdx.y``: the lanes of a warp share
``threadIdx.y`` whenever ``blockDim.x >= 32``, so they do not conflict."""

import numpy as np

from repro.jit import cuda


@cuda.jit
def row_heads(out):
    tile = cuda.shared.array(1024, np.float32)
    tile[cuda.threadIdx.y * 32] = 1.0
    cuda.syncthreads()
    i = cuda.grid(1)
    if i < out.size:
        out[i] = tile[0]
