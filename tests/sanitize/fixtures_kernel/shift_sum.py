"""An in-place prefix step: each thread reads its neighbour's cell in the
phase where the neighbour writes it.  SAN-SHARED-RACE misses it (the
read comes before the reader's own write), so the kernel classifies as
a verified reduction; the dynamic detector reports SAN-DYN-RW."""

import numpy as np

from repro.jit import cuda


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


def two_blocks():
    v = cuda.to_device(np.ones(128, np.float32))
    out = cuda.device_array(2)
    shift_sum[2, 64](v, out)
