"""A barrier reached through a same-file helper, directly or through a
chain of helpers, closes the shared-memory phase; one reached through a
function passed as an argument cannot be seen."""

import numpy as np

from repro.jit import cuda


def sync():
    cuda.syncthreads()


@cuda.jit
def reverse_via_helper(x, out):
    tile = cuda.shared.array(8, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = x[tx]
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
