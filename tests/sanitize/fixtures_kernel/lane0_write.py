"""Lane 0 of each block writes the block's cell: no access varies by
thread, so the abstract interpreter finds no thread-affine footprint."""

from repro.jit import cuda


@cuda.jit
def block_heads(x, out):
    if cuda.threadIdx.x == 0:
        out[cuda.blockIdx.x] = x[cuda.blockIdx.x] * 2.0
