"""A read at a non-affine index, ``x[i * i]``."""

from repro.jit import cuda


@cuda.jit
def squares(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * i]
