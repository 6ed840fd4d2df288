"""A stride-4 gather through a temporary index."""

from repro.jit import cuda


@cuda.jit
def gather_every_fourth(x, out):
    i = cuda.grid(1)
    if i < out.size:
        j = i * 4
        out[i] = x[j]
