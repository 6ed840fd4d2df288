"""A stride-2 gather with a constant offset."""

from repro.jit import cuda


@cuda.jit
def odd_elements(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[2 * i + 1]
