"""A kernel that reaches host-only API through a cross-file helper."""

from numba import cuda

from kernel_host_helpers import checkpoint


@cuda.jit
def scale(out, factor):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = out[i] * factor
        checkpoint(i)                    # host I/O two hops away


@cuda.jit
def scale_clean(out, factor):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = out[i] * factor
