"""An unguarded ``x[i - 1]``: thread 0 reads ``x[-1]``, the last element,
as NumPy indexing does."""

from repro.jit import cuda


@cuda.jit
def previous(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i - 1]
