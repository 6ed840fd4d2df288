"""Fixture: the same indirect gather with the VEC-DIVERGENT note
acknowledged via an inline suppression."""

from repro.jit import cuda


@cuda.jit
def gather(idx, x, out):  # repro: disable=VEC-DIVERGENT
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[idx[i]]
