"""Fixture: an indirect gather — the non-affine subscript sends the
kernel to the divergent fallback (one VEC-DIVERGENT note)."""

from repro.jit import cuda


@cuda.jit
def gather(idx, x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[idx[i]]
