"""``repro.jit`` — Numba-like JIT facades for the virtual GPU.

The course's students write *Python-interface* GPU code (§I: "they all
utilized Python JIT libraries such as Numba and CuPy").  This package is
the Numba stand-in:

* :mod:`repro.jit.cuda` — a ``numba.cuda``-style kernel simulator.  Kernels
  are plain Python functions with real ``threadIdx``/``blockIdx``
  semantics, block-shared memory, barriers, and atomics, interpreted once
  per CUDA thread — except where :mod:`repro.jit.lowering` proves a
  faster path gives the same bytes: a launch whose trace shows no
  thread depending on another (an elementwise, stencil, block-reduction
  or tiled-matmul kernel, say) runs as whole-block NumPy, one phase
  between barriers at a time (a loop whose test varies by thread,
  like Collatz's ``while n != 1``, runs pass by pass over the threads
  still in it, governing only temporaries), and any other kernel with
  barriers runs each block's threads as generators on one OS thread.
  Each launch is
  also *costed* on the virtual GPU, identically on every path, so
  profiler timelines and speedups come out of the same hardware model as
  :mod:`repro.xp`.  (Numba itself ships the per-thread idea as
  ``numba.cuda.simulator``.)
* :mod:`repro.jit.cpu` — ``@jit`` / ``@vectorize`` / ``prange`` facades
  that model compile-on-first-call latency and a compile cache, so the
  "cold vs warm JIT" measurement of Lab 5 reproduces.

Example (Lab 5's saxpy)::

    from repro.jit import cuda

    @cuda.jit
    def saxpy(a, x, y, out):
        i = cuda.grid(1)
        if i < out.size:
            out[i] = a * x[i] + y[i]

    saxpy[blocks, 256](2.0, x_dev, y_dev, out_dev)
"""

from repro.jit import cuda
from repro.jit.cpu import jit, njit, vectorize, prange

__all__ = ["cuda", "jit", "njit", "vectorize", "prange"]
