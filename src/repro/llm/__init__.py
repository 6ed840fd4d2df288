"""repro.llm — the autoregressive-decoding workload.

The serve plane (PR 5) batches *one-shot* requests: a query enters, a
batch forms, a response leaves.  The workload that dominates real
SageMaker inference today is autoregressive: a request holds GPU state
(its KV cache) for hundreds of decode iterations, and throughput is won
or lost on how the scheduler packs those iterations.  This package
models that workload on the existing simulated stack:

* :mod:`repro.llm.model` — :class:`TransformerSpec`: exact per-phase
  FLOP/byte counts (compute-bound prefill, memory-bound decode, KV
  bytes per token) fed to the roofline timing model;
* :mod:`repro.llm.backend` — :class:`LlmBackend`: measured prefill /
  decode-iteration timings on a private simulated GPU, seeded
  mixed-length sampling, and a one-shot ``serve_batch`` baseline that
  drops into the dynamic-batching simulator unchanged;
* :mod:`repro.llm.kvcache` — :class:`PagedKvCache`: fixed-size pages as
  block ids in one reservation on
  :class:`~repro.gpu.memory.MemoryPool`'s tracked ledger, per-sequence
  block tables, soft-failure growth for preemption under pressure.

The iteration-level scheduler consuming all three lives in
:mod:`repro.serve.continuous`; the memcheck token-budget pre-flight in
:func:`repro.memcheck.llm_token_budget_preflight`.
"""

from repro.llm.backend import LlmBackend
from repro.llm.kvcache import PagedKvCache
from repro.llm.model import TransformerSpec

__all__ = ["LlmBackend", "PagedKvCache", "TransformerSpec"]
