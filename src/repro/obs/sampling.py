"""Head+tail trace sampling: bounded retention that never loses the tail.

A million-request run cannot keep a span per request — PR 5's answer
was to keep *none* (aggregates only), which made p99 a number you could
not follow anywhere.  The sampler keeps the requests that matter:

* the **head** — the first ``head_n`` resolutions, so every run has a
  browsable set of ordinary requests;
* **errors** — every shed/expired request, capped at ``max_errors``
  with a dropped-count (errors are rare by construction; if they are
  not, the SLO monitor is already paging);
* the **slowest k** — completed requests in a bounded min-heap keyed
  ``(latency_ms, request_id)``, so the report's p99/p99.9 exemplars
  always resolve to retained traces.

Batch records are **reference-counted**: a batch is retained only while
some retained request points at it, so evicting a request from the
slowest-k heap also releases its batch — memory stays proportional to
the retention budget, not the request count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ReproError
from repro.serve.request import OUTCOME_COMPLETED, Request


@dataclass(frozen=True)
class RequestRecord:
    """The compact retained form of one resolved request."""

    request_id: int
    arrival_ms: float
    resolved_ms: float
    outcome: str
    attempts: int
    replica_id: int | None
    batch_size: int | None
    batch_id: int | None
    reason: str                   # "head" | "error" | "slowest"
    # LLM-plane extras (zeroed for one-shot backends)
    first_token_ms: float | None = None
    tokens: int = 0

    @property
    def latency_ms(self) -> float:
        return self.resolved_ms - self.arrival_ms


@dataclass(frozen=True)
class BatchRecord:
    """The compact retained form of one served batch."""

    batch_id: int
    replica_id: int
    size: int
    start_ms: float
    end_ms: float
    #: span name at emission — iteration-plane batches use
    #: ``serve.prefill_iter`` / ``serve.decode_iter``
    label: str = "serve.batch"
    phase: str = ""               # "" | "prefill" | "decode"
    tokens: int = 0               # tokens this batch/iteration processed
    #: the backend calibration-cache key this batch's timing came from;
    #: ``None`` falls back to the batch size (one-shot convention)
    calibration_key: object = None


class HeadTailSampler:
    """Decides which request/batch records survive to span emission."""

    def __init__(self, head_n: int = 100, slowest_k: int = 50,
                 max_errors: int = 10_000) -> None:
        if head_n < 0 or slowest_k < 0 or max_errors < 0:
            raise ReproError("sampler budgets must be non-negative")
        self.head_n = head_n
        self.slowest_k = slowest_k
        self.max_errors = max_errors
        self.head: list[RequestRecord] = []
        self.errors: list[RequestRecord] = []
        self.errors_dropped = 0
        # min-heap of (latency_ms, request_id, record): the root is the
        # *fastest* of the retained slowest — the next to evict
        self._slow_heap: list[tuple[float, int, RequestRecord]] = []
        self._seen = 0
        # (latency_ms, request_id) of the slow heap's root once the head
        # and the heap are both full: what a completed request must beat
        self._floor: tuple[float, int] | None = None
        # batch_id -> number of retained requests pointing at it
        self._batch_refs: dict[int, int] = {}
        self._batches: dict[int, BatchRecord] = {}

    # -- offering ---------------------------------------------------------

    def offer(self, req: Request, batch_id: int | None = None) -> None:
        """Consider one resolved request for retention."""
        self._seen += 1
        floor = self._floor
        if floor is not None and req.outcome == OUTCOME_COMPLETED:
            # the steady-state fast path: a completed request past the
            # head can only enter via the slow heap — reject without
            # allocating a record when it cannot beat the heap root
            latency = req.finish_ms - req.arrival_ms
            if latency < floor[0] or (latency == floor[0]
                                      and req.request_id <= floor[1]):
                return
        if not req.outcome:
            raise ReproError("sampler offered an unresolved request")
        if (req.outcome == OUTCOME_COMPLETED and self.slowest_k == 0
                and len(self.head) >= self.head_n):
            return
        base = dict(request_id=req.request_id, arrival_ms=req.arrival_ms,
                    resolved_ms=req.finish_ms, outcome=req.outcome,
                    attempts=req.attempts, replica_id=req.replica_id,
                    batch_size=req.batch_size, batch_id=batch_id,
                    first_token_ms=req.first_token_ms,
                    tokens=req.tokens_generated)
        if len(self.head) < self.head_n:
            self.head.append(RequestRecord(reason="head", **base))
            self._retain_batch(batch_id)
            self._raise_floor()
        if req.outcome != OUTCOME_COMPLETED:
            if len(self.errors) < self.max_errors:
                self.errors.append(RequestRecord(reason="error", **base))
                self._retain_batch(batch_id)
            else:
                self.errors_dropped += 1
            return
        if self.slowest_k == 0:
            return
        rec = RequestRecord(reason="slowest", **base)
        key = (rec.latency_ms, rec.request_id)
        if len(self._slow_heap) < self.slowest_k:
            heapq.heappush(self._slow_heap, (*key, rec))
        elif key > self._slow_heap[0][:2]:
            _, _, evicted = heapq.heapreplace(self._slow_heap, (*key, rec))
            self._release_batch(evicted.batch_id)
        else:
            return
        self._retain_batch(batch_id)
        self._raise_floor()

    def _raise_floor(self) -> None:
        heap = self._slow_heap
        if (self.slowest_k and len(heap) >= self.slowest_k
                and len(self.head) >= self.head_n):
            self._floor = heap[0][:2]

    def references(self, batch_id: int) -> bool:
        """Whether a retained request points at batch ``batch_id``, so
        :meth:`offer_batch` would keep its record."""
        return batch_id in self._batch_refs     # held only while >= 1

    def offer_batch(self, batch: BatchRecord) -> None:
        """Record a completed batch; kept only while referenced."""
        if self.references(batch.batch_id):
            self._batches[batch.batch_id] = batch

    # -- batch refcounting ------------------------------------------------

    def _retain_batch(self, batch_id: int | None) -> None:
        if batch_id is not None:
            self._batch_refs[batch_id] = \
                self._batch_refs.get(batch_id, 0) + 1

    def _release_batch(self, batch_id: int | None) -> None:
        if batch_id is None:
            return
        refs = self._batch_refs.get(batch_id, 0) - 1
        if refs <= 0:
            self._batch_refs.pop(batch_id, None)
            self._batches.pop(batch_id, None)
        else:
            self._batch_refs[batch_id] = refs

    # -- results ----------------------------------------------------------

    @property
    def seen(self) -> int:
        return self._seen

    def retained_requests(self) -> list[RequestRecord]:
        """Deduplicated retained records in request-id order (a request
        retained by several criteria keeps its first reason:
        head < error < slowest)."""
        by_id: dict[int, RequestRecord] = {}
        slowest = [rec for _, _, rec in sorted(self._slow_heap)]
        for rec in self.head + self.errors + slowest:
            by_id.setdefault(rec.request_id, rec)
        return [by_id[rid] for rid in sorted(by_id)]

    def retained_batches(self) -> list[BatchRecord]:
        """Referenced batch records in batch-id order."""
        return [self._batches[bid] for bid in sorted(self._batches)]

    def is_retained(self, request_id: int) -> bool:
        return any(rec.request_id == request_id
                   for rec in self.retained_requests())
