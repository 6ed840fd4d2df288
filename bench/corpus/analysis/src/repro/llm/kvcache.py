"""The paged KV-cache allocator (the vLLM idea, on our ledger).

Naive KV caching reserves ``max_seq_len`` contiguous bytes per sequence
up front; almost all of it is never written, and device memory caps the
batch far below what the live tokens actually need.  Paged allocation
fixes this by handing out fixed-size **pages** of ``page_tokens`` tokens
each, on demand, with a per-sequence page table — internal fragmentation
is bounded by one page per sequence and the batch is capped by *live*
tokens.

Every page is one tracked allocation in the replica's
:class:`~repro.gpu.memory.MemoryPool`, so the pool's conservation
invariant, leak report, OOM enrichment, and
:meth:`~repro.gpu.memory.MemoryPool.fragmentation` stats all apply to
the cache for free.  Exhaustion is a *soft* failure — :meth:`grow` and
:meth:`allocate` return ``False`` instead of raising — because the
scheduler's answer to KV pressure is preemption, not a crash.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.gpu.memory import Allocation, MemoryPool


class PagedKvCache:
    """Fixed-size-page KV allocator over one pool, one table per seq."""

    def __init__(self, pool: MemoryPool, bytes_per_token: int,
                 page_tokens: int = 16, tag: str = "kv-cache") -> None:
        if page_tokens < 1:
            raise ReproError("page_tokens must be >= 1")
        if bytes_per_token < 1:
            raise ReproError("bytes_per_token must be >= 1")
        self.pool = pool
        self.bytes_per_token = int(bytes_per_token)
        self.page_tokens = int(page_tokens)
        self.page_bytes = self.bytes_per_token * self.page_tokens
        self.tag = tag
        self._tables: dict[int, list[Allocation]] = {}
        self._tokens: dict[int, int] = {}
        self.peak_pages = 0
        self.peak_page_utilization = 1.0
        self.failed_grows = 0

    # -- capacity ----------------------------------------------------------

    def _pages_for(self, tokens: int) -> int:
        return -(-int(tokens) // self.page_tokens)  # ceil-div

    @property
    def live_pages(self) -> int:
        return sum(len(t) for t in self._tables.values())

    @property
    def live_seqs(self) -> int:
        return len(self._tables)

    @property
    def free_pages(self) -> int:
        """Whole pages the pool could still grant right now."""
        return self.pool.free_bytes // self.page_bytes

    def can_admit(self, tokens: int) -> bool:
        """Whether a new sequence of ``tokens`` would fit right now."""
        return self._pages_for(tokens) <= self.free_pages

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def page_table(self, seq_id: int) -> tuple[int, ...]:
        """The sequence's page-map slots, in allocation order — the
        (virtual) block table a real paged-attention kernel would index
        through."""
        table = self._tables.get(seq_id, ())
        return tuple(slot for alloc in table for slot in alloc.pages)

    # -- allocation --------------------------------------------------------

    def allocate(self, seq_id: int, tokens: int) -> bool:
        """Claim pages for a new sequence holding ``tokens`` (a prompt
        after prefill).  All-or-nothing: on exhaustion nothing is held
        and the call returns ``False`` (caller preempts or queues)."""
        if seq_id in self._tables:
            raise ReproError(f"sequence {seq_id} already has a page table")
        need = self._pages_for(tokens)
        if need > self.free_pages:
            self.failed_grows += 1
            return False
        table = [self.pool.allocate(self.page_bytes, tag=self.tag)
                 for _ in range(need)]
        self._tables[seq_id] = table
        self._tokens[seq_id] = int(tokens)
        self._note_peak()
        return True

    def grow(self, seq_id: int, tokens: int = 1) -> bool:
        """Extend a sequence by ``tokens`` (one per decode step).  Only
        allocates when the append crosses a page boundary; returns
        ``False`` on exhaustion with the sequence unchanged."""
        if seq_id not in self._tables:
            raise ReproError(f"sequence {seq_id} has no page table")
        held = self._tokens[seq_id]
        extra = self._pages_for(held + tokens) - len(self._tables[seq_id])
        if extra > 0:
            if extra > self.free_pages:
                self.failed_grows += 1
                return False
            self._tables[seq_id].extend(
                self.pool.allocate(self.page_bytes, tag=self.tag)
                for _ in range(extra))
        self._tokens[seq_id] = held + int(tokens)
        self._note_peak()
        return True

    def _note_peak(self) -> None:
        """High-water bookkeeping: page count and, *at* the page peak,
        how full those pages were (the report's internal-fragmentation
        number)."""
        pages = self.live_pages
        if pages >= self.peak_pages and pages:
            self.peak_pages = pages
            self.peak_page_utilization = (
                sum(self._tokens.values()) / (pages * self.page_tokens))

    def pages_to_grow(self, seq_id: int, tokens: int = 1) -> int:
        """Pages a :meth:`grow` of ``tokens`` would need (0 when the
        current last page still has room) — what the scheduler sums to
        decide whether an iteration needs preemption first."""
        held = self._tokens.get(seq_id)
        if held is None:
            raise ReproError(f"sequence {seq_id} has no page table")
        return max(0, self._pages_for(held + tokens)
                   - len(self._tables[seq_id]))

    def release(self, seq_id: int) -> int:
        """Free a sequence's pages (completion, preemption, eviction);
        returns how many pages went back to the pool."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            return 0
        del self._tokens[seq_id]
        for alloc in table:
            self.pool.free(alloc)
        return len(table)

    # -- introspection -----------------------------------------------------

    def fragmentation(self):
        """The pool's page-map snapshot (see
        :meth:`~repro.gpu.memory.MemoryPool.fragmentation`)."""
        return self.pool.fragmentation()

    def utilization(self) -> float:
        """Live tokens over the capacity of the pages holding them —
        internal fragmentation from partial last pages."""
        pages = self.live_pages
        if not pages:
            return 1.0
        return sum(self._tokens.values()) / (pages * self.page_tokens)
