"""The paged KV-cache allocator (the vLLM idea, on our ledger).

Naive KV caching reserves ``max_seq_len`` contiguous bytes per sequence
up front; almost all of it is never written, and device memory caps the
batch far below what the live tokens actually need.  Paged allocation
fixes this by handing out fixed-size **pages** of ``page_tokens`` tokens
each, on demand, with a per-sequence page table — internal fragmentation
is bounded by one page per sequence and the batch is capped by *live*
tokens.

The cache keeps running page and token totals, updated by
:meth:`~PagedKvCache.allocate`, :meth:`~PagedKvCache.grow` and
:meth:`~PagedKvCache.release`, so occupancy reads and the high-water
bookkeeping cost O(1) per decode step rather than a sum over every
page table; :meth:`~PagedKvCache.check_invariants` recounts them.

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
        # running totals over every table (see check_invariants)
        self._live_pages = 0
        self._live_tokens = 0
        self.peak_pages = 0
        self.peak_page_utilization = 1.0
        self.failed_grows = 0

    # -- capacity ----------------------------------------------------------

    def _pages_for(self, tokens: int) -> int:
        return -(-int(tokens) // self.page_tokens)  # ceil-div

    @property
    def live_pages(self) -> int:
        return self._live_pages

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
        tokens = int(tokens)
        need = self._pages_for(tokens)
        if need > self.free_pages:
            self.failed_grows += 1
            return False
        table = [self.pool.allocate(self.page_bytes, tag=self.tag)
                 for _ in range(need)]
        self._tables[seq_id] = table
        self._tokens[seq_id] = tokens
        self._live_pages += need
        self._live_tokens += tokens
        self._note_peak()
        return True

    def grow(self, seq_id: int, tokens: int = 1) -> bool:
        """Extend a sequence by ``tokens`` (one per decode step).  Only
        allocates when the append crosses a page boundary; returns
        ``False`` on exhaustion with the sequence unchanged."""
        table = self._tables.get(seq_id)
        if table is None:
            raise ReproError(f"sequence {seq_id} has no page table")
        tokens = int(tokens)
        held = self._tokens[seq_id] + tokens
        extra = self._pages_for(held) - len(table)
        if extra > 0:
            if extra > self.free_pages:
                self.failed_grows += 1
                return False
            table.extend(self.pool.allocate(self.page_bytes, tag=self.tag)
                         for _ in range(extra))
            self._live_pages += extra
        self._tokens[seq_id] = held
        self._live_tokens += tokens
        self._note_peak()
        return True

    def _note_peak(self) -> None:
        """High-water bookkeeping: page count and, *at* the page peak,
        how full those pages were (the report's internal-fragmentation
        number)."""
        pages = self._live_pages
        if pages >= self.peak_pages and pages:
            self.peak_pages = pages
            self.peak_page_utilization = (
                self._live_tokens / (pages * self.page_tokens))

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
        self._live_tokens -= self._tokens.pop(seq_id)
        self._live_pages -= len(table)
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
        pages = self._live_pages
        if not pages:
            return 1.0
        return self._live_tokens / (pages * self.page_tokens)

    def check_invariants(self) -> None:
        """Raise :class:`ReproError` naming the first broken invariant:
        the running totals equal a recount over the page tables, each
        table holds exactly ``ceil(tokens / page_tokens)`` pages, and
        every page is one live allocation of this cache in its pool."""
        if self._tables.keys() != self._tokens.keys():
            raise ReproError("KV page tables and token counts name "
                             "different sequences")
        pages = sum(len(t) for t in self._tables.values())
        tokens = sum(self._tokens.values())
        if (self._live_pages, self._live_tokens) != (pages, tokens):
            raise ReproError(
                f"KV running totals drifted: {self._live_pages} pages / "
                f"{self._live_tokens} tokens kept, {pages} / {tokens} "
                "recounted")
        live = self.pool._live
        seen: set[int] = set()
        for seq_id, table in self._tables.items():
            want = self._pages_for(self._tokens[seq_id])
            if len(table) != want:
                raise ReproError(
                    f"sequence {seq_id} holds {len(table)} pages for "
                    f"{self._tokens[seq_id]} tokens (needs {want})")
            for alloc in table:
                if (live.get(alloc.alloc_id) is not alloc
                        or alloc.tag != self.tag
                        or alloc.nbytes != self.page_bytes):
                    raise ReproError(
                        f"sequence {seq_id} holds a page that is not a "
                        f"live {self.page_bytes} B {self.tag!r} "
                        f"allocation of its pool: {alloc!r}")
                if alloc.alloc_id in seen:
                    raise ReproError(f"page allocation #{alloc.alloc_id} "
                                     "sits in two page tables")
                seen.add(alloc.alloc_id)
