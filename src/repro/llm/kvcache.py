"""The paged KV-cache allocator (the vLLM idea, on our ledger).

Naive KV caching reserves ``max_seq_len`` contiguous bytes per sequence
up front; almost all of it is never written, and device memory caps the
batch far below what the live tokens actually need.  Paged allocation
fixes this by handing out fixed-size **pages** of ``page_tokens`` tokens
each, on demand, with a per-sequence page table — internal fragmentation
is bounded by one page per sequence and the batch is capped by *live*
tokens.

Like vLLM's block manager, the cache is a block allocator over one
reservation.  On construction it takes every whole page its
:class:`~repro.gpu.memory.MemoryPool` can grant as a single tracked
allocation (the *arena*, tagged ``tag``), so the pool's conservation
invariant, leak report and OOM enrichment see the KV budget as one
entry; :meth:`~PagedKvCache.close` gives it back.  In between, pages
are **block ids** ``0 .. capacity_pages - 1``: a one-byte-per-block
map and a lowest-free hint place each page on the lowest free block,
and a page table is the list of its sequence's block ids — the block
table a paged-attention kernel indexes.  No pool call happens between
construction and :meth:`~PagedKvCache.close`, and simulated capacity
costs one byte of host RAM per page.

The cache keeps running page and token totals, updated by
:meth:`~PagedKvCache.allocate`, :meth:`~PagedKvCache.grow` and
:meth:`~PagedKvCache.release`, so occupancy reads and the high-water
bookkeeping cost O(1) per call rather than a sum over every page
table; :meth:`~PagedKvCache.check_invariants` recounts them.
:meth:`~PagedKvCache.grow` and :meth:`~PagedKvCache.pages_to_grow`
take a list of sequence ids, so a decode iteration grows its whole
running set in one call.  Exhaustion is a *soft* failure —
:meth:`grow` and :meth:`allocate` return ``False`` instead of raising
— because the scheduler's answer to KV pressure is preemption, not a
crash.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ReproError
from repro.gpu.memory import MemoryPool


def _token_count(tokens: int) -> int:
    tokens = int(tokens)
    if tokens < 0:
        raise ReproError(f"token count must be >= 0, got {tokens}")
    return tokens


class PagedKvCache:
    """Fixed-size-page KV allocator over one pool reservation, one
    block table per sequence."""

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
        #: whole pages the pool could grant at construction: the arena
        self.capacity_pages = pool.free_bytes // self.page_bytes
        self.arena = pool.allocate(self.capacity_pages * self.page_bytes,
                                   tag=tag)
        self.closed = False
        # one flag per block, 1 while a page table holds it; the hint
        # never exceeds the lowest free block
        self._block_used = bytearray(self.capacity_pages)
        self._free_block_hint = 0
        self._tables: dict[int, list[int]] = {}
        self._tokens: dict[int, int] = {}
        # running totals over every table (see check_invariants)
        self._live_pages = 0
        self._live_tokens = 0
        self.peak_pages = 0
        self.peak_page_utilization = 1.0
        self.failed_grows = 0

    def close(self) -> None:
        """Return the arena to the pool (replica teardown).  The page
        tables stay as they are, so an audit after teardown still sees
        any sequence that was never released."""
        self.closed = True
        self.pool.free(self.arena)

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
        """Blocks of the arena no page table holds."""
        return self.capacity_pages - self._live_pages

    def can_admit(self, tokens: int) -> bool:
        """Whether a new sequence of ``tokens`` would fit right now."""
        return self._pages_for(_token_count(tokens)) <= self.free_pages

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def page_table(self, seq_id: int) -> tuple[int, ...]:
        """The sequence's block ids, in allocation order — the block
        table a real paged-attention kernel would index through."""
        return tuple(self._tables.get(seq_id, ()))

    # -- allocation --------------------------------------------------------

    def _place(self, table: list[int], need: int) -> None:
        """Append ``need`` blocks to ``table``, each the lowest free."""
        used = self._block_used
        hint = self._free_block_hint
        for _ in range(need):
            block = used.find(0, hint)
            used[block] = 1
            table.append(block)
            hint = block + 1
        self._free_block_hint = hint

    def allocate(self, seq_id: int, tokens: int) -> bool:
        """Claim pages for a new sequence holding ``tokens`` (a prompt
        after prefill).  All-or-nothing: on exhaustion nothing is held
        and the call returns ``False`` (caller preempts or queues)."""
        if seq_id in self._tables:
            raise ReproError(f"sequence {seq_id} already has a page table")
        tokens = _token_count(tokens)
        need = self._pages_for(tokens)
        if need > self.free_pages:
            self.failed_grows += 1
            return False
        table: list[int] = []
        self._place(table, need)
        self._tables[seq_id] = table
        self._tokens[seq_id] = tokens
        self._live_pages += need
        self._live_tokens += tokens
        self._note_peak()
        return True

    def grow(self, seq_ids: Sequence[int], tokens: int = 1) -> bool:
        """Extend every sequence in ``seq_ids`` by ``tokens`` (one per
        decode step; a decode iteration grows its whole running set in
        one call).  Pages are only placed where an append crosses a
        page boundary, sequence by sequence in ``seq_ids`` order, so
        they land where one call per sequence would put them.
        All-or-nothing: when the free blocks cannot cover every extra
        page, it returns ``False`` with every sequence unchanged."""
        tokens = _token_count(tokens)
        short, extra = self._short_tables(seq_ids, tokens)
        if extra > self.free_pages:
            self.failed_grows += 1
            return False
        held = self._tokens
        for seq_id in seq_ids:
            held[seq_id] += tokens
        for table, need in short:
            self._place(table, need)
        self._live_pages += extra
        self._live_tokens += tokens * len(seq_ids)
        # pages and tokens only rose, so one note after the whole call
        # leaves the peak a note after each sequence would
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

    def pages_to_grow(self, seq_ids: Sequence[int], tokens: int = 1) -> int:
        """Pages a :meth:`grow` of ``seq_ids`` by ``tokens`` would need
        (0 when every last page still has room)."""
        return self._short_tables(seq_ids, _token_count(tokens))[1]

    def _short_tables(self, seq_ids: Sequence[int], tokens: int
                      ) -> tuple[list[tuple[list[int], int]], int]:
        """``(table, pages missing)`` for each sequence of ``seq_ids``
        whose last page cannot take ``tokens`` more, in ``seq_ids``
        order, and the pages missing in all."""
        # a repeated id would be counted twice against the same last
        # page, and a grow would then place more pages than it checked
        if len(set(seq_ids)) != len(seq_ids):
            raise ReproError(f"sequence ids repeat in {list(seq_ids)}")
        tables = self._tables
        held = self._tokens
        page_tokens = self.page_tokens
        short = []
        extra = 0
        for seq_id in seq_ids:
            table = tables.get(seq_id)
            if table is None:
                raise ReproError(f"sequence {seq_id} has no page table")
            need = -(-(held[seq_id] + tokens) // page_tokens) - len(table)
            if need:
                short.append((table, need))
                extra += need
        return short, extra

    def release(self, seq_id: int) -> int:
        """Free a sequence's pages (completion, preemption, eviction);
        returns how many blocks went back to the free map."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            return 0
        self._live_tokens -= self._tokens.pop(seq_id)
        self._live_pages -= len(table)
        used = self._block_used
        for block in table:
            used[block] = 0
        if table:
            self._free_block_hint = min(self._free_block_hint, min(table))
        return len(table)

    # -- introspection -----------------------------------------------------

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
        table holds exactly ``ceil(tokens / page_tokens)`` blocks and no
        block sits in two tables, the block map flags exactly the held
        blocks with the hint at or below the lowest free one, and, while
        the cache is open, the arena is a live allocation of its pool
        with this tag and ``capacity_pages * page_bytes`` bytes."""
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
        capacity = self.capacity_pages
        held = bytearray(capacity)
        for seq_id, table in self._tables.items():
            want = self._pages_for(self._tokens[seq_id])
            if len(table) != want:
                raise ReproError(
                    f"sequence {seq_id} holds {len(table)} pages for "
                    f"{self._tokens[seq_id]} tokens (needs {want})")
            for block in table:
                if held[block]:
                    raise ReproError(f"block {block} sits in two page "
                                     "tables")
                held[block] = 1
        used = self._block_used
        if held != used:
            block = next(k for k in range(capacity) if held[k] != used[k])
            state = "held" if held[block] else "free"
            raise ReproError(f"block map disagrees with the page tables "
                             f"at {state} block {block}")
        lowest = used.find(0)
        if lowest >= 0 and self._free_block_hint > lowest:
            raise ReproError(
                f"placement hint {self._free_block_hint} is past the "
                f"lowest free block {lowest}")
        if not self.closed:
            arena = self.arena
            nbytes = capacity * self.page_bytes
            if (self.pool._live.get(arena.alloc_id) is not arena
                    or arena.tag != self.tag or arena.nbytes != nbytes):
                raise ReproError(
                    f"the KV arena is not a live {nbytes} B {self.tag!r} "
                    f"allocation of its pool: {arena!r}")
