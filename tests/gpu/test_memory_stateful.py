"""Stateful property test: the MemoryPool ledger and its page map.

A hypothesis state machine allocates (single-page, multi-page and, once
frees have punched holes, scattered), frees and double-frees.  After
every step the pool passes its own
:meth:`~repro.gpu.memory.MemoryPool.check_invariants`, its used bytes
equal the live allocations' bytes, and every placement equals a
brute-force first-fit over a page map the test keeps itself.  Freeing
everything drains the pool to zero.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, consumes,
                                 invariant, multiple, rule)

from repro.errors import OutOfMemoryError
from repro.gpu.memory import MemoryPool

PAGE_BYTES = 100
PAGES = 16


def first_fit(used: list[bool], need: int) -> tuple[int, ...]:
    """The lowest run of ``need`` free slots; else the lowest ``need``
    free slots anywhere; else nothing."""
    for i in range(len(used) - need + 1):
        if not any(used[i:i + need]):
            return tuple(range(i, i + need))
    free = [k for k, flag in enumerate(used) if not flag]
    return tuple(free[:need]) if len(free) >= need else ()


class PoolMachine(RuleBasedStateMachine):
    live = Bundle("live")
    freed = Bundle("freed")

    def __init__(self):
        super().__init__()
        self.pool = MemoryPool(PAGES * PAGE_BYTES, reserve_fraction=0.0,
                               stats_page_bytes=PAGE_BYTES)
        self.used = [False] * PAGES        # the test's own page map
        self.held = {}                     # alloc_id -> live allocation
        self.double_frees = 0

    def _allocate(self, nbytes):
        if self.pool.used_bytes + nbytes > self.pool.total_bytes:
            with pytest.raises(OutOfMemoryError):
                self.pool.allocate(nbytes, tag="t")
            return None
        need = -(-nbytes // PAGE_BYTES)
        expected = first_fit(self.used, need) if need else ()
        alloc = self.pool.allocate(nbytes, tag=f"t{need}", site="test")
        assert alloc.pages == expected
        for k in expected:
            self.used[k] = True
        self.held[alloc.alloc_id] = alloc
        return alloc

    # odd sizes round up to whole pages, so they use up map slots faster
    # than bytes: a placement can then find too few slots and get none
    @rule(target=live, nbytes=st.integers(0, 4 * PAGE_BYTES))
    def allocate(self, nbytes):
        alloc = self._allocate(nbytes)
        return multiple() if alloc is None else alloc

    # one-page bursts (the KV cache's pattern) fill the map, so later
    # frees leave holes that multi-page allocations must scatter across
    @rule(target=live, count=st.integers(1, PAGES))
    def burst(self, count):
        allocs = (self._allocate(PAGE_BYTES) for _ in range(count))
        return multiple(*(a for a in allocs if a is not None))

    @rule(target=freed, alloc=consumes(live))
    def free(self, alloc):
        pages = alloc.pages
        assert self.pool.free(alloc)
        for k in pages:
            self.used[k] = False
        del self.held[alloc.alloc_id]
        return alloc

    @rule(alloc=freed)
    def double_free(self, alloc):
        assert not self.pool.free(alloc)
        self.double_frees += 1

    @invariant()
    def ledger_matches_the_model(self):
        self.pool.check_invariants()
        tracked = sum(a.nbytes for a in self.held.values())
        assert self.pool.used_bytes == tracked
        assert self.pool.double_free_count == self.double_frees
        frag = self.pool.fragmentation()
        assert frag.free_pages == self.used.count(False)
        assert frag.unmapped_bytes == sum(
            a.nbytes for a in self.held.values() if not a.pages)

    def teardown(self):
        for alloc in self.held.values():
            assert self.pool.free(alloc)
        self.pool.check_invariants()
        assert self.pool.used_bytes == 0
        assert self.pool.live_allocations == 0
        assert self.pool.leak_report().ok
        assert self.pool.fragmentation().free_pages == PAGES


PoolMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None,
    derandomize=True)
TestPoolMachine = PoolMachine.TestCase
