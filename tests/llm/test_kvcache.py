"""PagedKvCache: page arithmetic, soft exhaustion, block placement and
the one pool reservation."""

import pytest

from repro.errors import ReproError
from repro.gpu.memory import MemoryPool
from repro.llm import PagedKvCache

BYTES_PER_TOKEN = 4
PAGE_TOKENS = 4
PAGE_BYTES = BYTES_PER_TOKEN * PAGE_TOKENS
POOL_PAGES = 10


def _pool(nbytes=POOL_PAGES * PAGE_BYTES):
    return MemoryPool(nbytes, reserve_fraction=0.0,
                      stats_page_bytes=PAGE_BYTES)


@pytest.fixture
def cache():
    return PagedKvCache(_pool(), BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)


class TestAllocation:
    def test_allocate_rounds_tokens_up_to_pages(self, cache):
        assert cache.allocate(1, 5)          # 5 tokens -> 2 pages
        assert cache.live_pages == 2
        assert cache.tokens_of(1) == 5
        assert len(cache.page_table(1)) == 2

    def test_double_allocate_raises(self, cache):
        assert cache.allocate(1, 4)
        with pytest.raises(ReproError):
            cache.allocate(1, 4)

    def test_allocate_is_all_or_nothing_on_exhaustion(self, cache):
        assert cache.allocate(1, 8 * PAGE_TOKENS)      # 8 of 10 pages
        free_before = cache.pool.free_bytes
        assert not cache.allocate(2, 3 * PAGE_TOKENS)  # needs 3, has 2
        assert cache.pool.free_bytes == free_before    # nothing held
        assert cache.live_seqs == 1
        assert cache.failed_grows == 1

    def test_can_admit_tracks_free_pages(self, cache):
        assert cache.can_admit(POOL_PAGES * PAGE_TOKENS)
        assert not cache.can_admit(POOL_PAGES * PAGE_TOKENS + 1)


class TestGrow:
    def test_grow_only_allocates_across_page_boundary(self, cache):
        cache.allocate(1, 5)                  # page 2 holds tokens 5..8
        assert cache.grow((1,), 3)            # fills page 2: no new page
        assert cache.live_pages == 2
        assert cache.pages_to_grow((1,)) == 1  # next token needs a page
        assert cache.grow((1,))               # crosses into page 3
        assert cache.live_pages == 3

    def test_grow_soft_fails_with_sequence_unchanged(self, cache):
        cache.allocate(1, POOL_PAGES * PAGE_TOKENS)   # pool is full
        assert cache.pages_to_grow((1,)) == 1
        assert not cache.grow((1,))
        assert cache.tokens_of(1) == POOL_PAGES * PAGE_TOKENS
        assert cache.failed_grows == 1

    def test_grow_unknown_sequence_raises(self, cache):
        with pytest.raises(ReproError):
            cache.grow((99,))
        with pytest.raises(ReproError):
            cache.pages_to_grow((99,))

    def test_set_grow_is_all_or_nothing(self, cache):
        cache.allocate(1, 4 * PAGE_TOKENS)    # both at a page boundary
        cache.allocate(2, 5 * PAGE_TOKENS)    # 9 of 10 pages
        tables = cache.page_table(1), cache.page_table(2)
        assert cache.pages_to_grow([1, 2]) == 2
        assert not cache.grow([1, 2])         # one page left, two needed
        assert (cache.page_table(1), cache.page_table(2)) == tables
        assert (cache.tokens_of(1), cache.tokens_of(2)) == (16, 20)
        assert cache.free_pages == 1
        assert cache.failed_grows == 1
        assert cache.grow([1])                # one fits on its own
        cache.check_invariants()

    def test_set_grow_places_pages_as_one_call_per_sequence(self, cache):
        def grown(calls):
            c = PagedKvCache(_pool(), BYTES_PER_TOKEN,
                             page_tokens=PAGE_TOKENS)
            for seq, tokens in ((1, 4), (2, 1), (3, 8), (4, 3)):
                c.allocate(seq, tokens)
            for ids in calls:
                assert c.grow(ids, 2)
            c.check_invariants()
            tables = {seq: c.page_table(seq) for seq in (1, 2, 3, 4)}
            return tables, c.peak_pages, c.peak_page_utilization

        one_by_one = grown([(3,), (1,), (4,), (2,)])
        assert grown([(3, 1, 4, 2)]) == one_by_one
        assert grown([[3, 1], [4, 2]]) == one_by_one

    def test_repeated_ids_are_rejected(self, cache):
        cache.allocate(1, PAGE_TOKENS)
        with pytest.raises(ReproError, match="repeat"):
            cache.grow((1, 1))
        with pytest.raises(ReproError, match="repeat"):
            cache.pages_to_grow([1, 1])
        assert cache.tokens_of(1) == PAGE_TOKENS
        assert cache.live_pages == 1


class TestNegativeTokens:
    def test_allocate_rejects_negative_tokens(self, cache):
        with pytest.raises(ReproError, match="token count"):
            cache.allocate(1, -40)
        assert cache.live_seqs == cache.live_pages == 0
        assert cache.utilization() == 1.0
        assert cache.pool.live_allocations == 1      # the arena alone
        assert cache.pool.used_bytes == cache.arena.nbytes
        assert cache.free_pages == cache.capacity_pages
        cache.check_invariants()

    def test_can_admit_rejects_negative_tokens(self, cache):
        with pytest.raises(ReproError, match="token count"):
            cache.can_admit(-40)
        assert cache.can_admit(0)

    def test_grow_rejects_negative_tokens(self, cache):
        cache.allocate(7, 20)
        with pytest.raises(ReproError, match="token count"):
            cache.grow((7,), -20)
        with pytest.raises(ReproError, match="token count"):
            cache.pages_to_grow((7,), -1)
        assert cache.tokens_of(7) == 20
        assert cache.live_pages == 5
        cache.check_invariants()


def _move_page(cache):
    """Totals still add up; sequence 1 is one block short."""
    cache._tables[2].append(cache._tables[1].pop())


def _share_page(cache):
    """Totals and per-table counts add up; one block sits in two tables."""
    cache._tables[1].append(cache._tables[2][0])
    cache._tokens[1] += PAGE_TOKENS
    cache._live_pages += 1
    cache._live_tokens += PAGE_TOKENS


class TestReleaseAndConservation:
    def test_release_returns_pages_to_the_pool(self, cache):
        cache.allocate(1, 7)
        cache.allocate(2, 4)
        assert cache.free_pages == POOL_PAGES - 3
        assert cache.release(1) == 2
        assert cache.release(1) == 0          # idempotent
        assert cache.live_seqs == 1
        assert cache.free_pages == POOL_PAGES - 1
        cache.release(2)
        assert cache.live_pages == 0
        assert cache.free_pages == cache.capacity_pages == POOL_PAGES
        cache.close()
        assert cache.pool.free_bytes == POOL_PAGES * PAGE_BYTES
        assert cache.pool.leak_report().ok
        cache.check_invariants()

    def test_every_page_is_a_tracked_pool_allocation(self, cache):
        # the whole budget is one tracked reservation, however many
        # pages the tables hold
        cache.allocate(1, 3 * PAGE_TOKENS)
        report = cache.pool.leak_report()
        assert [(e.tag, e.count, e.nbytes) for e in report.entries] == [
            ("kv-cache", 1, cache.capacity_pages * PAGE_BYTES)]
        assert cache.pool.alloc_count == 1

    @pytest.mark.parametrize("corrupt, message", [
        (lambda c: setattr(c, "_live_pages", 4), "running totals"),
        (lambda c: setattr(c, "_live_tokens", 1), "running totals"),
        (lambda c: c._tokens.pop(2), "different sequences"),
        (_move_page, "holds 1 pages for 7 tokens"),
        (lambda c: c.pool.free(c.arena), "arena is not a live"),
        (lambda c: c._block_used.__setitem__(c._tables[2][0], 0),
         "held block 2"),
        (lambda c: c._block_used.__setitem__(9, 1), "free block 9"),
        (_share_page, "two page tables"),
    ])
    def test_check_invariants_names_the_broken_invariant(self, cache,
                                                         corrupt, message):
        cache.allocate(1, 7)
        cache.allocate(2, 4)
        cache.check_invariants()
        corrupt(cache)
        with pytest.raises(ReproError, match=message):
            cache.check_invariants()


class TestPeakStats:
    def test_peak_pages_survive_release(self, cache):
        cache.allocate(1, 6 * PAGE_TOKENS)
        cache.release(1)
        cache.allocate(2, PAGE_TOKENS)
        assert cache.peak_pages == 6

    def test_peak_utilization_measures_partial_last_pages(self, cache):
        cache.allocate(1, 6)                  # 6 tokens over 2 pages
        assert cache.peak_page_utilization == pytest.approx(6 / 8)
        assert cache.utilization() == pytest.approx(6 / 8)

    def test_validation(self, cache):
        with pytest.raises(ReproError):
            PagedKvCache(cache.pool, BYTES_PER_TOKEN, page_tokens=0)
        with pytest.raises(ReproError):
            PagedKvCache(cache.pool, 0)
        # a rejected construction reserved nothing
        assert cache.pool.alloc_count == cache.pool.live_allocations == 1


class TestReservation:
    def test_only_whole_pages_are_reserved(self):
        pool = _pool(POOL_PAGES * PAGE_BYTES + PAGE_BYTES - 1)
        cache = PagedKvCache(pool, BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)
        assert cache.capacity_pages == cache.free_pages == POOL_PAGES
        assert cache.arena.nbytes == POOL_PAGES * PAGE_BYTES
        assert pool.free_bytes == PAGE_BYTES - 1
        cache.check_invariants()

    def test_weights_partial_page_leaves_every_block_addressable(self):
        # weights of 2.5 pages round up to 3 slots of the pool's page
        # map, so a map slot per KV page would leave the budget's last
        # page without an address
        pool = _pool(int((2.5 + POOL_PAGES) * PAGE_BYTES))
        pool.allocate(int(2.5 * PAGE_BYTES), tag="weights")
        cache = PagedKvCache(pool, BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)
        assert cache.capacity_pages == POOL_PAGES
        assert cache.allocate(1, POOL_PAGES * PAGE_TOKENS - 1)
        table = cache.page_table(1)
        assert len(table) == len(set(table)) == POOL_PAGES
        assert sorted(table) == list(range(POOL_PAGES))
        cache.check_invariants()

    def test_close_empties_the_pool(self, cache):
        cache.allocate(1, 5)
        assert cache.pool.used_bytes == POOL_PAGES * PAGE_BYTES
        cache.close()
        assert cache.pool.used_bytes == cache.pool.live_allocations == 0
        assert (cache.pool.alloc_count, cache.pool.free_count) == (1, 1)
        assert cache.pool.leak_report().ok
        # the tables stay, so a teardown audit still sees the sequence
        assert (cache.live_seqs, cache.live_pages) == (1, 2)
        cache.check_invariants()
