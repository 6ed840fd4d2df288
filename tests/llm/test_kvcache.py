"""PagedKvCache: page arithmetic, soft exhaustion, ledger conservation."""

import pytest

from repro.errors import ReproError
from repro.gpu.memory import MemoryPool
from repro.llm import PagedKvCache

BYTES_PER_TOKEN = 4
PAGE_TOKENS = 4
PAGE_BYTES = BYTES_PER_TOKEN * PAGE_TOKENS
POOL_PAGES = 10


@pytest.fixture
def cache():
    pool = MemoryPool(POOL_PAGES * PAGE_BYTES, reserve_fraction=0.0,
                      stats_page_bytes=PAGE_BYTES)
    return PagedKvCache(pool, BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)


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
        assert cache.grow(1, 3)               # fills page 2: no new page
        assert cache.live_pages == 2
        assert cache.pages_to_grow(1) == 1    # next token needs a page
        assert cache.grow(1)                  # crosses into page 3
        assert cache.live_pages == 3

    def test_grow_soft_fails_with_sequence_unchanged(self, cache):
        cache.allocate(1, POOL_PAGES * PAGE_TOKENS)   # pool is full
        assert cache.pages_to_grow(1) == 1
        assert not cache.grow(1)
        assert cache.tokens_of(1) == POOL_PAGES * PAGE_TOKENS
        assert cache.failed_grows == 1

    def test_grow_unknown_sequence_raises(self, cache):
        with pytest.raises(ReproError):
            cache.grow(99)
        with pytest.raises(ReproError):
            cache.pages_to_grow(99)


def _move_page(cache):
    """Totals still add up; sequence 1 is one page short."""
    cache._tables[2].append(cache._tables[1].pop())


def _share_page(cache):
    """Totals and per-table counts add up; one page sits in two tables."""
    cache._tables[1].append(cache._tables[2][0])
    cache._tokens[1] += PAGE_TOKENS
    cache._live_pages += 1
    cache._live_tokens += PAGE_TOKENS


class TestReleaseAndConservation:
    def test_release_returns_pages_to_the_pool(self, cache):
        cache.allocate(1, 7)
        cache.allocate(2, 4)
        assert cache.release(1) == 2
        assert cache.release(1) == 0          # idempotent
        assert cache.live_seqs == 1
        cache.release(2)
        assert cache.live_pages == 0
        assert cache.pool.free_bytes == POOL_PAGES * PAGE_BYTES
        assert cache.pool.leak_report().ok

    def test_every_page_is_a_tracked_pool_allocation(self, cache):
        cache.allocate(1, 3 * PAGE_TOKENS)
        report = cache.pool.leak_report()
        assert not report.ok                  # pages held = "leaks" live
        assert report.total_bytes == 3 * PAGE_BYTES

    @pytest.mark.parametrize("corrupt, message", [
        (lambda c: setattr(c, "_live_pages", 4), "running totals"),
        (lambda c: setattr(c, "_live_tokens", 1), "running totals"),
        (lambda c: c._tokens.pop(2), "different sequences"),
        (_move_page, "holds 1 pages for 7 tokens"),
        (lambda c: c.pool.free(c._tables[2][0]), "not a live"),
        (lambda c: setattr(c._tables[2][0], "tag", "weights"), "not a live"),
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
