"""Unit tests for the device memory pool and buffers."""

import numpy as np
import pytest

from repro.errors import DeviceError, OutOfMemoryError
from repro.gpu.memory import MemoryPool


class TestMemoryPool:
    def test_reserve_and_release(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        alloc = pool.allocate(400)
        assert pool.used_bytes == 400
        pool.free(alloc)
        assert pool.used_bytes == 0

    def test_oom_raises_with_numbers(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        pool.allocate(900)
        with pytest.raises(OutOfMemoryError) as exc:
            pool.allocate(200)
        assert exc.value.requested == 200
        assert exc.value.free == 100

    def test_driver_reserve_shrinks_capacity(self):
        pool = MemoryPool(1000, reserve_fraction=0.1)
        assert pool.total_bytes == 900

    def test_peak_tracking(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        pool.free(pool.allocate(600))
        pool.allocate(100)
        assert pool.stats().peak_bytes == 600

    def test_stats_utilization(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        pool.allocate(250)
        assert pool.stats().utilization == pytest.approx(0.25)

    def test_can_allocate(self):
        pool = MemoryPool(100, reserve_fraction=0.0)
        assert pool.can_allocate(100)
        assert not pool.can_allocate(101)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(0)


class TestDeviceBuffer:
    def test_alloc_accounts_bytes(self, system1):
        dev = system1.device(0)
        arr = np.zeros(1024, dtype=np.float32)
        buf = dev.alloc(arr)
        assert dev.memory.used_bytes == arr.nbytes
        buf.free()
        assert dev.memory.used_bytes == 0

    def test_use_after_free_raises(self, system1):
        dev = system1.device(0)
        buf = dev.alloc(np.zeros(4))
        buf.free()
        with pytest.raises(DeviceError, match="freed"):
            buf.data()

    def test_free_is_idempotent(self, system1):
        dev = system1.device(0)
        buf = dev.alloc(np.zeros(4))
        buf.free()
        buf.free()  # no error, no double-release
        assert dev.memory.used_bytes == 0

    def test_device_oom_on_huge_alloc(self, system1):
        dev = system1.device(0)
        # T4 has 16 GiB; a fake array object would be needed for real size,
        # so shrink the pool instead.
        dev.memory.total_bytes = 100
        with pytest.raises(OutOfMemoryError):
            dev.alloc(np.zeros(1000, dtype=np.float64))


class TestPoolEdgeCases:
    """reserve_fraction bounds, signed sizes, and interleaved peaks."""

    def test_reserve_fraction_bounds_enforced(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="reserve_fraction"):
                MemoryPool(1000, reserve_fraction=bad)
        assert MemoryPool(1000, reserve_fraction=0.0).total_bytes == 1000

    def test_full_fraction_leaves_no_capacity(self):
        pool = MemoryPool(1000, reserve_fraction=0.999999)
        assert pool.total_bytes == 0
        with pytest.raises(OutOfMemoryError):
            pool.allocate(1)

    def test_zero_byte_reserve_is_a_noop(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        alloc = pool.allocate(0)
        assert pool.used_bytes == 0
        assert alloc.pages == ()
        assert pool.stats().alloc_count == 1    # still counted as an op

    def test_negative_reserve_rejected(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        with pytest.raises(ValueError, match="negative"):
            pool.allocate(-1)
        assert pool.stats().alloc_count == 0

    def test_peak_across_interleaved_alloc_free(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        a = pool.allocate(300, tag="a")
        b = pool.allocate(400, tag="b")     # peak 700
        pool.free(a)
        c = pool.allocate(200, tag="c")     # 600 < 700
        assert pool.peak_bytes == 700
        pool.free(b)
        d = pool.allocate(500, tag="d")     # 700, ties the peak
        assert pool.peak_bytes == 700
        pool.free(c)
        pool.free(d)
        assert pool.used_bytes == 0
        assert pool.peak_bytes == 700

    def test_peak_breakdown_snapshot_at_peak(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        a = pool.allocate(300, tag="weights")
        pool.allocate(400, tag="activations")
        assert pool.peak_breakdown == {"weights": 300, "activations": 400}
        pool.free(a)
        pool.allocate(100, tag="late")
        # below the peak: the snapshot must not move
        assert pool.peak_breakdown == {"weights": 300, "activations": 400}


class TestAllocationLedger:
    def test_tracked_free_counts_double_free_without_raising(self):
        pool = MemoryPool(1000, reserve_fraction=0.0)
        alloc = pool.allocate(100, tag="x")
        assert pool.free(alloc) is True
        assert pool.free(alloc) is False        # idempotent, but counted
        stats = pool.stats()
        assert stats.double_free_count == 1
        assert stats.used_bytes == 0

    def test_buffer_double_free_reaches_pool_counter(self, system1):
        dev = system1.device(0)
        buf = dev.alloc(np.zeros(16, dtype=np.float32))
        buf.free()
        buf.free()
        assert dev.memory.stats().double_free_count == 1

    def test_use_after_free_message_names_the_buffer(self, system1):
        dev = system1.device(0)
        buf = dev.alloc(np.zeros(4, dtype=np.float32))
        buf.free()
        with pytest.raises(DeviceError,
                           match=r"use of freed device buffer #\d+"):
            buf.data()

    def test_sites_point_at_caller_not_pool_internals(self, system1):
        dev = system1.device(0)
        dev.alloc(np.zeros(16, dtype=np.float32), tag="mine")
        (entry,) = dev.leak_report().entries
        assert "test_memory.py" in entry.site

    def test_top_consumers_ranked_by_bytes(self):
        pool = MemoryPool(10_000, reserve_fraction=0.0)
        pool.allocate(100, tag="small")
        pool.allocate(4000, tag="big")
        pool.allocate(500, tag="mid")
        pool.allocate(500, tag="mid")
        top = pool.top_consumers(2)
        assert [t[0] for t in top] == ["big", "mid"]
        assert top[1][1] == 1000 and top[1][2] == 2    # bytes, count

    def test_oom_detail_names_top_tags(self):
        from repro.errors import OutOfMemoryError

        pool = MemoryPool(1000, reserve_fraction=0.0)
        pool.allocate(900, tag="hog")
        with pytest.raises(OutOfMemoryError, match="hog"):
            pool.allocate(200, tag="straw")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda pool, a: pool._tag_bytes.update(x=1), "per-tag totals"),
        (lambda pool, a: pool._tag_counts.update(x=5), "per-tag totals"),
        (lambda pool, a: setattr(pool, "used_bytes", 100), "out of order"),
        (lambda pool, a: setattr(pool, "used_bytes", 10_000),
         "out of order"),
        (lambda pool, a: pool._page_used.__setitem__(9, 1), "page map"),
        (lambda pool, a: setattr(a, "pages", (0, 1)), "held twice"),
        (lambda pool, a: setattr(pool, "_free_page_hint", 5),
         "placement hint"),
        (lambda pool, a: setattr(a, "freed", True), "not a live"),
    ])
    def test_check_invariants_names_the_broken_invariant(self, corrupt,
                                                         message):
        pool = MemoryPool(1000, reserve_fraction=0.0, stats_page_bytes=100)
        pool.allocate(200, tag="x")
        second = pool.allocate(150, tag="y")
        pool.check_invariants()
        corrupt(pool, second)
        with pytest.raises(DeviceError, match=message):
            pool.check_invariants()


class TestPinnedHostPool:
    def test_pin_unpin_roundtrip_and_fraction(self):
        from repro.gpu.memory import PinnedHostPool

        host = PinnedHostPool(total_bytes=1000)
        host.pin(250)
        assert host.fraction == pytest.approx(0.25)
        assert not host.oversubscribed()
        host.pin(400)
        assert host.oversubscribed()            # 0.65 > 0.5
        host.unpin(650)
        assert host.fraction == 0.0
        assert host.peak_bytes == 650

    def test_pinned_budget_exhaustion_is_oom(self):
        from repro.errors import OutOfMemoryError
        from repro.gpu.memory import PinnedHostPool

        host = PinnedHostPool(total_bytes=100)
        with pytest.raises(OutOfMemoryError, match="pinned"):
            host.pin(200)

    def test_unpin_overrun_is_double_free(self):
        from repro.gpu.memory import PinnedHostPool

        host = PinnedHostPool(total_bytes=100)
        with pytest.raises(DeviceError, match="double free"):
            host.unpin(1)

    def test_pinned_empty_charges_the_host_pool(self, system1):
        from repro.gpu import pinned_empty

        arr = pinned_empty((16, 16))
        assert arr.nbytes == 16 * 16 * 4
        assert system1.host.pinned.pinned_bytes == arr.nbytes


class TestFormatBytes:
    def test_unit_ladder(self):
        from repro.gpu.memory import format_bytes

        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(5 * (1 << 20)) == "5.0 MiB"
        assert format_bytes(int(15.5 * (1 << 30))) == "15.5 GiB"


class TestFragmentationStats:
    def _pool(self, pages=8, page_bytes=100):
        return MemoryPool(pages * page_bytes, reserve_fraction=0.0,
                          stats_page_bytes=page_bytes)

    def test_empty_pool_is_one_free_block(self):
        pool = self._pool()
        frag = pool.fragmentation()
        assert frag.free_bytes == pool.total_bytes == 800
        assert frag.total_pages == 8 and frag.free_pages == 8
        assert frag.largest_free_block_bytes == 800
        assert frag.external_fragmentation == 0.0
        assert frag.occupancy == 0.0

    def test_free_bytes_property_tracks_usage(self):
        pool = self._pool()
        a = pool.allocate(250, tag="a")
        assert pool.free_bytes == 550
        pool.free(a)
        assert pool.free_bytes == 800

    def test_holes_shrink_largest_block(self):
        pool = self._pool()
        # place 4× two-page allocations, then free alternating ones:
        # map becomes [..][free][..][free] → free space is shredded
        allocs = [pool.allocate(200, tag=f"t{i}") for i in range(4)]
        pool.free(allocs[1])
        pool.free(allocs[3])
        frag = pool.fragmentation()
        assert frag.free_pages == 4
        assert frag.largest_free_block_bytes == 200
        assert frag.external_fragmentation == pytest.approx(0.5)
        assert frag.occupancy == pytest.approx(0.5)

    def test_partial_last_page_is_internal_fragmentation(self):
        pool = self._pool()
        pool.allocate(150, tag="partial")  # 2 pages hold 150 B of 200 B
        frag = pool.fragmentation()
        assert frag.page_utilization == pytest.approx(0.75)

    def test_first_fit_reuses_freed_hole(self):
        pool = self._pool()
        a = pool.allocate(200, tag="a")
        pool.allocate(200, tag="b")
        pool.free(a)
        c = pool.allocate(100, tag="c")
        assert c.pages == (0,)  # lands back in the hole, not at the end

    def test_allocation_a_full_map_cannot_place_is_unmapped(self):
        pool = self._pool()
        # eight sub-page allocations round up to all eight pages while
        # holding 400 of the 800 bytes
        smalls = [pool.allocate(50, tag=f"s{i}") for i in range(8)]
        assert [a.pages for a in smalls] == [(k,) for k in range(8)]
        late = pool.allocate(300, tag="late")
        assert late.pages == ()
        frag = pool.fragmentation()
        assert frag.unmapped_bytes == 300
        assert frag.free_bytes == 100
        assert frag.free_pages == 0
        assert frag.largest_free_block_bytes == 0
        pool.check_invariants()
        for alloc in smalls:
            pool.free(alloc)
        frag = pool.fragmentation()
        assert frag.unmapped_bytes == 300
        assert frag.free_bytes == 500
        # the unmapped bytes hold no pages...
        assert frag.free_pages == 8
        # ...so the largest block is clamped to actually-grantable bytes
        assert frag.largest_free_block_bytes == 500
        pool.free(late)
        assert pool.fragmentation().unmapped_bytes == 0
        pool.check_invariants()

    def test_scattered_fallback_when_no_contiguous_run(self):
        pool = self._pool()
        allocs = [pool.allocate(100, tag=f"t{i}") for i in range(8)]
        for i in (0, 2, 4, 6):
            pool.free(allocs[i])
        big = pool.allocate(300, tag="big")  # needs 3 pages, max run is 1
        assert len(big.pages) == 3
        assert big.pages == (0, 2, 4)

    def test_leak_report_carries_fragmentation(self):
        pool = self._pool()
        pool.allocate(200, tag="held")
        report = pool.leak_report("gpu0")
        assert report.fragmentation is not None
        assert "free of" in report.fragmentation.render()
        assert "pool:" in report.render()

    def test_render_mentions_largest_block(self):
        pool = self._pool()
        pool.allocate(400, tag="x")
        text = pool.fragmentation().render()
        assert "largest block" in text and "ext frag" in text
