"""Device memory pool and buffers.

Week 3 of the course ("Memory Management & GPU Optimization") is entirely
about the host/device memory boundary: students must learn that device
memory is finite, that allocations fail loudly, and that transfers cost
time.  This module models the *capacity* side; the *time* side lives in
:mod:`repro.gpu.device`.

The pool is a simple counting allocator (no fragmentation model): CUDA's
caching allocators make fragmentation largely invisible at lab scale, and a
counting model keeps OOM behaviour exactly reproducible.  On top of the
raw byte counting sits a tracked-allocation ledger (:class:`Allocation`):
every tracked allocation carries a tag and the call site that made it, the
pool keeps per-tag live totals and a high-water-mark breakdown, and
:meth:`MemoryPool.leak_report` renders what is still resident — the
``compute-sanitizer --leak-check full`` view of the pool.  The static
counterpart of this ledger is :mod:`repro.memcheck`.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeviceError, OutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import VirtualGpu


_buffer_ids = itertools.count(1)
_allocation_ids = itertools.count(1)

#: fraction of capacity held back for the driver + context by default
DEFAULT_RESERVE_FRACTION = 0.03

#: granularity of the pool's page-occupancy map (CUDA's caching
#: allocators round large blocks to 2 MiB segments)
DEFAULT_STATS_PAGE_BYTES = 2 << 20

#: host RAM assumed when no instance is in scope (a g4dn.xlarge has 16 GiB)
DEFAULT_HOST_RAM_BYTES = 16 * (1 << 30)

#: basenames skipped while walking the stack for an allocation site — the
#: plumbing between the user's call and the pool, never the interesting frame
_INTERNAL_FRAMES = frozenset(
    {"memory.py", "device.py", "tensor.py", "ndarray.py", "creation.py"})


def format_bytes(n: float) -> str:
    """Human-readable byte count (``"2.0 MiB"``), for reports and errors."""
    n = float(n)
    if abs(n) < 1024.0:
        return f"{int(n)} B"
    for unit in ("KiB", "MiB", "GiB"):
        n /= 1024.0
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}"
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def _capture_site(max_depth: int = 16) -> str:
    """``file.py:line`` of the nearest stack frame outside the allocator
    plumbing — what ``compute-sanitizer`` calls the allocation site."""
    try:
        frame = sys._getframe(2)
    except ValueError:  # pragma: no cover - called from the top of the stack
        return ""
    site = ""
    for _ in range(max_depth):
        if frame is None:
            break
        filename = frame.f_code.co_filename
        base = filename.replace("\\", "/").rsplit("/", 1)[-1]
        site = f"{base}:{frame.f_lineno}"
        if base not in _INTERNAL_FRAMES:
            return site
        frame = frame.f_back
    return site


class Allocation:
    """One tracked reservation in a :class:`MemoryPool` ledger.

    ``pages`` records which slots of the pool's page-occupancy map the
    allocation holds (empty when the map could not place it, which only
    happens when untracked :meth:`MemoryPool.reserve` bytes crowd the
    map); it exists for fragmentation statistics, not correctness.
    """

    __slots__ = ("alloc_id", "nbytes", "tag", "site", "freed", "pages")

    def __init__(self, nbytes: int, tag: str, site: str) -> None:
        self.alloc_id = next(_allocation_ids)
        self.nbytes = int(nbytes)
        self.tag = tag
        self.site = site
        self.freed = False
        self.pages: tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self.freed else "live"
        return (f"Allocation(#{self.alloc_id}, {self.nbytes} B, "
                f"tag={self.tag!r}, site={self.site!r}, {state})")


class DeviceBuffer:
    """A block of virtual device memory backed by a host numpy array.

    The backing array *is* the storage — computation on the virtual GPU is
    real numpy computation — but access is mediated so that code cannot
    accidentally treat device data as host data: :mod:`repro.xp` only hands
    out copies via explicit ``.get()`` transfers, mirroring CuPy.
    """

    __slots__ = ("buffer_id", "device", "array", "nbytes", "freed", "tag",
                 "allocation")

    def __init__(self, device: "VirtualGpu", array: np.ndarray,
                 tag: str = "", allocation: Allocation | None = None) -> None:
        self.buffer_id = next(_buffer_ids)
        self.device = device
        self.array = array
        self.nbytes = int(array.nbytes)
        self.freed = False
        self.tag = tag
        self.allocation = allocation

    def data(self) -> np.ndarray:
        """Return the backing array, guarding against use-after-free."""
        if self.freed:
            raise DeviceError(
                f"use of freed device buffer #{self.buffer_id} "
                f"({self.tag or 'untagged'}) on {self.device.name}"
            )
        return self.array

    def free(self) -> None:
        """Release the buffer back to its pool (idempotent; repeat frees
        are counted as double-free attempts in the pool stats)."""
        if self.freed:
            if self.allocation is not None:
                self.device.memory.free(self.allocation)
            return
        self.freed = True
        if self.allocation is not None:
            self.device.memory.free(self.allocation)
        else:
            self.device.memory.release(self.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self.freed else f"{self.nbytes} B"
        return f"DeviceBuffer(#{self.buffer_id}, dev={self.device.device_id}, {state})"


@dataclass
class PoolStats:
    """Snapshot of a memory pool's accounting."""

    total_bytes: int
    used_bytes: int
    peak_bytes: int
    alloc_count: int
    free_count: int
    live_allocations: int = 0
    double_free_count: int = 0

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of device memory currently in use."""
        if self.total_bytes == 0:
            return 0.0
        return self.used_bytes / self.total_bytes


@dataclass(frozen=True)
class LeakEntry:
    """Live allocations grouped by (tag, allocation site)."""

    tag: str
    site: str
    count: int
    nbytes: int


@dataclass(frozen=True)
class LeakReport:
    """What is still resident in a pool, grouped by who allocated it.

    Mid-run this is the live set; at teardown — after every well-behaved
    owner has released its storage — every entry is a leak, which is
    exactly when :meth:`repro.gpu.device.VirtualGpu.teardown` collects it.
    """

    device_name: str
    entries: tuple[LeakEntry, ...]
    fragmentation: "FragmentationStats | None" = None

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries)

    @property
    def count(self) -> int:
        return sum(e.count for e in self.entries)

    @property
    def ok(self) -> bool:
        return not self.entries

    def render(self) -> str:
        """The ``compute-sanitizer --leak-check full`` style summary."""
        where = self.device_name or "device"
        if self.ok:
            return f"{where}: no leaks detected"
        lines = [f"{where}: {self.count} leaked allocation(s), "
                 f"{format_bytes(self.total_bytes)} still resident"]
        for e in self.entries:
            site = f" at {e.site}" if e.site else ""
            lines.append(f"  {e.tag}: {e.count}× {format_bytes(e.nbytes)}"
                         f" total{site}")
        if self.fragmentation is not None:
            lines.append(f"  pool: {self.fragmentation.render()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FragmentationStats:
    """Occupancy/fragmentation snapshot of a pool's page map.

    The pool models its address space as fixed-size pages (the 2 MiB
    segments CUDA's caching allocator rounds to).  Tracked allocations
    are placed first-fit, preferring a contiguous run; frees punch
    holes, and the statistics here describe the holes:

    * ``largest_free_block_bytes`` — the longest contiguous free run,
      the biggest single allocation that could be placed without
      compaction;
    * ``external_fragmentation`` — ``1 - largest_run / free_pages``:
      0.0 when all free space is one block, approaching 1.0 when free
      space is shredded into single-page holes;
    * ``page_utilization`` — live bytes over the capacity of the pages
      holding them: internal fragmentation from partial last pages.

    ``unmapped_bytes`` counts raw :meth:`MemoryPool.reserve` bytes that
    live outside the page map (they are still byte-accounted; they just
    carry no address).
    """

    total_bytes: int
    free_bytes: int
    page_bytes: int
    total_pages: int
    free_pages: int
    largest_free_block_bytes: int
    page_utilization: float
    external_fragmentation: float
    unmapped_bytes: int

    @property
    def occupancy(self) -> float:
        """Fraction of pages holding at least one live byte."""
        if self.total_pages == 0:
            return 0.0
        return (self.total_pages - self.free_pages) / self.total_pages

    def render(self) -> str:
        return (f"{format_bytes(self.free_bytes)} free of "
                f"{format_bytes(self.total_bytes)} "
                f"(largest block {format_bytes(self.largest_free_block_bytes)}, "
                f"page util {100 * self.page_utilization:.1f}%, "
                f"ext frag {100 * self.external_fragmentation:.1f}%)")


class MemoryPool:
    """Counting allocator for one device's global memory.

    ``reserve_fraction`` holds back a slice of capacity for the driver and
    context (real CUDA contexts eat a few hundred MB), so a "16 GB" card
    never actually grants 16 GB — an effect students discover in Lab 1.

    Two planes of accounting: :meth:`reserve`/:meth:`release` are the raw
    byte counters (kept for direct callers), while :meth:`allocate` /
    :meth:`free` additionally record *who* holds the bytes — a tag, the
    allocation site, and a per-tag live total that feeds
    :meth:`top_consumers`, :meth:`leak_report`, and the enriched
    :class:`~repro.errors.OutOfMemoryError` messages.
    """

    #: class-level switch for allocation-site stack capture (a frame walk
    #: per tracked allocation; benchmarks may turn it off)
    capture_sites = True

    def __init__(self, total_bytes: int,
                 reserve_fraction: float = DEFAULT_RESERVE_FRACTION,
                 stats_page_bytes: int = DEFAULT_STATS_PAGE_BYTES) -> None:
        if total_bytes <= 0:
            raise ValueError("pool must have positive capacity")
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        if stats_page_bytes <= 0:
            raise ValueError("stats_page_bytes must be positive")
        self.total_bytes = int(total_bytes * (1.0 - reserve_fraction))
        self.used_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        self.double_free_count = 0
        self._live: dict[int, Allocation] = {}
        self._tag_bytes: dict[str, int] = {}
        self._tag_counts: dict[str, int] = {}
        self.peak_breakdown: dict[str, int] = {}
        # page-occupancy map: one flag per fixed-size page, placed
        # first-fit for tracked allocations.  Pure bookkeeping — whether
        # an allocation succeeds stays byte-counted (the counting model
        # is what keeps OOM behaviour exactly reproducible).
        self.page_bytes = int(stats_page_bytes)
        self._page_count = max(1, self.total_bytes // self.page_bytes)
        self._page_used = bytearray(self._page_count)
        self._free_page_hint = 0

    # -- raw byte accounting ----------------------------------------------

    def can_allocate(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would currently succeed."""
        return self.used_bytes + int(nbytes) <= self.total_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes currently grantable (capacity minus everything held)."""
        return self.total_bytes - self.used_bytes

    def reserve(self, nbytes: int) -> None:
        """Account for an allocation, raising :class:`OutOfMemoryError`
        exactly the way ``cudaMalloc`` would.  Untracked: the bytes count
        but carry no tag; prefer :meth:`allocate` for attributable
        reservations."""
        self._reserve(int(nbytes), tag=None)

    def _reserve(self, nbytes: int, tag: str | None) -> None:
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        if not self.can_allocate(nbytes):
            raise OutOfMemoryError(
                requested=nbytes,
                free=self.total_bytes - self.used_bytes,
                total=self.total_bytes,
                detail=self._oom_detail(),
            )
        if tag is not None:
            self._tag_bytes[tag] = self._tag_bytes.get(tag, 0) + nbytes
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        self.used_bytes += nbytes
        self.alloc_count += 1
        if self.used_bytes > self.peak_bytes:
            self.peak_bytes = self.used_bytes
            # who held what at the high-water mark (tracked bytes only)
            self.peak_breakdown = {
                t: b for t, b in self._tag_bytes.items() if b > 0}

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot free negative bytes")
        if nbytes > self.used_bytes:
            raise DeviceError(
                f"double free detected: releasing {nbytes} B with only "
                f"{self.used_bytes} B outstanding"
            )
        self.used_bytes -= nbytes
        self.free_count += 1

    # -- tracked-allocation ledger ----------------------------------------

    def allocate(self, nbytes: int, tag: str = "",
                 site: str | None = None) -> Allocation:
        """Reserve ``nbytes`` with attribution: the returned
        :class:`Allocation` carries ``tag`` and the capturing call site,
        appears in :meth:`leak_report` until freed, and feeds the per-tag
        totals that OOM messages and :meth:`top_consumers` render."""
        tag = tag or "untagged"
        if site is None and MemoryPool.capture_sites:
            site = _capture_site()
        self._reserve(int(nbytes), tag=tag)
        alloc = Allocation(int(nbytes), tag, site or "")
        alloc.pages = self._place_pages(alloc.nbytes)
        self._live[alloc.alloc_id] = alloc
        return alloc

    def free(self, allocation: Allocation) -> bool:
        """Release a tracked allocation.  Idempotent: freeing twice is a
        no-op that increments ``double_free_count`` (the way the dynamic
        race detector counts rather than crashes)."""
        if allocation.freed or allocation.alloc_id not in self._live:
            self.double_free_count += 1
            return False
        allocation.freed = True
        del self._live[allocation.alloc_id]
        self._release_pages(allocation.pages)
        allocation.pages = ()
        self._tag_bytes[allocation.tag] = (
            self._tag_bytes.get(allocation.tag, 0) - allocation.nbytes)
        self._tag_counts[allocation.tag] = (
            self._tag_counts.get(allocation.tag, 0) - 1)
        self.release(allocation.nbytes)
        return True

    @property
    def live_allocations(self) -> int:
        """Tracked allocations currently resident."""
        return len(self._live)

    def top_consumers(self, n: int = 3) -> list[tuple[str, int, int]]:
        """The ``n`` tags holding the most live bytes, as
        ``(tag, bytes, count)`` tuples, largest first."""
        items = [(t, b, self._tag_counts.get(t, 0))
                 for t, b in self._tag_bytes.items() if b > 0]
        items.sort(key=lambda item: (-item[1], item[0]))
        return items[:n]

    def _oom_detail(self) -> str:
        """The context an OOM message carries: top live tags + pool stats."""
        stats = (f"peak {format_bytes(self.peak_bytes)}, "
                 f"{self.alloc_count} allocs / {self.free_count} frees")
        top = self.top_consumers(3)
        if not top:
            return stats
        held = ", ".join(f"{t} {format_bytes(b)} ×{c}" for t, b, c in top)
        return f"top live tags: {held}; {stats}"

    def leak_report(self, device_name: str = "") -> LeakReport:
        """Group the live ledger by (tag, site), largest first."""
        groups: dict[tuple[str, str], list[Allocation]] = {}
        for alloc in self._live.values():
            groups.setdefault((alloc.tag, alloc.site), []).append(alloc)
        entries = [
            LeakEntry(tag=tag, site=site, count=len(allocs),
                      nbytes=sum(a.nbytes for a in allocs))
            for (tag, site), allocs in groups.items()
        ]
        entries.sort(key=lambda e: (-e.nbytes, e.tag, e.site))
        return LeakReport(device_name=device_name, entries=tuple(entries),
                          fragmentation=self.fragmentation())

    def stats(self) -> PoolStats:
        """Current accounting snapshot."""
        return PoolStats(
            total_bytes=self.total_bytes,
            used_bytes=self.used_bytes,
            peak_bytes=self.peak_bytes,
            alloc_count=self.alloc_count,
            free_count=self.free_count,
            live_allocations=len(self._live),
            double_free_count=self.double_free_count,
        )

    # -- page-occupancy map ------------------------------------------------

    def _place_pages(self, nbytes: int) -> tuple[int, ...]:
        """Claim page slots for a tracked allocation, first-fit.

        Prefers a contiguous run starting at the lowest free index (what a
        segment allocator would hand out); falls back to scattering across
        whatever holes exist.  Returns ``()`` when the map has fewer free
        slots than needed — possible only when untracked :meth:`reserve`
        bytes hold capacity that owns no pages.
        """
        if nbytes <= 0:
            return ()
        need = -(-int(nbytes) // self.page_bytes)  # ceil-div
        used = self._page_used
        n = self._page_count
        # contiguous first-fit from the hint
        start = self._free_page_hint
        i = start
        while i + need <= n:
            if used[i]:
                i += 1
                continue
            j = i
            while j < i + need and not used[j]:
                j += 1
            if j == i + need:
                for k in range(i, j):
                    used[k] = 1
                if i == self._free_page_hint:
                    self._free_page_hint = j
                return tuple(range(i, j))
            i = j + 1
        # scattered fallback: any free slots, lowest-index first
        free = [k for k in range(n) if not used[k]]
        if len(free) < need:
            return ()
        taken = free[:need]
        for k in taken:
            used[k] = 1
        return tuple(taken)

    def _release_pages(self, pages: tuple[int, ...]) -> None:
        for k in pages:
            self._page_used[k] = 0
        if pages:
            self._free_page_hint = min(self._free_page_hint, pages[0])

    def fragmentation(self) -> FragmentationStats:
        """Occupancy/fragmentation snapshot from the page map."""
        used = self._page_used
        n = self._page_count
        free_pages = n - sum(used)
        # longest contiguous free run
        longest = run = 0
        for flag in used:
            if flag:
                run = 0
            else:
                run += 1
                if run > longest:
                    longest = run
        largest_block = min(longest * self.page_bytes, self.free_bytes)
        # internal fragmentation: live tracked bytes vs pages holding them
        held_pages = 0
        live_bytes = 0
        unmapped = 0
        for alloc in self._live.values():
            if alloc.pages:
                held_pages += len(alloc.pages)
                live_bytes += alloc.nbytes
            else:
                unmapped += alloc.nbytes
        # raw reserve() bytes never enter the map either
        tracked = live_bytes + unmapped
        unmapped += max(0, self.used_bytes - tracked)
        held_capacity = held_pages * self.page_bytes
        page_util = live_bytes / held_capacity if held_capacity else 1.0
        ext_frag = 1.0 - longest / free_pages if free_pages else 0.0
        return FragmentationStats(
            total_bytes=self.total_bytes,
            free_bytes=self.free_bytes,
            page_bytes=self.page_bytes,
            total_pages=n,
            free_pages=free_pages,
            largest_free_block_bytes=largest_block,
            page_utilization=page_util,
            external_fragmentation=ext_frag,
            unmapped_bytes=unmapped,
        )


class PinnedHostPool:
    """Page-locked (pinned) host RAM used to stage async transfers.

    Pinned memory is what makes ``copy_h2d(blocking=False)`` real on
    hardware, but it is wired-down host RAM: oversubscribing it starves
    the OS.  The pool counts pinned bytes against a host-RAM budget the
    same way :class:`MemoryPool` counts device bytes; the static analyzer
    flags workflows that pin more than a safe fraction
    (``MEM-PINNED-OVERSUB``).
    """

    def __init__(self, total_bytes: int = DEFAULT_HOST_RAM_BYTES) -> None:
        if total_bytes <= 0:
            raise ValueError("host RAM budget must be positive")
        self.total_bytes = int(total_bytes)
        self.pinned_bytes = 0
        self.peak_bytes = 0

    def pin(self, nbytes: int) -> None:
        """Wire down ``nbytes`` of host RAM (``cudaHostAlloc``)."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot pin negative bytes")
        if self.pinned_bytes + nbytes > self.total_bytes:
            raise OutOfMemoryError(
                requested=nbytes,
                free=self.total_bytes - self.pinned_bytes,
                total=self.total_bytes,
                detail="host pinned-memory budget exhausted",
            )
        self.pinned_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.pinned_bytes)

    def unpin(self, nbytes: int) -> None:
        """Release ``nbytes`` of pinned host RAM."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot unpin negative bytes")
        if nbytes > self.pinned_bytes:
            raise DeviceError(
                f"double free detected: unpinning {nbytes} B with only "
                f"{self.pinned_bytes} B pinned"
            )
        self.pinned_bytes -= nbytes

    @property
    def fraction(self) -> float:
        """Fraction of host RAM currently pinned."""
        return self.pinned_bytes / self.total_bytes

    def oversubscribed(self, fraction: float = 0.5) -> bool:
        """Whether pinned staging exceeds ``fraction`` of host RAM."""
        return self.fraction > fraction


def pinned_empty(shape, dtype=np.float32, host=None) -> np.ndarray:
    """Allocate a pinned host staging array (``cuda.pinned_array``).

    Counts against the host's :class:`PinnedHostPool`; release the bytes
    with ``host.pinned.unpin(arr.nbytes)`` when staging is done.
    """
    if host is None:
        from repro.gpu.system import default_system
        host = default_system().host
    arr = np.empty(shape, dtype=dtype)
    host.pinned.pin(arr.nbytes)
    return arr
