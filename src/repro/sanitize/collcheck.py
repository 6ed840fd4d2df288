"""Collective preconditions and blocking-ring deadlock detection.

Two complementary checks for :mod:`repro.distributed.collectives`:

* :func:`check_collective` — the non-raising version of the shape and
  participant preconditions (one same-shape, same-dtype buffer per
  distinct device).  The collectives raise on these; the sanitizer
  *reports* them so a lab submission gets all its feedback at once.
* :func:`find_ring_deadlock` — simulates a schedule of **blocking**
  sends/receives by rendezvous semantics and reports the stuck cycle.
  The classic student bug: every rank of a ring posts its send first, no
  rank ever reaches its receive, and the whole ring deadlocks; phasing
  (even ranks send first, odd ranks receive first) breaks the cycle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report

Op = tuple[str, int]          # ("send"|"recv", peer rank)
Schedule = Sequence[Sequence[Op]]


def check_collective(arrays, devices, name: str = "collective") -> Report:
    """Report (not raise) every violated collective precondition."""
    report = Report()

    def bad(msg: str) -> None:
        report.add(make_finding("SAN-COLL-SHAPE", f"{name}: {msg}",
                                context=name))

    if not devices:
        bad("zero participating devices")
        return report
    if len(arrays) != len(devices):
        bad(f"{len(arrays)} buffers for {len(devices)} devices "
            "(need exactly one per participant)")
    if len({id(d) for d in devices}) != len(devices):
        bad("the same device appears more than once in the participant "
            "list; a rank cannot exchange with itself")
    if arrays:
        shapes = {np.asarray(a).shape for a in arrays}
        if len(shapes) > 1:
            bad(f"participant buffer shapes differ: {sorted(shapes)}")
        dtypes = {np.asarray(a).dtype for a in arrays}
        if len(dtypes) > 1:
            bad("participant buffer dtypes differ: "
                f"{sorted(str(d) for d in dtypes)}")
    return report


def ring_schedule(k: int, phased: bool = True) -> list[list[Op]]:
    """One ring step as per-rank op lists: rank r sends to r+1 and
    receives from r-1.  ``phased=False`` is the naive everyone-sends-first
    order; ``phased=True`` has odd ranks post their receive first."""
    schedule: list[list[Op]] = []
    for r in range(k):
        send: Op = ("send", (r + 1) % k)
        recv: Op = ("recv", (r - 1) % k)
        if phased and r % 2 == 1:
            schedule.append([recv, send])
        else:
            schedule.append([send, recv])
    return schedule


def find_ring_deadlock(schedule: Schedule) -> Report:
    """Execute a blocking send/recv schedule under rendezvous semantics.

    Each rank runs its op list in order; a ``send`` only completes when
    the destination rank is currently blocked on the matching ``recv``
    (and vice versa).  If no matching pair exists and ranks still have
    work, the schedule is deadlocked; the finding lists the wait-for
    cycle with every rank's blocking op.
    """
    report = Report()
    k = len(schedule)
    cursor = [0] * k

    def current(r: int) -> Op | None:
        ops = schedule[r]
        return ops[cursor[r]] if cursor[r] < len(ops) else None

    progressed = True
    while progressed:
        progressed = False
        for r in range(k):
            op = current(r)
            if op is None or op[0] != "send":
                continue
            peer = op[1]
            peer_op = current(peer)
            if peer_op is not None and peer_op == ("recv", r):
                cursor[r] += 1
                cursor[peer] += 1
                progressed = True
    stuck = [r for r in range(k) if current(r) is not None]
    if stuck:
        waits = ", ".join(
            f"rank {r} blocked on {current(r)[0]}->{current(r)[1]}"
            for r in stuck)
        report.add(make_finding(
            "SAN-COLL-RING",
            f"blocking schedule deadlocks with {len(stuck)} of {k} ranks "
            f"stuck ({waits})",
            context="ring"))
    return report


def check_ring_allreduce(k: int, phased: bool = False) -> Report:
    """Would a blocking ring step over ``k`` ranks deadlock?  The NCCL
    ring the lecture derives needs either phasing or buffered sends."""
    if k < 2:
        return Report()
    return find_ring_deadlock(ring_schedule(k, phased=phased))
