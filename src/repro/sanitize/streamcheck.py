"""Cross-stream hazard detection on recorded device timelines.

In the simulator, work on different streams overlaps unless an
:class:`~repro.gpu.stream.Event` dependency (``stream.wait_for``) or a
synchronization pushed one stream's start past the other's end.  That
makes the hazard check exact rather than heuristic: if two spans on
*different* streams of the same device touched the same buffer and their
intervals overlap, then no dependency ordered them — precisely the bug
``cudaStreamWaitEvent`` exists to fix.

Buffer identity comes from the ``buffers`` annotation that
``@cuda.jit`` launches attach to their spans (see
:meth:`repro.gpu.stream.Stream.enqueue`).
"""

from __future__ import annotations

from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report


def _devices_of(target) -> list:
    if hasattr(target, "devices"):        # GpuSystem
        return list(target.devices)
    return [target]                        # a single VirtualGpu


def find_stream_hazards(target) -> Report:
    """Scan a :class:`~repro.gpu.system.GpuSystem` or a single
    :class:`~repro.gpu.device.VirtualGpu` for same-buffer spans that ran
    concurrently on different streams."""
    report = Report()
    for dev in _devices_of(target):
        by_buffer: dict[int, list] = {}
        for span in dev.spans:
            for buf in span.buffers:
                by_buffer.setdefault(buf, []).append(span)
        seen: set[tuple] = set()
        for buf, spans in by_buffer.items():
            spans.sort(key=lambda s: (s.start_ns, s.stream_id))
            for i, a in enumerate(spans):
                for b in spans[i + 1:]:
                    if b.start_ns >= a.end_ns:
                        break
                    if a.stream_id == b.stream_id:
                        continue
                    key = (buf, a.stream_id, b.stream_id)
                    if key in seen:
                        continue
                    seen.add(key)
                    report.add(make_finding(
                        "SAN-STREAM-HAZARD",
                        f"`{a.name}` (stream {a.stream_id}) and "
                        f"`{b.name}` (stream {b.stream_id}) touched the "
                        f"same buffer concurrently on device "
                        f"{dev.device_id} "
                        f"([{a.start_ns}, {a.end_ns}) overlaps "
                        f"[{b.start_ns}, {b.end_ns}) ns)",
                        context=f"dev{dev.device_id}"))
    return report
