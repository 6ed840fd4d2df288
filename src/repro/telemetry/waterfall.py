"""Both waterfall views of an exported trace, over one span index.

* :func:`render_gantt` — the indented gantt view of ``python -m
  repro.telemetry waterfall``: every span as a bar on its trace's time
  axis, children indented under their parents.
* :func:`render_request_waterfall` — one request's end-to-end causal
  tree (``python -m repro.obs waterfall``), which crosses three traces
  stitched by span links rather than parenting (cross-trace causality
  is a *link* in OTel, because the target belongs to another trace):

.. code-block:: text

    serve.request                       (per-request trace)
      └─▶ served_in: serve.batch        (per-batch trace)
            └─▶ calibrated_as: serve.calibrate[batch=N]
                  ├─ task:layer0        (scheduler task span)
                  │    └─ gemm 256x1024 (bridged kernel span)
                  └─ ...

Within each trace, ordinary parent/child containment applies; when a
span carries links, each link target's own subtree is inlined beneath
it with a ``▶ kind:`` marker.  Children sort by ``(start_ns, span_id)``
and visited spans are tracked, so the rendering is deterministic and
cycle-safe.

The module imports nothing but the span type, so the telemetry CLI
stays free of the serving and analyzer layers.
"""

from __future__ import annotations

from repro.telemetry.span import TelemetrySpan

#: columns of the gantt view's time axis
BAR_WIDTH = 40


class WaterfallIndex:
    """Span lookup tables for both views: each trace's spans in
    first-seen order, parent/child containment within a trace, span
    depths, and span ids for link-following."""

    def __init__(self, spans: list[TelemetrySpan]) -> None:
        self.spans = list(spans)
        self.by_span_id: dict[str, TelemetrySpan] = {
            s.span_id: s for s in self.spans}
        self.traces: dict[str, list[TelemetrySpan]] = {}
        self._in_trace: dict[tuple[str, str], TelemetrySpan] = {}
        self._children: dict[tuple[str, str | None], list[TelemetrySpan]] \
            = {}
        for s in self.spans:
            self.traces.setdefault(s.trace_id, []).append(s)
            self._in_trace[(s.trace_id, s.span_id)] = s
            self._children.setdefault(
                (s.trace_id, s.parent_id), []).append(s)
        for kids in self._children.values():
            kids.sort(key=lambda s: (s.start_ns, s.span_id))
        self._depths: dict[tuple[str, str], int] = {}

    def children(self, span: TelemetrySpan) -> list[TelemetrySpan]:
        return self._children.get((span.trace_id, span.span_id), [])

    def depth(self, span: TelemetrySpan) -> int:
        """How many of ``span``'s ancestors are in its own trace (a
        parent that is not, or is in another trace, makes it a root)."""
        key = (span.trace_id, span.span_id)
        if key not in self._depths:
            parent = self._in_trace.get((span.trace_id, span.parent_id))
            self._depths[key] = 0 if parent is None \
                else self.depth(parent) + 1
        return self._depths[key]

    def find_request(self, request_id: int) -> TelemetrySpan | None:
        """The ``serve.request`` span for ``request_id``, if retained."""
        for s in self.spans:
            if (s.kind == "request"
                    and s.attributes.get("request_id") == request_id):
                return s
        return None


def render_gantt(spans: list[TelemetrySpan]) -> str:
    """The indented-bars view of one or more traces."""
    if not spans:
        return "(empty trace)"
    index = WaterfallIndex(spans)
    lines: list[str] = []
    for trace_id, trace in index.traces.items():
        t0 = min(s.start_ns for s in trace)
        t1 = max((s.end_ns for s in trace if s.ended),
                 default=t0 + 1)
        extent = max(t1 - t0, 1)
        lines.append(f"trace {trace_id}  "
                     f"({len(trace)} spans, {extent / 1e6:.3f} ms)")
        for s in sorted(trace, key=lambda s: (s.start_ns, index.depth(s))):
            end = s.end_ns if s.ended else t1
            lo = round((s.start_ns - t0) / extent * BAR_WIDTH)
            hi = max(round((end - t0) / extent * BAR_WIDTH), lo + 1)
            bar = " " * lo + "#" * (hi - lo) + " " * (BAR_WIDTH - hi)
            label = "  " * index.depth(s) + s.name
            flag = " !" if s.status == "error" else ""
            lines.append(f"{label[:34]:<34} {s.kind:<10} |{bar}| "
                         f"{(end - s.start_ns) / 1e6:>9.3f} ms{flag}")
        lines.append("")
    return "\n".join(lines).rstrip()


def _label(span: TelemetrySpan) -> str:
    dur = span.duration_ms
    bits = [f"{span.name}  [{span.kind}]  {dur:.3f}ms"]
    if span.status != "ok":
        bits.append(f"status={span.status}")
    for key in ("request_id", "batch_id", "outcome", "replica",
                "batch_size", "phase", "tokens", "ttft_ms",
                "worker", "device"):
        if key in span.attributes:
            bits.append(f"{key}={span.attributes[key]}")
    return "  ".join(bits)


def render_tree(index: WaterfallIndex, root: TelemetrySpan,
                *, max_depth: int = 16) -> list[str]:
    """Indented lines for ``root``'s subtree, links inlined."""
    lines: list[str] = []
    visited: set[str] = set()

    def walk(span: TelemetrySpan, depth: int) -> None:
        if span.span_id in visited or depth > max_depth:
            return
        visited.add(span.span_id)
        lines.append("  " * depth + _label(span))
        for child in index.children(span):
            walk(child, depth + 1)
        for link in span.links:
            target = index.by_span_id.get(link.span_id)
            if target is None:
                lines.append("  " * (depth + 1)
                             + f"▶ {link.kind}: <not retained>")
                continue
            lines.append("  " * (depth + 1) + f"▶ {link.kind}:")
            walk(target, depth + 2)

    walk(root, 0)
    return lines


def render_request_waterfall(spans: list[TelemetrySpan],
                             request_id: int) -> str:
    """The full request→batch→task→kernel waterfall for one request."""
    index = WaterfallIndex(spans)
    root = index.find_request(request_id)
    if root is None:
        retained = sorted(
            s.attributes["request_id"] for s in spans
            if s.kind == "request" and "request_id" in s.attributes)
        preview = ", ".join(str(r) for r in retained[:12])
        more = f" … ({len(retained)} retained)" if len(retained) > 12 \
            else ""
        return (f"request {request_id} is not in the retained sample.\n"
                f"retained request ids: {preview}{more}")
    header = (f"waterfall for request {request_id} "
              f"(trace {root.trace_id})")
    return "\n".join([header, *render_tree(index, root)])
