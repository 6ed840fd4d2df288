"""The structured log plane: CloudWatch-style groups, streams, filters.

The fourth signal plane (after traces, metrics, and SLO reports): a
seeded, simulated-clock structured logger.  Records are organized the
CloudWatch Logs way — a **log group** per service surface (e.g.
``/repro/serve/<endpoint>``) holding **log streams** per emitting unit
(router, replica) — and every record is automatically enriched with the
current trace/span ids of the active tracer, which is what lets the
waterfall view interleave "what the code said" with "what the clock
measured".

**Metric filters** reproduce the CloudWatch feature of the same name:
a pattern over record fields that increments a counter in the plane's
own :class:`~repro.telemetry.metrics.MetricsRegistry` whenever a
matching record lands, turning log events into alarmable series without
touching the emitting code.

Streams are bounded (``max_records`` with a dropped-count, like the
agent's buffer) and every timestamp is an explicit simulated-clock
value — the plane never reads a wall clock, so a seeded run's log export
is byte-identical across reruns.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.telemetry import api as telemetry
from repro.telemetry.metrics import MetricsRegistry

LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

_LEVEL_INDEX = {name: i for i, name in enumerate(LEVELS)}

DEFAULT_STREAM_CAP = 10_000


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One structured log event on the simulated clock."""

    timestamp_ns: int
    level: str
    group: str
    stream: str
    message: str
    attributes: dict[str, Any] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    seq: int = 0                  # plane-wide arrival order (merge key)

    def to_dict(self) -> dict:
        return {
            "timestamp_ns": self.timestamp_ns,
            "level": self.level,
            "group": self.group,
            "stream": self.stream,
            "message": self.message,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogRecord":
        return cls(
            timestamp_ns=int(d["timestamp_ns"]),
            level=d.get("level", "INFO"),
            group=d["group"],
            stream=d["stream"],
            message=d.get("message", ""),
            attributes=dict(d.get("attributes", {})),
            trace_id=d.get("trace_id"),
            span_id=d.get("span_id"),
            seq=int(d.get("seq", 0)),
        )


@dataclass
class LogStream:
    """A bounded, ordered sequence of records from one emitting unit."""

    name: str
    max_records: int = DEFAULT_STREAM_CAP
    records: list[LogRecord] = field(default_factory=list)
    dropped: int = 0

    def append(self, record: LogRecord) -> bool:
        """Keep ``record`` if the stream has room; returns whether kept."""
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return False
        self.records.append(record)
        return True


@dataclass
class LogGroup:
    """A named collection of streams (one service surface)."""

    name: str
    max_records_per_stream: int = DEFAULT_STREAM_CAP
    streams: dict[str, LogStream] = field(default_factory=dict)

    def stream(self, name: str) -> LogStream:
        st = self.streams.get(name)
        if st is None:
            st = LogStream(name=name,
                           max_records=self.max_records_per_stream)
            self.streams[name] = st
        return st


@dataclass(frozen=True)
class MetricFilter:
    """A CloudWatch-style metric filter: pattern → counter.

    Matches a record when the group starts with ``group_prefix``, the
    level equals ``level`` (when set), and every ``(key, value)`` in
    ``where`` equals the record's attribute of that key.  Each match
    increments ``metric_name`` in the plane's registry.
    """

    name: str
    metric_name: str
    group_prefix: str = ""
    level: str | None = None
    where: tuple[tuple[str, Any], ...] = ()

    def matches(self, record: LogRecord) -> bool:
        if not record.group.startswith(self.group_prefix):
            return False
        if self.level is not None and record.level != self.level:
            return False
        attrs = record.attributes
        for k, v in self.where:
            if attrs.get(k) != v:
                return False
        return True


class LogPlane:
    """The process-wide log store: groups, filters, derived metrics."""

    def __init__(self, max_records_per_stream: int = DEFAULT_STREAM_CAP,
                 min_level: str = "DEBUG") -> None:
        if max_records_per_stream <= 0:
            raise ReproError("max_records_per_stream must be positive")
        self.max_records_per_stream = max_records_per_stream
        self.min_level = min_level
        self.groups: dict[str, LogGroup] = {}
        self.filters: list[MetricFilter] = []
        self.metrics = MetricsRegistry()
        self._seq = itertools.count()

    @property
    def min_level(self) -> str:
        """The ingestion threshold; assigning it takes effect at the
        next :meth:`enabled` or :meth:`log` call.  An attached
        :class:`~repro.obs.observer.EndpointObserver` reads the gate
        once per run, at :meth:`~repro.obs.observer.EndpointObserver.attach`,
        so a level assigned mid-run reaches its hooks at the next run."""
        return LEVELS[self._min_index]

    @min_level.setter
    def min_level(self, level: str) -> None:
        index = _LEVEL_INDEX.get(level)
        if index is None:
            raise ReproError(f"unknown log level {level!r}")
        self._min_index = index

    def enabled(self, level: str) -> bool:
        """Whether ``level`` passes the ingestion threshold.

        The standard logger fast path: callers with expensive messages
        check this *before* building them, so a production-leveled
        plane (``min_level="WARNING"``) costs one dict lookup per
        suppressed event.
        """
        idx = _LEVEL_INDEX.get(level)
        if idx is None:
            raise ReproError(f"unknown log level {level!r}")
        return idx >= self._min_index

    # -- structure --------------------------------------------------------

    def group(self, name: str) -> LogGroup:
        g = self.groups.get(name)
        if g is None:
            g = LogGroup(name=name,
                         max_records_per_stream=self.max_records_per_stream)
            self.groups[name] = g
        return g

    def add_filter(self, f: MetricFilter) -> MetricFilter:
        self.filters.append(f)
        return f

    # -- emission ---------------------------------------------------------

    def log(self, group: str, stream: str, message: str, *,
            level: str = "INFO", timestamp_ns: int | None = None,
            trace_id: str | None = None, span_id: str | None = None,
            **attributes: Any) -> LogRecord | None:
        """Emit one record; returns ``None`` if ``level`` is suppressed.

        ``timestamp_ns`` defaults to the active tracer's simulated clock
        (0 untraced — never a wall clock).  ``trace_id``/``span_id``
        default to the tracer's current span: the context-propagation
        enrichment that correlates a log line with the span that was
        open when the code emitted it.  Events below ``min_level`` are
        dropped before enrichment or filter matching — they never
        existed, matching standard logger level semantics (unlike the
        stream cap, which drops *after* filters have counted).
        """
        if not self.enabled(level):
            return None
        # the **attributes kwargs dict is already a fresh per-call copy
        return self.emit(group, stream, message, level, timestamp_ns,
                         attributes, trace_id, span_id)

    def emit(self, group: str, stream: str, message: str, level: str,
             timestamp_ns: int | None = None,
             attributes: dict[str, Any] | None = None,
             trace_id: str | None = None,
             span_id: str | None = None) -> LogRecord:
        """:meth:`log` past the level gate, for a caller that checked
        :meth:`enabled` itself.  The record keeps ``attributes`` as its
        own dict, so pass a fresh one."""
        tracer = telemetry.current_tracer()
        if timestamp_ns is None:
            timestamp_ns = tracer.system.clock.now_ns if tracer else 0
        if trace_id is None and tracer is not None:
            current = tracer.current_span()
            if current is not None:
                trace_id = current.trace_id
                if span_id is None:
                    span_id = current.span_id
        if attributes is None:
            attributes = {}
        record = LogRecord(timestamp_ns=int(timestamp_ns), level=level,
                           group=group, stream=stream, message=message,
                           attributes=attributes, trace_id=trace_id,
                           span_id=span_id, seq=next(self._seq))
        self.group(group).stream(stream).append(record)
        for f in self.filters:
            if f.matches(record):
                self.metrics.counter(f.metric_name).inc()
        return record

    # -- queries ----------------------------------------------------------

    def records(self, group: str | None = None, stream: str | None = None,
                level: str | None = None) -> list[LogRecord]:
        """Retained records, merged across streams in emission order."""
        out: list[LogRecord] = []
        for gname in sorted(self.groups):
            if group is not None and gname != group:
                continue
            g = self.groups[gname]
            for sname in sorted(g.streams):
                if stream is not None and sname != stream:
                    continue
                out.extend(g.streams[sname].records)
        if level is not None:
            out = [r for r in out if r.level == level]
        out.sort(key=lambda r: (r.timestamp_ns, r.seq))
        return out

    def dropped(self) -> int:
        """Total records shed by stream caps, plane-wide."""
        return sum(st.dropped
                   for gname in sorted(self.groups)
                   for st in self.groups[gname].streams.values())

    # -- (de)serialization ------------------------------------------------

    def to_jsonl_lines(self) -> list[str]:
        return [json.dumps(r.to_dict(), sort_keys=True)
                for r in self.records()]

    def write_jsonl(self, path: str) -> int:
        """Write every retained record as JSONL; returns the line count."""
        lines = self.to_jsonl_lines()
        with open(path, "w") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    @staticmethod
    def read_jsonl(path: str) -> list[LogRecord]:
        """Load records back from a JSONL export."""
        records: list[LogRecord] = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(LogRecord.from_dict(json.loads(line)))
        return records

    # -- CloudWatch bridge ------------------------------------------------

    def publish_cloudwatch(self, cloudwatch, dimension: str,
                           namespace: str = "repro/obs/logs",
                           timestamp_h: float = 0.0) -> int:
        """Flush the filter-derived counters as CloudWatch datapoints."""
        return self.metrics.publish_cloudwatch(
            cloudwatch, dimension, namespace=namespace,
            timestamp_h=timestamp_h)
