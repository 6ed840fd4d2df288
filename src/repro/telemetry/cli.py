"""``python -m repro.telemetry`` — render an exported trace.

Subcommands over a JSONL export (:func:`repro.telemetry.export.write_jsonl`):

* ``waterfall`` — the indented gantt view
  (:func:`repro.telemetry.waterfall.render_gantt`): every span as a bar
  on a shared time axis, children nested under parents;
* ``summary`` — per-(name, kind) aggregate table plus the exported
  metrics snapshot;
* ``critical-path`` — the longest dependency chain through the trace.

All output is plain text on stdout; no GUI, no network — the point is
that a trace captured in a test or a lab can be inspected anywhere.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.telemetry.critical_path import critical_path
from repro.telemetry.export import read_jsonl
from repro.telemetry.span import TelemetrySpan
from repro.telemetry.waterfall import render_gantt


def render_summary(spans: list[TelemetrySpan], metrics: dict) -> str:
    """Aggregate per-(name, kind) table plus the metrics snapshot."""
    rows: dict[tuple[str, str], list[float]] = {}
    for s in spans:
        if not s.ended:
            continue
        row = rows.setdefault((s.name, s.kind), [0, 0.0])
        row[0] += 1
        row[1] += s.duration_ns
    lines = [f"{'Name':<36} {'Kind':<11} {'Count':>6} {'Total ms':>10}",
             "-" * 66]
    for (name, kind), (count, total) in sorted(
            rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name[:36]:<36} {kind:<11} {int(count):>6} "
                     f"{total / 1e6:>10.3f}")
    if metrics:
        lines += ["", f"{'Metric':<44} {'Stat':<6} {'Value':>12}",
                  "-" * 64]
        for name in sorted(metrics):
            for stat, value in metrics[name].items():
                lines.append(f"{name[:44]:<44} {stat:<6} {value:>12.3f}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render an exported telemetry trace (JSONL format).")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_ in (("waterfall", "indented gantt view"),
                       ("summary", "aggregate span + metrics tables"),
                       ("critical-path", "longest dependency chain")):
        p = sub.add_parser(cmd, help=help_)
        p.add_argument("trace_file", help="JSONL export path")
        p.add_argument("--trace", default=None,
                       help="restrict to one trace id")
    args = parser.parse_args(argv)

    spans, metrics = read_jsonl(args.trace_file)
    if args.trace is not None:
        spans = [s for s in spans if s.trace_id == args.trace]
    if args.command == "waterfall":
        print(render_gantt(spans))
    elif args.command == "summary":
        print(render_summary(spans, metrics))
    else:
        roots = [s for s in spans if s.is_root and s.kind == "workflow"]
        path = critical_path(spans, within=roots[0] if roots else None)
        print(path.table())
    return 0
