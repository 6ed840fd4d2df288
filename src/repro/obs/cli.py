"""``python -m repro.obs`` — run, render, and interrogate observed runs.

Subcommands:

* ``run [--out DIR]`` — run the seeded overload scenario; print the SLO
  report, burn-rate alert timeline, and sampling summary; optionally
  write the artifact set (trace/logs JSONL, SLO/report JSON);
* ``waterfall REQUEST_ID [--trace FILE]`` — render one request's
  request→batch→task→kernel causal tree, from an exported trace or (by
  default) from a fresh in-memory scenario run;
* ``logs FILE [--group G] [--stream S] [--level L]`` — render a log
  JSONL export;
* ``burnrate FILE`` — render the alert timeline from an SLO JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.logs import LogPlane
from repro.obs.scenario import (
    run_llm_scenario,
    run_overload_scenario,
    write_artifacts,
)
from repro.telemetry import read_jsonl
from repro.telemetry.waterfall import render_request_waterfall


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Correlated observability over simulated serving "
                    "runs: logs, exemplars, waterfalls, burn rates.")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a seeded observed scenario")
    runp.add_argument("--scenario", choices=("overload", "llm"),
                      default="overload",
                      help="overload: dynamic batching under a burst; "
                           "llm: continuous batching with TTFT/tok-s")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None,
                      help="directory for the artifact set")

    wf = sub.add_parser("waterfall",
                        help="render one request's causal tree")
    wf.add_argument("request_id", type=int)
    wf.add_argument("--trace", default=None,
                    help="trace JSONL to read (default: run the seeded "
                         "scenario in memory)")
    wf.add_argument("--scenario", choices=("overload", "llm"),
                    default="overload")
    wf.add_argument("--seed", type=int, default=None)

    lg = sub.add_parser("logs", help="render a log JSONL export")
    lg.add_argument("file")
    lg.add_argument("--group", default=None)
    lg.add_argument("--stream", default=None)
    lg.add_argument("--level", default=None)

    br = sub.add_parser("burnrate",
                        help="render the alert timeline of an SLO JSON")
    br.add_argument("file")
    return p


def _run_scenario(name: str, seed: int | None):
    if name == "llm":
        return run_llm_scenario(**({} if seed is None
                                   else {"seed": seed}))
    return run_overload_scenario(**({} if seed is None
                                    else {"seed": seed}))


def _cmd_run(args: argparse.Namespace) -> int:
    result = _run_scenario(args.scenario, args.seed)
    print(result.report.render())
    print()
    monitor = result.monitor
    print(f"slo {monitor.objective.name}: target "
          f"{monitor.objective.target:g}, {monitor.good} good / "
          f"{monitor.bad} bad, budget spent "
          f"{monitor.budget_spent:.2f}x")
    for t in monitor.alerts:
        print(f"  {t.time_ms:8.1f}ms  {t.rule:>4s} {t.action:<5s} "
              f"(long={t.burn_long:.2f}, short={t.burn_short:.2f})")
    sampler = result.observer.sampler
    retained = sampler.retained_requests()
    print(f"sampled {len(retained)} of {sampler.seen} requests "
          f"({len(sampler.retained_batches())} batches retained, "
          f"{result.observer.log_plane.dropped()} log records dropped)")
    if args.out is not None:
        paths = write_artifacts(result, args.out)
        for kind in sorted(paths):
            print(f"wrote {kind}: {paths[kind]}")
    return 0


def _cmd_waterfall(args: argparse.Namespace) -> int:
    if args.trace is not None:
        spans, _ = read_jsonl(args.trace)
    else:
        spans = _run_scenario(args.scenario, args.seed).spans
    print(render_request_waterfall(spans, args.request_id))
    return 0


def _cmd_logs(args: argparse.Namespace) -> int:
    records = LogPlane.read_jsonl(args.file)
    shown = 0
    for r in records:
        if args.group is not None and r.group != args.group:
            continue
        if args.stream is not None and r.stream != args.stream:
            continue
        if args.level is not None and r.level != args.level:
            continue
        ids = f"  [{r.trace_id}/{r.span_id}]" if r.trace_id else ""
        print(f"{r.timestamp_ns / 1e6:10.3f}ms  {r.level:<7s} "
              f"{r.group} {r.stream}  {r.message}{ids}")
        shown += 1
    print(f"({shown} of {len(records)} records)")
    return 0


def _cmd_burnrate(args: argparse.Namespace) -> int:
    with open(args.file) as f:
        doc = json.load(f)
    obj = doc.get("objective", {})
    print(f"objective {obj.get('name')}: target {obj.get('target')}, "
          f"{doc.get('good')} good / {doc.get('bad')} bad, "
          f"budget spent {doc.get('budget_spent')}x")
    for rule in doc.get("rules", []):
        state = "ACTIVE" if rule.get("active") else "ok"
        print(f"  rule {rule['name']}: burn>{rule['burn_threshold']:g} "
              f"over {rule['short_window_ms']:g}/"
              f"{rule['long_window_ms']:g}ms  [{state}]")
    alerts = doc.get("alerts", [])
    if not alerts:
        print("no alert transitions")
    for t in alerts:
        print(f"  {t['time_ms']:8.1f}ms  {t['rule']:>4s} "
              f"{t['action']:<5s} (long={t['burn_long']:.2f}, "
              f"short={t['burn_short']:.2f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "waterfall":
        return _cmd_waterfall(args)
    if args.command == "logs":
        return _cmd_logs(args)
    return _cmd_burnrate(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
