"""One benchmark process: set up one workload, then run timed reps.

Started by ``run.py``, never by hand.  Set-up runs from the moment the
parent spawned this process (imports included) to the start of the
first timed rep.  Reps continue until this process's share of the run's
time budget is spent, and at least ``MIN_REPS`` run.  ``gc.collect()``
precedes every rep.  A rep's time is the sum of its ops' times.

Every process is pinned to one CPU.  Untraced processes also time the
speed probe before set-up, after it, and between ops, to express set-up
and op times in reference seconds (see ``metrics.py``); probe time is
never part of a measured time.

With ``--trace 1`` the layer wrappers are installed for set-up and for
every other rep; the reps in between run unwrapped, so the same process
measures the tracing overhead.  Spans are written once, at exit.

The result is one JSON object written to ``--result``.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

import metrics      # bench/ is this script's directory
import tracing

#: reps a process runs even when they overrun its share of the budget
MIN_REPS = 2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent at spawn")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    if hasattr(os, "sched_setaffinity"):
        # one CPU: a barrier kernel's OS threads then hand the GIL over on
        # the core the speed probe runs on, so the probe tracks them too
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = None if args.trace else metrics.speed_probe
    probes = [probe()] if probe else []
    # imported here, not at the top, so the first probe runs before the
    # program's imports that set-up time includes
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops(probe=probe)
    tracer = tracing.LayerTracer(args.workload) if args.trace else None
    spans_size = (os.path.getsize(args.spans)
                  if tracer and os.path.exists(args.spans) else 0)
    if tracer:
        tracer.install()
        workload = cls(args.seed, span=tracer.span)
    else:
        workload = cls(args.seed)
    if probe:
        probes.append(probe())
    setup_s = time.monotonic() - args.spawned - sum(probes)
    setup_ref_s = (setup_s * metrics.PROBE_NOMINAL_S
                   / (sum(probes) / len(probes)) if probes else setup_s)
    setup_layers = dict(tracer.aggregates) if tracer else {}

    reps, trace_errors = [], []
    started = time.monotonic()
    while True:
        index = len(reps)
        # traced children alternate which of each pair is wrapped, so
        # neither side always gets the warmer process
        traced = bool(tracer) and (index + args.index) % 2 == 1
        if tracer:
            if traced:
                tracer.install()
                tracer.new_phase(index)
                workload.span = tracer.span
            else:
                tracer.uninstall()
                workload.span = workloads.no_span
        gc.collect()
        ops.start_rep()
        if traced:
            with tracer.span("bench.rep"):
                result = workload.rep(ops)
        else:
            result = workload.rep(ops)
        rep = {"seconds": ops.seconds, "ref_seconds": ops.ref_seconds,
               "work": result.work, "counters": result.counters,
               "traced": traced}
        if traced:
            tracer.uninstall()
            rep["layers"] = dict(tracer.aggregates)
            error = tracing.self_check(tracer.aggregates)
            if error:
                trace_errors.append(f"rep {index}: {error}")
        reps.append(rep)
        done = time.monotonic() - started >= args.budget
        # (a traced process: one wrapped and one unwrapped rep)
        if done and len(reps) >= MIN_REPS:
            break

    if tracer:
        if os.path.exists(args.spans) \
                and os.path.getsize(args.spans) != spans_size:
            trace_errors.append("spans were written before exit")
        tracer.dump(args.spans)
        for error in trace_errors:
            print(f"trace self-check failed: {error}", file=sys.stderr)
        ops.failed += len(trace_errors)

    result = {
        "workload": args.workload, "seed": args.seed, "index": args.index,
        "setup_s": setup_s, "setup_ref_s": setup_ref_s,
        # ru_maxrss is KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted, "failed": ops.failed,
        "output_digest": workload.outputs.digest(),
        "sim": getattr(workload, "sim_us", {}),
        "reps": reps,
        "setup_layers": setup_layers,
        "missing": tracer.missing if tracer else [],
        "spans_dropped": tracer.dropped if tracer else 0,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
