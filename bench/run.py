"""The repository's host-cost benchmark.

Usage, from the repository root::

    python bench/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace [0|1]] [--out DIR]

For each workload it starts ``K`` fresh processes one after another.
Each sets the workload up and runs timed reps for its share of
``--seconds``.  Untraced runs report the end-to-end metrics; ``--trace``
runs report the per-layer metrics instead.  Every metric is printed by
name with its unit and sample count, ``BENCH_<workload>.json`` (traced:
``BENCH_<workload>_trace.json``) is written to ``--out``, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every op passed its checks, 1 when one failed,
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402

#: fresh processes per workload and run
K = 3
#: kill a process that has not finished by then; a run must end in 180 s
CHILD_TIMEOUT_S = 55.0

#: name -> (default seed, unit of work); the held-out seeds for claims
#: (rag-serve 1, llm-serve 4, lab5-kernels 1) are passed with --seed
WORKLOADS = {
    "rag-serve": (0, "simulated requests"),
    "llm-serve": (3, "simulated requests"),
    "lab5-kernels": (0, "simulated GPU threads"),
    "analysis-sweep": (0, "source lines"),
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # one process, one thread: no BLAS pool competing with the loop
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, seed, budget, trace, index, out: Path) -> dict:
    result = out / f"child_{workload}_{index}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(int(trace)),
           "--index", str(index), "--result", str(result),
           "--spans", str(out / f"trace_{workload}.jsonl")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                              env=_child_env(), cwd=ROOT,
                              stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process {index} timed out") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} process {index} exited with "
                         f"code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def run_workload(workload, seed, seconds, trace, out: Path) -> dict:
    if trace:
        (out / f"trace_{workload}.jsonl").unlink(missing_ok=True)
    started_at = time.time()
    children = [run_child(workload, seed, seconds / K, trace, k, out)
                for k in range(K)]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests = [c["output_digest"] for c in children]
    if len(set(digests)) > 1:
        print(f"{workload}: output digests differ between processes: "
              f"{digests}", file=sys.stderr)
        failed += sum(d != digests[0] for d in digests)
    values = (metrics.per_layer(children) if trace
              else metrics.end_to_end(children))
    bench = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "processes": K, "started_at": started_at,
        "work_unit": WORKLOADS[workload][1],
        "attempted": attempted, "failed": failed,
        "output_digest": digests[0],
        "metrics": {name: {"value": v, "unit": u, "n": n}
                    for name, (v, u, n) in values.items()},
        "samples": {
            key: [r[key] for c in children for r in c["reps"]
                  if not r["traced"]]
            for key in ("seconds", "ref_seconds", "work")},
        "process_samples": {
            key: [c[key] for c in children]
            for key in ("setup_s", "setup_ref_s", "peak_rss_mb")},
        "sim_kernel_us": children[0]["sim"],
    }
    if not trace:
        wall = metrics.end_to_end(children, clock="seconds")
        bench["wall_clock"] = {n: wall[n][0]
                               for n in ("setup_s", "work_per_s")}
    else:
        bench["layers"] = metrics.layer_table(children)
        bench["missing_targets"] = children[0]["missing"]
        bench["spans_dropped"] = sum(c["spans_dropped"] for c in children)
    name = f"BENCH_{workload}{'_trace' if trace else ''}.json"
    (out / name).write_text(json.dumps(bench, indent=2, sort_keys=True)
                            + "\n")
    return bench


def report(bench) -> None:
    w = bench["workload"]
    print(f"== {w}  seed={bench['seed']}  processes={bench['processes']}"
          f"  {'traced' if bench['trace'] else 'untraced'}"
          f"  output_digest={bench['output_digest']}")
    for name, m in bench["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:9s} n={m['n']}")
    if not bench["trace"]:
        print(f"  {'(work unit)':34s} {bench['work_unit']}")
        for name, value in bench["wall_clock"].items():
            print(f"  {name + ' (wall clock)':34s} {value:>16.6g}")
    print(f"  {'error_rate':34s} {bench['failed']} / {bench['attempted']}"
          " ops")
    if bench["trace"]:
        print(f"  {'layer':24s} {'calls':>10s} {'incl s':>10s} "
              f"{'self s':>10s}")
        for name, row in bench["layers"].items():
            print(f"  {name:24s} {row['calls']:>10.0f} "
                  f"{row['incl_s']:>10.4f} {row['self_s']:>10.4f}")
        for target in bench["missing_targets"]:
            print(f"  missing target: {target}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed seconds per workload, shared by its "
                         "processes (default: 20)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                    help="directory for BENCH_*.json and traces "
                         "(default: .bench_out)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for w in names:
            seed = args.seed if args.seed is not None else WORKLOADS[w][0]
            results.append(run_workload(w, seed, args.seconds, args.trace,
                                        args.out))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(b["attempted"] for b in results)
    failed = sum(b["failed"] for b in results)
    prefix = len(results) > 1
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {(f"{b['workload']}/{n}" if prefix else n):
                        {"value": m["value"], "unit": m["unit"]}
                        for b in results for n, m in b["metrics"].items()}}
    print(f"results in {args.out}")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
