"""Metric definitions and how each is derived from the child results.

End-to-end metrics come from untraced processes.  ``setup_s`` and
``peak_rss_mb`` are medians over processes; ``work_per_s`` is the median
over every rep of every process.

Times in ``setup_s`` and ``work_per_s`` are *reference seconds*: host
seconds scaled by how fast the machine ran at that moment.  Other
tenants of a shared host slow the whole process for seconds to minutes
at a time; :func:`speed_probe`, a fixed pure-Python loop timed next to
each measured interval, slows alike, and dividing by it cancels the
slowdown.  One reference second is the host time in which the probe
takes ``PROBE_NOMINAL_S``.  Plain wall-clock values are kept next to
them in ``BENCH_<workload>.json``.

Per-layer metrics come from traced processes.  Layer cost is reported
as a share (%) of the traced rep's wall time (set-up layers: of the
traced set-up time), next to call counts and program counters, so a
layer a workload never enters reads 0 instead of a time.  Absolute
seconds per layer are kept in the ``BENCH_<workload>_trace.json`` file.
"""

from __future__ import annotations

import statistics
import time

#: the Lab 5 kernels of the ``lab5-kernels`` workload
KERNELS = ("saxpy", "blur", "block_sum", "collatz")

#: (name, unit, better, bound): ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("work_per_s", "1/s", "higher", 0.20),
)

#: the probe's typical host time on a quiet 2-vCPU VM under CPython 3.11;
#: it fixes the size of a reference second, and so only the scale of the
#: reported times, not their comparison between commits
PROBE_NOMINAL_S = 0.020


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python loop (about 20 ms) that
    touches no repository code."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(children, clock="ref_seconds") -> dict:
    """``{name: (value, unit, n)}`` from untraced child results, in
    reference seconds, or in wall seconds with ``clock="seconds"``."""
    setup = "setup_ref_s" if clock == "ref_seconds" else "setup_s"
    rates = [rep["work"] / rep[clock]
             for c in children for rep in c["reps"]]
    return {
        "setup_s": (median([c[setup] for c in children]), "s",
                    len(children)),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in children]),
                        "MiB", len(children)),
        "work_per_s": (median(rates), "1/s", len(rates)),
    }


# -- per-layer metrics -------------------------------------------------------

def _count(layers, *names):
    return sum(layers.get(n, (0, 0, 0))[0] for n in names)


def _incl(layers, *names):
    return sum(layers.get(n, (0, 0, 0))[1] for n in names)


def _self(layers, *names):
    return sum(layers.get(n, (0, 0, 0))[2] for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def _share(rep, ns):
    return 100.0 * _ratio(ns, rep["layers"]["bench.rep"][1])


def _setup_share(child, name):
    return 100.0 * _ratio(_incl(child["setup_layers"], name),
                          child["setup_s"] * 1e9)


def _counter(name):
    return lambda rep: rep["counters"].get(name, 0)


def _calls(*names):
    return lambda rep: _count(rep["layers"], *names)


def _self_pct(*names):
    return lambda rep: _share(rep, _self(rep["layers"], *names))


def _incl_pct(*names):
    return lambda rep: _share(rep, _incl(rep["layers"], *names))


def _events_per_s(rep):
    return _ratio(rep["counters"].get("events", 0),
                  _incl(rep["layers"], "serve.run") / 1e9)


def _threads_per_s(kernel):
    return lambda rep: _ratio(rep["counters"].get(f"threads.{kernel}", 0),
                              _incl(rep["layers"], f"jit.{kernel}") / 1e9)


_ANALYSIS_FAMILIES = ("parse", "kernel", "perflint", "mem", "det", "absint",
                      "callgraph", "summaries", "interproc")

#: metrics of one traced rep: (name, unit, fn(rep) -> value)
REP_LAYER_METRICS = (
    ("rag.backend_calls", "count", _calls("rag.backend")),
    ("rag.backend_self_pct", "%", _self_pct("rag.backend", "rag.measure")),
    ("rag.memo_hit_ratio", "ratio", lambda rep: _ratio(
        _count(rep["layers"], "rag.backend")
        - _count(rep["layers"], "rag.measure"),
        _count(rep["layers"], "rag.backend"))),
    ("serve.replay_pct", "%", _incl_pct("serve.run")),
    ("serve.loop_self_pct", "%", _self_pct("serve.run")),
    ("serve.events", "count", _counter("events")),
    ("serve.events_per_s", "1/s", _events_per_s),
    ("serve.batches", "count", _counter("batches")),
    ("serve.avg_batch_size", "requests", lambda rep: _ratio(
        rep["counters"].get("batch_queries", 0),
        rep["counters"].get("batches", 0))),
    ("serve.autoscaler_calls", "count", _calls("serve.autoscaler")),
    ("serve.autoscaler_self_pct", "%", _self_pct("serve.autoscaler")),
    ("llm.prefill_calls", "count", _calls("llm.prefill")),
    ("llm.decode_calls", "count", _calls("llm.decode")),
    ("llm.backend_self_pct", "%", _self_pct(
        "llm.prefill", "llm.decode", "llm.lengths")),
    ("llm.calibration_misses", "count", _counter("calibration_misses")),
    ("llm.calibration_hit_ratio", "ratio", lambda rep: _ratio(
        _count(rep["layers"], "llm.prefill", "llm.decode")
        - rep["counters"].get("calibration_misses", 0),
        _count(rep["layers"], "llm.prefill", "llm.decode"))),
    ("llm.kv_calls", "count", _calls("llm.kv")),
    ("llm.kv_self_pct", "%", _self_pct("llm.kv")),
    ("llm.preemptions", "count", _counter("preemptions")),
    ("llm.prefill_recompute_ratio", "ratio", lambda rep: _ratio(
        rep["counters"].get("prefill_tokens", 0),
        rep["counters"].get("completed_prompt_tokens", 0))),
    ("llm.kv_peak_pages", "count", _counter("kv_peak_pages")),
    ("gpu.pool_calls", "count", _calls("gpu.pool")),
    ("gpu.pool_self_pct", "%", _self_pct("gpu.pool")),
    ("gpu.launch_calls", "count", _calls("gpu.launch")),
    ("gpu.launch_self_pct", "%", _self_pct("gpu.launch")),
    ("telemetry.observe_calls", "count", _calls("telemetry.observe")),
    ("telemetry.observe_self_pct", "%", _self_pct("telemetry.observe")),
    ("telemetry.spans", "count", _counter("telemetry_spans")),
    ("obs.hook_calls", "count", _calls("obs.hook")),
    ("obs.self_pct", "%", _self_pct("obs.hook", "obs.finalize")),
    ("obs.finalize_pct", "%", _incl_pct("obs.finalize")),
    ("cloud.calls", "count", _calls("cloud")),
    ("cloud.self_pct", "%", _self_pct("cloud")),
    *((metric, unit, fn) for k in KERNELS for metric, unit, fn in (
        (f"jit.{k}.launches", "count", _calls(f"jit.{k}")),
        (f"jit.{k}.threads_per_s", "1/s", _threads_per_s(k)))),
    ("analysis.files", "count", _counter("files")),
    ("analysis.lines", "count", _counter("lines")),
    ("analysis.findings", "count", _counter("findings")),
    *((f"analysis.{f}_pct", "%", _self_pct(f"analysis.{f}"))
      for f in _ANALYSIS_FAMILIES),
    ("analysis.driver_self_pct", "%", _self_pct("analysis.driver")),
)

#: metrics of one traced process's set-up: (name, unit, fn(child))
SETUP_LAYER_METRICS = (
    ("rag.make_corpus_pct", "%",
     lambda c: _setup_share(c, "rag.make_corpus")),
    ("rag.pipeline_build_pct", "%",
     lambda c: _setup_share(c, "rag.pipeline_build")),
    ("rag.warm_calibration_pct", "%",
     lambda c: _setup_share(c, "rag.warm_calibration")),
)


def per_layer(children) -> dict:
    """``{name: (value, unit, n)}`` from traced child results: every
    per-layer metric ``BENCHMARK.json`` lists, in its order."""
    traced = [rep for c in children for rep in c["reps"] if rep["traced"]]
    plain = [rep["seconds"] for c in children for rep in c["reps"]
             if not rep["traced"]]
    out = {}
    for name, unit, fn in SETUP_LAYER_METRICS:
        out[name] = (median([fn(c) for c in children]), unit, len(children))
    for name, unit, fn in REP_LAYER_METRICS:
        out[name] = (median([fn(rep) for rep in traced]), unit, len(traced))
    rep_s = median([rep["seconds"] for rep in traced])
    out["bench.rep_s"] = (rep_s, "s", len(traced))
    out["bench.trace_overhead"] = (_ratio(rep_s, median(plain)), "x",
                                   len(traced) + len(plain))
    return out


def layer_table(children) -> dict:
    """Absolute per-layer medians over traced reps:
    ``{layer: {"calls", "incl_s", "self_s"}}``."""
    traced = [rep for c in children for rep in c["reps"] if rep["traced"]]
    names = sorted({n for rep in traced for n in rep["layers"]})
    return {n: {"calls": median([_count(r["layers"], n) for r in traced]),
                "incl_s": median([_incl(r["layers"], n) / 1e9
                                  for r in traced]),
                "self_s": median([_self(r["layers"], n) / 1e9
                                  for r in traced])}
            for n in names}
