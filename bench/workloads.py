"""The four workloads: set-up, one timed rep, and the output checks.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up the ``setup_s`` metric times) and then runs reps.  A rep is a
fixed list of *ops* (a replay, a kernel launch or an analyzer sweep),
each run through :class:`Ops`: an op fails when it raises or when one of
its checks does, and the rep carries on.  The program only ever
receives the generated inputs; every call goes through the public entry
points the repository's own CI benches pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kernels
import repro.rag as rag
from metrics import KERNELS, PROBE_NOMINAL_S
from repro.analysis import driver as analysis_driver
from repro.analysis import summaries as analysis_summaries
from repro.cloud.session import CloudSession
from repro.gpu import make_system
from repro.gpu.system import current_device
from repro.jit import cuda
from repro.llm import LlmBackend
from repro.obs import (EndpointObserver, HeadTailSampler, LogPlane,
                       SloMonitor, SloObjective, default_rules)
from repro.serve import loadgen
from repro.serve.autoscaler import Autoscaler, TargetTrackingPolicy
from repro.serve.backend import RagModelBackend
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.endpoint import Endpoint, EndpointConfig
from repro.serve.simulator import EndpointSimulation
from repro.telemetry import Tracer

CORPUS = Path(__file__).resolve().parent / "corpus" / "analysis"


class CheckFailed(Exception):
    """An output check failed; the op it ran in counts as failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Op accounting and timing for one process.

    ``seconds`` is the host time of the current rep's ops.  With a speed
    ``probe``, the probe runs between ops and ``ref_seconds`` holds the
    same time in reference seconds: each op's time scaled by
    ``PROBE_NOMINAL_S`` over the mean of the probes around it.
    """

    def __init__(self, probe=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.probe = probe
        self.seconds = 0.0
        self.ref_seconds = 0.0
        self._last_probe = 0.0

    def start_rep(self) -> None:
        self.seconds = self.ref_seconds = 0.0
        if self.probe:
            self._last_probe = self.probe()

    def run(self, label: str, fn, *args):
        """Run one op; on an exception count it failed and return None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:   # the run carries on; the failure is reported
            self.failed += 1
            print(f"op failed: {label}", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.seconds += elapsed
            scale = 1.0
            if self.probe:
                after = self.probe()
                scale = PROBE_NOMINAL_S / ((self._last_probe + after) / 2)
                self._last_probe = after
            self.ref_seconds += elapsed * scale


class Outputs:
    """First-rep outputs: later reps must reproduce them byte for byte,
    and their sha256 is the workload's ``output_digest``."""

    def __init__(self) -> None:
        self._first: dict[str, bytes] = {}

    def same(self, key: str, data: bytes) -> None:
        first = self._first.setdefault(key, data)
        check(first == data, f"{key}: output differs from the first rep")

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self._first):
            h.update(key.encode() + b"\0" + self._first[key] + b"\0")
        return h.hexdigest()


@dataclass
class RepResult:
    """Work done in one rep and the program counters it reported."""

    work: float
    counters: dict = field(default_factory=dict)


def no_span(name):
    return contextlib.nullcontext()


def _conserved(report) -> None:
    resolved = report.completed + report.shed + report.expired
    check(resolved == report.submitted,
          f"request conservation: {report.submitted} submitted, "
          f"{resolved} resolved")


def _serve_counters(reports) -> dict:
    batches = sum(r.batches for r in reports)
    return {
        "events": sum(r.submitted + r.retries + r.batches
                      + len(r.replica_timeline) for r in reports),
        "batches": batches,
        "batch_queries": sum(r.avg_batch_size * r.batches for r in reports),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, span=no_span) -> None:
        self.seed = seed
        #: the tracer's block-span factory while a rep is traced
        self.span = span
        self.outputs = Outputs()

    def rep(self, ops: Ops) -> RepResult:
        raise NotImplementedError


class RagServe(Workload):
    """Dynamic batching, 429 retries, autoscaling, billing and the
    observation hooks, over a memoized (near-free) RAG backend."""

    name = "rag-serve"

    def __init__(self, seed: int, span=no_span) -> None:
        super().__init__(seed, span)
        make_system(1, "T4")
        corpus = rag.make_corpus(n_docs=20_000, n_queries=24, seed=seed)
        pipe = rag.RagPipeline(corpus, device="cuda:0", seed=seed)
        self.backend = RagModelBackend(pipe, max_new_tokens=2,
                                       memoize_by_size=True)
        queries = list(corpus.queries)
        with span("rag.warm_calibration"):
            for size in range(1, 9):
                self.backend.serve_batch(queries[:size])
        service1_ms = self.backend.serve_batch(queries[:1]).service_ms
        overload_qps = 3.0 * 1e3 / service1_ms
        self.trace = loadgen.poisson_trace(overload_qps, 300.0, queries,
                                           seed=seed)
        self.burst = loadgen.bursty_trace(
            overload_qps / 4.0, 300.0, queries, burst_start_ms=100.0,
            burst_end_ms=200.0, burst_multiplier=6.0, seed=seed)

    def rep(self, ops: Ops) -> RepResult:
        self.tracer_spans = 0
        batched = ops.run("replay max_batch_size=8", self._steady, 8, None)
        serial = ops.run("replay max_batch_size=1", self._steady, 1, batched)
        burst = ops.run("replay bursty autoscaled", self._bursty)
        reports = [r for r in (batched, serial, burst) if r is not None]
        counters = _serve_counters(reports)
        counters["telemetry_spans"] = self.tracer_spans
        return RepResult(work=sum(r.submitted for r in reports),
                         counters=counters)

    def _endpoint(self, session, max_batch_size, replicas=(1, 1, 1)):
        initial, minimum, maximum = replicas
        return Endpoint(session, EndpointConfig(
            name="bench-ep", instance_type="g5.xlarge",
            initial_replicas=initial, min_replicas=minimum,
            max_replicas=maximum, max_batch_size=max_batch_size,
            batch_timeout_ms=0.05, max_queue_depth=32,
            provision_delay_ms=20.0))

    def _steady(self, max_batch_size, batched):
        ep = self._endpoint(CloudSession(), max_batch_size)
        try:
            report = EndpointSimulation(ep, self.backend,
                                        tick_ms=5.0).run(self.trace)
        finally:
            ep.delete()
        _conserved(report)
        self.outputs.same(f"steady-{max_batch_size}",
                          report.to_json().encode())
        if batched is not None:
            check(batched.achieved_qps >= 2.0 * report.achieved_qps,
                  f"batching gain: {batched.achieved_qps:.1f} qps batched "
                  f"vs {report.achieved_qps:.1f} serial")
        return report

    def _bursty(self):
        session = CloudSession()
        ep = self._endpoint(session, 8, replicas=(1, 1, 3))
        autoscaler = Autoscaler(
            TargetTrackingPolicy(metric="QueueDepthPerReplica", target=3.0,
                                 scale_out_cooldown_ms=15.0,
                                 scale_in_cooldown_ms=60.0,
                                 scale_in_ratio=0.5),
            min_replicas=1, max_replicas=3,
            cloudwatch=session.cloudwatch, dimension=ep.name)
        observer = EndpointObserver(
            log_plane=LogPlane(min_level="WARNING"),
            sampler=HeadTailSampler(),
            monitor=SloMonitor(SloObjective(target=0.95),
                               default_rules(ms_per_hour=50.0)))
        sim = EndpointSimulation(ep, self.backend, autoscaler=autoscaler,
                                 observer=observer, tick_ms=5.0,
                                 settle_ms=150.0)
        try:
            with Tracer(seed=self.seed) as tracer:
                report = sim.run(self.burst)
        finally:
            ep.delete()
        self.tracer_spans = len(tracer.spans)
        _conserved(report)
        self.outputs.same("bursty", report.to_json().encode())
        return report


class LlmServe(Workload):
    """Continuous batching under KV-page pressure: few requests, many
    decode iterations, many preemptions, almost no set-up."""

    name = "llm-serve"
    KV_BUDGET_PAGES = 200
    KV_PAGE_TOKENS = 16
    #: the backend's length-sampling seed is part of the model, not of
    #: the input: the workload seed moves arrivals only.  Lengths drawn
    #: per seed swing preemptions (and host cost) far more than arrivals
    MODEL_SEED = 3

    def __init__(self, seed: int, span=no_span) -> None:
        super().__init__(seed, span)
        prompts = [f"prompt-{i:04d}" for i in range(4_000)]
        self.trace = loadgen.poisson_trace(60.0, 30_000.0, prompts,
                                           seed=seed)

    def rep(self, ops: Ops) -> RepResult:
        result = ops.run("replay continuous", self._replay)
        if result is None:
            return RepResult(work=0)
        report, prompt_tokens, misses = result
        counters = _serve_counters([report])
        counters.update(preemptions=report.preemptions,
                        kv_peak_pages=report.kv_peak_pages,
                        prefill_tokens=report.prefill_tokens,
                        completed_prompt_tokens=prompt_tokens,
                        calibration_misses=misses)
        return RepResult(work=report.submitted, counters=counters)

    def _replay(self):
        backend = LlmBackend(part="T4", seed=self.MODEL_SEED)
        page_bytes = backend.spec.kv_bytes_per_token * self.KV_PAGE_TOKENS
        ep = Endpoint(CloudSession(), EndpointConfig(
            name="llm-bench", instance_type="g4dn.xlarge",
            initial_replicas=1, min_replicas=1, max_replicas=1,
            max_batch_size=32, max_queue_depth=512))
        sim = ContinuousBatchingSimulation(
            ep, backend, kv_budget_bytes=self.KV_BUDGET_PAGES * page_bytes,
            kv_page_tokens=self.KV_PAGE_TOKENS, settle_ms=200.0)
        try:
            report = sim.run(self.trace)
        finally:
            ep.delete()
        _conserved(report)
        self.outputs.same("continuous", report.to_json().encode())
        check(report.kv_peak_pages <= self.KV_BUDGET_PAGES,
              f"KV peak {report.kv_peak_pages} pages over the "
              f"{self.KV_BUDGET_PAGES}-page budget")
        check(report.preemptions > 0,
              "no preemptions: the workload no longer exercises KV pressure")
        if report.completed == report.submitted:
            prompt_tokens = sum(backend.sample_lengths(a.query)[0]
                                for a in self.trace.arrivals)
        else:
            prompt_tokens = 0
        # a fresh backend measures each calibration key once
        misses = len(getattr(backend, "_timings", ()))
        return report, prompt_tokens, misses


class Lab5Kernels(Workload):
    """The per-thread kernel interpreter: elementwise, stencil,
    barrier-threaded reduction and a data-dependent loop."""

    name = "lab5-kernels"
    N = 65_536
    SAXPY_TPB = (32, 100, 256)

    def __init__(self, seed: int, span=no_span) -> None:
        super().__init__(seed, span)
        make_system(1, "T4")
        rng = np.random.default_rng(seed)
        self.a = float(rng.uniform(0.5, 2.0))
        x = rng.random(self.N, dtype=np.float32)
        y = rng.random(self.N, dtype=np.float32)
        img = rng.random((256, 256), dtype=np.float32)
        v = rng.random(4_096, dtype=np.float32)
        start = rng.integers(1, 1_000, size=4_096)
        self.x, self.y = cuda.to_device(x), cuda.to_device(y)
        self.img, self.v = cuda.to_device(img), cuda.to_device(v)
        self.start = cuda.to_device(start)
        self.refs = {"saxpy": kernels.saxpy_ref(self.a, x, y),
                     "blur": kernels.blur_ref(img),
                     "block_sum": kernels.block_sum_ref(v, 64),
                     "collatz": kernels.collatz_ref(start)}
        self.sim_us: dict[str, float] = {}

    def rep(self, ops: Ops) -> RepResult:
        launches = [
            ("saxpy", f"saxpy-{tpb}", -(-self.N // tpb), tpb,
             (self.a, self.x, self.y), self.N, np.float32)
            for tpb in self.SAXPY_TPB]
        launches += [
            ("blur", "blur", (32, 32), (8, 8), (self.img,), (256, 256),
             np.float32),
            ("block_sum", "block_sum", 64, 64, (self.v,), 64, np.float32),
            ("collatz", "collatz", 16, 256, (self.start,), 4_096, np.int64),
        ]
        threads = dict.fromkeys(KERNELS, 0)
        for kernel, label, grid, block, *rest in launches:
            if ops.run(label, self._launch, kernel, label, grid, block,
                       *rest):
                threads[kernel] += int(np.prod(grid)) * int(np.prod(block))
        return RepResult(work=sum(threads.values()), counters={
            f"threads.{k}": n for k, n in threads.items()})

    def _launch(self, kernel, label, grid, block, args, shape, dtype):
        out = cuda.device_array(shape, dtype=dtype)
        with self.span(f"jit.{kernel}"):
            getattr(kernels, kernel)[grid, block](*args, out)
        span = current_device().spans[-1]
        check(span.kind == "kernel", f"{label}: no kernel span recorded")
        self.sim_us[label] = span.duration_ns / 1e3
        got = out.get()
        ref = self.refs[kernel]
        if kernel == "blur":
            got, ref = got[1:-1, 1:-1], ref[1:-1, 1:-1]
        check(np.allclose(got, ref, rtol=1e-5, atol=1e-5),
              f"{label}: output differs from the NumPy reference")
        self.outputs.same(label, np.ascontiguousarray(got).tobytes()
                          + repr(self.sim_us[label]).encode())
        if label == "saxpy-256":
            check(self.sim_us["saxpy-100"] > self.sim_us["saxpy-256"],
                  "simulated saxpy at 100 threads/block is not slower "
                  "than at 256")
        return True


class AnalysisSweep(Workload):
    """All analyzer families plus the interprocedural layer over a
    frozen corpus, so source growth elsewhere never reads as a speed
    change."""

    name = "analysis-sweep"

    def __init__(self, seed: int, span=no_span) -> None:
        super().__init__(seed, span)
        rows = [line.split() for line in
                (CORPUS / "MANIFEST").read_text().splitlines()
                if line and not line.startswith("#")]
        self.files = len(rows)
        self.lines = sum(int(n) for n, _ in rows)
        self._sweep()       # untimed warm-up: imports and lazy tables

    def _sweep(self):
        analysis_summaries.clear_summary_cache()
        return analysis_driver.run_paths(
            [str(CORPUS)], analysis_driver.ALL_ANALYZERS,
            interprocedural=True)

    def rep(self, ops: Ops) -> RepResult:
        run = ops.run("sweep", self._checked_sweep)
        if run is None:
            return RepResult(work=0)
        return RepResult(work=self.lines, counters={
            "files": len(run.contexts), "lines": self.lines,
            "findings": len(run.report.findings)})

    def _checked_sweep(self):
        run = self._sweep()
        check(len(run.contexts) == self.files,
              f"swept {len(run.contexts)} files, MANIFEST lists "
              f"{self.files}")
        rules = {f.rule for f in run.report.findings}
        check("SAN-SYNTAX" not in rules, "a corpus file failed to parse")
        prints = sorted(fp for _, fp in run.annotated())
        self.outputs.same("fingerprints", "\n".join(prints).encode())
        return run


WORKLOADS = {w.name: w for w in (RagServe, LlmServe, Lab5Kernels,
                                 AnalysisSweep)}
