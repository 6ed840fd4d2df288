"""Outside-in layer tracing: timing wrappers installed from the benchmark.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` replaces
public callables (class methods and module attributes) with wrappers
that time each call, and restores the originals on :meth:`uninstall`.
A target that no longer exists is reported as *missing* instead of
failing the run, so refactors that rename internals do not break the
benchmark.

Every call becomes a span ``{name, start_ns, end_ns, parent, workload,
rep}``.  Self time is a span's duration minus the time its child spans
cover.  Per-layer counts, inclusive and self time are aggregated on
every call; the span records themselves are kept in memory up to a cap
per (rep, name) and written only by :meth:`dump`, at process exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

#: (span name, module, attribute path) for every timed callable.  A
#: span name shared by several targets adds them up into one layer.
TARGETS = (
    ("rag.make_corpus", "repro.rag", "make_corpus"),
    ("rag.pipeline_build", "repro.rag", "RagPipeline.__init__"),
    ("rag.backend", "repro.serve.backend", "RagModelBackend.serve_batch"),
    ("rag.measure", "repro.serve.backend", "RagModelBackend._measure"),
    ("serve.run", "repro.serve.simulator", "EndpointSimulation.run"),
    ("serve.run", "repro.serve.continuous",
     "ContinuousBatchingSimulation.run"),
    ("serve.autoscaler", "repro.serve.autoscaler", "Autoscaler.evaluate"),
    ("llm.prefill", "repro.llm.backend", "LlmBackend.prefill_ms"),
    ("llm.decode", "repro.llm.backend", "LlmBackend.decode_ms"),
    ("llm.lengths", "repro.llm.backend", "LlmBackend.sample_lengths"),
    ("llm.kv", "repro.llm.kvcache", "PagedKvCache.allocate"),
    ("llm.kv", "repro.llm.kvcache", "PagedKvCache.grow"),
    ("llm.kv", "repro.llm.kvcache", "PagedKvCache.pages_to_grow"),
    ("llm.kv", "repro.llm.kvcache", "PagedKvCache.release"),
    ("gpu.pool", "repro.gpu.memory", "MemoryPool.allocate"),
    ("gpu.pool", "repro.gpu.memory", "MemoryPool.free"),
    ("gpu.launch", "repro.gpu.device", "VirtualGpu.launch"),
    ("gpu.launch", "repro.gpu.device", "VirtualGpu.launch_auto"),
    ("telemetry.observe", "repro.telemetry.metrics", "Histogram.observe"),
    ("obs.hook", "repro.obs.observer", "EndpointObserver.on_resolve"),
    ("obs.hook", "repro.obs.observer", "EndpointObserver.on_batch"),
    ("obs.hook", "repro.obs.observer", "EndpointObserver.on_tick"),
    ("obs.finalize", "repro.obs.observer", "EndpointObserver.finalize"),
    ("cloud", "repro.cloud.cloudwatch", "CloudWatch.put_metric"),
    ("cloud", "repro.cloud.session", "CloudSession.advance_hours"),
    ("analysis.driver", "repro.analysis.driver", "run_paths"),
    ("analysis.parse", "repro.analysis.context", "AnalysisContext.from_file"),
    ("analysis.kernel", "repro.sanitize.astlint", "lint_context"),
    ("analysis.perflint", "repro.perflint", "analyze_context"),
    ("analysis.mem", "repro.memcheck", "analyze_context"),
    ("analysis.det", "repro.analysis.detpass", "det_pass"),
    ("analysis.absint", "repro.analysis.absint", "absint_context"),
    ("analysis.callgraph", "repro.analysis.callgraph", "build_call_graph"),
    ("analysis.summaries", "repro.analysis.summaries", "build_summaries"),
    ("analysis.interproc", "repro.analysis.interproc",
     "interprocedural_pass"),
)

#: span records kept per (rep, name); calls beyond it are aggregated
#: but not stored, which bounds memory on the hot KV and pool paths
SPANS_KEPT_PER_NAME = 200


class _Frame:
    __slots__ = ("span_id", "child_ns")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_ns = 0


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.missing: list[str] = []
        self.spans: list[dict] = []
        self.dropped = 0
        self.phase = "setup"
        self._installed: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._kept: dict[str, int] = defaultdict(int)
        self._main = threading.get_ident()
        self.aggregates: dict = {}
        self.new_phase("setup")

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        if self._installed:
            return
        self.missing = []
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                # the raw class attribute, so classmethods stay
                # classmethods and inherited methods are found
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            own = not isinstance(owner, type) or attr in owner.__dict__
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, raw, own in reversed(self._installed):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)   # inherited: uncover the base's
        self._installed = []

    # -- recording -------------------------------------------------------

    def new_phase(self, phase) -> None:
        """Start a fresh aggregation window (``"setup"`` or a rep index)."""
        self.phase = phase
        self.aggregates = defaultdict(lambda: [0, 0, 0])
        self._kept = defaultdict(int)

    def _enter(self, name: str) -> tuple[_Frame, int | None, int]:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(next(self._ids))
        self._stack.append(frame)
        self._depth[name] += 1
        return frame, parent, time.perf_counter_ns()

    def _exit(self, name: str, frame: _Frame, parent, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._depth[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1].child_ns += duration
        agg = self.aggregates[name]
        agg[0] += 1
        if self._depth[name] == 0:
            # a re-entrant call (a subclass ``run`` calling its base)
            # counts its inclusive time once, at the outermost span
            agg[1] += duration
        agg[2] += duration - frame.child_ns
        if self._kept[name] < SPANS_KEPT_PER_NAME:
            self._kept[name] += 1
            self.spans.append({
                "name": name, "id": frame.span_id, "parent": parent,
                "start_ns": start, "end_ns": end,
                "workload": self.workload, "rep": self.phase})
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of benchmark code, or one wrapped call, as ``name``."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, *state)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Append every kept span to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def self_check(aggregates: dict, root: str = "bench.rep") -> str | None:
    """The trace's own invariants for one rep; ``None`` when they hold.

    Every self time is non-negative, and the self times of a rep add up
    to the rep's inclusive time within 2%.
    """
    for name, (_, _, self_ns) in aggregates.items():
        if self_ns < 0:
            return f"negative self time for {name}: {self_ns} ns"
    rep_ns = aggregates[root][1]
    total = sum(self_ns for _, _, self_ns in aggregates.values())
    if rep_ns <= 0 or abs(total - rep_ns) > 0.02 * rep_ns:
        return (f"self times sum to {total} ns but the rep took "
                f"{rep_ns} ns")
    return None
