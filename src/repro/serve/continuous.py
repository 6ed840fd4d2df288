"""Iteration-level continuous batching (the vLLM/Orca request plane).

Dynamic batching treats a batch as one opaque service call: the replica
is busy until the *longest* member finishes, and nobody new boards until
then.  For autoregressive decoding that is ruinous — a 4-token reply
waits for a 128-token neighbour, and the replica decodes ever-narrower
batches as members finish.

:class:`ContinuousBatching` is the batch policy that reschedules
**between decode iterations** instead, inside the one event loop of
:class:`~repro.serve.simulator.EndpointSimulation`:

* each replica's unit of work is one iteration: when it ends, sequences
  that produced their last token leave, queued requests board the freed
  slots, and the next iteration is either one prefill pass (for the
  newly admitted) or one decode step (for everyone else);
* admission is **KV-aware and deadline-aware** — a sequence boards only
  when the paged allocator can hold its prompt, and a request whose
  deadline cannot survive even its own prefill is expired at admission
  instead of burning GPU time;
* each replica owns a :class:`~repro.gpu.memory.MemoryPool` sized from
  its instance type, with the weights resident and a
  :class:`~repro.llm.kvcache.PagedKvCache` reserving the remainder.
  When decode cannot grow every sequence by one token, the
  **youngest** sequence is preempted — its pages freed, its request
  requeued for recompute-style resumption — so the oldest work always
  completes;
* before a single event fires, the run pre-flights the worst-case KV
  token budget (``max_batch_size × max_seq_tokens``) through
  :func:`repro.memcheck.llm_token_budget_preflight` and refuses
  over-committed configs with a ``MEM-PEAK-OOM`` finding, unless an
  explicit ``kv_budget_bytes`` sizes the cache.

Routing, admission control, retries, autoscaling ticks, spot
interruptions, billing, request resolution and span recording all stay
in the loop; the report gains tokens/sec, TTFT (exemplar-linked) and
inter-token-latency percentiles, preemption and KV-occupancy stats.
:class:`ContinuousBatchingSimulation` is the loop with this policy
selected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from repro.cloud.pricing import get_instance_type
from repro.errors import ReproError
from repro.gpu.memory import Allocation, MemoryPool
from repro.memcheck.estimate import (
    llm_token_budget_preflight,
    usable_gpu_bytes,
)
from repro.serve.endpoint import Replica
from repro.serve.request import OUTCOME_EXPIRED, OUTCOME_SHED, Request
from repro.serve.simulator import (
    LATENCY_EXEMPLARS,
    LATENCY_RESERVOIR,
    BatchPolicy,
    EndpointSimulation,
    WorkUnit,
)
from repro.telemetry import api as telemetry
from repro.telemetry.metrics import Histogram

DEFAULT_PAGE_TOKENS = 16


@dataclass
class _Seq:
    """One admitted sequence: a request plus its decoding progress
    (``produced == 0`` until its prefill ran)."""

    req: Request
    prompt_tokens: int
    gen_tokens: int
    produced: int = 0


@dataclass
class _ReplicaDecoder:
    """Per-replica device state: the pool, the weights, the KV cache."""

    pool: MemoryPool
    weights: Allocation
    kv: object                    # PagedKvCache (lazy-imported)
    running: list[_Seq] = dc_field(default_factory=list)
    #: an iteration is scheduled or running on the replica
    scheduled: bool = False


def _histogram(name: str, max_exemplars: int = 0) -> Histogram:
    return Histogram(name, max_samples=LATENCY_RESERVOIR,
                     max_exemplars=max_exemplars)


class ContinuousBatching(BatchPolicy):
    """Iteration-level scheduling of an
    :class:`~repro.llm.backend.LlmBackend` over a paged KV cache."""

    def __init__(self, sim: EndpointSimulation,
                 kv_budget_bytes: int | None,
                 kv_page_tokens: int) -> None:
        for attr in ("spec", "prefill_ms", "decode_ms", "sample_lengths"):
            if not hasattr(sim.backend, attr):
                raise ReproError(
                    "continuous batching needs an iteration-level backend "
                    f"(LlmBackend-like); {sim.backend!r} has no {attr!r}")
        if kv_page_tokens < 1:
            raise ReproError("kv_page_tokens must be >= 1")
        if kv_budget_bytes is not None and kv_budget_bytes < 0:
            raise ReproError(
                f"kv_budget_bytes must be >= 0, got {kv_budget_bytes}")
        super().__init__(sim)
        self.backend = sim.backend
        self.kv_budget_bytes = kv_budget_bytes
        self.kv_page_tokens = kv_page_tokens

    def reset(self) -> None:
        if self.kv_budget_bytes is None:
            spec = self.backend.spec
            cfg = self.sim.endpoint.config
            verdict, findings = llm_token_budget_preflight(
                spec.weights_bytes, spec.kv_bytes_per_token,
                cfg.max_batch_size * self.backend.max_seq_tokens,
                cfg.instance_type, page_tokens=self.kv_page_tokens)
            if findings:
                raise ReproError("KV token-budget pre-flight failed "
                                 f"(MEM-PEAK-OOM): {verdict.render()}")
        #: replica id -> device state, for replicas still serving
        self.decoders: dict[int, _ReplicaDecoder] = {}
        #: replica id -> device state torn down at a spot interruption
        self.interrupted: dict[int, _ReplicaDecoder] = {}
        self.preemptions = 0
        self.total_generated = 0
        self.total_prefill = 0
        # only TTFT keeps exemplars: the report links its tail to
        # requests, and reads no ITL or tokens/sec exemplar
        self.ttft_hist = _histogram("serve.ttft_ms", LATENCY_EXEMPLARS)
        self.itl_hist = _histogram("serve.itl_ms")
        self.tps_hist = _histogram("serve.tokens_per_sec")

    # -- per-replica device state -----------------------------------------

    def _decoder(self, replica: Replica) -> _ReplicaDecoder:
        st = self.decoders.get(replica.replica_id)
        if st is not None:
            return st
        # lazy: repro.llm.backend imports repro.serve.backend, so this
        # module must not import repro.llm at import time
        from repro.llm.kvcache import PagedKvCache
        spec = self.backend.spec
        page_bytes = spec.kv_bytes_per_token * self.kv_page_tokens
        if self.kv_budget_bytes is not None:
            capacity = spec.weights_bytes + int(self.kv_budget_bytes)
        else:
            itype = get_instance_type(self.sim.endpoint.config.instance_type)
            capacity = usable_gpu_bytes(itype)
        pool = MemoryPool(capacity, reserve_fraction=0.0,
                          stats_page_bytes=page_bytes)
        weights = pool.allocate(spec.weights_bytes, tag="weights")
        kv = PagedKvCache(pool, spec.kv_bytes_per_token,
                          page_tokens=self.kv_page_tokens)
        st = _ReplicaDecoder(pool=pool, weights=weights, kv=kv)
        self.decoders[replica.replica_id] = st
        return st

    # -- the policy -------------------------------------------------------

    def pump(self, replica: Replica) -> None:
        """Schedule an iteration now unless one is already scheduled —
        there is no batch window: the next iteration is always the next
        scheduling opportunity."""
        st = self._decoder(replica)
        if not st.scheduled:
            st.scheduled = True
            sim = self.sim
            sim._push(sim.now_ms, "done",
                      (replica, replica.service_epoch, None))

    def start(self, replica: Replica) -> WorkUnit | None:
        st = self.decoders[replica.replica_id]
        self._admit(replica, st)
        if not st.running:
            st.scheduled = False
            return None
        new = [s for s in st.running if not s.produced]
        if new:
            return self._prefill(st, new)
        return self._decode(replica, st)

    def _admit(self, replica: Replica, st: _ReplicaDecoder) -> None:
        """Board queued requests into free slots, FIFO, KV- and
        deadline-aware.  Head-of-line blocking on KV pressure is
        deliberate: skipping ahead would starve long prompts forever."""
        sim = self.sim
        now = sim.now_ms
        max_batch = sim.endpoint.config.max_batch_size
        backend = self.backend
        while replica.queue and len(st.running) < max_batch:
            req = replica.queue[0]
            if req.expired(now):
                replica.queue.popleft()
                sim._resolve_unserved(req, OUTCOME_EXPIRED)
                continue
            prompt, gen = backend.sample_lengths(req.query)
            pages_lifetime = -(-(prompt + gen) // self.kv_page_tokens)
            if pages_lifetime > st.kv.capacity_pages:
                # can never fit, even on an empty cache: fail fast
                replica.queue.popleft()
                sim._resolve_unserved(req, OUTCOME_SHED)
                continue
            if req.deadline_ms is not None and \
                    now + backend.prefill_ms([prompt]) > req.deadline_ms:
                # deadline-aware admission: it cannot even prefill in
                # time, so expire it now instead of burning GPU on it
                replica.queue.popleft()
                sim._resolve_unserved(req, OUTCOME_EXPIRED)
                continue
            if not st.kv.allocate(req.request_id, prompt):
                break               # wait for pages to free up
            replica.queue.popleft()
            st.running.append(_Seq(req=req, prompt_tokens=prompt,
                                   gen_tokens=gen))

    def _prefill(self, st: _ReplicaDecoder, new: list[_Seq]) -> WorkUnit:
        """One prefill pass over the newly admitted prompts; each yields
        its first token (TTFT) at the end of the pass."""
        backend = self.backend
        prompts = [s.prompt_tokens for s in new]
        end = self.sim.now_ms + backend.prefill_ms(prompts)
        backend.prefill_tokens += sum(prompts)
        backend.generated_tokens += len(new)
        self.total_prefill += sum(prompts)
        for s in new:
            s.produced = 1
            req = s.req
            if req.first_token_ms is None:
                req.first_token_ms = end
                self.ttft_hist.observe(end - req.arrival_ms,
                                       exemplar=f"{req.request_id:012d}")
        return self._unit(st, end, len(new), "prefill", sum(prompts),
                          backend.prefill_key(prompts))

    def _decode(self, replica: Replica, st: _ReplicaDecoder) -> WorkUnit:
        """One decode step for every running sequence, preempting the
        youngest first when the KV cache cannot grow everyone.  A lone
        sequence always fits: admission checked its lifetime pages."""
        kv = st.kv
        running = st.running
        ids = [s.req.request_id for s in running]
        # a missed grow changes nothing, and each victim takes its own
        # share of the missing pages with it
        while not kv.grow(ids):
            if len(running) == 1:
                raise ReproError(
                    "KV grow failed after capacity check — "
                    "page accounting is inconsistent")
            # recompute-style preemption: pages freed, request requeued
            # at the head; prefill re-runs on re-admission
            victim = running.pop()         # youngest boards last
            kv.release(ids.pop())
            replica.queue.appendleft(victim.req)
            self.preemptions += 1
            telemetry.count("serve.preempted")
        ctxs = [s.prompt_tokens + s.produced for s in running]
        dt = self.backend.decode_ms(ctxs)
        for s in running:
            s.produced += 1
        size = len(running)
        self.itl_hist.observe_many(itertools.repeat(dt, size))
        self.backend.generated_tokens += size
        return self._unit(st, self.sim.now_ms + dt, size, "decode", size,
                          self.backend.decode_key(ctxs))

    @staticmethod
    def _unit(st: _ReplicaDecoder, end: float, size: int, phase: str,
              tokens: int, calibration_key) -> WorkUnit:
        # the in-flight mirror is the whole running set, so routing
        # (least-outstanding), drain and spot-interrupt displacement see
        # iteration-plane work
        return WorkUnit(end_ms=end,
                        in_flight=[(s.req, end) for s in st.running],
                        size=size, label=f"serve.{phase}_iter",
                        phase=phase, tokens=tokens,
                        calibration_key=calibration_key)

    def finish(self, replica: Replica,
               unit: WorkUnit) -> list[tuple[Request, float]]:
        """Sequences whose last token landed in ``unit`` leave *now* —
        the continuous-batching win — not when the whole batch drains."""
        st = self.decoders[replica.replica_id]
        done = []
        kept = []
        for s in st.running:
            (kept if s.produced < s.gen_tokens else done).append(s)
        if not done:
            return []
        st.running = kept
        now = self.sim.now_ms
        for s in done:
            req = s.req
            st.kv.release(req.request_id)
            req.tokens_generated = s.produced
            self.total_generated += s.gen_tokens
            window_s = (now - req.first_token_ms) / 1e3
            if s.produced >= 2 and window_s > 0:
                self.tps_hist.observe((s.produced - 1) / window_s)
        return [(s.req, now) for s in done]

    # -- teardown and the audit -------------------------------------------

    def on_interrupt(self, replica: Replica) -> None:
        """Drop the replica's device state: its running requests are
        displaced through the in-flight mirror and recompute from scratch
        on a survivor."""
        st = self.decoders.pop(replica.replica_id, None)
        if st is None:
            return
        for s in st.running:
            st.kv.release(s.req.request_id)
        st.running = []
        st.kv.close()
        st.pool.free(st.weights)
        self.interrupted[replica.replica_id] = st

    def teardown(self) -> None:
        for st in self.decoders.values():
            st.kv.close()
            st.pool.free(st.weights)

    def check_invariants(self) -> None:
        """Every KV ledger and device pool consistent and drained to
        zero: no completed, preempted or displaced sequence leaked
        pages, and each cache's running totals match a recount."""
        for rid, st in sorted({**self.decoders, **self.interrupted}.items()):
            st.kv.check_invariants()
            st.pool.check_invariants()
            if st.kv.live_seqs or st.kv.live_pages:
                raise ReproError(
                    f"KV ledger leak on replica {rid}: "
                    f"{st.kv.live_seqs} sequences / "
                    f"{st.kv.live_pages} pages still held at teardown")
            report = st.pool.leak_report()
            if not report.ok:
                raise ReproError(
                    f"device pool leak on replica {rid}:\n"
                    f"{report.render()}")

    def report_fields(self, effective_ms: float) -> dict:
        kv_peak = 0
        kv_util = 0.0
        # a spot-reclaimed replica's high-water mark counts too
        for st in (*self.decoders.values(), *self.interrupted.values()):
            if st.kv.peak_pages > kv_peak:
                kv_peak = st.kv.peak_pages
                kv_util = st.kv.peak_page_utilization
        return dict(
            total_tokens=self.total_generated,
            prefill_tokens=self.total_prefill,
            tokens_per_sec=(self.total_generated / (effective_ms / 1e3)
                            if effective_ms > 0 else 0.0),
            ttft_mean_ms=self.ttft_hist.mean,
            ttft_p50_ms=self.ttft_hist.percentile(50),
            ttft_p95_ms=self.ttft_hist.percentile(95),
            ttft_p99_ms=self.ttft_hist.percentile(99),
            itl_p50_ms=self.itl_hist.percentile(50),
            itl_p99_ms=self.itl_hist.percentile(99),
            tokens_per_sec_p50=self.tps_hist.percentile(50),
            preemptions=self.preemptions,
            kv_peak_pages=kv_peak,
            kv_page_utilization=kv_util,
            ttft_exemplars=tuple(self.ttft_hist.top_exemplars()),
        )


class ContinuousBatchingSimulation(EndpointSimulation):
    """:class:`~repro.serve.simulator.EndpointSimulation` with the
    :class:`ContinuousBatching` policy selected."""

    def __init__(self, endpoint, backend, *,
                 kv_budget_bytes: int | None = None,
                 kv_page_tokens: int = DEFAULT_PAGE_TOKENS,
                 **sim_kwargs) -> None:
        super().__init__(endpoint, backend, **sim_kwargs)
        self.policy = ContinuousBatching(self, kv_budget_bytes,
                                         kv_page_tokens)
