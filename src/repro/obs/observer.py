"""The endpoint observer: one object wiring all four signal planes.

An :class:`EndpointObserver` plugs into
:class:`~repro.serve.simulator.EndpointSimulation` (its ``observer=``
parameter) and, from the simulator's hook calls, drives

* the **log plane** — a structured record per resolution into
  ``/repro/serve/<endpoint>`` streams, with metric filters deriving
  shed/expired counters;
* the **sampler** — head+tail retention deciding which requests keep
  full traces;
* the **SLO monitor** — good/bad accounting per resolution, burn-rate
  evaluation per tick;
* **span emission** at :meth:`finalize` — one per-request trace (root
  span ``serve.request``, trace id derived from the request id) for
  every *retained* request, one per-batch trace for every retained
  batch, with span links stitching request → batch → the calibration
  measurement whose kernels produced the batch's service profile.

Because emission is deferred to finalize and driven by the sampler, the
trace stays bounded at any request count — and because trace ids are
entity-derived (:meth:`~repro.telemetry.context.IdGenerator
.request_trace_id`), ``repro.obs waterfall <request-id>`` can find a
request's trace without an index.
"""

from __future__ import annotations

from repro.obs.logs import LogPlane, MetricFilter
from repro.obs.sampling import BatchRecord, HeadTailSampler
from repro.obs.slo import SloMonitor
from repro.serve.request import OUTCOME_COMPLETED, Request
from repro.serve.simulator import _ns
from repro.telemetry import api as telemetry
from repro.telemetry.span import SpanLink


class EndpointObserver:
    """Observation hooks for one endpoint simulation run."""

    def __init__(self, *, log_plane: LogPlane | None = None,
                 sampler: HeadTailSampler | None = None,
                 monitor: SloMonitor | None = None) -> None:
        self.log_plane = log_plane if log_plane is not None else LogPlane()
        self.sampler = sampler if sampler is not None else HeadTailSampler()
        self.monitor = monitor
        self._sim = None
        self._tracer = None
        self._group = ""

    # -- simulator hooks --------------------------------------------------

    def attach(self, sim) -> None:
        """Called by the simulation at run start (inside ``serve.run``)."""
        self._sim = sim
        self._tracer = telemetry.current_tracer()
        self._group = f"/repro/serve/{sim.endpoint.name}"
        for f in (MetricFilter(name="shed", metric_name="log.shed",
                               group_prefix=self._group,
                               where=(("outcome", "shed"),)),
                  MetricFilter(name="expired", metric_name="log.expired",
                               group_prefix=self._group,
                               where=(("outcome", "expired"),))):
            self.log_plane.add_filter(f)
        # the level gate, once per run: a suppressed resolution builds
        # no record, and a kept one is not gated again
        self._log_completed = self.log_plane.enabled("INFO")
        self._log_unserved = self.log_plane.enabled("WARNING")

    def on_resolve(self, req: Request, batch_id: int | None = None) -> None:
        """Every request resolution (completed, shed, or expired)."""
        completed = req.outcome == OUTCOME_COMPLETED
        latency = req.finish_ms - req.arrival_ms
        if self._log_completed if completed else self._log_unserved:
            stream = (f"replica-{req.replica_id}"
                      if req.replica_id >= 0 else "router")
            self.log_plane.emit(
                self._group, stream,
                (f"request {req.request_id} {req.outcome} "
                 f"in {latency:.3f}ms"),
                "INFO" if completed else "WARNING", _ns(req.finish_ms),
                {"request_id": req.request_id, "outcome": req.outcome,
                 "latency_ms": round(latency, 6), "attempts": req.attempts,
                 "batch_size": req.batch_size})
        self.sampler.offer(req, batch_id)
        if self.monitor is not None:
            self.monitor.record(completed, latency)

    def on_batch(self, batch_id: int, replica_id: int, size: int,
                 start_ms: float, end_ms: float, *,
                 label: str = "serve.batch", phase: str = "",
                 tokens: int = 0, calibration_key=None) -> None:
        """Every completed batch or decode/prefill iteration (after its
        requests' resolutions)."""
        if self.sampler.references(batch_id):
            self.sampler.offer_batch(BatchRecord(
                batch_id=batch_id, replica_id=replica_id, size=size,
                start_ms=start_ms, end_ms=end_ms, label=label, phase=phase,
                tokens=tokens, calibration_key=calibration_key))

    def on_tick(self, now_ms: float, timestamp_h: float) -> None:
        """Every metrics tick: evaluate the SLO rules, log transitions."""
        if self.monitor is None:
            return
        for t in self.monitor.evaluate(now_ms, timestamp_h):
            self.log_plane.log(
                self._group, "slo-monitor",
                (f"burn-rate alert {t.rule} {t.action} "
                 f"(long={t.burn_long:.2f}, short={t.burn_short:.2f})"),
                level="ERROR" if t.action == "fire" else "INFO",
                timestamp_ns=_ns(now_ms), rule=t.rule, action=t.action)

    # -- deferred span emission -------------------------------------------

    def finalize(self) -> None:
        """Emit spans for everything the sampler retained.

        Batches first (batch-id order), then requests (request-id
        order), so the export is deterministic and every request link
        has its target already in the trace.
        """
        tracer = self._tracer
        if tracer is None:
            return
        backend = self._sim.backend if self._sim is not None else None
        batch_spans: dict[int, object] = {}
        for b in self.sampler.retained_batches():
            attributes = {"batch_id": b.batch_id,
                          "replica": b.replica_id,
                          "batch_size": b.size}
            if b.phase:
                attributes["phase"] = b.phase
                attributes["tokens"] = b.tokens
            span = tracer.record(
                b.label, "stage", _ns(b.start_ms), _ns(b.end_ms),
                attributes=attributes,
                trace_id=tracer.ids.batch_trace_id(b.batch_id))
            cal_key = (b.calibration_key
                       if b.calibration_key is not None else b.size)
            cal = (backend.calibration_context(cal_key)
                   if hasattr(backend, "calibration_context") else None)
            if cal is not None:
                span.add_link(SpanLink(trace_id=cal.trace_id,
                                       span_id=cal.span_id,
                                       kind="calibrated_as"))
            batch_spans[b.batch_id] = span
        for r in self.sampler.retained_requests():
            attributes = {"request_id": r.request_id,
                          "outcome": r.outcome,
                          "attempts": r.attempts,
                          "replica": r.replica_id,
                          "batch_size": r.batch_size,
                          "sampled_as": r.reason}
            if r.first_token_ms is not None:
                attributes["ttft_ms"] = round(
                    r.first_token_ms - r.arrival_ms, 6)
                attributes["tokens"] = r.tokens
            span = tracer.record(
                "serve.request", "request",
                _ns(r.arrival_ms), _ns(r.resolved_ms),
                attributes=attributes,
                trace_id=tracer.ids.request_trace_id(r.request_id))
            if r.outcome != OUTCOME_COMPLETED:
                span.status = "error"
            target = batch_spans.get(r.batch_id)
            if target is not None:
                span.add_link(target, kind="served_in")
