"""The request plane: a discrete-event simulation of one endpoint.

Everything between "a request arrives" and "a response (or 429) leaves"
runs here, on one millisecond event heap:

* **routing** — least-outstanding-requests across ``InService``
  replicas (the ALB algorithm SageMaker endpoints sit behind);
* **admission control** — a bounded per-replica queue; a full fleet
  fast-fails the request (HTTP 429) and the client retries with
  exponential backoff until its budget runs out (then it counts as
  *shed*);
* **batching** — delegated to a :class:`BatchPolicy`, which answers
  three questions: when a replica may start work, what one unit of
  work costs, and which requests finish when it ends.
  :class:`DynamicBatching` (the default) opens a batch window on first
  arrival and serves when either ``max_batch_size`` queries gathered or
  ``batch_timeout_ms`` elapsed; a busy replica batches whatever queued
  while it served.  Service profiles come from the
  :class:`~repro.serve.backend.ModelBackend`, measured on the simulated
  GPU.  :class:`~repro.serve.continuous.ContinuousBatching` schedules
  decode iterations instead;
* **deadlines** — a request whose deadline passes while queued is
  dropped as *expired* at dequeue time;
* **autoscaling ticks** — every ``tick_ms`` the fleet publishes
  CloudWatch metrics, cloud time advances (replicas accrue real
  billing), and the :class:`~repro.serve.autoscaler.Autoscaler` — when
  attached — scales the fleet with graceful drain on the way in;
* **spot interruptions** — injected reclaims terminate a replica
  mid-flight; its queued and in-flight requests re-dispatch to the
  survivors and a replacement launches.  No request is ever lost or
  double-counted; :meth:`EndpointSimulation.check_invariants` asserts
  conservation when the report is built.

The loop is fully deterministic: the heap breaks ties by insertion
order, every random choice upstream (trace, reservoir) is seeded, and
cloud/billing timestamps derive from the event clock.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.serve.autoscaler import Autoscaler, METRIC_NAMESPACE
from repro.serve.backend import ModelBackend
from repro.serve.endpoint import (
    MS_PER_HOUR,
    Endpoint,
    Replica,
    ReplicaState,
)
from repro.serve.loadgen import ArrivalTrace
from repro.serve.report import SloReport
from repro.serve.request import (
    OUTCOME_COMPLETED,
    OUTCOME_EXPIRED,
    OUTCOME_SHED,
    Request,
    RetryPolicy,
)
from repro.telemetry import api as telemetry
from repro.telemetry.metrics import Histogram

LATENCY_RESERVOIR = 8192
LATENCY_EXEMPLARS = 5
#: one simulated millisecond of the event clock in cloud-session hours
HOURS_PER_MS = 1.0 / MS_PER_HOUR


def _ns(ms: float) -> int:
    return int(round(ms * 1e6))


@dataclass
class WorkUnit:
    """One batch (or decode iteration) a policy started on a replica."""

    end_ms: float
    #: what the replica holds while the unit runs: ``(request, finish_ms)``
    in_flight: list[tuple[Request, float]]
    size: int                     # requests the unit serves: its batch size
    label: str = "serve.batch"
    phase: str = ""
    tokens: int = 0
    calibration_key: object = None
    batch_id: int = 0


class BatchPolicy:
    """What one batching discipline decides; the loop does the rest."""

    def __init__(self, sim: "EndpointSimulation") -> None:
        self.sim = sim

    def reset(self) -> None:
        """Clear per-run state; called at the start of every run."""

    def pump(self, replica: Replica) -> None:
        """A request joined ``replica``'s queue: start work now (through
        ``sim._start_work``), schedule it, or wait."""
        raise NotImplementedError

    def start(self, replica: Replica) -> WorkUnit | None:
        """Take work off ``replica``'s queue and price one unit of it;
        ``None`` when there is nothing to run."""
        raise NotImplementedError

    def finish(self, replica: Replica,
               unit: WorkUnit) -> Iterable[tuple[Request, float]]:
        """The ``(request, finish_ms)`` pairs that complete as ``unit``
        ends."""
        raise NotImplementedError

    def on_timeout(self, event) -> None:
        """A ``timeout`` event this policy pushed fired."""
        raise NotImplementedError

    def on_interrupt(self, replica: Replica) -> None:
        """``replica`` is being reclaimed; drop its policy state."""

    def teardown(self) -> None:
        """Release per-run device state once the heap is empty."""

    def check_invariants(self) -> None:
        """Raise :class:`ReproError` if policy state leaked."""

    def report_fields(self, effective_ms: float) -> dict:
        """Extra :class:`SloReport` fields this policy measures."""
        return {}


class DynamicBatching(BatchPolicy):
    """One-shot batches behind a ``batch_timeout_ms`` window: members
    board together and the replica is busy until the whole batch
    returns."""

    def reset(self) -> None:
        #: replica id -> token of its armed batch-window timeout
        self._timers: dict[int, int] = {}
        self._tokens = itertools.count()

    def pump(self, replica: Replica) -> None:
        if replica.in_flight is not None:
            return
        sim = self.sim
        cfg = sim.endpoint.config
        if len(replica.queue) >= cfg.max_batch_size \
                or cfg.batch_timeout_ms == 0:
            sim._start_work(replica)
        elif replica.replica_id not in self._timers:
            token = self._timers[replica.replica_id] = next(self._tokens)
            sim._push(sim.now_ms + cfg.batch_timeout_ms, "timeout",
                      (replica, token))

    def on_timeout(self, event: tuple[Replica, int]) -> None:
        # an armed timer implies an idle replica with a queue: starting
        # a batch (or an interruption) disarms it first
        replica, token = event
        if self._timers.get(replica.replica_id) == token:
            self.sim._start_work(replica)

    def start(self, replica: Replica) -> WorkUnit | None:
        sim = self.sim
        self._timers.pop(replica.replica_id, None)
        batch: list[Request] = []
        max_batch = sim.endpoint.config.max_batch_size
        while replica.queue and len(batch) < max_batch:
            req = replica.queue.popleft()
            if req.expired(sim.now_ms):
                sim._resolve_unserved(req, OUTCOME_EXPIRED)
            else:
                batch.append(req)
        if not batch:
            return None
        result = sim.backend.serve_batch([r.query for r in batch])
        now = sim.now_ms
        return WorkUnit(
            end_ms=now + result.service_ms,
            in_flight=[(req, now + offset)
                       for req, offset in zip(batch, result.per_query_ms)],
            size=len(batch))

    def finish(self, replica: Replica,
               unit: WorkUnit) -> list[tuple[Request, float]]:
        return unit.in_flight

    def on_interrupt(self, replica: Replica) -> None:
        self._timers.pop(replica.replica_id, None)


class EndpointSimulation:
    """Drive one :class:`~repro.serve.endpoint.Endpoint` with a trace."""

    def __init__(self, endpoint: Endpoint, backend: ModelBackend, *,
                 autoscaler: Autoscaler | None = None,
                 retry_policy: RetryPolicy | None = None,
                 tick_ms: float = 25.0,
                 settle_ms: float = 0.0,
                 observer=None) -> None:
        if tick_ms <= 0:
            raise ReproError("tick_ms must be positive")
        self.endpoint = endpoint
        self.backend = backend
        self.autoscaler = autoscaler
        self.retry_policy = retry_policy or RetryPolicy()
        self.tick_ms = tick_ms
        self.settle_ms = settle_ms
        # An observation layer (repro.obs's EndpointObserver, or anything
        # with the same hooks).  When attached it owns span emission for
        # requests/batches — sampled and bounded — so the inline
        # every-request telemetry.record calls are suppressed.
        self.observer = observer
        self.policy: BatchPolicy = DynamicBatching(self)

    # -- event plumbing ---------------------------------------------------

    def _push(self, time_ms: float, kind: str, data) -> None:
        heapq.heappush(self._events,
                       (time_ms, next(self._seq), kind, data))

    def _advance_cloud(self) -> None:
        """Bring the cloud session's hour clock up to the event clock, so
        instance lifecycle changes settle billing at the exact moment."""
        target_h = self._epoch_h + self.now_ms * HOURS_PER_MS
        session = self.endpoint.session
        if target_h > session.now_h:
            session.advance_hours(target_h - session.now_h)

    # -- the run ----------------------------------------------------------

    def run(self, trace: ArrivalTrace,
            interruptions: Iterable[tuple[float, int]] = ()) -> SloReport:
        """Replay ``trace`` against the endpoint; returns the SLO report.

        ``interruptions`` is a list of ``(time_ms, replica_id)`` spot
        reclaims to inject.
        """
        ep = self.endpoint
        if not ep.in_service():
            raise ReproError(f"endpoint {ep.name} has no serving replicas")
        self.policy.reset()
        self._events: list = []
        self._seq = itertools.count()
        self.now_ms = 0.0
        self._epoch_h = ep.session.now_h
        self._billing_start = len(ep.session.billing.records)
        self._last_tick_ms = 0.0
        self._completions_since_tick = 0
        self._trace = trace
        self.completed = 0
        self.shed = 0
        self.expired = 0
        self.retries = 0
        self.batches = 0
        self.batch_queries = 0
        self.last_finish_ms = 0.0
        self.peak_replicas = len(ep.in_service())
        self.replica_timeline: list[tuple[float, int, int]] = []
        self.latency_hist = Histogram("serve.latency_ms",
                                      max_samples=LATENCY_RESERVOIR,
                                      max_exemplars=LATENCY_EXEMPLARS)
        requests = [
            Request(request_id=i, query=a.query, arrival_ms=a.time_ms,
                    deadline_ms=(a.time_ms + ep.config.default_deadline_ms
                                 if ep.config.default_deadline_ms is not None
                                 else None))
            for i, a in enumerate(trace.arrivals)
        ]
        self._requests = requests
        with telemetry.span("serve.run", kind="workflow",
                            attributes={"endpoint": ep.name,
                                        "trace": trace.name,
                                        "requests": len(requests)}):
            if self.observer is not None:
                self.observer.attach(self)
            for req in requests:
                self._push(req.arrival_ms, "arrival", req)
            for time_ms, replica_id in interruptions:
                self._push(float(time_ms), "interrupt", int(replica_id))
            self._push(self.tick_ms, "tick", None)
            handlers = {"arrival": self._on_arrival, "done": self._on_done,
                        "timeout": self.policy.on_timeout,
                        "tick": self._on_tick,
                        "provisioned": self._on_provisioned,
                        "interrupt": self._on_interrupt}
            events = self._events
            while events:
                time_ms, _, kind, data = heapq.heappop(events)
                self.now_ms = time_ms
                handlers[kind](data)
            self._advance_cloud()
            self.policy.teardown()
            if self.observer is not None:
                self.observer.finalize()
        return self._build_report()

    # -- arrivals / admission ---------------------------------------------

    def _on_arrival(self, req: Request) -> None:
        if req.expired(self.now_ms):
            self._resolve_unserved(req, OUTCOME_EXPIRED)
            return
        cfg = self.endpoint.config
        candidates = [r for r in self.endpoint.replicas
                      if r.accepts_work and len(r.queue) < cfg.max_queue_depth]
        if not candidates:
            self._reject(req)
            return
        replica = min(candidates,
                      key=lambda r: (r.outstanding, r.replica_id))
        replica.queue.append(req)
        self.policy.pump(replica)

    def _reject(self, req: Request) -> None:
        """Admission control said 429: back off and retry, or shed."""
        req.attempts += 1
        telemetry.count("serve.throttled")
        if req.attempts <= self.retry_policy.max_retries:
            self.retries += 1
            delay = self.retry_policy.delay_ms(req.attempts)
            self._push(self.now_ms + delay, "arrival", req)
        else:
            self._resolve_unserved(req, OUTCOME_SHED)

    def _resolve_unserved(self, req: Request, outcome: str) -> None:
        """Resolve ``req`` as shed or expired at the current instant."""
        req.resolve(outcome, self.now_ms)
        if outcome == OUTCOME_SHED:
            self.shed += 1
        else:
            self.expired += 1
        telemetry.count(f"serve.{outcome}")
        if self.observer is not None:
            self.observer.on_resolve(req)

    # -- units of work ----------------------------------------------------

    def _start_work(self, replica: Replica) -> None:
        """Run the policy's next unit on ``replica``, or let a draining
        replica go once it has nothing left."""
        unit = self.policy.start(replica)
        if unit is None:
            if replica.state is ReplicaState.DRAINING and not replica.queue:
                self._finish_drain(replica)
            return
        self.batches += 1
        self.batch_queries += unit.size
        unit.batch_id = self.batches
        replica.in_flight = unit.in_flight
        replica.busy_from_ms = self.now_ms
        replica.busy_until_ms = unit.end_ms
        replica.invocations += 1
        self._push(unit.end_ms, "done",
                   (replica, replica.service_epoch, unit))

    def _on_done(self, event: tuple[Replica, int, WorkUnit | None]) -> None:
        """``unit`` ended on ``replica`` (``None``: a policy asked for a
        start); resolve what finished, then start the next unit."""
        replica, epoch, unit = event
        if epoch != replica.service_epoch:
            return
        if unit is not None:
            self._end_work(replica, unit)
        self._start_work(replica)

    def _end_work(self, replica: Replica, unit: WorkUnit) -> None:
        rid = replica.replica_id
        observer = self.observer
        for req, finish_ms in self.policy.finish(replica, unit):
            req.replica_id = rid
            req.batch_size = unit.size
            req.resolve(OUTCOME_COMPLETED, finish_ms)
            latency = finish_ms - req.arrival_ms
            self.completed += 1
            self._completions_since_tick += 1
            self.last_finish_ms = max(self.last_finish_ms, finish_ms)
            self.latency_hist.observe(latency,
                                      exemplar=f"{req.request_id:012d}")
            replica.queries_served += 1
            telemetry.observe("serve.latency_ms", latency)
            telemetry.count("serve.completed")
            if observer is not None:
                observer.on_resolve(req, batch_id=unit.batch_id)
                continue
            attributes = {"request_id": req.request_id, "replica": rid,
                          "batch_size": unit.size,
                          "attempts": req.attempts}
            if req.tokens_generated:
                attributes["tokens"] = req.tokens_generated
            telemetry.record("serve.request", "request",
                             _ns(req.arrival_ms), _ns(finish_ms),
                             attributes=attributes)
        # the unit's span follows its requests' resolutions, so the
        # sampler's batch refcounts already see them
        if observer is not None:
            observer.on_batch(
                unit.batch_id, rid, unit.size,
                replica.busy_from_ms, replica.busy_until_ms,
                label=unit.label, phase=unit.phase, tokens=unit.tokens,
                calibration_key=unit.calibration_key)
        else:
            attributes = {"replica": rid, "batch_size": unit.size}
            if unit.phase:
                attributes.update(batch_id=unit.batch_id,
                                  phase=unit.phase, tokens=unit.tokens)
            telemetry.record(unit.label, "stage", _ns(replica.busy_from_ms),
                             _ns(replica.busy_until_ms),
                             attributes=attributes)
        replica.recent_busy.append((replica.busy_from_ms,
                                    replica.busy_until_ms))
        replica.in_flight = None

    # -- fleet lifecycle --------------------------------------------------

    def _on_provisioned(self, replica: Replica) -> None:
        if replica.state is ReplicaState.PROVISIONING:
            replica.state = ReplicaState.IN_SERVICE
            telemetry.add_event("endpoint.replica_in_service",
                                replica=replica.replica_id)

    def _finish_drain(self, replica: Replica) -> None:
        self._advance_cloud()
        self.endpoint.terminate_replica(replica)

    def _launch_replica(self) -> None:
        ep = self.endpoint
        fresh = ep.launch_replica(state=ReplicaState.PROVISIONING)
        self._push(self.now_ms + ep.config.provision_delay_ms,
                   "provisioned", fresh)

    def _on_interrupt(self, replica_id: int) -> None:
        ep = self.endpoint
        replica = next((r for r in ep.replicas
                        if r.replica_id == replica_id), None)
        if replica is None or replica.state is ReplicaState.TERMINATED:
            return
        self._advance_cloud()
        self.policy.on_interrupt(replica)
        displaced = [req for req, _ in (replica.in_flight or [])]
        displaced.extend(replica.queue)
        if replica.in_flight is not None:
            # the aborted unit still occupied the GPU until the reclaim
            replica.recent_busy.append((replica.busy_from_ms, self.now_ms))
        replica.in_flight = None
        replica.queue.clear()
        replica.service_epoch += 1
        ep.terminate_replica(replica)
        ep.interrupted_replicas += 1
        telemetry.add_event("endpoint.spot_interruption",
                            replica=replica_id,
                            displaced=len(displaced))
        self._launch_replica()
        # re-dispatch displaced work onto the survivors, oldest first
        for req in displaced:
            self._on_arrival(req)

    # -- ticks: metrics, billing, autoscaling -----------------------------

    def _publish_metrics(self, serving: Sequence[Replica]) -> float:
        """Flush fleet metrics to CloudWatch; returns the timestamp."""
        cw = self.endpoint.session.cloudwatch
        ts = self._epoch_h + self.now_ms * HOURS_PER_MS
        n = max(len(serving), 1)
        window_ms = max(self.now_ms - self._last_tick_ms, 1e-9)
        invocations = self._completions_since_tick / n
        queue_depth = sum(len(r.queue) for r in serving) / n
        busy = [r.busy_ms_in(self._last_tick_ms, self.now_ms)
                for r in serving]
        util = 100.0 * sum(busy) / (n * window_ms)
        name = self.endpoint.name
        cw.put_metric(METRIC_NAMESPACE, "InvocationsPerReplica", name,
                      invocations, ts)
        cw.put_metric(METRIC_NAMESPACE, "QueueDepthPerReplica", name,
                      queue_depth, ts)
        cw.put_metric(METRIC_NAMESPACE, "GPUUtilization", name, util, ts)
        for r, r_busy in zip(serving, busy):
            cw.put_metric(METRIC_NAMESPACE, "GPUUtilization",
                          r.instance.instance_id,
                          100.0 * r_busy / window_ms, ts)
            r.prune_busy(self.now_ms)
        telemetry.gauge("serve.queue_depth", queue_depth)
        telemetry.gauge("serve.gpu_utilization", util)
        telemetry.gauge("serve.replicas", float(len(serving)))
        self.endpoint.recent_utilization = util
        return ts

    def _on_tick(self, _=None) -> None:
        ep = self.endpoint
        serving = [r for r in ep.replicas
                   if r.state in (ReplicaState.IN_SERVICE,
                                  ReplicaState.DRAINING)]
        ts = self._publish_metrics(serving)
        self._advance_cloud()
        if self.observer is not None:
            self.observer.on_tick(self.now_ms, ts)
        if self._completions_since_tick:
            ep.touch()
        self._completions_since_tick = 0
        desired = len(ep.in_service())
        if self.autoscaler is not None:
            current = len(ep.in_service()) + len(ep.provisioning())
            decision = self.autoscaler.evaluate(self.now_ms, current,
                                                (ts, ts))
            desired = decision.desired
            if decision.action == "scale_out":
                for _ in range(decision.desired - current):
                    self._launch_replica()
            elif decision.action == "scale_in":
                self._scale_in(current - decision.desired)
        n_in_service = len(ep.in_service())
        self.peak_replicas = max(self.peak_replicas, n_in_service)
        self.replica_timeline.append((self.now_ms, n_in_service, desired))
        self._last_tick_ms = self.now_ms
        if self._more_work_pending():
            self._push(self.now_ms + self.tick_ms, "tick", None)

    def _scale_in(self, excess: int) -> None:
        """Drain the emptiest replicas; kill not-yet-serving ones first."""
        ep = self.endpoint
        victims: list[Replica] = []
        provisioning = sorted(ep.provisioning(),
                              key=lambda r: -r.replica_id)
        victims.extend(provisioning[:excess])
        remaining = excess - len(victims)
        if remaining > 0:
            in_service = sorted(ep.in_service(),
                                key=lambda r: (r.outstanding,
                                               -r.replica_id))
            victims.extend(in_service[:remaining])
        for victim in victims:
            if victim.state is ReplicaState.PROVISIONING:
                ep.terminate_replica(victim)
            else:
                victim.state = ReplicaState.DRAINING
                telemetry.add_event("endpoint.drain",
                                    replica=victim.replica_id)
                if victim.in_flight is None and not victim.queue:
                    self._finish_drain(victim)

    def _more_work_pending(self) -> bool:
        if any(kind != "tick" for _, _, kind, _ in self._events):
            return True
        if any(r.outstanding or r.in_flight is not None
               for r in self.endpoint.replicas):
            return True
        if self.now_ms < self._trace.duration_ms + self.settle_ms:
            return True
        return False

    # -- the report -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`ReproError` unless every submitted request was
        resolved exactly once and the policy's device state drained."""
        submitted = len(self._requests)
        resolved = self.completed + self.shed + self.expired
        if resolved != submitted:
            raise ReproError(
                f"request conservation violated: {submitted} submitted "
                f"but {resolved} resolved ({self.completed} completed, "
                f"{self.shed} shed, {self.expired} expired)")
        self.policy.check_invariants()

    def _build_report(self) -> SloReport:
        self.check_invariants()
        ep = self.endpoint
        trace = self._trace
        submitted = len(self._requests)
        effective_ms = max(trace.duration_ms, self.last_finish_ms)
        cost = ep.billed_cost_usd(self._billing_start)
        hist = self.latency_hist
        return SloReport(
            endpoint=ep.name,
            instance_type=ep.config.instance_type,
            backend=self.backend.name,
            trace=trace.name,
            seed=trace.seed,
            duration_ms=trace.duration_ms,
            offered_qps=trace.offered_qps,
            achieved_qps=self.completed / (effective_ms / 1e3),
            submitted=submitted,
            completed=self.completed,
            shed=self.shed,
            expired=self.expired,
            retries=self.retries,
            interrupted_replicas=ep.interrupted_replicas,
            latency_mean_ms=hist.mean,
            latency_p50_ms=hist.percentile(50),
            latency_p95_ms=hist.percentile(95),
            latency_p99_ms=hist.percentile(99),
            latency_p999_ms=hist.percentile(99.9),
            shed_rate=self.shed / submitted if submitted else 0.0,
            error_rate=((self.shed + self.expired) / submitted
                        if submitted else 0.0),
            batches=self.batches,
            avg_batch_size=(self.batch_queries / self.batches
                            if self.batches else 0.0),
            peak_replicas=self.peak_replicas,
            scaling_actions=sum(
                1 for d in (self.autoscaler.decisions
                            if self.autoscaler else [])
                if d.action != "none"),
            cost_usd=cost,
            cost_per_1k_usd=(1e3 * cost / self.completed
                             if self.completed else 0.0),
            replica_timeline=tuple(self.replica_timeline),
            latency_exemplars=tuple(hist.top_exemplars()),
            **self.policy.report_fields(effective_ms),
        )
