"""The request plane: batching, admission, deadlines, routing, billing."""

import pytest

from repro.errors import ReproError
from repro.serve.backend import NnForwardBackend
from repro.serve.endpoint import ReplicaState
from repro.serve.loadgen import ArrivalTrace, constant_trace, poisson_trace
from repro.serve.request import OUTCOME_SHED, Request, RetryPolicy
from repro.serve.simulator import EndpointSimulation

QUERIES = [f"query-{i}" for i in range(8)]
NAN = float("nan")
INF = float("inf")


def run_sim(endpoint, backend, trace, **kwargs):
    return EndpointSimulation(endpoint, backend, **kwargs).run(trace)


class TestValidation:
    @pytest.mark.parametrize("tick_ms", [NAN, INF, 0.0, -5.0])
    def test_tick_must_be_positive_and_finite(self, make_endpoint, backend,
                                              tick_ms):
        with pytest.raises(ReproError, match="tick_ms"):
            EndpointSimulation(make_endpoint(), backend, tick_ms=tick_ms)

    @pytest.mark.parametrize("settle_ms", [NAN, INF, -1.0])
    def test_settle_must_be_non_negative_and_finite(
            self, make_endpoint, backend, settle_ms):
        with pytest.raises(ReproError, match="settle_ms"):
            EndpointSimulation(make_endpoint(), backend, settle_ms=settle_ms)

    @pytest.mark.parametrize("time_ms", [NAN, INF, -1.0])
    def test_interruption_times_must_be_finite_and_non_negative(
            self, make_endpoint, backend, time_ms):
        sim = EndpointSimulation(make_endpoint(), backend)
        with pytest.raises(ReproError, match="interruption"):
            sim.run(constant_trace(100.0, 50.0, QUERIES),
                    interruptions=[(time_ms, 0)])


class TestConservation:
    def test_every_request_is_accounted_for(self, make_endpoint, backend):
        ep = make_endpoint(max_queue_depth=4)
        report = run_sim(ep, backend,
                         poisson_trace(400.0, 500.0, QUERIES, seed=1))
        assert report.submitted == len(
            poisson_trace(400.0, 500.0, QUERIES, seed=1))
        assert (report.completed + report.shed + report.expired
                == report.submitted)

    def test_light_load_completes_everything(self, make_endpoint, backend):
        ep = make_endpoint()
        report = run_sim(ep, backend,
                         constant_trace(50.0, 400.0, QUERIES))
        assert report.completed == report.submitted
        assert report.shed == report.expired == 0


class TestDynamicBatching:
    def test_backlog_forms_batches(self, make_endpoint, backend):
        # 400 qps offered vs ~1/(4+1) per-query capacity: queue builds,
        # freed replicas grab multi-query batches
        ep = make_endpoint(max_batch_size=8)
        report = run_sim(ep, backend,
                         constant_trace(400.0, 300.0, QUERIES))
        assert report.avg_batch_size > 2.0
        assert report.completed == report.submitted

    def test_batch_cap_respected(self, make_endpoint, backend):
        ep = make_endpoint(max_batch_size=3)
        run_sim(ep, backend, constant_trace(400.0, 300.0, QUERIES))
        assert backend.calls
        assert max(backend.calls) <= 3

    def test_batch_timeout_delays_lone_request(self, make_endpoint, backend):
        # a lone arrival waits the full window, then serves as a batch of 1:
        # latency = timeout + base + per_query = 2 + 4 + 1
        ep = make_endpoint(batch_timeout_ms=2.0)
        report = run_sim(ep, backend,
                         constant_trace(1.0, 800.0, QUERIES))
        assert report.latency_p50_ms == pytest.approx(7.0, abs=1e-6)

    def test_zero_timeout_serves_immediately(self, make_endpoint, backend):
        ep = make_endpoint(batch_timeout_ms=0.0)
        report = run_sim(ep, backend,
                         constant_trace(1.0, 800.0, QUERIES))
        assert report.latency_p50_ms == pytest.approx(5.0, abs=1e-6)

    def test_batching_beats_batch_of_one_on_nn(self, make_endpoint):
        # the acceptance ratio: same offered load, max_batch 8 vs 1
        trace = poisson_trace(20000.0, 150.0, QUERIES, seed=5)
        nn = NnForwardBackend()
        batched = run_sim(make_endpoint(max_batch_size=8, max_queue_depth=16),
                          nn, trace)
        serial = run_sim(make_endpoint(max_batch_size=1, max_queue_depth=16),
                         nn, trace)
        assert batched.achieved_qps >= 2.0 * serial.achieved_qps
        # and the batching p99 cost is visible: waiting for batch-mates
        # pushes the tail above the single-query service floor
        single_ms = nn.serve_batch(["q"]).service_ms
        assert batched.latency_p99_ms > single_ms


class TestAdmissionControl:
    def test_overload_sheds_instead_of_queueing_forever(
            self, make_endpoint, backend):
        ep = make_endpoint(max_queue_depth=2, max_batch_size=1)
        report = run_sim(
            ep, backend, poisson_trace(2000.0, 200.0, QUERIES, seed=2),
            retry_policy=RetryPolicy(max_retries=2, backoff_ms=1.0))
        assert report.shed > 0
        assert report.retries > 0
        assert (report.completed + report.shed + report.expired
                == report.submitted)
        assert report.shed_rate == pytest.approx(
            report.shed / report.submitted)

    def test_retry_can_save_a_throttled_request(self, make_endpoint, backend):
        # a short burst over a tiny queue: retries land after the queue
        # drains, so completions exceed what the queue alone could admit
        ep = make_endpoint(max_queue_depth=1, max_batch_size=1)
        report = run_sim(
            ep, backend, constant_trace(2000.0, 5.0, QUERIES),
            retry_policy=RetryPolicy(max_retries=8, backoff_ms=4.0))
        assert report.retries > 0
        assert report.completed > 2


class TestDeadlines:
    def test_stale_queued_requests_expire(self, make_endpoint, backend):
        ep = make_endpoint(default_deadline_ms=8.0, max_batch_size=1,
                           max_queue_depth=64)
        report = run_sim(ep, backend,
                         poisson_trace(1500.0, 100.0, QUERIES, seed=3))
        assert report.expired > 0
        assert (report.completed + report.shed + report.expired
                == report.submitted)

    def test_no_deadline_means_no_expiry(self, make_endpoint, backend):
        ep = make_endpoint(max_batch_size=1, max_queue_depth=64)
        report = run_sim(ep, backend,
                         poisson_trace(1500.0, 100.0, QUERIES, seed=3))
        assert report.expired == 0

    def test_deadline_tie_ships(self, make_endpoint, backend):
        # pins Request.expired's strict ``>``: a lone arrival's batch
        # window closes at exactly its deadline (timeout == deadline),
        # and the inclusive-deadline contract says the tie ships —
        # deterministically, not at the mercy of event-queue ordering
        ep = make_endpoint(batch_timeout_ms=2.0, default_deadline_ms=2.0)
        report = run_sim(ep, backend,
                         constant_trace(1.0, 800.0, QUERIES))
        assert report.expired == 0
        assert report.completed == report.submitted
        assert report.latency_p50_ms == pytest.approx(7.0, abs=1e-6)

    def test_deadline_inside_the_window_expires(self, make_endpoint,
                                                backend):
        # one tick earlier the same request is genuinely late: the
        # window outlives the deadline and dequeue expires it
        ep = make_endpoint(batch_timeout_ms=2.0, default_deadline_ms=1.5)
        report = run_sim(ep, backend,
                         constant_trace(1.0, 800.0, QUERIES))
        assert report.expired == report.submitted
        assert report.completed == 0

    def test_deadline_tie_outcome_is_stable_across_reruns(self, session,
                                                          backend):
        from repro.serve.endpoint import Endpoint, EndpointConfig

        def one_run():
            ep = Endpoint(session, EndpointConfig(
                name="tie", instance_type="g4dn.xlarge",
                initial_replicas=1, min_replicas=1, max_replicas=1,
                max_batch_size=8, batch_timeout_ms=2.0,
                max_queue_depth=64, default_deadline_ms=2.0))
            try:
                return run_sim(ep, backend,
                               constant_trace(1.0, 800.0, QUERIES))
            finally:
                ep.delete()

        assert one_run().to_json() == one_run().to_json()


class TestRouting:
    def test_load_spreads_across_replicas(self, make_endpoint, backend):
        ep = make_endpoint(initial_replicas=2, min_replicas=1,
                           max_replicas=4)
        run_sim(ep, backend, constant_trace(600.0, 200.0, QUERIES))
        served = [r.queries_served for r in ep.replicas]
        assert len(served) == 2
        assert all(n > 0 for n in served)
        # least-outstanding keeps the split roughly even
        assert max(served) < 3 * min(served)

    def test_no_serving_replicas_is_an_error(self, make_endpoint, backend):
        ep = make_endpoint()
        for r in list(ep.replicas):
            ep.terminate_replica(r)
        with pytest.raises(ReproError):
            run_sim(ep, backend, constant_trace(10.0, 50.0, QUERIES))

    # -- the admission rule, one arrival at a time ------------------------
    #
    # An empty replay sets up the run state; the tests then place queued
    # and in-flight load on the replicas by hand and route one request.

    RETRY = RetryPolicy(max_retries=2, backoff_ms=3.0, multiplier=2.0)

    def _primed(self, make_endpoint, backend, **config):
        ep = make_endpoint(initial_replicas=3, max_replicas=3, **config)
        sim = EndpointSimulation(ep, backend, retry_policy=self.RETRY)
        sim.run(ArrivalTrace(name="empty", arrivals=(), duration_ms=1.0))
        return ep.replicas, sim

    @staticmethod
    def _load(replica, queued=0, in_flight=0):
        replica.queue.extend(Request(-1, "held", 0.0) for _ in range(queued))
        if in_flight:
            replica.in_flight = [(Request(-1, "held", 0.0), 0.0)] * in_flight

    @staticmethod
    def _route(sim, request_id=0):
        """Offer one request; the id of the replica that queued it."""
        req = Request(request_id, "q", sim.now_ms)
        sim._on_arrival(req)
        return next((r.replica_id for r in sim.endpoint.replicas
                     if any(q is req for q in r.queue)), None)

    def test_least_outstanding_wins_and_ties_go_to_the_lowest_id(
            self, make_endpoint, backend):
        (r0, r1, r2), sim = self._primed(make_endpoint, backend)
        self._load(r0, queued=2)
        self._load(r1, in_flight=1)
        self._load(r2, queued=1)
        # outstanding counts queued and in-flight alike: 2, 1, 1
        assert self._route(sim, 0) == 1
        assert self._route(sim, 1) == 2       # now 2, 2, 1
        assert self._route(sim, 2) == 0       # 2, 2, 2: the lowest id

    def test_a_full_queue_is_skipped_even_with_the_fewest_outstanding(
            self, make_endpoint, backend):
        (r0, r1, r2), sim = self._primed(make_endpoint, backend,
                                         max_queue_depth=2)
        self._load(r0, queued=2)                  # full, 2 outstanding
        self._load(r1, queued=1, in_flight=3)     # room, 4 outstanding
        self._load(r2, queued=2)                  # full
        assert self._route(sim) == 1

    def test_only_in_service_replicas_receive_requests(self, make_endpoint,
                                                       backend):
        (r0, r1, r2), sim = self._primed(make_endpoint, backend,
                                         max_queue_depth=2)
        r0.state = ReplicaState.PROVISIONING
        r1.state = ReplicaState.DRAINING
        self._load(r2, queued=1, in_flight=3)
        assert self._route(sim, 0) == 2
        # r2 is full now; the idle provisioning and draining replicas
        # still take nothing, so the fleet answers 429
        assert self._route(sim, 1) is None
        assert sim.retries == 1
        assert not r0.queue and not r1.queue

    def test_a_full_fleet_answers_429_and_retries_after_the_backoff(
            self, make_endpoint, backend):
        replicas, sim = self._primed(make_endpoint, backend,
                                     max_queue_depth=1)
        for r in replicas:
            self._load(r, queued=1)
        req = Request(0, "q", sim.now_ms)
        for attempt in (1, 2):
            sim._events.clear()
            sim._on_arrival(req)
            retries = [(t, data) for t, _, kind, data in sim._events
                       if kind == "arrival"]
            assert req.attempts == attempt
            assert retries == [(sim.now_ms + self.RETRY.delay_ms(attempt),
                                req)]
            sim.now_ms = retries[0][0]
        assert sim.retries == 2
        # the budget is spent: the third 429 sheds it
        sim._events.clear()
        sim._on_arrival(req)
        assert req.outcome == OUTCOME_SHED and sim.shed == 1
        assert not [e for e in sim._events if e[2] == "arrival"]


class TestBilling:
    def test_replica_time_accrues_real_dollars(self, make_endpoint,
                                               backend, session):
        ep = make_endpoint(initial_replicas=2)
        report = run_sim(ep, backend,
                         constant_trace(100.0, 500.0, QUERIES))
        assert report.cost_usd > 0
        assert report.cost_usd == pytest.approx(
            ep.billed_cost_usd(), rel=1e-6)
        assert report.cost_per_1k_usd == pytest.approx(
            1e3 * report.cost_usd / report.completed)

    def test_more_replicas_cost_more(self, make_endpoint, backend):
        trace = constant_trace(100.0, 500.0, QUERIES)
        small = run_sim(make_endpoint(initial_replicas=1), backend, trace)
        big = run_sim(make_endpoint(initial_replicas=4, max_replicas=4),
                      backend, trace)
        assert big.cost_usd > small.cost_usd


class TestReplicaLifecycle:
    def test_terminated_replica_instances_stop(self, make_endpoint,
                                               backend, session):
        ep = make_endpoint(initial_replicas=2)
        fleet = list(ep.replicas)
        run_sim(ep, backend, constant_trace(50.0, 100.0, QUERIES))
        ep.delete()
        assert ep.replicas == []
        assert all(r.state is ReplicaState.TERMINATED for r in fleet)
        assert session.sagemaker.endpoints.get(ep.name) is None

    def test_delete_is_idempotent(self, make_endpoint, backend):
        ep = make_endpoint()
        fleet = list(ep.replicas)
        ep.delete()
        ep.delete()
        assert ep.replicas == []
        assert fleet and all(r.state is ReplicaState.TERMINATED
                             for r in fleet)
