"""Failure paths: spot interruptions, drain, and overload shedding."""

import pytest

from repro.cloud.ec2 import InstanceState
from repro.serve.autoscaler import Autoscaler, TargetTrackingPolicy
from repro.serve.endpoint import ReplicaState
from repro.serve.loadgen import constant_trace, poisson_trace
from repro.serve.request import OUTCOME_COMPLETED, RetryPolicy
from repro.serve.simulator import EndpointSimulation

QUERIES = [f"query-{i}" for i in range(8)]


class TestSpotInterruption:
    def test_mid_flight_interruption_loses_nothing(self, make_endpoint,
                                                   backend, session):
        ep = make_endpoint(initial_replicas=2, spot=True)
        victim = ep.replicas[0]
        sim = EndpointSimulation(ep, backend)
        # t=15 ms: both replicas are mid-batch (service takes >= 5 ms)
        report = sim.run(constant_trace(400.0, 200.0, QUERIES),
                         interruptions=[(15.0, 0)])
        assert report.interrupted_replicas == 1
        assert (report.completed + report.shed + report.expired
                == report.submitted)
        assert report.completed == report.submitted   # survivors absorb it
        # the victim's instance really terminated (billing stops)
        assert victim not in ep.replicas
        assert victim.state is ReplicaState.TERMINATED
        assert victim.instance.state is InstanceState.TERMINATED

    def test_replacement_replica_launches(self, make_endpoint, backend):
        ep = make_endpoint(initial_replicas=2, spot=True,
                           provision_delay_ms=20.0)
        first = list(ep.replicas)
        EndpointSimulation(ep, backend).run(
            constant_trace(400.0, 200.0, QUERIES),
            interruptions=[(15.0, 0)])
        assert first[0].state is ReplicaState.TERMINATED
        assert ep.replicas[0] is first[1]
        assert len(ep.replicas) == 2
        assert ep.replicas[-1].replica_id == 2
        assert ep.replicas[-1].state is ReplicaState.IN_SERVICE
        assert ep.replicas[-1].queries_served > 0
        assert len(ep.instance_ids) == 3        # billing still sees all

    def test_interrupted_replicas_leave_the_fleet_list(self, make_endpoint,
                                                       backend):
        # k reclaims of a fixed fleet of n: each victim is replaced, and
        # only the n live replicas stay on the list the loop scans
        n, k = 2, 5
        ep = make_endpoint(initial_replicas=n, min_replicas=n,
                           max_replicas=n, spot=True,
                           provision_delay_ms=5.0)
        report = EndpointSimulation(ep, backend).run(
            constant_trace(200.0, 400.0, QUERIES),
            interruptions=[(20.0 + 60.0 * j, j) for j in range(k)])
        assert report.interrupted_replicas == k
        assert report.completed == report.submitted
        assert len(ep.replicas) == n
        assert all(r.state is ReplicaState.IN_SERVICE for r in ep.replicas)
        assert len(ep.instance_ids) == n + k

    def test_no_request_double_counted(self, make_endpoint, backend):
        ep = make_endpoint(initial_replicas=2, spot=True)
        sim = EndpointSimulation(ep, backend)
        sim.run(constant_trace(400.0, 200.0, QUERIES),
                interruptions=[(15.0, 0)])
        # Request.resolve raises on double resolution, so one outcome per
        # request is structural; check they all landed exactly once
        outcomes = [r.outcome for r in sim._requests]
        assert all(o == OUTCOME_COMPLETED for o in outcomes)

    def test_interrupting_the_only_replica_recovers(self, make_endpoint,
                                                    backend):
        ep = make_endpoint(initial_replicas=1, spot=True,
                           provision_delay_ms=10.0)
        report = EndpointSimulation(
            ep, backend,
            retry_policy=RetryPolicy(max_retries=6, backoff_ms=8.0)).run(
            constant_trace(100.0, 100.0, QUERIES),
            interruptions=[(20.0, 0)])
        assert report.interrupted_replicas == 1
        assert (report.completed + report.shed + report.expired
                == report.submitted)
        assert report.completed > 0

    def test_unknown_replica_interrupt_is_a_no_op(self, make_endpoint,
                                                  backend):
        ep = make_endpoint(spot=True)
        report = EndpointSimulation(ep, backend).run(
            constant_trace(50.0, 100.0, QUERIES),
            interruptions=[(10.0, 99)])
        assert report.interrupted_replicas == 0
        assert report.completed == report.submitted


class TestGracefulDrain:
    def test_scale_in_drains_before_terminating(self, make_endpoint,
                                                backend, session):
        # a target so high the autoscaler wants min_replicas immediately,
        # while the queue still holds work: the drained replica must
        # finish its backlog, not drop it
        ep = make_endpoint(initial_replicas=2, min_replicas=1)
        fleet = list(ep.replicas)
        autoscaler = Autoscaler(
            TargetTrackingPolicy(metric="QueueDepthPerReplica",
                                 target=1e6, scale_in_cooldown_ms=0.0,
                                 scale_in_ratio=1.0),
            min_replicas=1, max_replicas=2,
            cloudwatch=session.cloudwatch, dimension=ep.name)
        report = EndpointSimulation(ep, backend, autoscaler=autoscaler,
                                    tick_ms=5.0).run(
            constant_trace(600.0, 150.0, QUERIES))
        assert report.completed == report.submitted
        assert report.shed == report.expired == 0
        terminated = [r for r in fleet
                      if r.state is ReplicaState.TERMINATED]
        assert terminated, "scale-in never released a replica"
        assert not any(r in ep.replicas for r in terminated)
        assert all(r.queries_served > 0 for r in terminated)

    def test_draining_replica_takes_no_new_work(self, make_endpoint,
                                                backend):
        ep = make_endpoint(initial_replicas=2)
        draining = ep.replicas[0]
        draining.state = ReplicaState.DRAINING
        report = EndpointSimulation(ep, backend).run(
            constant_trace(200.0, 100.0, QUERIES))
        assert draining.queries_served == 0
        assert report.completed == report.submitted


class TestOverloadShedding:
    def test_sustained_overload_sheds_but_conserves(self, make_endpoint,
                                                    backend):
        ep = make_endpoint(max_queue_depth=2, max_batch_size=1)
        report = EndpointSimulation(
            ep, backend,
            retry_policy=RetryPolicy(max_retries=1, backoff_ms=0.5)).run(
            poisson_trace(3000.0, 150.0, QUERIES, seed=9))
        assert report.shed > 0
        assert report.shed_rate > 0.3
        assert (report.completed + report.shed + report.expired
                == report.submitted)
        assert report.error_rate == pytest.approx(
            (report.shed + report.expired) / report.submitted)

    def test_shed_requests_do_not_appear_in_latency(self, make_endpoint,
                                                    backend):
        ep = make_endpoint(max_queue_depth=1, max_batch_size=1)
        sim = EndpointSimulation(
            ep, backend, retry_policy=RetryPolicy(max_retries=0))
        report = sim.run(poisson_trace(3000.0, 100.0, QUERIES, seed=4))
        assert report.shed > 0
        assert sim.latency_hist.count == report.completed
