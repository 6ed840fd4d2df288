"""The idle reaper's endpoint sweep: idle, util-floor, alarms, exemptions."""

import pytest

from repro.cloud.cloudwatch import Alarm
from repro.cloud.ec2 import InstanceState
from repro.cloud.reaper import IdleReaper
from repro.cloud.session import CloudSession
from repro.serve.endpoint import Endpoint, EndpointConfig, EndpointState


@pytest.fixture
def session():
    return CloudSession()


def make_endpoint(session, name="ep", **overrides):
    defaults = dict(name=name, instance_type="g4dn.xlarge",
                    initial_replicas=1)
    defaults.update(overrides)
    return Endpoint(session, EndpointConfig(**defaults))


class TestIdleEndpoints:
    def test_idle_endpoint_is_deleted(self, session):
        ep = make_endpoint(session)
        fleet = list(ep.replicas)
        session.advance_hours(3.0)
        report = session.reaper.sweep()
        assert report.reaped_endpoints == [ep.name]
        assert ep.state is EndpointState.DELETED
        assert ep.name not in session.sagemaker.endpoints
        assert ep.replicas == []
        assert all(r.instance.state is InstanceState.TERMINATED
                   for r in fleet)

    def test_active_endpoint_survives(self, session):
        ep = make_endpoint(session)
        session.advance_hours(3.0)
        ep.touch()
        report = session.reaper.sweep()
        assert report.reaped_endpoints == []
        assert ep.state is EndpointState.IN_SERVICE

    def test_keep_alive_tag_spares_the_fleet(self, session):
        ep = make_endpoint(session, tags={"keep-alive": "training-demo"})
        session.advance_hours(3.0)
        report = session.reaper.sweep()
        assert ep.name in report.spared_keep_alive
        assert ep.state is EndpointState.IN_SERVICE

    def test_endpoints_count_toward_reaped_total(self, session):
        make_endpoint(session)
        session.advance_hours(3.0)
        report = session.reaper.sweep()
        assert report.reaped_count == len(report.reaped_endpoints) == 1


class TestUtilizationFloor:
    def test_underutilized_active_endpoint_is_reaped(self, session):
        reaper = IdleReaper(session.ec2, session.sagemaker,
                            idle_threshold_h=2.0,
                            cloudwatch=session.cloudwatch,
                            endpoint_util_floor=10.0)
        ep = make_endpoint(session)
        session.advance_hours(0.5)
        ep.touch()                       # recently active, so never "idle"
        ep.recent_utilization = 1.5      # ... but the fleet does nothing
        report = reaper.sweep()
        assert report.reaped_endpoints == [ep.name]

    def test_floor_disabled_by_default(self, session):
        ep = make_endpoint(session)
        session.advance_hours(0.5)
        ep.touch()
        ep.recent_utilization = 1.5
        assert session.reaper.sweep().reaped_endpoints == []

    def test_busy_endpoint_clears_the_floor(self, session):
        reaper = IdleReaper(session.ec2, session.sagemaker,
                            endpoint_util_floor=10.0)
        ep = make_endpoint(session)
        ep.touch()
        ep.recent_utilization = 55.0
        assert reaper.sweep().reaped_endpoints == []

    def test_floor_is_a_percentage(self, session):
        with pytest.raises(ValueError):
            IdleReaper(session.ec2, session.sagemaker,
                       endpoint_util_floor=250.0)


class TestAlarmsAndScope:
    def test_alarmed_endpoint_is_reaped_by_alarm(self, session):
        ep = make_endpoint(session)
        session.cloudwatch.put_metric("repro/serve", "GPUUtilization",
                                      ep.name, 0.5, 0.0)
        session.cloudwatch.put_alarm(Alarm(
            name="ep-low-util", namespace="repro/serve",
            metric="GPUUtilization", dimension=ep.name,
            threshold=5.0, comparison="less"))
        ep.touch()
        report = session.reaper.sweep()
        assert ep.name in report.reaped_by_alarm
        assert ep.state is EndpointState.DELETED

    def test_fleet_replicas_skip_the_instance_sweep(self, session):
        # replica instances never report activity themselves; only the
        # endpoint-level sweep may decide their fate
        ep = make_endpoint(session)
        session.advance_hours(3.0)
        ep.touch()                        # endpoint is active
        report = session.reaper.sweep()
        assert report.reaped_instances == []
        assert all(r.instance.state is InstanceState.RUNNING
                   for r in ep.replicas)

    def test_orphan_instances_still_get_reaped(self, session):
        session.register_student("ada")
        inst = session.ec2.run_instance("g4dn.xlarge", owner="ada")
        make_endpoint(session).touch()
        session.advance_hours(3.0)
        session.sagemaker.endpoints["ep"].touch()
        report = session.reaper.sweep()
        assert inst.instance_id in report.reaped_instances
