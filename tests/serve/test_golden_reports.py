"""Golden runs: the serving plane's observable behaviour, byte for byte.

Each case replays a seeded trace and compares the report JSON, plus the
sha256 of the exported trace JSONL (spans and metrics), with a committed
file under ``golden/``.  Refactors of the event loop must leave every
case unchanged.  After an intended behaviour change, regenerate with::

    PYTHONPATH=src python tests/serve/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cloud.ec2 import reset_instance_ids
from repro.cloud.session import CloudSession
from repro.gpu import make_system, reset_default_system
from repro.gpu.stream import reset_stream_ids
from repro.llm import LlmBackend
from repro.obs import EndpointObserver, HeadTailSampler, LogPlane, \
    SloMonitor, SloObjective, default_rules
from repro.obs.scenario import run_llm_scenario, run_overload_scenario
from repro.serve.autoscaler import Autoscaler, TargetTrackingPolicy
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.endpoint import Endpoint, EndpointConfig
from repro.serve.loadgen import bursty_trace, constant_trace, poisson_trace
from repro.serve.request import RetryPolicy
from repro.serve.simulator import EndpointSimulation
from repro.telemetry import Tracer
from repro.telemetry.export import to_jsonl_lines

try:
    from .conftest import FixedBackend
except ImportError:         # run as a script to regenerate
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import FixedBackend

GOLDEN = Path(__file__).resolve().parent / "golden"
QUERIES = [f"query-{i}" for i in range(8)]
PROMPTS = [f"prompt-{i:02d}" for i in range(16)]


def _endpoint(session, **overrides) -> Endpoint:
    config = dict(name="golden", instance_type="g4dn.xlarge",
                  initial_replicas=1, min_replicas=1, max_replicas=4,
                  max_batch_size=8, batch_timeout_ms=2.0,
                  max_queue_depth=64, provision_delay_ms=50.0)
    config.update(overrides)
    return Endpoint(session, EndpointConfig(**config))


def _traced(make_sim, trace, interruptions=()) -> dict:
    """Run one simulation under a tracer; the report and the trace hash."""
    reset_instance_ids()
    reset_stream_ids()
    system = make_system(1, "T4")
    session = CloudSession()
    sim, endpoint = make_sim(session)
    try:
        with Tracer(seed=0, system=system) as tracer:
            report = sim.run(trace, interruptions=interruptions)
    finally:
        endpoint.delete()
    return {"report": json.loads(report.to_json()),
            "trace_sha256": _trace_sha(tracer)}


def _trace_sha(tracer) -> str:
    lines = to_jsonl_lines(tracer.spans, tracer.metrics)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _oneshot(trace, interruptions=(), sim_kwargs=None, **config):
    def make(session):
        ep = _endpoint(session, **config)
        return EndpointSimulation(ep, FixedBackend(),
                                  **(sim_kwargs or {})), ep
    return _traced(make, trace, interruptions)


def _continuous(trace, interruptions=(), sim_kwargs=None, **config):
    def make(session):
        ep = _endpoint(session, **config)
        return ContinuousBatchingSimulation(
            ep, LlmBackend(part="T4", seed=7), **(sim_kwargs or {})), ep
    return _traced(make, trace, interruptions)


def case_batched():
    return _oneshot(poisson_trace(900.0, 300.0, QUERIES, seed=1))


def case_batch_size_one():
    # a short queue and no batching: 429s, retries and shedding
    return _oneshot(poisson_trace(900.0, 300.0, QUERIES, seed=2),
                    sim_kwargs={"retry_policy": RetryPolicy(max_retries=2,
                                                            backoff_ms=1.0)},
                    max_batch_size=1, max_queue_depth=4)


def case_bursty_observed():
    def make(session):
        ep = _endpoint(session, max_replicas=3, max_queue_depth=16,
                       provision_delay_ms=20.0, default_deadline_ms=40.0)
        autoscaler = Autoscaler(
            TargetTrackingPolicy(metric="QueueDepthPerReplica", target=3.0,
                                 scale_out_cooldown_ms=15.0,
                                 scale_in_cooldown_ms=60.0,
                                 scale_in_ratio=0.5),
            min_replicas=1, max_replicas=3,
            cloudwatch=session.cloudwatch, dimension=ep.name)
        observer = EndpointObserver(
            log_plane=LogPlane(min_level="INFO"),
            sampler=HeadTailSampler(head_n=20, slowest_k=10),
            monitor=SloMonitor(SloObjective(target=0.95),
                               default_rules(ms_per_hour=50.0)))
        sim = EndpointSimulation(ep, FixedBackend(), autoscaler=autoscaler,
                                 observer=observer, tick_ms=5.0,
                                 settle_ms=150.0)
        return sim, ep
    return _traced(make, bursty_trace(300.0, 400.0, QUERIES,
                                      burst_start_ms=100.0,
                                      burst_end_ms=250.0,
                                      burst_multiplier=6.0, seed=3))


def case_spot_deadlines():
    # timeout == deadline: a lone arrival's window closes exactly at its
    # deadline (the tie ships); reclaims displace queued and in-flight
    # work onto survivors and into 429 retries
    return _oneshot(
        poisson_trace(700.0, 300.0, QUERIES, seed=4),
        interruptions=[(40.0, 0), (90.0, 1), (150.0, 3)],
        sim_kwargs={"retry_policy": RetryPolicy(max_retries=3,
                                                backoff_ms=2.0)},
        initial_replicas=2, max_replicas=3, spot=True,
        max_queue_depth=6, batch_timeout_ms=2.0, default_deadline_ms=2.0,
        provision_delay_ms=10.0)


def case_continuous_kv_pressure():
    backend = LlmBackend(part="T4", seed=7)
    budget = backend.spec.kv_bytes_per_token * 16 * 40     # 40 pages
    return _continuous(poisson_trace(40.0, 800.0, PROMPTS, seed=2),
                       sim_kwargs={"kv_budget_bytes": budget},
                       max_batch_size=8, max_queue_depth=128)


def case_continuous_interrupted():
    return _continuous(constant_trace(40.0, 400.0, PROMPTS, seed=1),
                       interruptions=[(100.0, 0)],
                       min_replicas=1, max_replicas=2)


def case_continuous_all_expire():
    return _continuous(constant_trace(50.0, 300.0, PROMPTS),
                       default_deadline_ms=0.01)


def _scenario(run):
    result = run()
    return {"report": json.loads(result.report.to_json()),
            "trace_sha256": _trace_sha(result.tracer)}


def case_obs_overload():
    return _scenario(run_overload_scenario)


def case_obs_llm():
    return _scenario(run_llm_scenario)


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def _dump(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    expected = _golden_path(name).read_text()
    assert _dump(CASES[name]()) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, fn in CASES.items():
        reset_default_system()
        _golden_path(name).write_text(_dump(fn()))
        print(f"wrote {_golden_path(name)}")


if __name__ == "__main__":
    regenerate()
