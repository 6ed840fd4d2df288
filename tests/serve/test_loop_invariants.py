"""Property tests: the event loop's invariants under random settings.

Both batch policies run over random arrival rates, durations, batch
sizes, queue depths, zero-headroom deadlines, deadline ties (a deadline
equal to the batch window) and spot interruptions.  Every run must pass
:meth:`~repro.serve.simulator.EndpointSimulation.check_invariants`
(request conservation, every KV ledger and device pool drained) and
replay byte-identically from the same seed.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cloud.session import CloudSession
from repro.llm import LlmBackend
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.endpoint import Endpoint, EndpointConfig
from repro.serve.loadgen import poisson_trace
from repro.serve.request import RetryPolicy
from repro.serve.simulator import EndpointSimulation

from .conftest import FixedBackend

QUERIES = [f"prompt-{i:02d}" for i in range(16)]
PAGE_TOKENS = 16


@st.composite
def scenarios(draw):
    continuous = draw(st.booleans())
    duration = draw(st.floats(20.0, 250.0))
    batch_timeout = draw(st.sampled_from([0.0, 1.0, 2.0]))
    return dict(
        continuous=continuous,
        rate=draw(st.floats(50.0, 400.0) if continuous
                  else st.floats(50.0, 3000.0)),
        duration=duration,
        seed=draw(st.integers(0, 2 ** 16)),
        max_batch_size=draw(st.integers(1, 8)),
        max_queue_depth=draw(st.integers(1, 12)),
        batch_timeout_ms=batch_timeout,
        # zero headroom, a tie with the batch window, or a real budget
        deadline=draw(st.one_of(st.none(),
                                st.sampled_from([0.0, batch_timeout]),
                                st.floats(0.5, 100.0))),
        replicas=draw(st.integers(1, 3)),
        max_retries=draw(st.integers(0, 3)),
        interruptions=draw(st.lists(
            st.tuples(st.floats(0.0, duration), st.integers(0, 4)),
            max_size=3)),
        kv_pages=draw(st.one_of(st.none(), st.integers(16, 60))),
    )


def scenario(**overrides):
    s = dict(continuous=False, rate=300.0, duration=200.0, seed=1,
             max_batch_size=8, max_queue_depth=12, batch_timeout_ms=2.0,
             deadline=None, replicas=1, max_retries=2, interruptions=[],
             kv_pages=None)
    s.update(overrides)
    return s


def replay(s):
    """One run of scenario ``s`` on a fresh session, backend and fleet."""
    ep = Endpoint(CloudSession(), EndpointConfig(
        name="prop", instance_type="g4dn.xlarge",
        initial_replicas=s["replicas"], min_replicas=1,
        max_replicas=max(s["replicas"], 2),
        max_batch_size=s["max_batch_size"],
        batch_timeout_ms=s["batch_timeout_ms"],
        max_queue_depth=s["max_queue_depth"],
        default_deadline_ms=s["deadline"], provision_delay_ms=10.0,
        spot=True))
    kwargs = dict(retry_policy=RetryPolicy(max_retries=s["max_retries"],
                                           backoff_ms=1.0),
                  tick_ms=5.0)
    if s["continuous"]:
        backend = LlmBackend(part="T4", seed=s["seed"])
        if s["kv_pages"] is not None:
            kwargs["kv_budget_bytes"] = (s["kv_pages"] * PAGE_TOKENS
                                         * backend.spec.kv_bytes_per_token)
        sim = ContinuousBatchingSimulation(ep, backend, **kwargs)
    else:
        sim = EndpointSimulation(ep, FixedBackend(), **kwargs)
    trace = poisson_trace(s["rate"], s["duration"], QUERIES, seed=s["seed"])
    try:
        report = sim.run(trace, interruptions=s["interruptions"])
    finally:
        ep.delete()
    return sim, report


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
# KV pressure (preemptions) plus a reclaim mid-decode
@example(scenario(continuous=True, rate=150.0, kv_pages=30,
                  interruptions=[(60.0, 0)]))
# deadline ties with the batch window, across two reclaims
@example(scenario(rate=900.0, replicas=2, deadline=2.0,
                  interruptions=[(40.0, 0), (90.0, 2)]))
def test_invariants_hold_and_reruns_are_byte_identical(s):
    sim, report = replay(s)
    sim.check_invariants()
    assert report.submitted == len(sim._requests)
    assert all(r.outcome for r in sim._requests)
    _, again = replay(s)
    assert again.to_json() == report.to_json()
