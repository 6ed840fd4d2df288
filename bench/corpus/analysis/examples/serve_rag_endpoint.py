#!/usr/bin/env python
"""Week 14 capstone: a RAG model behind an autoscaled inference endpoint.

Deploys the Lab 12 RAG pipeline behind a simulated SageMaker-style
real-time endpoint (`repro.serve`): dynamic batching, bounded queues
with 429 shedding, a target-tracking autoscaler fed by CloudWatch, and
a seeded bursty load trace. Prints the SLO report and the bill, then
compares against a statically peak-provisioned fleet.

Run:  python examples/serve_rag_endpoint.py
"""

from repro.cloud.session import CloudSession
from repro.gpu import make_system
from repro.rag import RagPipeline, make_corpus
from repro.serve import (
    Autoscaler,
    Endpoint,
    EndpointConfig,
    EndpointSimulation,
    RagModelBackend,
    TargetTrackingPolicy,
    bursty_trace,
)


def build_backend():
    make_system(1, "T4")
    corpus = make_corpus(n_docs=600, n_queries=24, seed=3)
    pipe = RagPipeline(corpus, device="cuda:0", seed=0)
    return RagModelBackend(pipe, max_new_tokens=8), list(corpus.queries)


def run_fleet(backend, queries, *, initial, minimum, maximum,
              autoscale):
    session = CloudSession()
    endpoint = Endpoint(session, EndpointConfig(
        name="rag-endpoint", instance_type="g4dn.xlarge",
        initial_replicas=initial, min_replicas=minimum,
        max_replicas=maximum, max_batch_size=8, batch_timeout_ms=2.0,
        max_queue_depth=64, provision_delay_ms=40.0,
        expected_hours=1.0))
    autoscaler = None
    if autoscale:
        autoscaler = Autoscaler(
            TargetTrackingPolicy(metric="QueueDepthPerReplica",
                                 target=3.0, scale_out_cooldown_ms=20.0,
                                 scale_in_cooldown_ms=100.0,
                                 scale_in_ratio=0.5),
            min_replicas=minimum, max_replicas=maximum,
            cloudwatch=session.cloudwatch, dimension=endpoint.name)
    trace = bursty_trace(400.0, 900.0, queries, burst_start_ms=300.0,
                         burst_end_ms=600.0, burst_multiplier=5.0,
                         seed=7)
    sim = EndpointSimulation(endpoint, backend, autoscaler=autoscaler,
                             tick_ms=10.0, settle_ms=300.0)
    report = sim.run(trace)
    endpoint.delete()          # always tear the fleet down
    return report


def main() -> None:
    backend, queries = build_backend()

    print("=== autoscaled fleet (1..3 replicas, target tracking) ===")
    scaled = run_fleet(backend, queries, initial=1, minimum=1,
                       maximum=3, autoscale=True)
    print(scaled.render())

    print("\n=== static peak fleet (3 replicas, no scaling) ===")
    static = run_fleet(backend, queries, initial=3, minimum=3,
                       maximum=3, autoscale=False)
    print(static.render())

    saved = 100.0 * (1.0 - scaled.cost_usd / static.cost_usd)
    print(f"\nAutoscaling served the same burst within SLO for "
          f"{saved:.0f}% less than the static peak fleet.")
    print("For fleets you keep up longer than ~8h, request spot "
          "capacity (EndpointConfig(spot=True)) and let the simulator "
          "drain interrupted replicas.")


if __name__ == "__main__":
    main()
