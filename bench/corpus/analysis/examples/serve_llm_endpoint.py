#!/usr/bin/env python
"""LLM serving: continuous batching vs one-shot dynamic batching.

Puts the simulated autoregressive decoder (`repro.llm`) behind a
SageMaker-style endpoint twice, on the *same* seeded mixed-length
trace:

1. **one-shot** — the dynamic-batching plane treats a whole generation
   as one service call: every batch member waits for the longest
   generation, and the replica decodes ever-narrower batches;
2. **continuous** — the iteration-level plane re-schedules between
   decode steps: finished sequences leave immediately, queued requests
   board into the freed KV pages (vLLM/Orca-style), preempting the
   youngest sequence under memory pressure.

Before a single event fires, the continuous plane pre-flights the
worst-case KV token budget against the instance's device memory
(`repro.memcheck.llm_token_budget_preflight`) — an over-committed
config fails with MEM-PEAK-OOM before the cloud bill starts.

Run:  python examples/serve_llm_endpoint.py
"""

from repro.cloud.session import CloudSession
from repro.llm import LlmBackend
from repro.memcheck import llm_token_budget_preflight
from repro.serve import (
    ContinuousBatchingSimulation,
    Endpoint,
    EndpointConfig,
    EndpointSimulation,
    poisson_trace,
)

SEED = 3
RATE_QPS = 120.0
DURATION_MS = 1200.0


def run_endpoint(continuous: bool):
    backend = LlmBackend(part="T4", seed=SEED)
    queries = [f"prompt-{i:02d}" for i in range(24)]
    trace = poisson_trace(RATE_QPS, DURATION_MS, queries, seed=SEED)
    session = CloudSession()
    endpoint = Endpoint(session, EndpointConfig(
        name="llm-endpoint", instance_type="g4dn.xlarge",
        initial_replicas=1, min_replicas=1, max_replicas=1,
        max_batch_size=8, max_queue_depth=512))
    sim_cls = (ContinuousBatchingSimulation if continuous
               else EndpointSimulation)
    sim = sim_cls(endpoint, backend, settle_ms=200.0)
    try:
        report = sim.run(trace)
    finally:
        endpoint.delete()
    # the one-shot plane doesn't know about tokens; both planes complete
    # the same requests, so count the completed generations directly
    tokens = sum(backend.sample_lengths(r.query)[1]
                 for r in sim._requests if r.outcome == "completed")
    effective_s = max(report.duration_ms, sim.last_finish_ms) / 1e3
    return report, tokens / effective_s


def main() -> None:
    backend = LlmBackend(part="T4", seed=SEED)
    spec = backend.spec
    print("=== KV token-budget pre-flight (runs before the simulator) ===")
    for batch in (8, 512):
        budget = batch * backend.max_seq_tokens
        verdict, findings = llm_token_budget_preflight(
            spec.weights_bytes, spec.kv_bytes_per_token, budget,
            "g4dn.xlarge")
        print(f"batch {batch:>3d} × {backend.max_seq_tokens} tokens: "
              f"{verdict.render()}")
        for f in findings:
            print(f"  -> {f.rule}: flagged before any event fired")

    print("\n=== one-shot dynamic batching ===")
    oneshot, oneshot_tps = run_endpoint(continuous=False)
    print(oneshot.render())
    print(f"  tokens/sec (completed generations): {oneshot_tps:.1f}")

    print("\n=== iteration-level continuous batching ===")
    cont, cont_tps = run_endpoint(continuous=True)
    print(cont.render())

    print(f"\nContinuous batching moved {cont_tps / oneshot_tps:.2f}x "
          f"the tokens per second of one-shot batching on the same "
          f"trace, and cut p50 latency from "
          f"{oneshot.latency_p50_ms:.0f}ms to "
          f"{cont.latency_p50_ms:.0f}ms.")
    print("Render a request's decode waterfall with: "
          "python -m repro.obs waterfall 2 --scenario llm")


if __name__ == "__main__":
    main()
