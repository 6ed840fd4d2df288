"""repro.serve — SageMaker-style real-time inference endpoints.

The deployment half of Lab 14, grown from a closed-loop batch sweep into
an **open-loop serving stack** on the simulated clock:

* :mod:`repro.serve.loadgen` — seeded Poisson / constant / bursty /
  diurnal arrival traces (offered load, not closed-loop feedback);
* :mod:`repro.serve.backend` — the :class:`ModelBackend` protocol the
  RAG pipeline and a plain ``nn`` forward pass implement, with batched
  service times measured on the simulated GPU;
* :mod:`repro.serve.endpoint` — :class:`Endpoint` /
  :class:`EndpointConfig`: a fleet of EC2-backed replicas registered
  with :class:`~repro.cloud.sagemaker.SageMakerService` and billed
  through :class:`~repro.cloud.billing.BillingService`;
* :mod:`repro.serve.autoscaler` — target tracking over the CloudWatch
  metrics the fleet publishes, with scale-out/in cooldowns;
* :mod:`repro.serve.simulator` — the one discrete-event request plane:
  least-outstanding-requests load balancing, per-replica bounded
  queues, admission control (fast-fail 429 + client retry/backoff),
  deadlines, graceful drain, and spot interruptions, with batching
  delegated to a batch policy (dynamic batching by default);
* :mod:`repro.serve.report` — :class:`SloReport`, the offered-vs-
  achieved / tail-latency / shed-rate / $-per-1k-requests summary,
  plus the LLM block (tokens/sec, TTFT, inter-token latency, KV and
  preemption stats) when the run was autoregressive;
* :mod:`repro.serve.continuous` — the continuous-batching policy:
  iteration-level scheduling of an
  :class:`~repro.llm.backend.LlmBackend` with a paged KV cache,
  KV/deadline-aware admission, and preemption under memory pressure;
  :class:`ContinuousBatchingSimulation` runs the same loop with it.

``python -m repro.serve`` runs a trace against an endpoint config and
renders the report.
"""

from repro.serve.autoscaler import Autoscaler, ScalingDecision, TargetTrackingPolicy
from repro.serve.backend import (
    BatchResult,
    ModelBackend,
    NnForwardBackend,
    RagModelBackend,
    ScheduledNnBackend,
)
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.endpoint import (
    Endpoint,
    EndpointConfig,
    EndpointState,
    Replica,
    ReplicaState,
)
from repro.serve.loadgen import (
    Arrival,
    ArrivalTrace,
    bursty_trace,
    constant_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.serve.report import SloReport
from repro.serve.request import Request, RetryPolicy
from repro.serve.simulator import EndpointSimulation

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "Autoscaler",
    "BatchResult",
    "ContinuousBatchingSimulation",
    "Endpoint",
    "EndpointConfig",
    "EndpointSimulation",
    "EndpointState",
    "ModelBackend",
    "NnForwardBackend",
    "RagModelBackend",
    "Replica",
    "ReplicaState",
    "Request",
    "RetryPolicy",
    "ScalingDecision",
    "ScheduledNnBackend",
    "SloReport",
    "TargetTrackingPolicy",
    "bursty_trace",
    "constant_trace",
    "diurnal_trace",
    "poisson_trace",
]
