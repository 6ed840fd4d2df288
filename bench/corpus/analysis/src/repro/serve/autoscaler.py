"""Target-tracking autoscaling over the fleet's CloudWatch metrics.

The fleet publishes per-tick datapoints (``InvocationsPerReplica``,
``QueueDepth``, ``GPUUtilization``) into the simulated
:class:`~repro.cloud.cloudwatch.CloudWatch`; the autoscaler reads them
back — it never peeks at simulator internals, exactly like the real
service — and tracks a target with the AWS semantics:

* desired = ceil(current × metric / target), clamped to [min, max];
* **scale-out cooldown** throttles successive scale-outs;
* **scale-in cooldown** throttles scale-ins, and scale-in additionally
  requires the metric to sit *below* ``scale_in_ratio × target``
  (hysteresis, so the fleet does not flap around the target).

Every evaluation yields a :class:`ScalingDecision` — including the
suppressed ones, so tests can assert cooldown edges precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.cloudwatch import CloudWatch
from repro.errors import ReproError, ResourceNotFoundError

METRIC_NAMESPACE = "repro/serve"


@dataclass(frozen=True)
class TargetTrackingPolicy:
    """One target-tracking scaling policy."""

    metric: str = "InvocationsPerReplica"
    target: float = 50.0
    scale_out_cooldown_ms: float = 100.0
    scale_in_cooldown_ms: float = 400.0
    scale_in_ratio: float = 0.7

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ReproError("target must be positive")
        if self.scale_out_cooldown_ms < 0 or self.scale_in_cooldown_ms < 0:
            raise ReproError("cooldowns must be non-negative")
        if not 0 < self.scale_in_ratio <= 1:
            raise ReproError("scale_in_ratio must be in (0, 1]")


@dataclass(frozen=True)
class ScalingDecision:
    """What one evaluation concluded (kept even when nothing changed)."""

    time_ms: float
    metric_value: float
    current: int
    desired: int
    action: str            # "scale_out" | "scale_in" | "none"
    reason: str


class Autoscaler:
    """Evaluates one policy for one endpoint against CloudWatch."""

    def __init__(self, policy: TargetTrackingPolicy, *,
                 min_replicas: int, max_replicas: int,
                 cloudwatch: CloudWatch, dimension: str,
                 namespace: str = METRIC_NAMESPACE,
                 breach_alarm: str | None = None) -> None:
        if not 1 <= min_replicas <= max_replicas:
            raise ReproError("need 1 <= min_replicas <= max_replicas")
        self.policy = policy
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.cloudwatch = cloudwatch
        self.dimension = dimension
        self.namespace = namespace
        self.breach_alarm = breach_alarm
        self.last_scale_out_ms = -math.inf
        self.last_scale_in_ms = -math.inf
        self.decisions: list[ScalingDecision] = []

    # -- SLO breach override -----------------------------------------------

    def _breach_active(self) -> bool:
        """Is the configured SLO burn-rate alarm currently in ALARM?

        The alarm (usually published by ``repro.obs``'s SLO monitor) is
        read by *state*, not re-evaluated — the monitor owns evaluation
        cadence, the autoscaler just reacts.
        """
        if self.breach_alarm is None:
            return False
        alarm = self.cloudwatch.alarms.get(self.breach_alarm)
        if alarm is None:
            return False
        return getattr(alarm.state, "value", alarm.state) == "ALARM"

    # -- metric plumbing ---------------------------------------------------

    def read_metric(self, start_h: float, end_h: float) -> float | None:
        """Average of the policy metric over a CloudWatch window, or
        ``None`` with no datapoints yet."""
        try:
            stats = self.cloudwatch.get_statistics(
                self.namespace, self.policy.metric, self.dimension,
                start_h, end_h)
        except ResourceNotFoundError:
            return None
        if not stats.get("count"):
            return None
        return stats["avg"]

    # -- the tracking rule -------------------------------------------------

    def desired_replicas(self, current: int, value: float) -> int:
        raw = math.ceil(current * value / self.policy.target)
        return max(self.min_replicas, min(self.max_replicas, raw))

    def evaluate(self, now_ms: float, current: int,
                 window_h: tuple[float, float]) -> ScalingDecision:
        """One evaluation tick; records and returns the decision.

        An active SLO burn-rate breach alarm overrides target tracking:
        while the error budget is burning too fast, add a replica per
        evaluation (cooldown still applies) even if the tracked metric
        says the fleet is at target — latency SLOs fail before
        utilization targets notice.
        """
        if self._breach_active() and current < self.max_replicas:
            if now_ms - self.last_scale_out_ms >= \
                    self.policy.scale_out_cooldown_ms:
                self.last_scale_out_ms = now_ms
                decision = ScalingDecision(
                    now_ms, 0.0, current, current + 1, "scale_out",
                    f"slo burn-rate breach ({self.breach_alarm})")
                self.decisions.append(decision)
                return decision
        value = self.read_metric(*window_h)
        if value is None:
            decision = ScalingDecision(now_ms, 0.0, current, current,
                                       "none", "insufficient data")
            self.decisions.append(decision)
            return decision
        desired = self.desired_replicas(current, value)
        action, reason = "none", "at target"
        if desired > current:
            if now_ms - self.last_scale_out_ms < self.policy.scale_out_cooldown_ms:
                desired, reason = current, "scale-out cooldown"
            else:
                action = "scale_out"
                reason = (f"{self.policy.metric}={value:.1f} over "
                          f"target {self.policy.target:g}")
                self.last_scale_out_ms = now_ms
        elif desired < current:
            if value >= self.policy.scale_in_ratio * self.policy.target:
                desired, reason = current, "inside scale-in hysteresis band"
            elif now_ms - self.last_scale_in_ms < self.policy.scale_in_cooldown_ms:
                desired, reason = current, "scale-in cooldown"
            else:
                action = "scale_in"
                reason = (f"{self.policy.metric}={value:.1f} under "
                          f"{self.policy.scale_in_ratio:g}× target")
                self.last_scale_in_ms = now_ms
        decision = ScalingDecision(now_ms, value, current, desired,
                                   action, reason)
        self.decisions.append(decision)
        return decision
