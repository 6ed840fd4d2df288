"""Open-loop load generation: seeded arrival traces.

The closed-loop :class:`~repro.rag.serving.RagServer` feeds queries
back-to-back, so it can never overload itself — the next query only
arrives once the previous batch finished.  Real endpoints face an
*offered* arrival rate that does not care how busy the fleet is.  The
generators here produce deterministic arrival traces (time in simulated
milliseconds + a query drawn from a pool) for the four shapes the
serving labs need:

* :func:`constant_trace` — evenly spaced arrivals, the analytic warm-up;
* :func:`poisson_trace` — memoryless arrivals at a fixed rate, the
  standard open-loop model;
* :func:`bursty_trace` — a Poisson baseline with a rate-multiplied burst
  window, the autoscaling stressor;
* :func:`diurnal_trace` — a sinusoidal rate produced by thinning, the
  "millions of users across time zones" daily curve.

Every generator is seeded; the same arguments reproduce the same trace
byte-for-byte, which is what makes :class:`~repro.serve.report.SloReport`
deterministic end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class Arrival:
    """One offered request: when it lands and what it asks."""

    time_ms: float
    query: str


@dataclass(frozen=True)
class ArrivalTrace:
    """An immutable, time-ordered sequence of arrivals."""

    name: str
    arrivals: tuple[Arrival, ...]
    duration_ms: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.duration_ms < math.inf:
            raise ReproError("trace duration must be positive and finite")
        times = [a.time_ms for a in self.arrivals]
        # False for NaN too, which no ordering comparison catches
        if not all(0 <= t < math.inf for t in times):
            raise ReproError("arrival times must be finite and non-negative")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ReproError("arrivals must be time-ordered")

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def offered_qps(self) -> float:
        """Offered load over the trace window (arrivals per second)."""
        return len(self.arrivals) / (self.duration_ms / 1e3)

    def rate_in_window(self, start_ms: float, end_ms: float) -> float:
        """Offered QPS within ``[start_ms, end_ms)`` — how tests assert a
        burst really is a burst."""
        if end_ms <= start_ms:
            raise ReproError("window must have positive width")
        n = sum(1 for a in self.arrivals if start_ms <= a.time_ms < end_ms)
        return n / ((end_ms - start_ms) / 1e3)


def _query_pool(queries: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    pool = tuple(queries)
    if not pool:
        raise ReproError("query pool must not be empty")
    return pool


def _check_rate(rate_qps: float) -> None:
    if rate_qps <= 0:
        raise ReproError(f"rate must be positive, got {rate_qps}")


def constant_trace(rate_qps: float, duration_ms: float,
                   queries: list[str] | tuple[str, ...],
                   seed: int = 0) -> ArrivalTrace:
    """Evenly spaced arrivals at exactly ``rate_qps``."""
    _check_rate(rate_qps)
    pool = _query_pool(queries)
    gap_ms = 1e3 / rate_qps
    arrivals = []
    t = 0.0
    i = 0
    while t < duration_ms:
        arrivals.append(Arrival(time_ms=t, query=pool[i % len(pool)]))
        i += 1
        t = i * gap_ms
    return ArrivalTrace(name=f"constant-{rate_qps:g}qps",
                        arrivals=tuple(arrivals),
                        duration_ms=float(duration_ms), seed=seed)


def poisson_trace(rate_qps: float, duration_ms: float,
                  queries: list[str] | tuple[str, ...],
                  seed: int = 0) -> ArrivalTrace:
    """Memoryless arrivals: exponential inter-arrival gaps at
    ``rate_qps``."""
    _check_rate(rate_qps)
    pool = _query_pool(queries)
    rng = random.Random(seed)
    rate_per_ms = rate_qps / 1e3
    arrivals = []
    t = rng.expovariate(rate_per_ms)
    i = 0
    while t < duration_ms:
        arrivals.append(Arrival(time_ms=t, query=pool[i % len(pool)]))
        i += 1
        t += rng.expovariate(rate_per_ms)
    return ArrivalTrace(name=f"poisson-{rate_qps:g}qps",
                        arrivals=tuple(arrivals),
                        duration_ms=float(duration_ms), seed=seed)


def bursty_trace(base_qps: float, duration_ms: float,
                 queries: list[str] | tuple[str, ...],
                 burst_start_ms: float, burst_end_ms: float,
                 burst_multiplier: float = 4.0,
                 seed: int = 0) -> ArrivalTrace:
    """A Poisson baseline with a ``burst_multiplier``× window inside it —
    the trace the target-tracking autoscaler has to survive."""
    _check_rate(base_qps)
    if not 0 <= burst_start_ms < burst_end_ms <= duration_ms:
        raise ReproError("burst window must sit inside the trace")
    if burst_multiplier < 1.0:
        raise ReproError("burst_multiplier must be >= 1")
    pool = _query_pool(queries)
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    i = 0
    while True:
        in_burst = burst_start_ms <= t < burst_end_ms
        rate_per_ms = base_qps / 1e3 * (burst_multiplier if in_burst else 1.0)
        t += rng.expovariate(rate_per_ms)
        if t >= duration_ms:
            break
        arrivals.append(Arrival(time_ms=t, query=pool[i % len(pool)]))
        i += 1
    return ArrivalTrace(
        name=f"bursty-{base_qps:g}x{burst_multiplier:g}qps",
        arrivals=tuple(arrivals), duration_ms=float(duration_ms), seed=seed)


def diurnal_trace(mean_qps: float, duration_ms: float,
                  queries: list[str] | tuple[str, ...],
                  period_ms: float | None = None,
                  amplitude: float = 0.8,
                  seed: int = 0) -> ArrivalTrace:
    """Sinusoidal offered load via thinning: a Poisson process at the
    peak rate, with each arrival kept with probability
    ``rate(t)/peak`` — the standard non-homogeneous Poisson sampler."""
    _check_rate(mean_qps)
    if not 0 <= amplitude <= 1:
        raise ReproError("amplitude must be in [0, 1]")
    period_ms = period_ms if period_ms is not None else duration_ms
    if period_ms <= 0:
        raise ReproError("period must be positive")
    pool = _query_pool(queries)
    rng = random.Random(seed)
    peak_per_ms = mean_qps * (1.0 + amplitude) / 1e3
    arrivals = []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(peak_per_ms)
        if t >= duration_ms:
            break
        rate = mean_qps * (1.0 + amplitude
                           * math.sin(2.0 * math.pi * t / period_ms))
        if rng.random() * (1.0 + amplitude) * mean_qps <= rate:
            arrivals.append(Arrival(time_ms=t, query=pool[i % len(pool)]))
            i += 1
    return ArrivalTrace(name=f"diurnal-{mean_qps:g}qps",
                        arrivals=tuple(arrivals),
                        duration_ms=float(duration_ms), seed=seed)
