"""Counters, gauges, and histograms over the simulated stack.

The metrics half of the telemetry plane: spans say *what happened when*,
metrics say *how much and how fast in aggregate*.  A
:class:`MetricsRegistry` is a flat namespace of named instruments;
histograms keep every observation (runs are laptop-scale) so exact
p50/p95/p99 fall out without bucket-boundary error, and
:meth:`MetricsRegistry.publish_cloudwatch` flushes everything as
datapoints into the simulated :class:`~repro.cloud.cloudwatch.CloudWatch`
— which is what lets threshold alarms and the idle reaper key off
workflow metrics instead of raw activity timestamps.
"""

from __future__ import annotations

import heapq
import random
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError


def _label_suffix(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing count (queries served, tasks run)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ReproError("counters only go up")
        self.value += amount
        return self.value


@dataclass
class Gauge:
    """A point-in-time level (GPU utilization, queue depth)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value


@dataclass
class Histogram:
    """A distribution with exact percentiles.

    By default every observation is kept, so percentiles are exact.  With
    ``max_samples`` set, the histogram switches to a fixed-size
    **reservoir**: ``count``/``sum``/``mean`` stay exact (running
    accumulators) while percentiles come from a uniform sample of at most
    ``max_samples`` observations — O(1) memory however many requests a
    serving trace pushes through.  The reservoir's replacement choices are
    drawn from an RNG seeded from the instrument name, so the same
    observation stream reproduces the same percentiles byte-for-byte.

    With ``max_exemplars`` set, the histogram additionally retains the
    **exemplars** of its ``max_exemplars`` largest observations — (value,
    label) pairs, where the label is typically a trace or request id —
    so a p99 read off the reservoir can be followed back to the worst
    concrete offenders.  Ties break toward the lexicographically largest
    label, keeping the retained set independent of observation order.
    ``exemplars`` is kept as a min-heap of those pairs, so an observation
    that does not make the top k costs one comparison; read them ranked
    through :meth:`top_exemplars`.
    """

    name: str
    samples: list[float] = field(default_factory=list)
    max_samples: int | None = None
    max_exemplars: int = 0
    exemplars: list[tuple[float, str]] = field(default_factory=list)
    _observed: int = field(default=0, repr=False, compare=False)
    _total: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_samples is not None and self.max_samples <= 0:
            raise ReproError("max_samples must be positive when set")
        if self.max_exemplars < 0:
            raise ReproError("max_exemplars must be non-negative")
        self._observed = len(self.samples)
        self._total = float(np.sum(self.samples)) if self.samples else 0.0
        heapq.heapify(self.exemplars)
        self._rng = random.Random(
            zlib.crc32(f"{self.name}:{self.max_samples}".encode()))

    def observe(self, value: float, exemplar: str | None = None) -> None:
        value = float(value)
        self._observed += 1
        self._total += value
        if exemplar is not None and self.max_exemplars:
            self._keep_exemplar(value, exemplar)
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        # Vitter's algorithm R: keep each of the n observations with
        # probability max_samples/n.  The index is drawn as
        # ``random.Random.randrange(n)`` draws it (k random bits,
        # rejected until below n), without its two Python frames.
        n = self._observed
        k = n.bit_length()
        getrandbits = self._rng.getrandbits
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        if j < self.max_samples:
            self.samples[j] = value

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each of ``values`` in order, with no
        exemplar, in one call: the same running sums, added one value at
        a time, and the same reservoir draws."""
        samples = self.samples
        cap = self.max_samples
        getrandbits = self._rng.getrandbits
        n = self._observed
        total = self._total
        try:
            for value in values:
                value = float(value)
                n += 1
                total += value
                if cap is None or len(samples) < cap:
                    samples.append(value)
                    continue
                k = n.bit_length()
                j = getrandbits(k)
                while j >= n:
                    j = getrandbits(k)
                if j < cap:
                    samples[j] = value
        finally:
            self._observed = n
            self._total = total

    def _keep_exemplar(self, value: float, label: str) -> None:
        # top-k by (value, label): the heap root is the smallest kept
        # pair, and a new pair displaces it only by beating it, so the
        # kept set is observation-order independent
        heap = self.exemplars
        if len(heap) < self.max_exemplars:
            heapq.heappush(heap, (value, label))
        elif (value, label) > heap[0]:
            heapq.heapreplace(heap, (value, label))

    def top_exemplars(self) -> list[tuple[float, str]]:
        """Retained exemplars, worst (largest value) first."""
        return sorted(self.exemplars, reverse=True)

    @classmethod
    def merged(cls, name: str, parts: "list[Histogram]", *,
               max_samples: int | None = None,
               max_exemplars: int = 0) -> "Histogram":
        """Merge histograms from independent shards, **order-independently**.

        ``count``/``sum`` add exactly.  Pooled samples are sorted before
        any subsampling and exemplars are re-ranked over the union, so
        permuting ``parts`` cannot change the result — the property the
        determinism tests pin.  (A pairwise sequential merge cannot make
        this guarantee: reservoir replacement depends on arrival order.)
        When the sorted pool exceeds ``max_samples`` it is subsampled at
        evenly spaced ranks, which preserves the pooled percentile curve.
        """
        out = cls(name=name, max_samples=max_samples,
                  max_exemplars=max_exemplars)
        pooled: list[float] = []
        for h in parts:
            pooled.extend(h.samples)
            out._observed += h.count
            out._total += h.sum
        pooled.sort()
        if max_samples is not None and len(pooled) > max_samples:
            idx = np.linspace(0, len(pooled) - 1, max_samples)
            pooled = [pooled[int(round(i))] for i in idx]
        out.samples = pooled
        if max_exemplars:
            union = sorted(
                {ex for h in parts for ex in h.exemplars})
            out.exemplars = union[-max_exemplars:]
        return out

    @property
    def count(self) -> int:
        return self._observed

    @property
    def sum(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._observed if self._observed else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) of the observations."""
        if not 0 <= p <= 100:
            raise ReproError(f"percentile must be in [0, 100], got {p}")
        if not self.samples:
            return 0.0
        return float(np.percentile(np.asarray(self.samples), p))

    def summary(self) -> dict[str, float]:
        """The stat row exporters and CloudWatch publication use."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create instrument store keyed by name + labels."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict) -> object:
        key = name + _label_suffix(labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name=key)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise ReproError(
                f"metric {key!r} is a {type(inst).__name__}, "
                f"not a {cls.__name__}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, max_samples: int | None = None,
                  max_exemplars: int = 0, **labels) -> Histogram:
        """Get-or-create a histogram.  ``max_samples`` puts a *new*
        instrument in bounded-reservoir mode and ``max_exemplars`` turns
        on exemplar retention; an existing instrument keeps whatever mode
        it was created with."""
        key = name + _label_suffix(labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = Histogram(name=key, max_samples=max_samples,
                             max_exemplars=max_exemplars)
            self._instruments[key] = inst
        elif not isinstance(inst, Histogram):
            raise ReproError(
                f"metric {key!r} is a {type(inst).__name__}, "
                "not a Histogram")
        return inst

    def collect(self) -> dict[str, dict[str, float]]:
        """Snapshot of every instrument: ``{name: {stat: value}}``."""
        out: dict[str, dict[str, float]] = {}
        for key, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                out[key] = inst.summary()
            else:
                out[key] = {"value": inst.value}
        return out

    def __len__(self) -> int:
        return len(self._instruments)

    # -- CloudWatch bridge ------------------------------------------------

    def publish_cloudwatch(self, cloudwatch, dimension: str,
                           namespace: str = "telemetry",
                           timestamp_h: float = 0.0) -> int:
        """Flush every instrument as CloudWatch datapoints.

        Counters and gauges publish their value under their own name;
        a histogram publishes ``name.mean`` / ``.p50`` / ``.p95`` /
        ``.p99`` / ``.count``.  ``dimension`` is typically the instance
        (or notebook) id the metrics describe, so alarms dimensioned on
        that resource — and the idle reaper consuming them — fire on
        workflow telemetry.  Returns the number of datapoints written.
        """
        n = 0
        for key, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                stats = inst.summary()
                for stat in ("mean", "p50", "p95", "p99", "count"):
                    cloudwatch.put_metric(namespace, f"{key}.{stat}",
                                          dimension, stats[stat],
                                          timestamp_h)
                    n += 1
            else:
                cloudwatch.put_metric(namespace, key, dimension,
                                      inst.value, timestamp_h)
                n += 1
        return n


def record_device_memory(registry: MetricsRegistry, system,
                         metric_prefix: str = "DeviceMemory"
                         ) -> dict[int, dict[str, float]]:
    """Gauge per-device memory pressure into ``registry``.

    Publishes ``DeviceMemoryUsed`` / ``DeviceMemoryPeak`` /
    ``DeviceMemoryLeaked`` (bytes, labelled per device) plus
    ``DeviceMemoryUtilization`` (0-100 percent — the series memory-pressure
    alarms threshold on, alongside ``GPUUtilization``) and an unlabelled
    average utilization.  "Leaked" counts bytes held by tracked
    allocations still live at observation time.  Returns the raw per-device
    numbers.
    """
    report: dict[int, dict[str, float]] = {}
    for dev in system.devices:
        stats = dev.memory.stats()
        leaked = float(sum(e.nbytes for e in dev.leak_report().entries))
        util = 100.0 * stats.utilization
        registry.gauge(f"{metric_prefix}Used",
                       device=dev.device_id).set(stats.used_bytes)
        registry.gauge(f"{metric_prefix}Peak",
                       device=dev.device_id).set(stats.peak_bytes)
        registry.gauge(f"{metric_prefix}Leaked",
                       device=dev.device_id).set(leaked)
        registry.gauge(f"{metric_prefix}Utilization",
                       device=dev.device_id).set(util)
        report[dev.device_id] = {
            "used_bytes": float(stats.used_bytes),
            "peak_bytes": float(stats.peak_bytes),
            "leaked_bytes": leaked,
            "utilization": util,
        }
    if report:
        registry.gauge(f"{metric_prefix}Utilization").set(
            sum(r["utilization"] for r in report.values()) / len(report))
    return report


def record_gpu_utilization(registry: MetricsRegistry, system,
                           window: tuple[int, int] | None = None,
                           metric: str = "GPUUtilization") -> dict[int, float]:
    """Gauge per-device busy percentage (0-100, the ``nvidia-smi`` and
    CloudWatch convention) into ``registry``; returns the raw report."""
    report = system.utilization_report(window)
    for device_id, frac in report.items():
        registry.gauge(metric, device=device_id).set(100.0 * frac)
    if report:
        registry.gauge(metric).set(
            100.0 * sum(report.values()) / len(report))
    return report
