"""Metrics instruments, the registry, and the CloudWatch bridge."""

import itertools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.cloudwatch import Alarm, AlarmState, CloudWatch
from repro.errors import ReproError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_gpu_utilization,
)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("tasks")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_set(self):
        g = Gauge("util")
        g.set(42)
        g.set(17.5)
        assert g.value == 17.5

    def test_histogram_exact_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):        # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)
        assert h.mean == pytest.approx(50.5)
        assert h.sum == pytest.approx(5050.0)

    def test_histogram_empty_and_bounds(self):
        h = Histogram("lat")
        assert h.percentile(99) == 0.0 and h.mean == 0.0 and h.sum == 0.0
        with pytest.raises(ReproError):
            h.percentile(101)

    def test_summary_keys(self):
        h = Histogram("lat")
        h.observe(1.0)
        assert set(h.summary()) == {"count", "sum", "mean", "p50", "p95",
                                    "p99"}


class TestReservoirHistogram:
    def test_memory_is_bounded_but_count_and_sum_exact(self):
        h = Histogram("lat", max_samples=128)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.samples) == 128
        assert h.count == 10_000
        assert h.sum == pytest.approx(sum(range(10_000)))
        assert h.mean == pytest.approx(4999.5)

    def test_percentiles_approximate_the_stream(self):
        h = Histogram("lat", max_samples=512)
        for v in range(10_000):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(4999.5, rel=0.15)
        assert h.percentile(95) == pytest.approx(9499.0, rel=0.10)

    def test_reservoir_is_deterministic(self):
        def fill():
            h = Histogram("lat", max_samples=64)
            for v in range(5_000):
                h.observe(float(v))
            return h.samples

        assert fill() == fill()

    @pytest.mark.parametrize("max_samples", [1, 7, 64])
    def test_draws_are_randrange_on_the_name_seed(self, max_samples):
        # the golden reports were made with random.Random.randrange's
        # replacement draws, so the reservoir must keep drawing them
        h = Histogram("serve.latency_ms", max_samples=max_samples)
        rng = random.Random(
            zlib.crc32(f"serve.latency_ms:{max_samples}".encode()))
        expected = []
        for n in range(1, 5_000):
            h.observe(float(n))
            if n <= max_samples:
                expected.append(float(n))
                continue
            j = rng.randrange(n)
            if j < max_samples:
                expected[j] = float(n)
        assert h.samples == expected

    @pytest.mark.parametrize("max_samples", [1, 7, 64])
    def test_observe_many_is_one_observe_per_value(self, max_samples):
        # runs of one repeated value, as a decode iteration observes its
        # ITL once per sequence; the run sizes cross the fill point in
        # the middle of a call, and the values are ones whose repeated
        # sum a product would round differently
        stream = random.Random(max_samples)
        runs = [(stream.random() * 100.0, size)
                for size in [0, 1, 5, 32, 3] * 40]
        one = Histogram("serve.itl_ms", max_samples=max_samples,
                        max_exemplars=3)
        many = Histogram("serve.itl_ms", max_samples=max_samples,
                         max_exemplars=3)
        for value, size in runs:
            for _ in range(size):
                one.observe(value)
            many.observe_many(itertools.repeat(value, size))
        assert many.samples == one.samples
        assert many.count == one.count == 41 * 40
        assert many.sum.hex() == one.sum.hex()
        assert many.sum != sum(value * size for value, size in runs)
        assert many._rng.getstate() == one._rng.getstate()
        assert many.exemplars == one.exemplars == []

    def test_below_capacity_is_exact(self):
        h = Histogram("lat", max_samples=1000)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ReproError):
            Histogram("lat", max_samples=0)

    def test_registry_creates_bounded_histograms(self):
        reg = MetricsRegistry()
        h = reg.histogram("serve.latency", max_samples=32)
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 32
        assert reg.histogram("serve.latency") is h  # existing keeps mode


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("tasks", worker="w0")
        b = reg.counter("tasks", worker="w0")
        c = reg.counter("tasks", worker="w1")
        assert a is b and a is not c
        assert a.name == "tasks{worker=w0}"
        assert len(reg) == 2

    def test_label_order_canonical(self):
        reg = MetricsRegistry()
        assert reg.gauge("m", b=1, a=2) is reg.gauge("m", a=2, b=1)

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ReproError):
            reg.histogram("m")

    def test_collect_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(4)
        reg.histogram("lat").observe(2.0)
        snap = reg.collect()
        assert snap["n"] == {"value": 4.0}
        assert snap["lat"]["count"] == 1.0
        assert snap["lat"]["p50"] == 2.0


class TestCloudWatchBridge:
    def test_publish_counts_datapoints(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc(10)
        reg.gauge("util").set(80.0)
        reg.histogram("lat").observe(3.0)
        cw = CloudWatch()
        n = reg.publish_cloudwatch(cw, dimension="i-1", timestamp_h=1.0)
        # 1 counter + 1 gauge + 5 histogram stats
        assert n == 7
        stats = cw.get_statistics("telemetry", "queries", "i-1", 0, 2)
        assert stats["avg"] == 10.0
        stats = cw.get_statistics("telemetry", "lat.p99", "i-1", 0, 2)
        assert stats["count"] == 1.0

    def test_published_metric_drives_alarm(self):
        reg = MetricsRegistry()
        reg.gauge("GPUUtilization").set(3.0)
        cw = CloudWatch()
        cw.put_alarm(Alarm(name="low-util", namespace="telemetry",
                           metric="GPUUtilization", dimension="i-9",
                           threshold=10.0, comparison="less"))
        reg.publish_cloudwatch(cw, dimension="i-9")
        assert cw.evaluate_alarms()["low-util"] is AlarmState.ALARM


class TestGpuUtilization:
    def test_gauges_per_device_and_average(self, system2):
        import numpy as np

        import repro.xp as xp
        a = xp.asarray(np.ones((128, 128), dtype=np.float32))
        xp.matmul(a, a).get()
        reg = MetricsRegistry()
        report = record_gpu_utilization(reg, system2)
        assert set(report) == {0, 1}
        for dev, frac in report.items():
            gauge = reg.gauge("GPUUtilization", device=dev)
            assert gauge.value == pytest.approx(100.0 * frac)
            assert 0.0 <= gauge.value <= 100.0
        avg = reg.gauge("GPUUtilization").value
        assert avg == pytest.approx(
            100.0 * sum(report.values()) / len(report))


class TestDeviceMemory:
    """device.memory gauges and the CloudWatch memory-pressure loop."""

    def _load(self, system, nbytes=1 << 20):
        import numpy as np

        dev = system.device(0)
        return dev.alloc(np.zeros(nbytes // 4, dtype=np.float32),
                         tag="ballast")

    def test_gauges_per_device(self, system2):
        from repro.telemetry.metrics import record_device_memory

        buf = self._load(system2)
        reg = MetricsRegistry()
        report = record_device_memory(reg, system2)
        assert set(report) == {0, 1}
        assert report[0]["used_bytes"] == 1 << 20
        assert reg.gauge("DeviceMemoryUsed", device=0).value == 1 << 20
        assert reg.gauge("DeviceMemoryPeak", device=0).value >= 1 << 20
        assert reg.gauge("DeviceMemoryUtilization", device=0).value > 0
        assert reg.gauge("DeviceMemoryUsed", device=1).value == 0
        buf.free()

    def test_leaked_gauge_counts_ledger_leaks(self, system1):
        from repro.telemetry.metrics import record_device_memory

        self._load(system1)          # never freed -> on the ledger
        reg = MetricsRegistry()
        report = record_device_memory(reg, system1)
        assert report[0]["leaked_bytes"] == 1 << 20
        assert reg.gauge("DeviceMemoryLeaked", device=0).value == 1 << 20

    def test_memory_pressure_alarm_fires_and_clears(self, system1):
        from repro.telemetry.metrics import record_device_memory

        # accounting-only ballast: 95% of the simulated card costs no
        # host memory
        memory = system1.device(0).memory
        ballast = memory.allocate(int(memory.total_bytes * 0.95),
                                  tag="ballast")
        cw = CloudWatch()
        cw.put_alarm(Alarm(name="memory-pressure", namespace="telemetry",
                           metric="DeviceMemoryUtilization",
                           dimension="i-1", threshold=90.0,
                           comparison="greater"))
        reg = MetricsRegistry()
        record_device_memory(reg, system1)
        reg.publish_cloudwatch(cw, dimension="i-1", timestamp_h=1.0)
        assert cw.evaluate_alarms()["memory-pressure"] is AlarmState.ALARM

        memory.free(ballast)
        reg2 = MetricsRegistry()
        record_device_memory(reg2, system1)
        reg2.publish_cloudwatch(cw, dimension="i-1", timestamp_h=2.0)
        assert cw.evaluate_alarms()["memory-pressure"] is AlarmState.OK

    def test_synchronize_publishes_gauges_when_traced(self, system1):
        from repro.telemetry import Tracer

        with Tracer() as tr:
            buf = self._load(system1)
            system1.device(0).synchronize()
        gauge = tr.metrics.gauge("device.memory.used", device=0)
        assert gauge.value == 1 << 20
        assert tr.metrics.gauge("device.memory.peak", device=0).value \
            >= 1 << 20
        buf.free()

    def test_untraced_synchronize_publishes_nothing(self, system1):
        # gauge publication must be a no-op without an active tracer
        self._load(system1)
        system1.device(0).synchronize()    # must not raise


class TestExemplars:
    def test_top_k_by_value_is_retained(self):
        h = Histogram("lat", max_exemplars=3)
        for v, label in [(5.0, "a"), (50.0, "b"), (1.0, "c"),
                         (40.0, "d"), (30.0, "e")]:
            h.observe(v, exemplar=label)
        assert h.top_exemplars() == [(50.0, "b"), (40.0, "d"),
                                     (30.0, "e")]

    # few values and few labels, so streams tie on either; pairs are
    # distinct because merged() re-ranks the union of its shards
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0, 5.0]),
                                     st.sampled_from("abcd")),
                           unique=True),
           k=st.integers(1, 6), data=st.data())
    def test_retention_is_observation_order_independent(self, stream, k,
                                                        data):
        expected = sorted(stream, reverse=True)[:k]
        order = data.draw(st.permutations(stream))
        cut = data.draw(st.integers(0, len(order)))

        def observed(pairs):
            h = Histogram("lat", max_exemplars=k)
            for v, label in pairs:
                h.observe(v, exemplar=label)
            return h

        assert observed(stream).top_exemplars() == expected
        assert observed(order).top_exemplars() == expected
        merged = Histogram.merged(
            "lat", [observed(order[:cut]), observed(order[cut:])],
            max_exemplars=k)
        assert merged.top_exemplars() == expected

    def test_constructor_exemplars_join_the_ranking(self):
        h = Histogram("lat", max_exemplars=2,
                      exemplars=[(9.0, "b"), (1.0, "a")])
        h.observe(5.0, exemplar="c")
        assert h.top_exemplars() == [(9.0, "b"), (5.0, "c")]

    def test_observe_without_exemplar_keeps_none(self):
        h = Histogram("lat", max_exemplars=3)
        h.observe(1.0)
        assert h.top_exemplars() == []

    def test_disabled_by_default(self):
        h = Histogram("lat")
        h.observe(1.0, exemplar="x")
        assert h.exemplars == []

    def test_registry_plumbs_max_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", max_exemplars=2)
        h.observe(3.0, exemplar="a")
        h.observe(9.0, exemplar="b")
        h.observe(6.0, exemplar="c")
        assert h.top_exemplars() == [(9.0, "b"), (6.0, "c")]


class TestMergedHistograms:
    def _shard(self, values, labels=None, **kwargs):
        h = Histogram("lat", **kwargs)
        for i, v in enumerate(values):
            h.observe(float(v),
                      exemplar=labels[i] if labels else None)
        return h

    def test_count_and_sum_are_exact(self):
        parts = [self._shard(range(100)), self._shard(range(100, 300))]
        merged = Histogram.merged("lat", parts)
        assert merged.count == 300
        assert merged.sum == pytest.approx(sum(range(300)))

    def test_merge_order_does_not_change_percentiles(self):
        import random
        rng = random.Random(11)
        shards = [self._shard([rng.uniform(0, 100) for _ in range(400)],
                              max_samples=64) for _ in range(4)]
        forward = Histogram.merged("lat", shards, max_samples=64)
        backward = Histogram.merged("lat", shards[::-1], max_samples=64)
        assert forward.samples == backward.samples
        for q in (50, 95, 99):
            assert forward.percentile(q) == backward.percentile(q)

    def test_merge_order_does_not_change_exemplars(self):
        a = self._shard([1, 9], labels=["a1", "a9"], max_exemplars=2)
        b = self._shard([5, 7], labels=["b5", "b7"], max_exemplars=2)
        ab = Histogram.merged("lat", [a, b], max_exemplars=3)
        ba = Histogram.merged("lat", [b, a], max_exemplars=3)
        assert ab.top_exemplars() == ba.top_exemplars()
        assert ab.top_exemplars()[0] == (9.0, "a9")

    def test_subsampling_is_evenly_spaced_and_deterministic(self):
        parts = [self._shard(range(1000))]
        merged = Histogram.merged("lat", parts, max_samples=10)
        again = Histogram.merged("lat", parts, max_samples=10)
        assert merged.samples == again.samples
        assert len(merged.samples) == 10
        assert merged.samples[0] == 0.0
        assert merged.samples[-1] == 999.0
        assert merged.samples == sorted(merged.samples)
