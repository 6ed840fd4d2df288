"""Arrival traces: determinism, shapes, validation."""

import pytest

from repro.errors import ReproError
from repro.serve.loadgen import (
    Arrival,
    ArrivalTrace,
    bursty_trace,
    constant_trace,
    diurnal_trace,
    poisson_trace,
)

QUERIES = ["q-a", "q-b", "q-c"]


class TestConstant:
    def test_exact_spacing_and_count(self):
        trace = constant_trace(100.0, 1000.0, QUERIES)
        assert len(trace) == 100
        assert trace.arrivals[0].time_ms == 0.0
        assert trace.arrivals[1].time_ms == pytest.approx(10.0)
        assert trace.offered_qps == pytest.approx(100.0)

    def test_queries_cycle_through_pool(self):
        trace = constant_trace(100.0, 50.0, QUERIES)
        assert [a.query for a in trace.arrivals[:4]] == [
            "q-a", "q-b", "q-c", "q-a"]


class TestPoisson:
    def test_seeded_determinism(self):
        t1 = poisson_trace(200.0, 500.0, QUERIES, seed=7)
        t2 = poisson_trace(200.0, 500.0, QUERIES, seed=7)
        assert t1 == t2

    def test_different_seeds_differ(self):
        t1 = poisson_trace(200.0, 500.0, QUERIES, seed=7)
        t2 = poisson_trace(200.0, 500.0, QUERIES, seed=8)
        assert t1 != t2

    def test_rate_is_approximately_offered(self):
        trace = poisson_trace(500.0, 4000.0, QUERIES, seed=0)
        assert trace.offered_qps == pytest.approx(500.0, rel=0.15)

    def test_time_ordered_within_duration(self):
        trace = poisson_trace(300.0, 1000.0, QUERIES, seed=3)
        times = [a.time_ms for a in trace.arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 1000.0 for t in times)


class TestBursty:
    def test_burst_window_is_denser(self):
        trace = bursty_trace(100.0, 3000.0, QUERIES, burst_start_ms=1000.0,
                             burst_end_ms=2000.0, burst_multiplier=5.0,
                             seed=1)
        base = trace.rate_in_window(0.0, 1000.0)
        burst = trace.rate_in_window(1000.0, 2000.0)
        assert burst > 3.0 * base

    def test_burst_window_validation(self):
        with pytest.raises(ReproError):
            bursty_trace(100.0, 1000.0, QUERIES, burst_start_ms=500.0,
                         burst_end_ms=1500.0)
        with pytest.raises(ReproError):
            bursty_trace(100.0, 1000.0, QUERIES, burst_start_ms=100.0,
                         burst_end_ms=400.0, burst_multiplier=0.5)


class TestDiurnal:
    def test_mean_rate_close_to_requested(self):
        trace = diurnal_trace(300.0, 8000.0, QUERIES, seed=2)
        assert trace.offered_qps == pytest.approx(300.0, rel=0.25)

    def test_peak_half_beats_trough_half(self):
        # sin is positive over the first half-period, negative after
        trace = diurnal_trace(200.0, 8000.0, QUERIES, period_ms=8000.0,
                              amplitude=0.8, seed=4)
        peak = trace.rate_in_window(0.0, 4000.0)
        trough = trace.rate_in_window(4000.0, 8000.0)
        assert peak > 2.0 * trough

    def test_amplitude_bounds(self):
        with pytest.raises(ReproError):
            diurnal_trace(100.0, 1000.0, QUERIES, amplitude=1.5)


class TestTraceValidation:
    def test_arrivals_must_be_ordered(self):
        with pytest.raises(ReproError):
            ArrivalTrace(name="bad",
                         arrivals=(Arrival(5.0, "q"), Arrival(1.0, "q")),
                         duration_ms=10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_arrival_times_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ReproError, match="finite"):
            ArrivalTrace(name="bad", arrivals=(Arrival(bad, "q"),),
                         duration_ms=10.0)

    def test_a_nan_cannot_hide_a_misordering(self):
        # every comparison with NaN is False, so an order check alone
        # passes 5, NaN, 1
        with pytest.raises(ReproError):
            ArrivalTrace(name="bad",
                         arrivals=(Arrival(5.0, "q"),
                                   Arrival(float("nan"), "q"),
                                   Arrival(1.0, "q")),
                         duration_ms=10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_duration_must_be_finite(self, bad):
        with pytest.raises(ReproError, match="duration"):
            ArrivalTrace(name="bad", arrivals=(), duration_ms=bad)

    def test_empty_pool_rejected(self):
        with pytest.raises(ReproError):
            constant_trace(10.0, 100.0, [])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ReproError):
            poisson_trace(0.0, 100.0, QUERIES)

    def test_rate_in_window_needs_width(self):
        trace = constant_trace(10.0, 100.0, QUERIES)
        with pytest.raises(ReproError):
            trace.rate_in_window(50.0, 50.0)
