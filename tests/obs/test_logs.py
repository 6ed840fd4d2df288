"""The structured log plane: groups, streams, filters, enrichment."""

import pytest

from repro.errors import ReproError
from repro.obs.logs import LogPlane, LogRecord, MetricFilter
from repro.telemetry import Tracer, api


class TestEmission:
    def test_group_and_stream_are_get_or_create(self):
        plane = LogPlane()
        plane.log("/svc/a", "s1", "one")
        plane.log("/svc/a", "s1", "two")
        plane.log("/svc/a", "s2", "three")
        assert set(plane.groups) == {"/svc/a"}
        assert set(plane.groups["/svc/a"].streams) == {"s1", "s2"}
        assert len(plane.groups["/svc/a"].stream("s1").records) == 2

    def test_unknown_level_raises(self):
        plane = LogPlane()
        with pytest.raises(ReproError):
            plane.log("/svc", "s", "m", level="TRACE")

    def test_attributes_and_explicit_timestamp(self):
        plane = LogPlane()
        rec = plane.log("/svc", "s", "m", timestamp_ns=42,
                        request_id=7, outcome="shed")
        assert rec.timestamp_ns == 42
        assert rec.attributes == {"request_id": 7, "outcome": "shed"}

    def test_untraced_defaults_are_zero_and_none(self):
        rec = LogPlane().log("/svc", "s", "m")
        assert rec.timestamp_ns == 0
        assert rec.trace_id is None and rec.span_id is None

    def test_stream_cap_drops_and_counts(self):
        plane = LogPlane(max_records_per_stream=3)
        for i in range(5):
            plane.log("/svc", "s", f"m{i}", timestamp_ns=i)
        assert len(plane.records()) == 3
        assert plane.dropped() == 2
        assert plane.groups["/svc"].stream("s").dropped == 2


class TestLevelGate:
    def test_min_level_drops_lower_levels(self):
        plane = LogPlane(min_level="WARNING")
        assert not plane.enabled("INFO") and plane.enabled("WARNING")
        assert plane.log("/svc", "s", "m", level="INFO") is None
        assert plane.log("/svc", "s", "m", level="ERROR") is not None

    def test_assigned_min_level_takes_effect(self):
        plane = LogPlane(min_level="WARNING")
        plane.min_level = "DEBUG"
        assert plane.min_level == "DEBUG"
        assert plane.enabled("INFO")
        assert plane.log("/svc", "s", "m", level="INFO") is not None
        plane.min_level = "ERROR"
        assert not plane.enabled("WARNING")
        assert plane.log("/svc", "s", "m", level="WARNING") is None
        assert len(plane.records()) == 1

    def test_unknown_min_level_is_rejected(self):
        with pytest.raises(ReproError):
            LogPlane(min_level="NOPE")
        plane = LogPlane(min_level="INFO")
        with pytest.raises(ReproError):
            plane.min_level = "NOPE"
        assert plane.min_level == "INFO"
        assert not plane.enabled("DEBUG") and plane.enabled("INFO")


class TestQueries:
    def test_records_merge_streams_in_emission_order(self):
        plane = LogPlane()
        plane.log("/svc", "b", "late", timestamp_ns=20)
        plane.log("/svc", "a", "early", timestamp_ns=10)
        plane.log("/svc", "a", "tie-first", timestamp_ns=15)
        plane.log("/svc", "b", "tie-second", timestamp_ns=15)
        assert [r.message for r in plane.records()] == [
            "early", "tie-first", "tie-second", "late"]

    def test_filter_by_group_stream_level(self):
        plane = LogPlane()
        plane.log("/svc/a", "s", "info")
        plane.log("/svc/a", "t", "warn", level="WARNING")
        plane.log("/svc/b", "s", "other")
        assert [r.message for r in plane.records(group="/svc/a")] == [
            "info", "warn"]
        assert [r.message for r in plane.records(stream="s")] == [
            "info", "other"]
        assert [r.message for r in plane.records(level="WARNING")] == [
            "warn"]


class TestMetricFilters:
    def test_filter_matches_prefix_level_and_attributes(self):
        f = MetricFilter(name="shed", metric_name="log.shed",
                         group_prefix="/svc", level="WARNING",
                         where=(("outcome", "shed"),))
        rec = LogRecord(0, "WARNING", "/svc/a", "s", "m",
                        {"outcome": "shed"})
        assert f.matches(rec)
        assert not f.matches(LogRecord(0, "INFO", "/svc/a", "s", "m",
                                       {"outcome": "shed"}))
        assert not f.matches(LogRecord(0, "WARNING", "/x", "s", "m",
                                       {"outcome": "shed"}))
        assert not f.matches(LogRecord(0, "WARNING", "/svc/a", "s", "m",
                                       {"outcome": "expired"}))

    def test_matching_records_increment_the_derived_counter(self):
        plane = LogPlane()
        plane.add_filter(MetricFilter(name="shed", metric_name="log.shed",
                                      where=(("outcome", "shed"),)))
        for outcome in ("shed", "completed", "shed"):
            plane.log("/svc", "s", "m", outcome=outcome)
        assert plane.metrics.counter("log.shed").value == 2

    def test_counters_publish_to_cloudwatch(self):
        from repro.cloud.cloudwatch import CloudWatch
        plane = LogPlane()
        plane.add_filter(MetricFilter(name="shed", metric_name="log.shed"))
        plane.log("/svc", "s", "m")
        cw = CloudWatch()
        assert plane.publish_cloudwatch(cw, "svc", timestamp_h=1.0) > 0


class TestTraceEnrichment:
    def test_log_inside_span_carries_its_ids_and_clock(self):
        with Tracer(seed=3) as tracer:
            plane = LogPlane()
            with api.span("work") as sp:
                rec = plane.log("/svc", "s", "m")
        assert rec.trace_id == sp.trace_id
        assert rec.span_id == sp.span_id
        assert rec.timestamp_ns == tracer.system.clock.now_ns

    def test_explicit_ids_win_over_enrichment(self):
        with Tracer(seed=3):
            plane = LogPlane()
            with api.span("work"):
                rec = plane.log("/svc", "s", "m", trace_id="t",
                                span_id="sp", timestamp_ns=5)
        assert (rec.trace_id, rec.span_id, rec.timestamp_ns) == (
            "t", "sp", 5)


class TestJsonlRoundTrip:
    def test_round_trip_is_lossless(self, tmp_path):
        plane = LogPlane()
        with Tracer(seed=3):
            with api.span("work"):
                plane.log("/svc", "a", "one", request_id=1)
        plane.log("/svc", "b", "two", level="ERROR", timestamp_ns=9)
        path = str(tmp_path / "logs.jsonl")
        assert plane.write_jsonl(path) == 2
        loaded = LogPlane.read_jsonl(path)
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in plane.records()]

    def test_empty_plane_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "logs.jsonl")
        assert LogPlane().write_jsonl(path) == 0
        assert LogPlane.read_jsonl(path) == []
