"""End-to-end: the seeded overload scenario, waterfalls, and the CLI.

The acceptance criteria of the correlation layer, pinned:

* the burn-rate alerts fire during the burst and clear after it,
  deterministically;
* the autoscaler reacts to the breach alarm;
* every p99 exemplar on the report resolves to a retained trace;
* ``waterfall <request-id>`` renders one causal tree spanning request →
  batch → scheduler task → GPU kernel;
* the whole artifact set is byte-identical across reruns.
"""

import json

import pytest

from repro.obs.cli import main as cli_main
from repro.obs.scenario import run_overload_scenario, write_artifacts
from repro.telemetry.waterfall import WaterfallIndex, render_request_waterfall
from repro.serve.request import OUTCOME_COMPLETED


@pytest.fixture(scope="module")
def result():
    return run_overload_scenario()


class TestScenario:
    def test_the_burst_overloads_the_fleet(self, result):
        rep = result.report
        assert rep.submitted > 5_000
        assert rep.shed + rep.expired > 0
        assert rep.completed + rep.shed + rep.expired == rep.submitted

    def test_fast_and_slow_alerts_fire_and_clear(self, result):
        edges = [(t.rule, t.action) for t in result.monitor.alerts]
        assert ("fast", "fire") in edges and ("fast", "clear") in edges
        assert ("slow", "fire") in edges and ("slow", "clear") in edges
        # and in that order per rule
        for rule in ("fast", "slow"):
            actions = [a for r, a in edges if r == rule]
            assert actions == ["fire", "clear"]

    def test_alert_edges_reach_the_log_plane(self, result):
        lines = result.observer.log_plane.records(stream="slo-monitor")
        assert [r.level for r in lines] == ["ERROR", "ERROR",
                                           "INFO", "INFO"]

    def test_autoscaler_scales_out_on_the_breach_alarm(self, result):
        sim = result.observer._sim
        breach = [d for d in sim.autoscaler.decisions
                  if "burn-rate breach" in d.reason]
        assert breach and all(d.action == "scale_out" for d in breach)
        fires = [t.time_ms for t in result.monitor.alerts
                 if t.rule == "fast" and t.action == "fire"]
        assert min(d.time_ms for d in breach) >= fires[0]

    def test_burn_alarms_guard_against_the_reaper(self, result):
        from repro.cloud.reaper import SLO_GUARD_NAMESPACE
        cw = result.observer._sim.endpoint.session.cloudwatch
        fast = cw.alarms[result.monitor.alarm_name("fast")]
        assert fast.namespace == SLO_GUARD_NAMESPACE
        assert any(new == "ALARM" for _, _, new in fast.history)

    def test_sampling_is_bounded_and_honest(self, result):
        sampler = result.observer.sampler
        assert sampler.seen == result.report.submitted
        retained = sampler.retained_requests()
        assert len(retained) < sampler.seen / 10
        assert sampler.errors_dropped > 0     # the cap was exercised...
        shed_logged = result.observer.log_plane.metrics.counter(
            "log.shed").value
        assert shed_logged == result.report.shed   # ...but logs saw all


class TestExemplars:
    def test_p99_exemplars_resolve_to_retained_traces(self, result):
        exemplars = result.report.latency_exemplars
        assert exemplars
        index = WaterfallIndex(result.spans)
        for latency_ms, label in exemplars:
            rid = int(label)
            assert result.observer.sampler.is_retained(rid)
            span = index.find_request(rid)
            assert span is not None
            assert span.duration_ms == pytest.approx(latency_ms, rel=1e-6)

    def test_exemplars_are_the_slowest_retained(self, result):
        slowest = {r.request_id
                   for r in result.observer.sampler.retained_requests()
                   if r.outcome == OUTCOME_COMPLETED}
        assert {int(label)
                for _, label in result.report.latency_exemplars} <= slowest


class TestWaterfall:
    def test_renders_request_to_kernel_causal_tree(self, result):
        _, label = result.report.latency_exemplars[0]
        text = render_request_waterfall(result.spans, int(label))
        assert f"waterfall for request {int(label)}" in text
        for marker in ("serve.request", "▶ served_in:", "serve.batch",
                       "▶ calibrated_as:", "serve.calibrate[batch=",
                       "task:layer0", "gemm", "[kernel]"):
            assert marker in text, marker
        # containment order: request before batch before kernel
        lines = text.splitlines()
        assert (lines.index(next(l for l in lines if "serve.batch" in l))
                < lines.index(next(l for l in lines if "gemm" in l)))

    def test_every_retained_request_has_a_span(self, result):
        index = WaterfallIndex(result.spans)
        for rec in result.observer.sampler.retained_requests():
            span = index.find_request(rec.request_id)
            assert span is not None
            assert span.trace_id.startswith("00000007f")

    def test_error_requests_render_with_error_status(self, result):
        errors = [r for r in result.observer.sampler.retained_requests()
                  if r.outcome != OUTCOME_COMPLETED]
        assert errors
        text = render_request_waterfall(result.spans,
                                        errors[0].request_id)
        assert "status=error" in text
        assert f"outcome={errors[0].outcome}" in text

    def test_unretained_request_lists_alternatives(self, result):
        missing = max(r.request_id for r in
                      result.observer.sampler.retained_requests()) + 10**6
        text = render_request_waterfall(result.spans, missing)
        assert "not in the retained sample" in text
        assert "retained request ids:" in text


class TestDeterminism:
    def test_artifacts_are_byte_identical_across_reruns(
            self, result, tmp_path):
        first = write_artifacts(result, str(tmp_path / "a"))
        second = write_artifacts(run_overload_scenario(),
                                 str(tmp_path / "b"))
        for kind in ("trace", "logs", "slo", "report"):
            a = open(first[kind], "rb").read()
            b = open(second[kind], "rb").read()
            assert a == b, f"{kind} artifact differs across reruns"
            assert a                       # and is non-trivial


class TestCli:
    def test_run_prints_alerts_and_sampling_summary(self, capsys):
        assert cli_main(["run"]) == 0
        out = capsys.readouterr().out
        assert "fast fire" in out and "fast clear" in out
        assert "budget spent" in out
        assert "sampled" in out

    def test_waterfall_from_exported_trace(self, result, tmp_path,
                                           capsys):
        paths = write_artifacts(result, str(tmp_path))
        _, label = result.report.latency_exemplars[0]
        assert cli_main(["waterfall", str(int(label)),
                         "--trace", paths["trace"]]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "[kernel]" in out

    def test_logs_subcommand_filters_streams(self, result, tmp_path,
                                             capsys):
        paths = write_artifacts(result, str(tmp_path))
        assert cli_main(["logs", paths["logs"],
                         "--stream", "slo-monitor"]) == 0
        out = capsys.readouterr().out
        assert "burn-rate alert fast fire" in out
        assert "(4 of" in out

    def test_burnrate_subcommand_renders_the_timeline(
            self, result, tmp_path, capsys):
        paths = write_artifacts(result, str(tmp_path))
        assert cli_main(["burnrate", paths["slo"]]) == 0
        out = capsys.readouterr().out
        assert "rule fast" in out and "fire" in out and "clear" in out

    def test_slo_json_is_valid_and_complete(self, result, tmp_path):
        paths = write_artifacts(result, str(tmp_path))
        doc = json.loads(open(paths["slo"]).read())
        assert doc["good"] + doc["bad"] == result.report.submitted
        assert len(doc["alerts"]) == len(result.monitor.alerts)
