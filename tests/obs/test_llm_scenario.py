"""The seeded LLM scenario: decode waterfalls, TTFT exemplars, CLI.

Acceptance for the iteration plane's observability: ``waterfall`` on a
TTFT exemplar renders one causal tree spanning request →
decode-iteration → calibration → GPU kernel, and the whole run is
byte-identical across reruns.
"""

import pytest

from repro.obs.cli import main as cli_main
from repro.obs.scenario import run_llm_scenario
from repro.telemetry.waterfall import WaterfallIndex, render_request_waterfall


@pytest.fixture(scope="module")
def result():
    return run_llm_scenario()


class TestScenario:
    def test_the_report_speaks_tokens(self, result):
        rep = result.report
        assert rep.completed > 0
        assert rep.total_tokens > 0 and rep.prefill_tokens > 0
        assert rep.tokens_per_sec > 0
        assert 0 < rep.ttft_p50_ms <= rep.ttft_p99_ms
        assert 0 < rep.itl_p50_ms <= rep.itl_p99_ms
        assert rep.kv_peak_pages > 0

    def test_ttft_exemplars_resolve_to_retained_traces(self, result):
        assert result.report.ttft_exemplars
        index = WaterfallIndex(result.spans)
        for _, label in result.report.ttft_exemplars:
            rid = int(label)
            assert result.observer.sampler.is_retained(rid)
            assert index.find_request(rid) is not None

    def test_iteration_batches_are_retained(self, result):
        # requests resolve against the iteration they *finished* in, and
        # every generation runs >= 4 tokens — so retained batches are
        # all decode iterations carrying a decode calibration key
        batches = result.observer.sampler.retained_batches()
        labels = {b.label for b in batches}
        assert labels == {"serve.decode_iter"}
        assert all(b.phase == "decode" and b.tokens > 0
                   and b.calibration_key[0] == "decode" for b in batches)


class TestWaterfall:
    def test_renders_request_to_decode_iteration_to_kernel(self, result):
        _, label = result.report.ttft_exemplars[0]
        text = render_request_waterfall(result.spans, int(label))
        for marker in ("serve.request", "ttft_ms=", "▶ served_in:",
                       "serve.decode_iter", "phase=decode",
                       "▶ calibrated_as:", "llm.calibrate[",
                       "decode.gemm", "decode.attn", "[kernel]"):
            assert marker in text, marker
        # containment order: request before iteration before kernel
        lines = text.splitlines()
        assert (lines.index(next(l for l in lines
                                 if "serve.decode_iter" in l))
                < lines.index(next(l for l in lines
                                   if "decode.gemm" in l)))


class TestDeterminism:
    def test_rerun_is_byte_identical(self, result):
        again = run_llm_scenario()
        assert again.report.to_json() == result.report.to_json()
        assert ([s.to_dict() for s in again.spans]
                == [s.to_dict() for s in result.spans])


class TestCli:
    def test_run_scenario_llm(self, capsys):
        assert cli_main(["run", "--scenario", "llm"]) == 0
        out = capsys.readouterr().out
        assert "tokens" in out and "ttft" in out
        assert "sampled" in out

    def test_waterfall_scenario_llm(self, result, capsys):
        _, label = result.report.ttft_exemplars[0]
        assert cli_main(["waterfall", str(int(label)),
                         "--scenario", "llm"]) == 0
        out = capsys.readouterr().out
        assert "serve.decode_iter" in out and "[kernel]" in out
