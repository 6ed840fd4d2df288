"""Exporters (Chrome trace, JSONL) and the ``python -m repro.telemetry``
CLI, exercised over a traced RAG serving run — one of the acceptance
workloads."""

import json

import pytest

from repro.rag import RagPipeline, make_corpus
from repro.rag.serving import RagServer
from repro.telemetry import (
    TelemetrySpan,
    Tracer,
    read_jsonl,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from repro.telemetry.cli import main as cli_main
from repro.telemetry.waterfall import render_gantt


@pytest.fixture
def traced_rag(system1):
    """A traced serving run: (tracer, stats)."""
    corpus = make_corpus(n_docs=60, n_queries=8, seed=0)
    pipe = RagPipeline(corpus, device="cuda:0", seed=0)
    with Tracer(seed=3) as tr:
        stats = RagServer(pipe, batch_size=4).serve(
            list(corpus.queries), max_new_tokens=4)
    return tr, stats


class TestChromeExport:
    def test_written_file_is_valid_json(self, traced_rag, tmp_path):
        tr, _ = traced_rag
        path = tmp_path / "trace.json"
        n = write_chrome(str(path), tr.spans, tr.metrics)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(e)
                   for e in doc["traceEvents"])
        assert "rag.latency_ms" in doc["metadata"]["metrics"]

    def test_lanes_split_device_from_workflow(self, traced_rag):
        tr, _ = traced_rag
        doc = to_chrome(tr.spans)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert "workflow" in pids and "gpu0" in pids
        kernel = next(e for e in doc["traceEvents"]
                      if e["cat"] == "kernel")
        assert kernel["pid"] == "gpu0"

    def test_timestamps_are_microseconds(self, traced_rag):
        tr, _ = traced_rag
        (root,) = tr.find("rag.serve")
        doc = to_chrome([root])
        (e,) = doc["traceEvents"]
        assert e["ts"] == root.start_ns / 1e3
        assert e["dur"] == pytest.approx(root.duration_ns / 1e3)


class TestJsonlRoundTrip:
    def test_spans_round_trip_exactly(self, traced_rag, tmp_path):
        tr, _ = traced_rag
        path = tmp_path / "trace.jsonl"
        n_lines = write_jsonl(str(path), tr.spans, tr.metrics)
        spans, metrics = read_jsonl(str(path))
        assert n_lines == len(spans) + len(metrics)
        assert [s.to_dict() for s in spans] == \
            [s.to_dict() for s in tr.spans]
        assert metrics == tr.metrics.collect()

    def test_round_trip_preserves_events_and_status(self, tmp_path):
        s = TelemetrySpan(name="x", kind="task", trace_id="t" * 32,
                          span_id="s" * 16, parent_id=None, start_ns=5)
        s.add_event("retry", 7, {"worker": "w0"})
        s.status = "error"
        s.finish(9)
        path = tmp_path / "one.jsonl"
        write_jsonl(str(path), [s])
        ([back], _) = read_jsonl(str(path))
        assert back.to_dict() == s.to_dict()

    def test_empty_export(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_jsonl(str(path), []) == 0
        assert read_jsonl(str(path)) == ([], {})


class TestCli:
    def _export(self, traced_rag, tmp_path):
        tr, _ = traced_rag
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), tr.spans, tr.metrics)
        return tr, str(path)

    def test_waterfall(self, traced_rag, tmp_path, capsys):
        tr, path = self._export(traced_rag, tmp_path)
        assert cli_main(["waterfall", path]) == 0
        out = capsys.readouterr().out
        assert "rag.serve" in out
        assert "batch 000" in out
        assert "#" in out          # bars rendered

    def test_waterfall_trace_filter(self, traced_rag, tmp_path, capsys):
        tr, path = self._export(traced_rag, tmp_path)
        (root,) = tr.find("rag.serve")
        assert cli_main(["waterfall", path, "--trace", root.trace_id]) == 0
        out = capsys.readouterr().out
        assert f"trace {root.trace_id}" in out
        assert out.count("trace ") == 1

    def test_summary(self, traced_rag, tmp_path, capsys):
        _, path = self._export(traced_rag, tmp_path)
        assert cli_main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "generate" in out
        assert "rag.latency_ms" in out and "p99" in out

    def test_critical_path(self, traced_rag, tmp_path, capsys):
        _, path = self._export(traced_rag, tmp_path)
        assert cli_main(["critical-path", path]) == 0
        out = capsys.readouterr().out
        assert "(total extent)" in out


def _span(name, trace_id, span_id, start_ns=0, end_ns=1000,
          kind="stage", parent_id=None, status="ok"):
    """A span, left open when ``end_ns`` is None."""
    s = TelemetrySpan(name=name, kind=kind, trace_id=trace_id,
                      span_id=span_id, parent_id=parent_id,
                      start_ns=start_ns, status=status)
    return s if end_ns is None else s.finish(end_ns)


class TestFlowEvents:
    def test_links_render_as_flow_start_finish_pairs(self):
        src = _span("serve.request", "t1" + "0" * 30, "a" * 16,
                    start_ns=5000, kind="request")
        dst = _span("serve.batch", "t2" + "0" * 30, "b" * 16,
                    start_ns=2000)
        src.add_link(dst, kind="served_in")
        doc = to_chrome([src, dst])
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert [e["ph"] for e in flows] == ["s", "f"]
        start, finish = flows
        assert start["id"] == finish["id"] == f"{'a' * 16}:{'b' * 16}"
        assert start["name"] == finish["name"] == "served_in"
        assert start["ts"] == 5.0           # source start, in us
        assert finish["ts"] == 2.0          # target start, in us
        assert finish["bp"] == "e"

    def test_link_to_absent_span_emits_no_flow(self):
        src = _span("serve.request", "t1" + "0" * 30, "a" * 16)
        dst = _span("serve.batch", "t2" + "0" * 30, "b" * 16)
        src.add_link(dst, kind="served_in")
        doc = to_chrome([src])              # dst not exported
        assert [e for e in doc["traceEvents"]
                if e.get("cat") == "flow"] == []

    def test_jsonl_round_trip_preserves_links(self, tmp_path):
        src = _span("serve.request", "t1" + "0" * 30, "a" * 16)
        dst = _span("serve.batch", "t2" + "0" * 30, "b" * 16)
        link = src.add_link(dst, kind="served_in")
        assert (link.trace_id, link.span_id) == (dst.trace_id,
                                                 dst.span_id)
        path = tmp_path / "links.jsonl"
        write_jsonl(str(path), [src, dst])
        (spans, _) = read_jsonl(str(path))
        assert [s.to_dict() for s in spans] == [
            s.to_dict() for s in [src, dst]]
        assert spans[0].links[0].kind == "served_in"

    def test_linkless_spans_round_trip_unchanged(self, tmp_path):
        s = _span("plain", "t1" + "0" * 30, "c" * 16)
        path = tmp_path / "plain.jsonl"
        write_jsonl(str(path), [s])
        ([back], _) = read_jsonl(str(path))
        assert back.links == []
        assert "links" in back.to_dict()


def _gantt_spans():
    """Two interleaved traces: nesting three deep, an unended span, an
    error span, a parent that is not in the list, and a parent in the
    other trace (neither counts toward a depth)."""
    t1, t2 = "a" * 32, "b" * 32
    return [
        _span("serve", t1, "r1", 0, 8_000_000, "workflow"),
        _span("orphan", t2, "o1", 10_001_000, 10_002_000, "task", "gone"),
        _span("embed", t1, "s1", 500_000, 3_000_000, "stage", "r1"),
        _span("train", t2, "r2", 10_000_000, 10_004_000, "workflow"),
        _span("task:layer0", t1, "k1", 1_000_000, 2_500_000, "task", "s1"),
        _span("gemm 256x1024 with a label too long to fit", t1, "g1",
              1_200_000, 2_000_000, "kernel", "k1"),
        _span("cross", t2, "x1", 10_001_000, 10_003_000, "task", "s1"),
        _span("generate", t1, "s2", 3_000_000, 7_999_000, "stage", "r1",
              status="error"),
        _span("stream", t1, "s3", 6_000_000, None, "stage", "r1"),
    ]


GANTT = """\
trace aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa  (6 spans, 8.000 ms)
serve                              workflow   |########################################|     8.000 ms
  embed                            stage      |  #############                         |     2.500 ms
    task:layer0                    task       |     #######                            |     1.500 ms
      gemm 256x1024 with a label t kernel     |      ####                              |     0.800 ms
  generate                         stage      |               #########################|     4.999 ms !
  stream                           stage      |                              ##########|     2.000 ms

trace bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb  (3 spans, 0.004 ms)
train                              workflow   |########################################|     0.004 ms
orphan                             task       |          ##########                    |     0.001 ms
cross                              task       |          ####################          |     0.002 ms"""


class TestGanttBytes:
    def test_gantt_view_is_pinned(self):
        assert render_gantt(_gantt_spans()) == GANTT

    def test_cli_prints_the_same_bytes(self, tmp_path, capsys):
        path = tmp_path / "gantt.jsonl"
        write_jsonl(str(path), _gantt_spans())
        assert cli_main(["waterfall", str(path)]) == 0
        assert capsys.readouterr().out == GANTT + "\n"

    def test_empty_trace(self):
        assert render_gantt([]) == "(empty trace)"
