"""CLI dispatch for --analyzers mem, the examples/ cleanliness gate,
and the GradeBook auto-feedback hook."""

import json
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.cli import main
from repro.course.grading import GradeBook

REPO = Path(__file__).resolve().parents[2]
FAMILY = ("mem",)
FIXTURE = Path(__file__).parent / "fixtures" / "leaky_workflow.py"


def _json_findings(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload["findings"]


class TestCliDispatch:
    def test_mem_analyzer_reports_fixture_leak(self, capsys):
        code, findings = _json_findings(
            capsys, ["--analyzers", "mem", "--format", "json",
                     str(FIXTURE)])
        assert code == 1
        assert {f["rule"] for f in findings} == {"MEM-LEAK"}
        (f,) = findings
        assert f["file"] == str(FIXTURE)
        assert f["hint"]

    def test_mem_composes_with_other_families(self, capsys):
        code, findings = _json_findings(
            capsys, ["--analyzers", "perf,mem", "--format", "json",
                     str(FIXTURE)])
        assert code == 1
        rules = {f["rule"] for f in findings}
        assert "MEM-LEAK" in rules
        # the mem family must not re-emit perflint rules: any PERF-*
        # finding here comes from perflint exactly once
        leaks = [f for f in findings if f["rule"] == "MEM-LEAK"]
        assert len(leaks) == 1

    def test_all_alias_includes_mem(self, capsys):
        code, findings = _json_findings(
            capsys, ["--analyzers", "all", "--format", "json",
                     str(FIXTURE)])
        assert code == 1
        assert any(f["rule"] == "MEM-LEAK" for f in findings)


class TestExamplesGate:
    """The CI gate: the shipped examples must be leak/UAF/OOM clean."""

    def test_examples_tree_is_mem_clean(self, capsys):
        assert main(["--analyzers", "mem", str(REPO / "examples")]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_src_tree_is_mem_clean(self, capsys):
        assert main(["--analyzers", "mem", str(REPO / "src" / "repro")]) \
            == 0
        capsys.readouterr()


class TestGradingHook:
    def test_leaky_submission_loses_points_with_feedback(self):
        book = GradeBook()
        sub = book.record_workflow_lab("ada", "lab7", FIXTURE)
        assert sub.score < 100.0
        assert any("MEM-LEAK" in line for line in sub.feedback)
        assert any("fix:" in line for line in sub.feedback)

    def test_mem_analyzer_can_be_opted_out(self):
        book = GradeBook()
        sub = book.record_workflow_lab(
            "ada", "lab7", FIXTURE, analyzers=("perf",))
        assert not any("MEM-" in line for line in sub.feedback)


class TestAnalyzePaths:
    def test_overlapping_paths_analyze_each_file_once(self):
        once = analyze_paths([FIXTURE.parent], analyzers=FAMILY)
        assert once.findings
        assert analyze_paths([FIXTURE.parent, FIXTURE],
                             analyzers=FAMILY).findings == once.findings
        assert analyze_paths([FIXTURE.parent, FIXTURE.parent],
                             analyzers=FAMILY).findings == once.findings
