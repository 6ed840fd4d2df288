"""`python -m repro.analysis --analyzers ...`: dispatch, reporters, gate."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[2]
FAMILY = ("perf", "cost", "iam")
FIXTURE = Path(__file__).parent / "fixtures" / "bad_workflow.py"


def _json_findings(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload["findings"]


class TestAnalyzerSelection:
    def test_unknown_analyzer_exits_two(self, capsys):
        assert main(["--analyzers", "kernel,espresso", str(FIXTURE)]) == 2
        assert "unknown analyzer" in capsys.readouterr().err

    def test_default_stays_kernel_only(self, capsys):
        # backwards compatible: without --analyzers the workflow
        # anti-patterns in the fixture are invisible
        assert main([str(FIXTURE)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_all_alias(self, capsys):
        code, findings = _json_findings(
            capsys, ["--analyzers", "all", "--format", "json", str(FIXTURE)])
        assert code == 1
        assert findings


class TestFixtureFindings:
    """The acceptance gate: one pinned finding per family, each carrying
    rule id, file:line, and a fix hint."""

    def _family(self, findings, prefix):
        return [f for f in findings if f["rule"].startswith(prefix)]

    def test_each_family_reports_with_location_and_hint(self, capsys):
        code, findings = _json_findings(
            capsys, ["--analyzers", "perf,cost,iam", "--format", "json",
                     str(FIXTURE)])
        assert code == 1
        for prefix in ("PERF-", "COST-", "IAM-"):
            family = self._family(findings, prefix)
            assert family, f"no {prefix} findings on the seeded fixture"
            for f in family:
                assert f["file"] == str(FIXTURE)
                assert f["line"] > 0
                assert f["hint"]

    def test_pinned_perf_lines(self, capsys):
        _, findings = _json_findings(
            capsys, ["--analyzers", "perf", "--format", "json",
                     str(FIXTURE)])
        by_rule = {f["rule"]: f["line"] for f in findings}
        assert by_rule["PERF-LOOP-TRANSFER"] == 19
        assert by_rule["PERF-LOOP-ALLOC"] == 20
        assert by_rule["PERF-SHAPE"] == 23

    def test_pinned_cost_findings(self, capsys):
        _, findings = _json_findings(
            capsys, ["--analyzers", "cost", "--format", "json",
                     str(FIXTURE)])
        rules = {f["rule"] for f in findings}
        assert {"COST-BUDGET-CAP", "COST-IDLE", "COST-SPOT"} <= rules
        cap = next(f for f in findings if f["rule"] == "COST-BUDGET-CAP")
        assert cap["line"] == 27
        assert cap["severity"] == "error"

    def test_pinned_iam_over_and_under_grant(self, capsys):
        _, findings = _json_findings(
            capsys, ["--analyzers", "iam", "--format", "json",
                     str(FIXTURE)])
        rules = {f["rule"]: f for f in findings}
        assert set(rules) == {"IAM-UNDER-GRANT", "IAM-OVER-GRANT"}
        assert rules["IAM-UNDER-GRANT"]["severity"] == "error"
        assert "ec2:TerminateInstances" in rules["IAM-UNDER-GRANT"]["message"]
        assert "s3:DeleteObject" in rules["IAM-OVER-GRANT"]["message"]

    def test_text_report_names_rule_and_location(self, capsys):
        assert main(["--analyzers", "perf,cost,iam", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "PERF-LOOP-TRANSFER" in out
        assert f"{FIXTURE}:19" in out
        assert "hint:" in out

    def test_syntax_error_reported_once_across_families(self, tmp_path,
                                                        capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        _, findings = _json_findings(
            capsys, ["--analyzers", "all", "--format", "json", str(path)])
        assert [f["rule"] for f in findings] == ["SAN-SYNTAX"]


class TestAnalyzePaths:
    def test_overlapping_paths_analyze_each_file_once(self):
        once = analyze_paths([FIXTURE.parent], analyzers=FAMILY)
        assert once.findings
        assert analyze_paths([FIXTURE.parent, FIXTURE],
                             analyzers=FAMILY).findings == once.findings
        assert analyze_paths([FIXTURE.parent, FIXTURE.parent],
                             analyzers=FAMILY).findings == once.findings


class TestAcceptance:
    def test_repo_gate_is_clean_under_all_analyzers(self):
        # the CI gate: examples/ and the library itself lint clean under
        # every family
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             "--analyzers", "kernel,perf,cost,iam",
             "examples/", "src/repro/"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"),
                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no issues found" in proc.stdout

