"""The unified CLI: analyzer selection, ordering determinism,
overlapping-path dedupe, SARIF output, the baseline workflow, and the
interprocedural mode (``--interprocedural`` / ``--call-graph``)."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
INTERPROC = Path(__file__).resolve().parent / "fixtures_interproc"
ABSINT = Path(__file__).resolve().parent / "fixtures_absint"
REPO = Path(__file__).resolve().parents[2]


class TestAnalyzerSelection:
    def test_unknown_analyzer_exits_2_and_is_named(self, capsys):
        rc = main(["--analyzers", "kernel,prf,det", str(FIXTURES)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown analyzer" in err
        assert "'prf'" in err
        assert "kernel, perf, cost, iam, mem, det" in err

    def test_empty_spec_exits_2(self, capsys):
        rc = main(["--analyzers", " , ", str(FIXTURES)])
        assert rc == 2
        assert "unknown analyzer" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        rc = main(["--analyzers", "det", str(FIXTURES / "nope.py")])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_all_expands_to_every_family(self, capsys):
        rc = main(["--analyzers", "all", "--format", "json",
                   str(FIXTURES / "det_clean_workflow.py")])
        assert rc == 0


class TestAbsintCli:
    def test_opt_in_by_name(self, capsys):
        rc = main(["--analyzers", "absint", "--format", "json",
                   str(ABSINT / "vec_clean.py")])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {f["rule"] for f in findings} == {"VEC-VECTORIZABLE"}
        assert "elementwise" in findings[0]["message"]

    def test_all_does_not_include_the_opt_in(self, capsys):
        rc = main(["--analyzers", "all", "--format", "json",
                   str(ABSINT / "vec_clean.py")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_all_plus_absint_combines(self, capsys):
        rc = main(["--analyzers", "all,absint", "--format", "json",
                   str(ABSINT / "vec_clean.py")])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {f["rule"] for f in findings} == {"VEC-VECTORIZABLE"}

    def test_unknown_analyzer_error_names_absint(self, capsys):
        rc = main(["--analyzers", "absnt", str(ABSINT)])
        assert rc == 2
        assert "absint" in capsys.readouterr().err

    def test_errors_only_gates_on_proofs_not_notes(self, capsys):
        rc = main(["--analyzers", "absint", "--errors-only",
                   "--format", "json", str(ABSINT)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_inline_suppression_of_vec_note(self, capsys):
        rc = main(["--analyzers", "absint", "--format", "json",
                   str(ABSINT / "vec_divergent.py")])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {f["rule"] for f in findings} == {"VEC-DIVERGENT"}
        rc = main(["--analyzers", "absint", "--format", "json",
                   str(ABSINT / "vec_divergent_suppressed.py")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_baseline_round_trip_for_vec_family(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main(["--analyzers", "absint", "--baseline", str(baseline),
                   "--update-baseline", str(ABSINT)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["--analyzers", "absint", "--baseline", str(baseline),
                   "--format", "json", str(ABSINT)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_kernel_classes_json(self, capsys):
        rc = main(["--kernel-classes", "json", str(ABSINT)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.analysis.absint"
        by_name = {k["kernel"]: k for k in doc["kernels"]}
        saxpy = by_name["saxpy"]
        assert saxpy["class"] == "elementwise"
        assert saxpy["oob"] == "proven_safe"
        assert saxpy["launches"] == 1
        bases = {ax["base"] for a in saxpy["accesses"]
                 for ax in a["axes"]}
        assert bases == {"256*bid.x + tid.x"}
        assert by_name["gather"]["class"] == "divergent-fallback"
        assert doc["summary"]["total"] == 3

    def test_kernel_classes_json_is_deterministic(self, capsys):
        main(["--kernel-classes", "json", str(ABSINT)])
        one = capsys.readouterr().out
        main(["--kernel-classes", "json", str(ABSINT)])
        assert capsys.readouterr().out == one


class TestDeterministicOutput:
    def test_json_is_stable_across_analyzer_permutations(self, capsys):
        outputs = set()
        for perm in itertools.permutations(("kernel", "perf", "det")):
            rc = main(["--analyzers", ",".join(perm), "--format", "json",
                       str(FIXTURES)])
            assert rc == 1
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    #: one input per family: a fixture directory and a file in it
    OVERLAPS = (
        ("kernel", REPO / "tests" / "sanitize" / "fixtures_kernel",
         "same_named.py"),
        ("perf,cost,iam", REPO / "tests" / "perflint" / "fixtures",
         "bad_workflow.py"),
        ("mem", REPO / "tests" / "memcheck" / "fixtures",
         "leaky_workflow.py"),
        ("det", FIXTURES, "det_unordered_export.py"),
    )

    def test_overlapping_paths_report_each_finding_once(self, capsys):
        for family, directory, name in self.OVERLAPS:
            single = str(directory / name)
            main(["--analyzers", family, "--format", "json", single])
            alone = json.loads(capsys.readouterr().out)["findings"]
            main(["--analyzers", family, "--format", "json",
                  str(directory)])
            once = capsys.readouterr().out
            main(["--analyzers", family, "--format", "json",
                  str(directory), single, str(directory)])
            merged = capsys.readouterr().out
            assert merged == once, family
            findings = json.loads(merged)["findings"]
            assert alone, family
            assert all(findings.count(f) == 1 for f in alone), family

    def test_findings_sorted_by_file_line_rule(self, capsys):
        main(["--analyzers", "det", "--format", "json", str(FIXTURES)])
        findings = json.loads(capsys.readouterr().out)["findings"]
        keys = [(f["file"], f["line"], f["rule"]) for f in findings]
        assert keys == sorted(keys)


class TestSarifOutput:
    def test_sarif_format(self, capsys):
        rc = main(["--analyzers", "det", "--format", "sarif",
                   str(FIXTURES / "det_wallclock_timeline.py")])
        assert rc == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"DET-WALLCLOCK"}
        assert all("partialFingerprints" in r for r in results)


class TestBaselineWorkflow:
    def test_update_then_filter(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(FIXTURES / "det_wallclock_timeline.py")
        rc = main(["--analyzers", "det", "--baseline", str(baseline),
                   "--update-baseline", target])
        assert rc == 0
        assert baseline.exists()
        capsys.readouterr()
        # baselined findings no longer fail the run
        rc = main(["--analyzers", "det", "--baseline", str(baseline),
                   "--format", "json", target])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []
        # a file with findings outside the baseline still fails
        rc = main(["--analyzers", "det", "--baseline", str(baseline),
                   "--format", "json", target,
                   str(FIXTURES / "det_unseeded_load.py")])
        assert rc == 1
        rules = {f["rule"] for f in
                 json.loads(capsys.readouterr().out)["findings"]}
        assert rules == {"DET-UNSEEDED-RNG"}

    def test_errors_only_drops_warnings(self, capsys):
        rc = main(["--analyzers", "det", "--errors-only", "--format",
                   "json", str(FIXTURES / "det_unseeded_load.py")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_version1_baseline_migrates_in_one_shot(self, tmp_path,
                                                    capsys):
        """A pre-normalization ledger keeps filtering via its legacy
        fingerprints until ``--update-baseline`` rewrites it."""
        from repro.analysis import (
            Baseline, fingerprint_report, run_paths)

        target = str(FIXTURES / "det_wallclock_timeline.py")
        run = run_paths([target], analyzers=("det",))
        legacy = fingerprint_report(run.report, run.line_text,
                                    legacy=True)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "fingerprints": sorted(fp for _, fp in legacy),
        }))
        # the v1 fingerprints still filter everything out
        rc = main(["--analyzers", "det", "--baseline", str(path),
                   "--format", "json", target])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []
        # one shot: --update-baseline announces and performs migration
        rc = main(["--analyzers", "det", "--baseline", str(path),
                   "--update-baseline", target])
        assert rc == 0
        assert "migrated to version-2" in capsys.readouterr().err
        assert Baseline.load(path).version == 2
        data = json.loads(path.read_text())
        assert data["paths"] == "repo-root-relative"
        # and the migrated ledger filters with v2 fingerprints alone
        rc = main(["--analyzers", "det", "--baseline", str(path),
                   "--format", "json", target])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []


class TestInterproceduralCli:
    def test_flag_adds_chain_findings(self, capsys):
        # the corpus is invisible intra-procedurally: every defect
        # crosses a function boundary, so the default mode passes
        rc = main(["--analyzers", "all", "--format", "json",
                   str(INTERPROC)])
        assert rc == 0
        base = json.loads(capsys.readouterr().out)["findings"]
        assert base == []
        rc = main(["--analyzers", "all", "--interprocedural",
                   "--format", "json", str(INTERPROC)])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        chained = {f["rule"] for f in findings if f.get("chain")}
        assert "SAN-HOST-CALL-IN-KERNEL" in chained
        assert "PERF-LOOP-TRANSFER" in chained
        assert len(findings) > len(base)

    def test_call_graph_json(self, capsys):
        rc = main(["--call-graph", "json", str(INTERPROC)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "repro.analysis"
        assert data["nodes"] and data["edges"]
        kernels = [n for n in data["nodes"] if n["kernel"]]
        assert {n["qualname"] for n in kernels} == \
            {"scale", "scale_clean"}

    def test_call_graph_dot(self, capsys):
        rc = main(["--call-graph", "dot", str(INTERPROC)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph callgraph {")
        assert "->" in out

    def test_python_m_repro_analysis_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--analyzers",
             "all", "--interprocedural", "--format", "json",
             "tests/analysis/fixtures_interproc"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 1, proc.stderr
        findings = json.loads(proc.stdout)["findings"]
        assert any(f.get("chain") for f in findings)
