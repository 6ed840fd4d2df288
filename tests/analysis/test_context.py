"""AnalysisContext: the one-parse, one-walk-per-file contract and
derived views."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_ANALYZERS,
    KNOWN_ANALYZERS,
    AnalysisContext,
    parse_count,
    reset_parse_count,
    run_paths,
)
from repro.analysis.driver import collect_files

REPO = Path(__file__).resolve().parents[2]


class TestSingleParse:
    def test_full_repo_all_analyzers_parses_each_file_exactly_once(self):
        """The acceptance criterion: every family over src/repro with
        one ast.parse per file, measured by the framework's own hook."""
        paths = [REPO / "src" / "repro"]
        n_files = len(collect_files(paths))
        reset_parse_count()
        run = run_paths(paths, analyzers=KNOWN_ANALYZERS)
        assert n_files > 100
        assert len(run.contexts) == n_files
        assert parse_count() == n_files

    def test_context_parses_once_for_all_views(self):
        reset_parse_count()
        ctx = AnalysisContext("import time\nx = 1\n", "f.py")
        _ = ctx.lines, ctx.suppressions, ctx.cuda_names, ctx.namespaces
        _ = ctx.imports_repro
        assert parse_count() == 1

    def test_per_family_entry_points_share_the_context(self):
        from repro.analysis.driver import analyze_context

        reset_parse_count()
        ctx = AnalysisContext("x = 1\n", "f.py")
        for family in KNOWN_ANALYZERS:
            analyze_context(ctx, analyzers=(family,))
        assert parse_count() == 1


class TestSingleWalk:
    def test_nodes_are_the_walk_order_for_every_source_file(self):
        files = collect_files([REPO / "src" / "repro"])
        assert len(files) > 100
        for f in files:
            ctx = AnalysisContext.from_file(f)
            assert ctx.nodes == tuple(ast.walk(ctx.tree)), f

    def test_all_analyzers_walk_each_module_at_most_once(self, monkeypatch):
        """Every family and the interprocedural layer read the one
        memoized node sequence instead of re-walking the module."""
        walks: dict[int, list] = {}
        walk = ast.walk

        def counting_walk(node):
            if isinstance(node, ast.Module):
                # keep the module alive so its id is never reused
                walks.setdefault(id(node), [node, 0])[1] += 1
            return walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        run = run_paths([REPO / "src" / "repro", REPO / "examples"],
                        ALL_ANALYZERS, interprocedural=True)
        assert len(run.contexts) > 100
        assert len(walks) == len(run.contexts)
        assert max(count for _, count in walks.values()) == 1

    def test_nodes_are_memoized_on_the_tree(self):
        from repro.analysis.context import module_nodes

        ctx = AnalysisContext("import numpy as np\nx = np.zeros(3)\n",
                              "f.py")
        assert ctx.nodes is module_nodes(ctx.tree)
        assert ctx.nodes[0] is ctx.tree
        assert AnalysisContext("def broken(:\n", "bad.py").nodes == ()


@pytest.mark.parametrize("package", ["repro.analysis", "repro.sanitize",
                                     "repro.perflint", "repro.memcheck",
                                     "repro.analysis.cli"])
def test_each_analyzer_package_imports_first(package):
    """The families import ``module_nodes`` from the framework, so any
    of them can be the first analyzer module a process imports."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"], capture_output=True,
        text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr


class TestDerivedViews:
    def test_line_text_respects_offset(self):
        ctx = AnalysisContext("a = 1\nb = 2\n", "f.py", line_offset=10)
        assert ctx.line_text(11) == "a = 1"
        assert ctx.line_text(12) == "b = 2"
        assert ctx.line_text(99) == ""

    def test_syntax_error_is_recorded_not_raised(self):
        ctx = AnalysisContext("def broken(:\n", "bad.py")
        assert not ctx.ok
        assert ctx.tree is None
        assert ctx.syntax_error is not None

    def test_imports_repro(self):
        assert AnalysisContext("from repro.gpu import Device", "f.py") \
            .imports_repro
        assert AnalysisContext("import repro.serve", "f.py").imports_repro
        assert not AnalysisContext("import numpy", "f.py").imports_repro


class TestSuppressions:
    def test_named_rule(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=DET-WALLCLOCK\n", "f.py")
        assert ctx.is_suppressed("DET-WALLCLOCK", 1)
        assert not ctx.is_suppressed("DET-UNSEEDED-RNG", 1)
        assert not ctx.is_suppressed("DET-WALLCLOCK", 2)

    def test_bare_disable_suppresses_everything(self):
        ctx = AnalysisContext("x = 1  # repro: disable\n", "f.py")
        assert ctx.is_suppressed("ANY-RULE", 1)

    def test_multiple_rules_and_case(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=mem-leak, PERF-SHAPE\n", "f.py")
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert ctx.is_suppressed("PERF-SHAPE", 1)
        assert not ctx.is_suppressed("MEM-UAF", 1)

    def test_bare_noqa_speaks_for_mem_rules_only(self):
        # ruff reads the same comment, so it must not silence SAN/DET
        ctx = AnalysisContext("x = 1  # noqa\n", "f.py")
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert ctx.is_suppressed("MEM-UAF", 1)
        assert not ctx.is_suppressed("SAN-OOB", 1)
        assert not ctx.is_suppressed("DET-WALLCLOCK", 1)

    def test_noqa_named_rules_and_case(self):
        ctx = AnalysisContext("x = 1  # noqa: mem-leak, BLE001\n", "f.py")
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert not ctx.is_suppressed("MEM-UAF", 1)
        assert not ctx.is_suppressed("BLE001", 1)

    def test_both_spellings_read_offset_lines(self):
        ctx = AnalysisContext(
            "a = 1  # noqa: MEM-LEAK\nb = 2  # repro: disable=PERF-SHAPE\n",
            "f.py", line_offset=100)
        assert ctx.is_suppressed("MEM-LEAK", 101)
        assert not ctx.is_suppressed("MEM-LEAK", 1)
        assert ctx.is_suppressed("PERF-SHAPE", 102)
        assert not ctx.is_suppressed("PERF-SHAPE", 2)


class TestCollectFiles:
    def test_overlapping_paths_dedupe(self, tmp_path):
        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n")
        (sub / "b.py").write_text("y = 2\n")
        files = collect_files([pkg, sub, pkg / "a.py"])
        assert len(files) == 2

    def test_missing_file_surfaces_as_error(self, tmp_path):
        with pytest.raises(OSError):
            run_paths([tmp_path / "nope.py"])
