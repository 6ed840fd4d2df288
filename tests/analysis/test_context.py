"""AnalysisContext: the one-parse, one-walk-per-file contract, the
traversal layer every analyzer walks with, and derived views."""

import ast
import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import weakref
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
from repro.analysis import context
from repro.analysis.context import Visitor, children, nodes_of, walk
from repro.analysis.driver import collect_files

REPO = Path(__file__).resolve().parents[2]

#: the packages whose analyzers walk trees only through the framework
ANALYZER_PACKAGES = ("analysis", "perflint", "memcheck", "sanitize")


def _corpus_trees():
    """``(path, tree)`` for every file of ``src/repro`` and the analysis
    fixture corpora that parses."""
    files = collect_files([REPO / "src" / "repro"]
                          + sorted((REPO / "tests" / "analysis")
                                   .glob("fixtures*")))
    assert len(files) > 100
    for f in files:
        try:
            yield f, ast.parse(Path(f).read_text(), filename=str(f))
        except SyntaxError:
            continue


def _ids(nodes):
    return [id(n) for n in nodes]


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
        memoized node sequence instead of re-walking the module, whether
        a walk would go through ``ast.walk`` or the framework's
        ``walk``."""
        walks: dict[int, list] = {}

        def counting(walk):
            def counting_walk(node):
                if isinstance(node, ast.Module):
                    # keep the module alive so its id is never reused
                    walks.setdefault(id(node), [node, 0])[1] += 1
                return walk(node)
            return counting_walk

        # every analyzer module is loaded first, so each name bound to
        # the framework's walk is patched where it lives
        for name in ANALYZER_PACKAGES:
            package = importlib.import_module(f"repro.{name}")
            for info in pkgutil.iter_modules(package.__path__):
                importlib.import_module(f"repro.{name}.{info.name}")
        framework_walk = context.walk
        monkeypatch.setattr(ast, "walk", counting(ast.walk))
        for module in list(sys.modules.values()):
            if getattr(module, "walk", None) is framework_walk:
                monkeypatch.setattr(module, "walk",
                                    counting(framework_walk))
        run = run_paths([REPO / "src" / "repro", REPO / "examples"],
                        ALL_ANALYZERS, interprocedural=True)
        assert len(run.contexts) > 100
        assert len(walks) == len(run.contexts)
        assert max(count for _, count in walks.values()) == 1

    def test_nodes_are_memoized_on_the_tree(self, monkeypatch):
        from repro.analysis.context import module_nodes

        walked = []
        framework_walk = context.walk
        monkeypatch.setattr(context, "walk",
                            lambda node: walked.append(node)
                            or framework_walk(node))
        ctx = AnalysisContext("import numpy as np\nx = np.zeros(3)\n",
                              "f.py")
        assert ctx.nodes is ctx.nodes
        assert _ids(ctx.nodes) == _ids(module_nodes(ctx.tree))
        assert _ids(nodes_of(ctx.tree, ast.Call)) == _ids(
            n for n in ctx.nodes if isinstance(n, ast.Call))
        assert walked == [ctx.tree]     # one walk, kept on the tree
        assert ctx.nodes[0] is ctx.tree
        assert AnalysisContext("def broken(:\n", "bad.py").nodes == ()

    def test_walked_modules_free_without_the_cycle_collector(self):
        """The walk kept on a tree holds the nodes below it, not the
        tree, so a parsed module is no reference cycle: dropping a run
        frees its trees at once, with the cycle collector off."""
        gc.collect()
        gc.disable()
        try:
            run = run_paths([REPO / "examples"], ALL_ANALYZERS,
                            interprocedural=True)
            trees = [weakref.ref(ctx.tree) for ctx in run.contexts.values()]
            del run
            assert trees and all(tree() is None for tree in trees)
        finally:
            gc.enable()


class TestTraversal:
    """``children``, ``walk``, ``Visitor`` and ``nodes_of`` give exactly
    what the stdlib gives, node for node, in the same order."""

    def test_children_and_walk_match_the_stdlib_at_every_node(self):
        for f, tree in _corpus_trees():
            for node in ast.walk(tree):
                assert _ids(children(node)) \
                    == _ids(ast.iter_child_nodes(node)), f
                assert _ids(walk(node)) == _ids(ast.walk(node)), f

    def test_visitor_visits_in_node_visitor_order(self):
        def recorder(base):
            class Recorder(base):
                def __init__(self):
                    self.seen = []

                def visit_Call(self, node):
                    self.seen.append(("call", id(node)))
                    self.generic_visit(node)

                def visit_Name(self, node):
                    self.seen.append(("name", id(node)))

                def visit_Lambda(self, node):
                    self.seen.append(("lambda", id(node)))  # no descent

                def generic_visit(self, node):
                    self.seen.append(("generic", id(node)))
                    super().generic_visit(node)
            return Recorder

        for f, tree in _corpus_trees():
            ours, stdlib = recorder(Visitor)(), recorder(ast.NodeVisitor)()
            ours.visit(tree)
            stdlib.visit(tree)
            assert ours.seen == stdlib.seen, f

    @pytest.mark.parametrize("kinds", [
        (ast.Call,), (ast.FunctionDef,), (ast.Load,),
        (ast.Import, ast.ImportFrom),
        (ast.Name, ast.Attribute, ast.Subscript),
        (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
    ], ids=lambda kinds: "+".join(k.__name__ for k in kinds))
    def test_nodes_of_is_the_filtered_walk(self, kinds):
        for f, tree in _corpus_trees():
            expected = [n for n in ast.walk(tree) if isinstance(n, kinds)]
            assert _ids(nodes_of(tree, *kinds)) == _ids(expected), f

    @pytest.mark.parametrize("kind", [ast.AST, ast.stmt, ast.expr,
                                      ast.expr_context, ast.operator,
                                      ast.excepthandler, int])
    def test_nodes_of_rejects_abstract_classes(self, kind):
        tree = ast.parse("x = 1\n")
        with pytest.raises(TypeError):
            nodes_of(tree, kind)
        with pytest.raises(TypeError):
            nodes_of(tree, ast.Name, kind)

    def test_no_analyzer_walks_through_the_stdlib(self):
        """Every analyzer module walks trees through ``context.py``:
        none calls ``ast.walk`` / ``ast.iter_child_nodes`` or subclasses
        ``ast.NodeVisitor``."""
        banned = {"walk", "iter_child_nodes", "NodeVisitor"}
        src = REPO / "src" / "repro"
        offenders = []
        for name in ANALYZER_PACKAGES:
            for path in sorted((src / name).glob("*.py")):
                if path == src / "analysis" / "context.py":
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Attribute) \
                            and node.attr in banned \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id == "ast":
                        offenders.append(f"{path.name}:{node.lineno}")
                    elif isinstance(node, ast.ImportFrom) \
                            and node.module == "ast" \
                            and banned & {a.name for a in node.names}:
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


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

    def test_prose_after_one_id_ends_the_list(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=DET-WALLCLOCK kept on purpose\n",
            "f.py")
        assert ctx.suppressions == {1: {"DET-WALLCLOCK"}}
        assert ctx.is_suppressed("DET-WALLCLOCK", 1)
        assert not ctx.is_suppressed("DET-UNSEEDED-RNG", 1)

    def test_prose_after_two_ids_ends_the_list(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=SAN-OOB, mem-leak as the lab wants\n",
            "f.py")
        assert ctx.suppressions == {1: {"SAN-OOB", "MEM-LEAK"}}
        assert ctx.is_suppressed("SAN-OOB", 1)
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert not ctx.is_suppressed("MEM-UAF", 1)

    def test_dash_tail_after_a_noqa_id(self):
        ctx = AnalysisContext("x = 1  # noqa: MEM-LEAK - demo\n", "f.py")
        assert ctx.noqa == {1: {"MEM-LEAK"}}
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert not ctx.is_suppressed("MEM-UAF", 1)


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
