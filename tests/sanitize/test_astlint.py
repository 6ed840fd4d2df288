"""Static AST linter: every rule id fires on its fixture kernel and is
reported with the correct file:line in both text and JSON output."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source
from repro.sanitize import lint_kernel

KERNEL = ("kernel",)
KERNEL_FIXTURES = Path(__file__).resolve().parent / "fixtures_kernel"

# One dedicated fixture kernel per rule id.  `line` is the 1-based line
# (within the written fixture file) the finding must anchor to.
FIXTURES = {
    "SAN-OOB": dict(
        line=7,
        source='''\
from repro.jit import cuda


@cuda.jit
def unguarded(x, out):
    i = cuda.grid(1)
    out[i] = x[i] * 2.0
''',
    ),
    "SAN-SHARED-RACE": dict(
        line=11,
        source='''\
from repro.jit import cuda


@cuda.jit
def reversed_copy(v, out):
    tile = cuda.shared.array(64)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    if i < v.size:
        tile[tx] = v[i]
        out[i] = tile[63 - tx]
''',
    ),
    "SAN-BARRIER-DIV": dict(
        line=9,
        source='''\
from repro.jit import cuda


@cuda.jit
def half_barrier(out):
    tx = cuda.threadIdx.x
    tile = cuda.shared.array(64)
    if tx < 32:
        cuda.syncthreads()
    i = cuda.grid(1)
    if i < out.size:
        out[i] = tile[tx]
''',
    ),
    "SAN-UNCOALESCED": dict(
        line=8,
        source='''\
from repro.jit import cuda


@cuda.jit
def strided_read(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * 4]
''',
    ),
    "SAN-BANK-CONFLICT": dict(
        line=7,
        source='''\
from repro.jit import cuda


@cuda.jit
def column_walk(out):
    tile = cuda.shared.array(1024)
    tile[cuda.threadIdx.x * 32] = 1.0
    cuda.syncthreads()
    i = cuda.grid(1)
    if i < out.size:
        out[i] = 0.0
''',
    ),
    "SAN-STREAM-HAZARD": dict(
        line=9,
        source='''\
from repro.jit import cuda


def overlap_no_dependency(kernel):
    x = cuda.to_device(None)
    s1 = cuda.stream()
    s2 = cuda.stream()
    kernel[32, 64, s1](x)
    kernel[32, 64, s2](x)
''',
    ),
}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_fires_with_file_and_line(rule, tmp_path):
    fixture = FIXTURES[rule]
    path = tmp_path / f"{rule.lower().replace('-', '_')}.py"
    path.write_text(fixture["source"])

    report = analyze_paths([path], analyzers=KERNEL)
    matches = [f for f in report.findings if f.rule == rule]
    assert matches, f"{rule} did not fire:\n{report.render_text()}"
    finding = matches[0]
    assert finding.file == str(path)
    assert finding.line == fixture["line"]

    # text reporter carries file:line
    assert f"{path}:{fixture['line']}" in report.render_text()
    # JSON reporter carries the same location, machine-readable
    payload = json.loads(report.render_json())
    json_match = [f for f in payload["findings"] if f["rule"] == rule]
    assert json_match
    assert json_match[0]["file"] == str(path)
    assert json_match[0]["line"] == fixture["line"]
    assert payload["summary"]["ok"] is False


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_every_finding_has_hint(rule, tmp_path):
    path = tmp_path / "k.py"
    path.write_text(FIXTURES[rule]["source"])
    for f in analyze_paths([path], analyzers=KERNEL).findings:
        assert f.hint


class TestCleanKernels:
    def test_guarded_saxpy_is_clean(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def saxpy(a, x, y, out):
                i = cuda.grid(1)
                if i < out.size:
                    out[i] = a * x[i] + y[i]
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_stencil_with_range_guard_is_clean(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def blur(img, out):
                i, j = cuda.grid(2)
                if 1 <= i < img.shape[0] - 1 and 1 <= j < img.shape[1] - 1:
                    out[i, j] = (img[i, j] + img[i - 1, j]) / 2.0
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_early_exit_guard_is_clean(self):
        # the guard is inverted: threads past the bound return, so the
        # subscripts below are covered even without an enclosing `if`
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def saxpy(a, x, y, out):
                i = cuda.grid(1)
                if i >= out.size:
                    return
                out[i] = a * x[i] + y[i]
        '''), analyzers=KERNEL)
        assert not [f for f in report.findings
                    if f.rule == "SAN-OOB"], report.render_text()

    def test_early_exit_guard_does_not_leak_into_siblings(self):
        # an early-exit check guards *subsequent* statements only; an
        # access before it is still unguarded
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def premature(x, out):
                i = cuda.grid(1)
                out[i] = x[i]
                if i >= out.size:
                    return
        '''), analyzers=KERNEL)
        assert [f for f in report.findings if f.rule == "SAN-OOB"]

    def test_early_exit_with_else_branch_does_not_guard(self):
        # with an else arm the statement is not an early exit — both
        # arms fall through, so nothing below is guarded
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def fallthrough(x, out):
                i = cuda.grid(1)
                if i >= out.size:
                    j = 0
                else:
                    j = 1
                out[i] = x[i] + j
        '''), analyzers=KERNEL)
        assert [f for f in report.findings if f.rule == "SAN-OOB"]

    def test_grid_stride_loop_is_clean(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def strided_inc(out):
                start = cuda.grid(1)
                step = cuda.gridsize(1)
                for i in range(start, out.size, step):
                    out[i] += 1.0
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_proper_tree_reduction_is_clean(self):
        report = analyze_source(textwrap.dedent('''
            import numpy as np
            from repro.jit import cuda

            @cuda.jit
            def block_sum(v, partials):
                tile = cuda.shared.array(64, np.float32)
                tx = cuda.threadIdx.x
                i = cuda.grid(1)
                tile[tx] = v[i] if i < v.size else 0.0
                cuda.syncthreads()
                stride = 32
                while stride > 0:
                    if tx < stride:
                        tile[tx] += tile[tx + stride]
                    cuda.syncthreads()
                    stride //= 2
                if tx == 0:
                    partials[cuda.blockIdx.x] = tile[0]
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_event_fenced_streams_are_clean(self):
        report = analyze_source(textwrap.dedent('''
            from repro.gpu.stream import Event
            from repro.jit import cuda

            def pipelined(kernel):
                x = cuda.to_device(None)
                s1 = cuda.stream()
                s2 = cuda.stream()
                kernel[32, 64, s1](x)
                ev = Event().record(s1)
                s2.wait_for(ev)
                kernel[32, 64, s2](x)
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_distinct_buffers_on_two_streams_are_clean(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            def independent(kernel):
                x = cuda.to_device(None)
                y = cuda.to_device(None)
                s1 = cuda.stream()
                s2 = cuda.stream()
                kernel[32, 64, s1](x)
                kernel[32, 64, s2](y)
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_odd_shared_stride_has_no_bank_conflict(self):
        # padding to an odd stride is the canonical fix: gcd(33, 32) == 1
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def padded(out):
                tile = cuda.shared.array(2048)
                tile[cuda.threadIdx.x * 33] = 1.0
                cuda.syncthreads()
                i = cuda.grid(1)
                if i < out.size:
                    out[i] = 0.0
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()

    def test_race_cleared_by_syncthreads(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def reversed_copy(v, out):
                tile = cuda.shared.array(64)
                tx = cuda.threadIdx.x
                i = cuda.grid(1)
                if i < v.size:
                    tile[tx] = v[i]
                cuda.syncthreads()
                if i < v.size:
                    out[i] = tile[63 - tx]
        '''), analyzers=KERNEL)
        assert report.ok, report.render_text()


class TestLintPaths:
    def test_overlapping_paths_lint_each_file_once(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        kernel = pkg / "k.py"
        kernel.write_text(FIXTURES["SAN-OOB"]["source"])
        once = analyze_paths([pkg], analyzers=KERNEL)
        assert [f.rule for f in once.findings] == ["SAN-OOB", "SAN-OOB"]
        assert analyze_paths([pkg, kernel], analyzers=KERNEL).findings \
            == once.findings


class TestLintKernelObject:
    def test_lint_live_kernel_reports_real_file_and_line(self):
        from repro.jit import cuda

        @cuda.jit
        def bad(x, out):
            i = cuda.grid(1)
            out[i] = x[i]

        report = lint_kernel(bad)
        assert not report.ok
        finding = report.findings[0]
        assert finding.file.endswith("test_astlint.py")
        # the flagged line is the unguarded store inside this very file
        # (co_firstlineno is the decorator line; the store is 3 below)
        assert finding.line == bad.fn.__code__.co_firstlineno + 3

    def test_lint_source_string(self):
        report = lint_kernel(FIXTURES["SAN-OOB"]["source"])
        assert any(f.rule == "SAN-OOB" for f in report.findings)

    def test_missing_sync_in_loop_detected(self):
        report = analyze_source(textwrap.dedent('''
            import numpy as np
            from repro.jit import cuda

            @cuda.jit
            def racy_sum(v, partials):
                tile = cuda.shared.array(64, np.float32)
                tx = cuda.threadIdx.x
                i = cuda.grid(1)
                tile[tx] = v[i] if i < v.size else 0.0
                cuda.syncthreads()
                stride = 32
                while stride > 0:
                    if tx < stride:
                        tile[tx] += tile[tx + stride]
                    stride //= 2
                if tx == 0:
                    partials[cuda.blockIdx.x] = tile[0]
        '''), analyzers=KERNEL)
        assert any(f.rule == "SAN-SHARED-RACE" for f in report.findings), \
            report.render_text()


class TestOneEngine:
    """Every kernel rule is the abstract interpreter's."""

    @pytest.mark.parametrize("rule", ["SAN-SHARED-RACE", "SAN-UNCOALESCED",
                                      "SAN-BANK-CONFLICT"])
    def test_absint_family_alone_reports_the_rule(self, rule):
        fixture = FIXTURES[rule]
        report = analyze_source(fixture["source"], "k.py",
                                analyzers=("absint",))
        assert [f.line for f in report.findings if f.rule == rule] \
            == [fixture["line"]]

    def test_lane_stride_follows_a_grid_stride_loop(self):
        report = analyze_source(textwrap.dedent('''
            from repro.jit import cuda

            @cuda.jit
            def strided_loop(x, out):
                start = cuda.grid(1)
                step = cuda.gridsize(1)
                for i in range(start, out.size, step):
                    out[i] = x[i * 2]
        '''), analyzers=KERNEL)
        assert [(f.rule, f.line) for f in report.findings] == [
            ("SAN-UNCOALESCED", 9)]

    def test_barrier_in_a_same_file_helper_closes_the_phase(self):
        # directly or through a chain of same-file defs; a barrier
        # passed in as an argument is out of sight
        report = analyze_paths([KERNEL_FIXTURES / "helper_barrier.py"],
                               analyzers=KERNEL)
        assert [(f.line, f.context) for f in report.findings
                if f.rule == "SAN-SHARED-RACE"] == [
                    (42, "reverse_via_argument")]

    @pytest.mark.parametrize("fixture, rule, lines", [
        ("strided_temporary.py", "SAN-UNCOALESCED", [11]),     # j = i * 4
        ("strided_offset.py", "SAN-UNCOALESCED", [10]),        # 2 * i + 1
        ("shared_offset_stride.py", "SAN-BANK-CONFLICT", [14, 17]),
        # lanes share threadIdx.y whenever blockDim.x >= 32
        ("shared_row_stride.py", "SAN-BANK-CONFLICT", []),
    ])
    def test_lane_stride_sees_through_temporaries_and_offsets(
            self, fixture, rule, lines):
        report = analyze_paths([KERNEL_FIXTURES / fixture],
                               analyzers=KERNEL)
        assert [f.line for f in report.findings if f.rule == rule] == lines
