"""Every way from source to a report applies the one suppression table.

The CLI, :func:`repro.analysis.analyze_source`, :func:`run_paths` and
the grader's ``GradeBook.record_kernel_lab`` all go through the
driver, so ``# repro: disable=RULE`` silences any rule, memcheck's
``# noqa`` / ``# noqa: MEM-LEAK`` silences MEM-* rules only, and both
read the marked line where the code really sits (``line_offset``).
"""

import json
import re

import pytest

from repro.analysis import analyze_source, run_paths
from repro.analysis.cli import main
from repro.course.grading import GradeBook

KERNEL = '''\
from repro.jit import cuda


@cuda.jit
def unguarded(x, out):
    i = cuda.grid(1)
    out[i] = x[i]  {mark}
'''

LEAK = '''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a = dev.alloc(xp.zeros((32, 32)))  {mark}
a.free()
'''

#: rule -> (family, source, line of the marked statement)
TARGETS = {"SAN-OOB": ("kernel", KERNEL, 7), "MEM-LEAK": ("mem", LEAK, 6)}

#: (rule, marker, suppressed?)
CASES = [
    ("SAN-OOB", "# repro: disable=SAN-OOB", True),
    # ruff reads ``# noqa`` too, so it never silences a SAN rule
    ("SAN-OOB", "# noqa", False),
    ("MEM-LEAK", "# repro: disable=MEM-LEAK", True),
    ("MEM-LEAK", "# noqa: MEM-LEAK", True),
    ("MEM-LEAK", "# noqa", True),
]

_FEEDBACK = re.compile(r"^\[(?P<rule>[A-Z-]+)\] .*?:(?P<line>\d+): ")


def _write(tmp_path, source, offset):
    path = tmp_path / "submission.py"
    path.write_text("\n" * offset + source)
    return path


def _cli(tmp_path, capsys, family, source, offset):
    path = _write(tmp_path, source, offset)
    main(["--analyzers", family, "--format", "json", str(path)])
    return [(f["rule"], f["line"]) for f in
            json.loads(capsys.readouterr().out)["findings"]]


def _analyze_source(tmp_path, capsys, family, source, offset):
    report = analyze_source(source, "submission.py", analyzers=(family,),
                            line_offset=offset)
    return [(f.rule, f.line) for f in report.findings]


def _run_paths(tmp_path, capsys, family, source, offset):
    run = run_paths([_write(tmp_path, source, offset)], (family,))
    return [(f.rule, f.line) for f in run.report.findings]


def _grader(tmp_path, capsys, family, source, offset):
    kernel = source
    if offset:
        # a live kernel: the grader finds its source in the file
        path = _write(tmp_path, source, offset)
        namespace: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        kernel = namespace["unguarded"]
    sub = GradeBook().record_kernel_lab("ada", "lab5", kernel)
    assert (sub.score == 100.0) == (not sub.feedback)
    return [(m["rule"], int(m["line"])) for m in
            map(_FEEDBACK.match, sub.feedback)]


DOORS = {"cli": _cli, "analyze_source": _analyze_source,
         "run_paths": _run_paths, "grader": _grader}


@pytest.mark.parametrize("offset", (0, 100))
@pytest.mark.parametrize("door, rule, mark, suppressed", [
    (door, *case) for door in DOORS for case in CASES
    # the grader runs the kernel family only
    if door != "grader" or case[0].startswith("SAN-")])
def test_every_front_door_suppresses_alike(tmp_path, capsys, door, rule,
                                           mark, suppressed, offset):
    family, template, line = TARGETS[rule]
    source = template.format(mark=mark)
    found = DOORS[door](tmp_path, capsys, family, source, offset)
    hits = [ln for r, ln in found if r == rule]
    if suppressed:
        assert hits == [], found
    else:
        assert hits and set(hits) == {offset + line}, found
