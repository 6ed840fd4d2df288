"""Golden findings of the kernel rules, byte for byte.

Each file under ``fixtures_kernel/`` is one kernel shape whose findings
a change to the kernel rules could move: two kernels with one name, a
barrier reached through a helper, lane strides through temporaries and
constant offsets, launch shapes the abstract interpreter rejects, and
``shift_sum``, the documented SAN-SHARED-RACE false negative.  The
report of ``python -m repro.analysis --analyzers kernel,absint --format
json tests/sanitize/fixtures_kernel``, run from the repo root, is
committed as ``golden/kernel_findings.json``.  After an intended
findings change, regenerate it with::

    PYTHONPATH=src python tests/sanitize/test_kernel_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[2]
FIXTURES = "tests/sanitize/fixtures_kernel"
GOLDEN = Path(__file__).resolve().parent / "golden" / "kernel_findings.json"
ARGS = ["--analyzers", "kernel,absint", "--format", "json", FIXTURES]


def render() -> str:
    """The report as the command above prints it."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out):
            main(ARGS)
    finally:
        os.chdir(cwd)
    return out.getvalue()


def test_kernel_findings_match_the_golden():
    assert render() == GOLDEN.read_text()


def regenerate() -> None:
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    regenerate()
