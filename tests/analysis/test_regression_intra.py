"""Intra-procedural output is frozen: with the interprocedural layer
off (the default), every family's report over the fixture corpora is
byte-identical to the golden capture taken before the layer landed.

Regenerate ``golden/intra_reports.json`` only for an intentional
intra-procedural rule change — never to absorb interprocedural drift::

    PYTHONPATH=src python tests/analysis/test_regression_intra.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import KNOWN_ANALYZERS, run_paths

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden" / \
    "intra_reports.json"

#: suite name -> fixture corpus, with the same relative invocation the
#: golden capture used (paths are embedded in the rendered output)
TARGETS = {
    "analysis": "tests/analysis/fixtures",
    "perflint": "tests/perflint/fixtures",
    "memcheck": "tests/memcheck/fixtures",
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite", sorted(TARGETS))
def test_intra_reports_byte_identical(suite, golden, monkeypatch):
    monkeypatch.chdir(REPO)
    run = run_paths([TARGETS[suite]], analyzers=KNOWN_ANALYZERS)
    assert run.report.render_json() == golden[suite]["json"]
    assert run.report.render_text() == golden[suite]["text"]


@pytest.mark.parametrize("suite", sorted(TARGETS))
def test_interproc_mode_only_appends(suite, golden, monkeypatch):
    """Turning the layer on never rewrites an intra finding — the
    golden set is a subset, identically rendered."""
    monkeypatch.chdir(REPO)
    run = run_paths([TARGETS[suite]], analyzers=KNOWN_ANALYZERS,
                    interprocedural=True)
    rendered = {
        (f["rule"], f["file"], f["line"], f["message"])
        for f in json.loads(run.report.render_json())["findings"]}
    for f in json.loads(golden[suite]["json"])["findings"]:
        assert (f["rule"], f["file"], f["line"], f["message"]) \
            in rendered


def regenerate() -> None:
    os.chdir(REPO)
    reports = {}
    for suite in sorted(TARGETS):
        report = run_paths([TARGETS[suite]],
                           analyzers=KNOWN_ANALYZERS).report
        reports[suite] = {"json": report.render_json(),
                          "text": report.render_text()}
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    regenerate()
