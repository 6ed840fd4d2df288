"""The dynamic half: allocation ledger, leak reports, enriched OOM —
and the static/dynamic agreement on the seeded leaky fixture."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_paths
from repro.errors import OutOfMemoryError
from repro.gpu import make_system

FIXTURE = Path(__file__).parent / "fixtures" / "leaky_workflow.py"


def _run_fixture(system):
    namespace = {}
    exec(compile(FIXTURE.read_text(), str(FIXTURE), "exec"), namespace)
    return namespace["run_leaky"](steps=4)


class TestLeakyFixtureBothHalves:
    def test_static_pass_flags_the_loop(self):
        rules = {f.rule for f in analyze_paths([FIXTURE], analyzers=("mem",)).findings}
        assert "MEM-LEAK" in rules

    def test_dynamic_ledger_reports_the_same_leak(self, system1):
        dev = _run_fixture(system1)
        report = dev.leak_report()
        assert not report.ok
        (entry,) = report.entries
        assert entry.tag == "lab.staging"
        assert entry.count == 4
        assert entry.nbytes == 4 * 64 * 64 * 4
        assert "leaky_workflow.py" in entry.site

    def test_leak_report_renders_site_and_bytes(self, system1):
        dev = _run_fixture(system1)
        text = dev.leak_report().render()
        assert "lab.staging" in text
        assert "4 leaked allocation(s)" in text

    def test_teardown_returns_the_report(self, system1):
        _run_fixture(system1)
        reports = system1.teardown()
        assert not reports[0].ok
        assert reports[0].total_bytes == 4 * 64 * 64 * 4


class TestCleanRunsStayClean:
    def test_freed_buffers_leave_no_ledger_entries(self, system1):
        dev = system1.device(0)
        buf = dev.alloc(np.zeros(256, dtype=np.float32), tag="scratch")
        buf.free()
        report = dev.leak_report()
        assert report.ok
        assert report.entries == ()
        assert "no leaks" in report.render()

    def test_system_wide_leak_report_keyed_by_device(self, system2):
        reports = system2.leak_report()
        assert set(reports) == {0, 1}
        assert all(r.ok for r in reports.values())


class TestEnrichedOom:
    def test_oom_lists_top_live_tags(self, system1):
        pool = system1.device(0).memory
        pool.allocate(pool.total_bytes // 2, tag="nn.weight")
        pool.allocate(pool.total_bytes // 4, tag="rag.index")
        with pytest.raises(OutOfMemoryError) as exc:
            pool.allocate(pool.total_bytes, tag="spill")
        msg = str(exc.value)
        assert "top live tags" in msg
        assert "nn.weight" in msg and "rag.index" in msg

    def test_oom_keeps_machine_readable_fields(self, system1):
        pool = system1.device(0).memory
        pool.allocate(pool.total_bytes, tag="hog")
        with pytest.raises(OutOfMemoryError) as exc:
            pool.allocate(1, tag="straw")
        assert exc.value.requested == 1
        assert exc.value.free == 0
