"""MEM-PEAK-OOM and the instance-catalog pre-flight.

The ISSUE acceptance shape: the Algorithm-1-scale workflow flags on a
16 GB card with a priced right-sizing recommendation and clears on a
40 GB card.
"""

import pytest

from repro.analysis import analyze_source
from repro.cloud.pricing import get_instance_type
from repro.memcheck import preflight, right_size, usable_gpu_bytes

# ~18.3 GiB working set: over any 16 GB card, under an A100's 40 GB
BIG_WORKFLOW = '''\
import repro.xp as xp
from repro.gpu import make_system

system = make_system(1, "{part}")
x = xp.zeros((1200000, 4096))
y = (x * 2.0).sum()
'''

PLAN_WORKFLOW = '''\
import repro.xp as xp
from repro.cloud import BootstrapScript

plan = BootstrapScript(instance_type="{sku}", instance_count=1,
                       expected_hours=1.0)
x = xp.zeros((1200000, 4096))
y = (x * 2.0).sum()
'''


def _peak_findings(source):
    return [f for f in analyze_source(source, analyzers=("mem",)).findings
            if f.rule == "MEM-PEAK-OOM"]


class TestPeakAgainstMakeSystem:
    def test_flags_on_16gb_card(self):
        (f,) = _peak_findings(BIG_WORKFLOW.format(part="T4"))
        assert f.severity.name == "ERROR"
        assert "exceeds" in f.message
        assert "T4" in f.message

    def test_clears_on_40gb_card(self):
        assert _peak_findings(BIG_WORKFLOW.format(part="A100")) == []

    def test_recommendation_is_priced(self):
        (f,) = _peak_findings(BIG_WORKFLOW.format(part="T4"))
        assert "right-size to" in f.message
        assert "$" in f.message

    def test_non_literal_part_gives_no_verdict(self):
        # unknowable target: precision-first, stay silent
        source = BIG_WORKFLOW.replace('"{part}"', "cfg.part")
        assert _peak_findings(source) == []


class TestPeakAgainstCloudPlan:
    def test_flags_on_16gb_instance_with_cost_delta(self):
        (f,) = _peak_findings(PLAN_WORKFLOW.format(sku="g4dn.xlarge"))
        assert "g4dn.xlarge" in f.message
        # the plan gives a current price, so the delta is included
        assert "$/h vs the current plan" in f.message

    def test_clears_on_40gb_instance(self):
        assert _peak_findings(PLAN_WORKFLOW.format(sku="p4d.24xlarge")) == []


class TestPreflight:
    def test_fits_verdict(self):
        pf = preflight(8 * (1 << 30), "g4dn.xlarge")
        assert pf.fits
        assert pf.recommendation is None
        assert "fits" in pf.render()

    def test_oom_verdict_recommends_cheapest_fit(self):
        pf = preflight(20 * (1 << 30), "g4dn.xlarge")
        assert not pf.fits
        rec = pf.recommendation
        assert rec is not None
        assert usable_gpu_bytes(rec) >= 20 * (1 << 30)
        assert pf.hourly_delta == pytest.approx(
            rec.hourly_usd - get_instance_type("g4dn.xlarge").hourly_usd)
        assert "right-size to" in pf.render()

    def test_cpu_instance_never_fits(self):
        pf = preflight(1, "t3.medium")
        assert not pf.fits

    def test_right_size_prefers_cheapest(self):
        rec = right_size(1 << 30)
        assert rec is not None
        cheaper = [it.name for it in
                   __import__("repro.cloud.pricing",
                              fromlist=["INSTANCE_CATALOG"])
                   .INSTANCE_CATALOG.values()
                   if it.is_gpu and it.family == "ec2"
                   and usable_gpu_bytes(it) >= (1 << 30)
                   and it.hourly_usd < rec.hourly_usd]
        assert cheaper == []

    def test_right_size_none_when_nothing_fits(self):
        assert right_size(10 ** 15) is None

    def test_usable_below_raw_capacity(self):
        it = get_instance_type("g4dn.xlarge")
        assert 0 < usable_gpu_bytes(it) < it.gpu_memory_bytes
