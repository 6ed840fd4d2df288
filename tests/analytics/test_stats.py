"""Tests for the from-scratch statistics, cross-checked against scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.analytics.stats import (
    describe,
    levene,
    mann_whitney_u,
    shapiro_wilk,
)
from repro.errors import ReproError

REPO = Path(__file__).resolve().parents[2]


class TestShapiroWilk:
    @pytest.mark.parametrize("seed,dist", [
        (0, "normal"), (1, "normal"), (2, "exponential"), (3, "skewed"),
    ])
    def test_matches_scipy(self, seed, dist):
        rng = np.random.default_rng(seed)
        x = {"normal": rng.standard_normal(25),
             "exponential": rng.exponential(size=30),
             "skewed": 99 - rng.exponential(2.0, size=20)}[dist]
        mine = shapiro_wilk(x)
        ref = scipy_stats.shapiro(x)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-4)
        assert mine.p_value == pytest.approx(ref.pvalue, abs=2e-3)

    def test_small_sample_branch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8)
        mine = shapiro_wilk(x)
        ref = scipy_stats.shapiro(x)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-4)

    def test_rejects_skewed_accepts_normal(self):
        rng = np.random.default_rng(0)
        normal = rng.standard_normal(40)
        skewed = rng.exponential(size=40) ** 2
        assert shapiro_wilk(normal).p_value > 0.05
        assert shapiro_wilk(skewed).p_value < 0.01

    def test_validation(self):
        with pytest.raises(ReproError):
            shapiro_wilk(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ReproError):
            shapiro_wilk(np.full(10, 7.0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 60))
    def test_w_statistic_in_unit_interval(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        r = shapiro_wilk(x)
        assert 0.0 < r.statistic <= 1.0
        assert 0.0 <= r.p_value <= 1.0


class TestLevene:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(20) * 2, rng.standard_normal(25) * 5
        mine = levene(a, b)
        ref = scipy_stats.levene(a, b, center="mean")
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-8)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_median_center_matches_brown_forsythe(self):
        rng = np.random.default_rng(2)
        a, b = rng.exponential(size=30), rng.exponential(size=30) * 3
        mine = levene(a, b, center="median")
        ref = scipy_stats.levene(a, b, center="median")
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-8)

    def test_equal_variances_high_p(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert levene(a, b).p_value > 0.1

    def test_three_groups(self):
        rng = np.random.default_rng(4)
        groups = [rng.standard_normal(15) * s for s in (1, 1, 5)]
        mine = levene(*groups)
        ref = scipy_stats.levene(*groups, center="mean")
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ReproError):
            levene(np.ones(5))
        with pytest.raises(ReproError):
            levene(np.ones(5), np.array([1.0]))
        with pytest.raises(ReproError):
            levene(np.ones(5), np.ones(5), center="mode")


class TestMannWhitney:
    def test_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(20) + 1, rng.standard_normal(22)
        mine = mann_whitney_u(x, y)
        ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="asymptotic")
        assert mine.statistic == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_handles_ties(self):
        x = np.array([1, 2, 2, 3, 3, 3], dtype=float)
        y = np.array([2, 3, 3, 4, 4, 4], dtype=float)
        mine = mann_whitney_u(x, y)
        ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="asymptotic")
        assert mine.statistic == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_one_sided_alternatives(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(15) + 2, rng.standard_normal(15)
        greater = mann_whitney_u(x, y, alternative="greater")
        less = mann_whitney_u(x, y, alternative="less")
        assert greater.p_value < 0.01
        assert less.p_value > 0.9

    def test_identical_samples_give_center_u(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(30)
        r = mann_whitney_u(x, x + 0.0)
        assert r.statistic == pytest.approx(30 * 30 / 2)
        assert r.p_value > 0.9

    def test_validation(self):
        with pytest.raises(ReproError):
            mann_whitney_u(np.array([]), np.ones(3))
        with pytest.raises(ReproError):
            mann_whitney_u(np.ones(3), np.ones(3), alternative="sideways")
        with pytest.raises(ReproError):
            mann_whitney_u(np.ones(3), np.ones(3))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_u_symmetry(self, seed):
        """U1 + U2 == n1*n2 always."""
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(12), rng.standard_normal(17)
        u1 = mann_whitney_u(x, y).statistic
        u2 = mann_whitney_u(y, x).statistic
        assert u1 + u2 == pytest.approx(12 * 17)


class TestDescribe:
    def test_matches_numpy(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(100) * 10 + 80
        d = describe(x)
        assert d.mean == pytest.approx(x.mean())
        assert d.std == pytest.approx(x.std(ddof=1))
        assert d.median == pytest.approx(np.median(x))
        assert d.count == 100

    def test_quartile_order(self):
        rng = np.random.default_rng(9)
        d = describe(rng.standard_normal(50))
        assert d.min <= d.q1 <= d.median <= d.q3 <= d.max

    def test_needs_two(self):
        with pytest.raises(ReproError):
            describe(np.array([1.0]))


def test_serving_and_analyzer_imports_leave_scipy_unloaded():
    """scipy.special loads inside the functions that call it, so the
    packages the host-cost benchmark imports (the analyzers reach
    ``repro.datasets`` and so ``repro.analytics``) never load scipy."""
    code = ("import sys\n"
            "import repro.analysis, repro.perflint, repro.memcheck\n"
            "import repro.rag, repro.serve, repro.llm, repro.jit\n"
            "import repro.datasets\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
