"""Statistical tests and descriptives (Appendix C machinery).

Implementations are from scratch; only distribution CDFs come from
``scipy.special`` (erf / betainc), keeping the math auditable while the
p-values stay exact.  Each test is cross-checked against scipy.stats in
``tests/analytics``.  ``scipy.special`` is imported by the functions that
call it, so importing this module (as every ``repro.datasets`` import
does) does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class TestResult:
    """A (statistic, p-value) pair with the test's name."""

    name: str
    statistic: float
    p_value: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: stat={self.statistic:.4f}, p={self.p_value:.4g}"


# ---------------------------------------------------------------------------
# Distribution helpers (scipy.special only)
# ---------------------------------------------------------------------------

def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _norm_ppf(p: np.ndarray | float) -> np.ndarray | float:
    """Standard normal quantile via the inverse error function."""
    from scipy import special

    return math.sqrt(2.0) * special.erfinv(2.0 * np.asarray(p) - 1.0)


def _f_sf(f: float, dfn: int, dfd: int) -> float:
    """Survival function of the F distribution via the regularized
    incomplete beta function."""
    from scipy import special

    if f <= 0:
        return 1.0
    x = dfd / (dfd + dfn * f)
    return float(special.betainc(dfd / 2.0, dfn / 2.0, x))


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston 1995, AS R94 approximation)
# ---------------------------------------------------------------------------

def _shapiro_coefficients(n: int) -> np.ndarray:
    """Royston's approximate optimal weights a_i for sample size n."""
    m = _norm_ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    c = m / math.sqrt(float(m @ m))
    u = 1.0 / math.sqrt(n)
    # polynomial corrections for the two largest coefficients
    p1 = [-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, c[-1]]
    p2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, c[-2]]
    a = c.copy()
    a[-1] = np.polyval(p1, u)
    a[0] = -a[-1]
    if n > 5:
        a[-2] = np.polyval(p2, u)
        a[1] = -a[-2]
        fi = 2
    else:
        fi = 1
    # renormalize the interior so that a'a = 1
    phi = (float(m @ m) - 2 * m[-1] ** 2 - (2 * m[-2] ** 2 if n > 5 else 0)) \
        / (1.0 - 2 * a[-1] ** 2 - (2 * a[-2] ** 2 if n > 5 else 0))
    a[fi:n - fi] = m[fi:n - fi] / math.sqrt(phi)
    return a


def shapiro_wilk(x: np.ndarray) -> TestResult:
    """Shapiro-Wilk normality test (Royston's algorithm, 4 ≤ n ≤ 2000).

    Returns W and the (upper-tail) p-value; small p rejects normality —
    the result Table III reports for both student groups.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = len(x)
    if n < 4:
        raise ReproError("Shapiro-Wilk needs at least 4 observations")
    if n > 2000:
        raise ReproError("Royston approximation valid for n <= 2000")
    if np.ptp(x) == 0:
        raise ReproError("all observations are identical")

    a = _shapiro_coefficients(n)
    w_num = float(a @ x) ** 2
    w_den = float(((x - x.mean()) ** 2).sum())
    w = w_num / w_den
    w = min(w, 1.0)

    # Royston's normalizing transformation for p-values (n >= 12 branch,
    # plus the small-sample branch for 4 <= n < 12).
    if n < 12:
        g = -2.273 + 0.459 * n
        mu = 0.5440 - 0.39978 * n + 0.025054 * n ** 2 - 0.0006714 * n ** 3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n ** 2
                         - 0.0020322 * n ** 3)
        z = (-math.log(g - math.log(1.0 - w)) - mu) / sigma
    else:
        ln_n = math.log(n)
        mu = 0.0038915 * ln_n ** 3 - 0.083751 * ln_n ** 2 \
            - 0.31082 * ln_n - 1.5861
        sigma = math.exp(0.0030302 * ln_n ** 2 - 0.082676 * ln_n - 0.4803)
        z = (math.log(1.0 - w) - mu) / sigma
    p = 1.0 - _norm_cdf(z)
    return TestResult(name="shapiro-wilk", statistic=w,
                      p_value=float(np.clip(p, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# Levene's test
# ---------------------------------------------------------------------------

def levene(*groups: np.ndarray, center: str = "mean") -> TestResult:
    """Levene's test for equality of variances.

    ``center="mean"`` is classic Levene (what the paper reports in
    Table III); ``"median"`` gives the Brown-Forsythe variant.  The
    statistic is a one-way ANOVA F over absolute deviations.
    """
    if len(groups) < 2:
        raise ReproError("Levene needs at least two groups")
    if center not in ("mean", "median"):
        raise ReproError(f"center must be mean/median, got {center!r}")
    zs = []
    for g in groups:
        g = np.asarray(g, dtype=np.float64)
        if len(g) < 2:
            raise ReproError("each group needs at least two observations")
        c = g.mean() if center == "mean" else np.median(g)
        zs.append(np.abs(g - c))
    k = len(zs)
    n_total = sum(len(z) for z in zs)
    grand = np.concatenate(zs).mean()
    ss_between = sum(len(z) * (z.mean() - grand) ** 2 for z in zs)
    ss_within = sum(((z - z.mean()) ** 2).sum() for z in zs)
    dfn, dfd = k - 1, n_total - k
    if ss_within == 0:
        raise ReproError("zero within-group variability")
    f = (ss_between / dfn) / (ss_within / dfd)
    return TestResult(name="levene", statistic=float(f),
                      p_value=_f_sf(f, dfn, dfd))


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

def mann_whitney_u(x: np.ndarray, y: np.ndarray,
                   alternative: str = "two-sided") -> TestResult:
    """Mann-Whitney U with the tie-corrected normal approximation.

    The returned statistic is U for the *first* sample (the convention
    under which the paper's U=332 for graduates is read); Appendix C uses
    the two-sided alternative.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ReproError(f"unknown alternative {alternative!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = len(x), len(y)
    if n1 < 1 or n2 < 1:
        raise ReproError("both samples must be non-empty")

    combined = np.concatenate([x, y])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(n1 + n2, dtype=np.float64)
    sorted_vals = combined[order]
    # average ranks over ties
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1

    r1 = ranks[:n1].sum()
    u1 = r1 - n1 * (n1 + 1) / 2.0

    mu = n1 * n2 / 2.0
    # tie correction for the variance
    _, tie_counts = np.unique(sorted_vals, return_counts=True)
    tie_term = float(((tie_counts ** 3) - tie_counts).sum())
    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var == 0:
        raise ReproError("all observations identical; U undefined")

    # continuity-corrected z
    if alternative == "two-sided":
        z = (abs(u1 - mu) - 0.5) / math.sqrt(var)
        p = 2.0 * (1.0 - _norm_cdf(z))
    elif alternative == "greater":
        z = (u1 - mu - 0.5) / math.sqrt(var)
        p = 1.0 - _norm_cdf(z)
    else:
        z = (u1 - mu + 0.5) / math.sqrt(var)
        p = _norm_cdf(z)
    return TestResult(name="mann-whitney-u", statistic=float(u1),
                      p_value=float(np.clip(p, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# Descriptives (Table IV)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Descriptives:
    """The Table IV row: mean/std/five-number summary/count."""

    mean: float
    std: float
    min: float
    q1: float
    median: float
    q3: float
    max: float
    count: int

    def row(self) -> tuple[float, ...]:
        return (self.mean, self.std, self.min, self.q1, self.median,
                self.q3, self.max, float(self.count))


def describe(x: np.ndarray) -> Descriptives:
    """Sample descriptives with ddof=1 std and linear-interpolated
    quartiles (the SPSS/pandas defaults the paper's Table IV uses)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise ReproError("describe needs at least two observations")
    return Descriptives(
        mean=float(x.mean()),
        std=float(x.std(ddof=1)),
        min=float(x.min()),
        q1=float(np.percentile(x, 25)),
        median=float(np.percentile(x, 50)),
        q3=float(np.percentile(x, 75)),
        max=float(x.max()),
        count=len(x),
    )


# ---------------------------------------------------------------------------
# Effect sizes (the magnitude companion to Appendix C's p-values)
# ---------------------------------------------------------------------------

def rank_biserial(x: np.ndarray, y: np.ndarray) -> float:
    """Rank-biserial correlation, the Mann-Whitney effect size:
    ``r = 2U₁/(n₁n₂) − 1`` ∈ [−1, 1].  r=+1 means every x beats every y.

    Appendix C reports only U and p; this quantifies *how large* the
    graduate advantage is (≈0.68, a large effect).
    """
    n1, n2 = len(x), len(y)
    if n1 < 1 or n2 < 1:
        raise ReproError("both samples must be non-empty")
    u1 = mann_whitney_u(x, y).statistic
    return 2.0 * u1 / (n1 * n2) - 1.0


def cohens_d(x: np.ndarray, y: np.ndarray) -> float:
    """Cohen's d with the pooled standard deviation (parametric effect
    size, reported alongside the non-parametric one for context)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise ReproError("need at least two observations per group")
    pooled_var = (((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1))
                  / (n1 + n2 - 2))
    if pooled_var == 0:
        raise ReproError("zero pooled variance")
    return float((x.mean() - y.mean()) / math.sqrt(pooled_var))


def chi_square_independence(table: np.ndarray) -> TestResult:
    """Pearson chi-square test of independence on an r×c contingency
    table (e.g. grade letters × semester, the Fig 2 comparison the paper
    stops short of testing).

    P-value via the regularized upper incomplete gamma function; expected
    counts below 1 raise (the standard validity guard).
    """
    from scipy import special

    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ReproError("need an r x c table with r, c >= 2")
    if (table < 0).any():
        raise ReproError("counts must be non-negative")
    total = table.sum()
    if total == 0:
        raise ReproError("empty table")
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    if (expected == 0).any():
        # drop all-zero rows/columns rather than dividing by zero
        keep_r = table.sum(axis=1) > 0
        keep_c = table.sum(axis=0) > 0
        table = table[keep_r][:, keep_c]
        if table.shape[0] < 2 or table.shape[1] < 2:
            raise ReproError("table degenerate after dropping empty lines")
        expected = (np.outer(table.sum(axis=1), table.sum(axis=0))
                    / table.sum())
    if (expected < 1.0).any():
        raise ReproError(
            "expected counts < 1: chi-square approximation invalid "
            "(merge sparse categories first)")
    chi2 = float(((table - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    p = float(special.gammaincc(df / 2.0, chi2 / 2.0))
    return TestResult(name="chi-square", statistic=chi2, p_value=p)


def bootstrap_ci(x: np.ndarray, y: np.ndarray,
                 statistic: "str" = "mean_diff",
                 n_resamples: int = 2000, confidence: float = 0.95,
                 seed: int = 0) -> tuple[float, float, float]:
    """Seeded percentile-bootstrap confidence interval for a two-sample
    statistic.  Returns ``(point_estimate, ci_low, ci_high)``.

    ``statistic`` is ``"mean_diff"`` or ``"median_diff"`` (x minus y).
    The inference Appendix C stops short of: an interval on *how much*
    graduates outperform, robust to the established non-normality.
    """
    if statistic not in ("mean_diff", "median_diff"):
        raise ReproError(f"unknown statistic {statistic!r}")
    if not 0.5 < confidence < 1.0:
        raise ReproError("confidence must be in (0.5, 1)")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2 or len(y) < 2:
        raise ReproError("need at least two observations per group")
    fn = np.mean if statistic == "mean_diff" else np.median
    point = float(fn(x) - fn(y))
    rng = np.random.default_rng(seed)
    stats = np.empty(n_resamples)
    for i in range(n_resamples):
        xs = x[rng.integers(0, len(x), len(x))]
        ys = y[rng.integers(0, len(y), len(y))]
        stats[i] = fn(xs) - fn(ys)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return point, float(lo), float(hi)
