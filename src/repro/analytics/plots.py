"""Figure-data computations: histograms, Q-Q plots, box plots.

These return the *numbers behind* Figs 6-9 so benchmarks can assert on
them and the ASCII renderers can draw them; no plotting library needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


def histogram_data(x: np.ndarray, bins: int = 10,
                   value_range: tuple[float, float] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Counts and bin edges (Fig 6)."""
    x = np.asarray(x, dtype=np.float64)
    if bins <= 0:
        raise ReproError("bins must be positive")
    return np.histogram(x, bins=bins, range=value_range)


def qq_plot_data(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Theoretical normal quantiles vs ordered sample (Figs 7-8).

    Uses the Blom plotting positions ``(i - 0.375)/(n + 0.25)`` — what
    statsmodels/SPSS draw.  A normal sample hugs the line
    ``y = mean + std·x``; the graduates' heavy left tail bends away.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise ReproError("Q-Q plot needs at least 3 observations")
    from scipy import special

    p = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    theoretical = np.sqrt(2.0) * special.erfinv(2.0 * p - 1.0)
    return theoretical, x


def qq_correlation(x: np.ndarray) -> float:
    """Correlation of the Q-Q points: ≈1 for normal data, lower when the
    sample deviates (a scalar summary the benches assert on)."""
    theo, ordered = qq_plot_data(x)
    return float(np.corrcoef(theo, ordered)[0, 1])


@dataclass(frozen=True)
class BoxplotStats:
    """The Fig 9 box: quartiles, whiskers (1.5 IQR rule), outliers."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(x: np.ndarray) -> BoxplotStats:
    """Tukey box-plot statistics."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 3:
        raise ReproError("boxplot needs at least 3 observations")
    q1, med, q3 = np.percentile(x, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    outliers = tuple(float(v) for v in np.sort(x[(x < lo_fence)
                                                 | (x > hi_fence)]))
    return BoxplotStats(
        q1=float(q1), median=float(med), q3=float(q3),
        whisker_low=float(inside.min()), whisker_high=float(inside.max()),
        outliers=outliers,
    )
