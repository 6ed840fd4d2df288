#!/usr/bin/env python
"""Play both course offerings end-to-end and re-run the paper's analysis.

Simulates Fall 2024 and Spring 2025 through the cloud layer (Fig 5's
hours/cost), then runs the full Appendix C statistical pipeline on the
reconstructed cohorts — Shapiro-Wilk, Levene, descriptives, Mann-Whitney
— and prints the satisfaction summary of Appendix D.

Run:  python examples/course_semester.py
"""

from repro.analytics import (
    bar_chart,
    series_table,
    stacked_bar_chart,
)
from repro.analytics.likert import LIKERT_SATISFACTION
from repro.analytics.stats import describe, levene, mann_whitney_u, shapiro_wilk
from repro.course import SemesterSimulator
from repro.datasets import (
    graduate_scores,
    satisfaction_counts,
    undergraduate_scores,
)


def main() -> None:
    # --- the two offerings, simulated against the cloud layer -------------
    print("=== semester simulation (Fig 5) ===")
    reports = {}
    for term in ("Fall 2024", "Spring 2025"):
        rep = SemesterSimulator(term, seed=0).run()
        reports[term] = rep
        print(f"{term}: {len(rep.students)} students, {rep.labs_run} labs, "
              f"{rep.avg_hours_per_student:.1f} GPU h/student, "
              f"${rep.avg_cost_per_student_usd:.2f}/student, "
              f"{rep.budget_extensions_requested} budget extensions, "
              f"{rep.reaped_resources} idle resources reaped")
    print("\n" + bar_chart(
        {t: r.avg_cost_per_student_usd for t, r in reports.items()},
        title="Average AWS cost per student", unit=" $"))

    # --- Appendix C: the statistical comparison ------------------------------
    print("\n=== Appendix C analysis ===")
    grads, ugs = graduate_scores(), undergraduate_scores()
    rows = []
    for name, x in (("Graduate", grads), ("Undergraduate", ugs)):
        d = describe(x)
        rows.append([name, f"{d.mean:.2f}", f"{d.std:.2f}",
                     f"{d.median:.2f}", d.count])
    print(series_table(["Group", "Mean", "Std", "Median", "N"], rows,
                       title="Table IV (reconstructed)"))

    sw_g, sw_u = shapiro_wilk(grads), shapiro_wilk(ugs)
    lv = levene(grads, ugs)
    print(f"\nShapiro-Wilk: graduate W={sw_g.statistic:.3f} "
          f"(p={sw_g.p_value:.4f}), undergraduate W={sw_u.statistic:.3f} "
          f"(p={sw_u.p_value:.4f})")
    print(f"Levene: F={lv.statistic:.3f} (p={lv.p_value:.3f}) — variances "
          f"homogeneous, but normality fails: use Mann-Whitney")
    mwu = mann_whitney_u(grads, ugs)
    print(f"Mann-Whitney: U={mwu.statistic:.0f}, p={mwu.p_value:.4f} — "
          f"graduates significantly outperform (paper: U=332, p=.0004)")

    # --- Appendix D: satisfaction ------------------------------------------
    print("\n=== Appendix D: satisfaction ===")
    print(stacked_bar_chart(
        {t: satisfaction_counts(t).percentages()
         for t in ("Fall 2024", "Spring 2025")},
        list(LIKERT_SATISFACTION), title="Fig 11: Satisfaction split (%)"))


if __name__ == "__main__":
    main()
