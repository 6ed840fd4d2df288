#!/usr/bin/env python
"""Observability tour: every monitoring surface on one training job.

One GCN training run observed four ways at once — the Nsight-style
timeline, the roofline chart, TensorBoard-style scalars, and CloudWatch
instance metrics feeding an idle alarm — the §I claim ("TensorBoard and
HPC profilers ... exposed performance bottlenecks") made concrete.

Run:  python examples/monitoring.py
"""

from repro.cloud import Alarm, CloudWatch
from repro.gcn import train_sequential
from repro.gpu import get_spec, make_system
from repro.graph import pubmed_like
from repro.profiling import (
    BottleneckAnalyzer,
    Profiler,
    SummaryWriter,
    compare_profiles,
    render_roofline,
    render_timeline,
)


def main() -> None:
    system = make_system(1, "T4")
    dataset = pubmed_like(n=600, seed=1)

    # --- train under the profiler, logging scalars -------------------------
    writer = SummaryWriter()
    with Profiler(system) as prof:
        result = train_sequential(dataset, epochs=15, seed=0, system=system)
    for step, loss in enumerate(result.losses):
        writer.add_scalar("gcn/train_loss", loss, step)
    writer.add_scalar("gcn/test_accuracy", result.test_accuracy, 0)

    print("=== TensorBoard-style scalars ===")
    print(writer.sparkline("gcn/train_loss", width=40))
    print(f"test accuracy: {result.test_accuracy:.3f}")

    print("\n=== Nsight-style timeline (one epoch region) ===")
    print(render_timeline(prof, width=64))

    print("\n=== Roofline ===")
    print(render_roofline(prof, get_spec("T4")))

    diag = BottleneckAnalyzer(get_spec("T4")).diagnose(prof)
    print(f"\nverdict: {diag.dominant}-dominated — {diag.advice}")

    # --- the optimization loop: measure, change one thing, re-measure ------
    with Profiler(system) as prof2:
        train_sequential(dataset, epochs=15, hidden_dim=64, seed=0,
                         system=system)
    diff = compare_profiles(prof, prof2)
    print("\n=== A/B: hidden_dim 32 -> 64 ===")
    for kind, row in diff.items():
        print(f"  {kind:<12} {row['before_ms']:.3f} ms -> "
              f"{row['after_ms']:.3f} ms")

    # --- CloudWatch: utilization metrics + an idle alarm ----------------------
    cw = CloudWatch()
    util = prof.gpu_utilization()[0] * 100
    for hour, value in enumerate([util, util, 0.5, 0.2]):  # then idle
        cw.put_metric("course", "GPUUtilization", "i-training", value,
                      float(hour))
    cw.put_alarm(Alarm(name="idle-gpu", namespace="course",
                       metric="GPUUtilization", dimension="i-training",
                       threshold=5.0, comparison="less",
                       evaluation_periods=2))
    states = cw.evaluate_alarms()
    print(f"\n=== CloudWatch ===\nutilization while training: {util:.0f}%")
    print(f"idle-gpu alarm after the job ends: {states['idle-gpu'].value} "
          f"(the reaper's trigger)")


if __name__ == "__main__":
    main()
