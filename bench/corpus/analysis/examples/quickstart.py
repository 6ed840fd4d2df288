#!/usr/bin/env python
"""Quickstart: the Week 1-4 arc in sixty lines.

Provision a simulated AWS GPU instance, move data to the device with the
CuPy-like API, profile a small workload Nsight-style, and let the
roofline analyzer name the bottleneck — the exact loop the course drills
in its first month.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro.xp as xp
from repro.cloud import BootstrapScript, CloudSession
from repro.profiling import BottleneckAnalyzer, Profiler, annotate


def main() -> None:
    # --- Week 1: cloud setup (simulated AWS, us-east-1) ------------------
    cloud = CloudSession()
    cloud.set_term("Quickstart")
    me = cloud.register_student("you")
    script = BootstrapScript(instance_type="g4dn.xlarge", assessment="qs")
    [instance] = script.run(cloud, me)
    system = instance.gpu_system()
    print(f"instance {instance.instance_id} up: "
          f"{system.device(0).name}, {instance.private_ip}")

    # --- Weeks 2-3: device arrays and transfers ---------------------------
    host = np.random.default_rng(0).standard_normal(
        (1024, 1024)).astype(np.float32)
    with Profiler(system) as prof:
        with annotate("upload"):
            a = xp.asarray(host)           # H2D transfer (costed)
        with annotate("compute"):
            b = xp.matmul(a, a)            # roofline-costed GEMM
            c = xp.exp(b * 1e-6).sum()     # elementwise + reduction
        with annotate("download"):
            result = c.item()              # D2H + sync
    print(f"checksum: {result:.2f}")

    # --- Week 4: read the profile ------------------------------------------
    print("\n--- profile (nsys-style) ---")
    print(prof.table(limit=6))
    diagnosis = BottleneckAnalyzer(system.device(0).spec).diagnose(prof)
    print(f"\nverdict: {diagnosis.dominant}-dominated — {diagnosis.advice}")
    for v in diagnosis.verdicts[:2]:
        print(f"  {v}")

    # --- cost hygiene: terminate and check the bill -----------------------
    cloud.advance_hours(1.0)
    script.teardown(cloud, me)
    spend = cloud.billing.explorer.spend_by_owner()["you"]
    print(f"\nsession cost: ${spend:.3f} "
          f"(g4dn.xlarge at $0.526/h) — instance terminated")


if __name__ == "__main__":
    main()
