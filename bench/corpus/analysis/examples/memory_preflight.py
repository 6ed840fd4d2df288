#!/usr/bin/env python
"""Memory pre-flight tour: will the job fit — and does it leak?

The memcheck loop end to end: (1) a closed-form peak estimate priced
against the instance catalog *before* anything launches, (2) the static
``MEM-*`` liveness pass catching a leaky lab script, (3) the dynamic
allocation ledger confirming the same leak at runtime, and (4) the
pool's gauges feeding a CloudWatch memory-pressure alarm.

Run:  python examples/memory_preflight.py
"""

import numpy as np

from repro.cloud import Alarm, CloudWatch
from repro.gpu import format_bytes, make_system
from repro.memcheck import analyze_source, gcn_training_footprint, preflight
from repro.telemetry import Tracer, record_device_memory

LEAKY_LAB = '''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
for step in range(100):
    staging = dev.alloc(xp.zeros((1024, 1024)))   # never freed
result = staging.data()
'''


def main() -> None:
    # --- 1. pre-flight: price the peak before the meter starts -------------
    print("=== OOM pre-flight (Algorithm-1 GCN, reddit-like scale) ===")
    peak = gcn_training_footprint(n_nodes=3_000_000, feature_dim=602,
                                  n_classes=41, hidden_dim=128)
    for sku in ("g4dn.xlarge", "p4d.24xlarge"):
        print(preflight(peak, sku).render())

    # --- 2. static pass: the TA's review of a leaky submission -------------
    print("\n=== static MEM-* findings on a leaky lab script ===")
    for f in analyze_source(LEAKY_LAB, "leaky_lab.py").findings:
        print(f"  {f.rule} line {f.line}: {f.message}")

    # --- 3. dynamic ledger: the same leak caught at runtime ----------------
    print("\n=== dynamic allocation ledger ===")
    system = make_system(1, "T4")
    dev = system.device(0)
    ballast = np.zeros((256, 1024), dtype=np.float32)
    held = dev.alloc(ballast, tag="lab.staging")  # noqa: MEM-LEAK - demo
    freed = dev.alloc(ballast, tag="lab.scratch")
    freed.free()
    stats = dev.memory.stats()
    print(f"  used {format_bytes(stats.used_bytes)}, "
          f"peak {format_bytes(stats.peak_bytes)}, "
          f"{stats.live_allocations} live allocation(s)")
    print("  " + dev.leak_report().render().replace("\n", "\n  "))

    # --- 4. gauges -> CloudWatch memory-pressure alarm ---------------------
    print("\n=== CloudWatch memory-pressure loop ===")
    cw = CloudWatch()
    cw.put_alarm(Alarm(name="memory-pressure", namespace="telemetry",
                       metric="DeviceMemoryUtilization", dimension="i-1",
                       threshold=90.0, comparison="greater"))
    with Tracer() as tracer:
        record_device_memory(tracer.metrics, system)
        tracer.metrics.publish_cloudwatch(cw, dimension="i-1",
                                          timestamp_h=1.0)
    state = cw.evaluate_alarms()["memory-pressure"]
    util = 100.0 * stats.utilization
    print(f"  device utilization {util:.2f}% -> alarm {state.name}")

    held.free()                      # clean teardown: the ledger empties
    report = system.teardown()[0]
    print(f"  after teardown: {report.render()}")


if __name__ == "__main__":
    main()
