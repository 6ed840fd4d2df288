"""Seeded leaky lab submission — the memcheck acceptance fixture.

Static pass: the loop rebinds ``buf`` every iteration without
``.free()`` → ``MEM-LEAK``.  Dynamic run: every orphaned allocation
stays on the pool's ledger → ``leak_report()`` names ``lab.staging``.
"""

import numpy as np

from repro.gpu import default_system


def run_leaky(steps=4):
    dev = default_system().device(0)
    for step in range(steps):
        buf = dev.alloc(np.zeros((64, 64), dtype=np.float32),
                        tag="lab.staging")
    return dev
