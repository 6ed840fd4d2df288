"""Seeded bad workflow: the fixture every perflint family must flag.

Never imported — the tests run the analyzers over this file's *source*
and pin one finding per family (PERF, COST, IAM) against it.
"""

import numpy as np

import repro.xp as xp
from repro.cloud import BootstrapScript, Role, Statement
from repro.gpu import make_system
from repro.jit import cuda

system = make_system(1, "T4")
host = np.ones(4096, dtype=np.float32)

# the transfer and the workspace never change across epochs
for epoch in range(50):
    dev = cuda.to_device(host)          # PERF-LOOP-TRANSFER
    work = xp.zeros(4096)               # PERF-LOOP-ALLOC

# (8, 4) @ (3, 2) cannot compose
bad = xp.ones((8, 4)) @ xp.zeros((3, 2))   # PERF-SHAPE

# 2x p3.8xlarge for 10 h = $244.80, over the $100 cap; nothing here ever
# tears the instances down, and the session is long enough for a fallback
plan = BootstrapScript(instance_type="p3.8xlarge", instance_count=2,
                       expected_hours=10.0, assessment="final-project")

# the role can launch but not clean up (under-grant), and it carries an
# s3 write grant the plan never uses (over-grant)
role = Role(name="project-role", statements=[
    Statement("Allow", ("ec2:RunInstances",), ("arn:student/student/*",)),
    Statement("Allow", ("s3:DeleteObject",), ("*",)),
])
