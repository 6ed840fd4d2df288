"""Seeded DET-WALLCLOCK fixture: a device timeline stamped with host
wall-clock reads instead of the simulated clock."""

import time
from datetime import datetime

from repro.gpu.device import Device


def stamp_timeline(dev: Device) -> dict:
    start = time.perf_counter()          # DET-WALLCLOCK
    dev.synchronize()
    return {
        "elapsed_s": time.time() - start,        # DET-WALLCLOCK
        "finished_at": datetime.now().isoformat(),  # DET-WALLCLOCK
    }
