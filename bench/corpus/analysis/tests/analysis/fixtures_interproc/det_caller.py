"""Feeding the process-global RNG into a drawing helper, unseeded."""

import random

from det_helpers import jitter, jitter_twice


def warmup_delay():
    return jitter(random, 0.0, 1.0)      # global RNG, no seed anywhere


def warmup_delay_deep():
    return jitter_twice(random, 0.0, 1.0)


def local_delay():
    rng = random.Random(42)
    return jitter(rng, 0.0, 1.0)         # seeded instance: silent
