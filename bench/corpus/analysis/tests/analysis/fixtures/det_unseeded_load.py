"""Seeded DET-UNSEEDED-RNG fixture: a load generator drawing from the
process-global RNG with no seed threaded anywhere."""

import random

import numpy as np


def arrival_times(n: int) -> list:
    return [random.expovariate(1.0) for _ in range(n)]   # DET-UNSEEDED-RNG


def request_sizes(n: int):
    return np.random.randint(1, 512, size=n)             # DET-UNSEEDED-RNG


def make_generator():
    return np.random.default_rng()                       # DET-UNSEEDED-RNG
