"""Deterministic counterpart of the seeded DET fixtures: seeded
generators, sorted exports, and no host wall-clock reads — the DET pass
must stay silent here."""

import json
import random

import numpy as np


def arrival_times(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.expovariate(1.0) for _ in range(n)]


def request_sizes(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 512, size=n)


def seeded_module_draws(seed: int) -> float:
    random.seed(seed)
    return random.random()


def export_shard_stats(fh):
    shards = {"us-east-1a", "us-east-1b", "us-west-2a"}
    stats = {}
    for shard in sorted(shards):
        stats[shard] = len(shard)
    fh.write(json.dumps(stats))
