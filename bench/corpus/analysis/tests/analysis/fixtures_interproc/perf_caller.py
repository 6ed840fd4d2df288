"""Loops that repeat a helper's invariant transfer every iteration."""

from perf_helpers import scratch, stage_and_scale, stage_weights

WEIGHTS = [1.0, 2.0, 3.0]


def train(batches):
    total = 0.0
    for batch in batches:
        w = stage_weights(WEIGHTS)       # same bytes cross PCIe per pass
        total += float(w[0]) + len(batch)
    return total


def train_deep(batches):
    total = 0.0
    for batch in batches:
        w = stage_and_scale(WEIGHTS)     # two hops to the transfer
        total += float(w[0]) + len(batch)
    return total


def fill(batches, n):
    out = []
    for batch in batches:
        buf = scratch(n)                 # same-shaped alloc per pass
        out.append(buf.size + len(batch))
    return out


def fine(batches):
    total = 0.0
    for batch in batches:
        w = stage_weights(batch)         # per-iteration input: silent
        total += float(w[0])
    return total
