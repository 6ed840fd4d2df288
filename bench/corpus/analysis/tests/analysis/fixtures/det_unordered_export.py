"""Seeded DET-UNORDERED-ITER fixture: a report assembled by iterating a
set, then exported — the emitted bytes depend on PYTHONHASHSEED."""

import json


def export_shard_stats(fh):
    shards = {"us-east-1a", "us-east-1b", "us-west-2a"}
    stats = {}
    for shard in shards:
        stats[shard] = len(shard)
    fh.write(json.dumps(stats))                          # DET-UNORDERED-ITER
