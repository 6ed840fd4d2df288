#!/usr/bin/env python
"""Algorithm 1 end-to-end: distributed GCN training with METIS + Dask.

Reproduces the paper's §III-B experiment on a synthetic citation network:
sequential single-GPU training vs Algorithm 1 on four GPUs with METIS
and with random partitioning, reporting accuracy, simulated wall time,
edge cuts, and per-GPU utilization.

Run:  python examples/distributed_gcn.py
"""

from repro.gcn import train_distributed, train_sequential
from repro.gpu import make_system
from repro.graph import metis_partition, noisy_citation, partition_report, random_partition


def main() -> None:
    dataset = noisy_citation(n=1200, seed=7)
    print(f"dataset: {dataset.name}, {dataset.n_nodes} nodes, "
          f"{dataset.graph.n_edges} edges, {dataset.n_classes} classes, "
          f"{int(dataset.train_mask.sum())} labeled")

    # partition quality preview (Algorithm 1, line 3)
    for name, parts in [
        ("METIS", metis_partition(dataset.graph, 4, seed=0)),
        ("random", random_partition(dataset.graph, 4, seed=0)),
    ]:
        print(f"  {name:6s} partition: {partition_report(dataset.graph, parts)}")

    # sequential baseline
    seq = train_sequential(dataset, epochs=40, seed=0,
                           system=make_system(1, "T4"))
    print(f"\nsequential (1 GPU): test acc {seq.test_accuracy:.3f}, "
          f"{seq.elapsed_ms:.1f} simulated ms")

    # Algorithm 1 with both partitioners; one 4-GPU system serves both
    # runs (building it per-iteration would re-allocate every device)
    system4 = make_system(4, "T4")
    for partitioner in ("metis", "random"):
        res = train_distributed(dataset, k=4, epochs=40, seed=0,
                                partitioner=partitioner,
                                system=system4)
        util = ", ".join(f"gpu{d}={u:.2f}"
                         for d, u in res.per_gpu_utilization.items())
        print(f"Algorithm 1 ({partitioner:6s}, k=4): "
              f"test acc {res.test_accuracy:.3f}, "
              f"{res.elapsed_ms:.1f} ms "
              f"(speedup {seq.elapsed_ms / res.elapsed_ms:.2f}x), "
              f"cut {res.partition.cut_fraction:.0%}")
        print(f"    utilization: {util}")

    print("\nAs §III-B reports: distributing yields minimal speedup at "
          "lab scale, and partition quality (METIS vs random) shows up "
          "directly in accuracy.")


if __name__ == "__main__":
    main()
