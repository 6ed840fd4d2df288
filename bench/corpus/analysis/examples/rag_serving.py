#!/usr/bin/env python
"""Weeks 12-14: build, GPU-tune, and deploy a RAG pipeline.

Builds a topical corpus with known relevance, compares CPU and GPU
retrieval backends, shows the IVF recall/latency dial, answers a query
with the per-stage latency breakdown, and sweeps serving batch sizes.

Run:  python examples/rag_serving.py
"""

from repro.gpu import make_system
from repro.rag import (
    FlatIndex,
    IVFFlatIndex,
    RagPipeline,
    TfidfEmbedder,
    make_corpus,
)
from repro.rag.serving import sweep_batch_sizes


def main() -> None:
    system = make_system(1, "T4")
    corpus = make_corpus(n_docs=600, n_queries=40, seed=3)
    embedder = TfidfEmbedder(max_features=512).fit(corpus.documents)
    print(f"corpus: {corpus.n_docs} docs, {corpus.n_queries} queries with "
          f"ground-truth relevance")

    # --- Lab 11/12: retriever backends ------------------------------------
    for label, device in (("CPU", "cpu"), ("GPU", "cuda:0")):
        pipe = RagPipeline(corpus, embedder=embedder,
                           index=FlatIndex(embedder.dim, device=device),
                           device=device, seed=0)
        r = pipe.answer("how do gpu kernels and threads work", k=5)
        print(f"{label} flat index: recall@5={pipe.evaluate_recall(5):.2f}, "
              f"retrieve={r.timings_ms['retrieve']:.3f} ms, "
              f"generate={r.timings_ms['generate']:.3f} ms")

    # --- Lab 13: the IVF dial ----------------------------------------------
    for nprobe in (1, 4):
        ivf = IVFFlatIndex(embedder.dim, nlist=16, nprobe=nprobe,
                           device="cuda:0", seed=0)
        pipe = RagPipeline(corpus, embedder=embedder, index=ivf,
                           device="cuda:0", seed=0)
        print(f"IVF nprobe={nprobe}: recall@5={pipe.evaluate_recall(5):.2f}")

    # --- Lab 14: real-time serving -----------------------------------------
    pipe = RagPipeline(corpus, embedder=embedder,
                       index=FlatIndex(embedder.dim, device="cuda:0"),
                       device="cuda:0", seed=0)
    answer = pipe.answer("optimize retrieval latency with batching", k=3)
    print(f"\nsample answer: {answer.answer[:70]}...")
    print("\nserving sweep (batched real-time inference):")
    for stats in sweep_batch_sizes(pipe, list(corpus.queries) * 3,
                                   batch_sizes=(1, 4, 16),
                                   max_new_tokens=12):
        print(f"  {stats}")
    print("\nBatching amortizes per-launch overhead (throughput up) at the "
          "price of queueing delay (p95 up) — the Lab 14 trade-off.")


if __name__ == "__main__":
    main()
