"""Seeded synthetic corpora with retrieval ground truth.

Real labs used small document sets scraped per student; offline we need a
corpus where **relevance is known**, so recall@k is a real number rather
than an eyeball.  Documents are generated from topic-specific keyword
distributions plus shared filler vocabulary; a query is generated from
the same topic distribution as its relevant documents.

The draw contract (``docs/serving.md``): one generator seeded with
``seed`` draws the document topics, then the documents' words, then the
query topics, then the queries' words.  Each set of texts is drawn as
three ``(texts, length)`` arrays, in this order: the topic mask
(``random() < topic_fraction``), an index into the text's topic bank,
and an index into the filler.  Every word is then looked up in one word
table, the topic banks followed by the filler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

# A small shared filler vocabulary (common across topics => retrieval
# noise, like stop-words that survive tokenization).
_FILLER = [
    "the", "data", "model", "system", "result", "method", "value", "test",
    "note", "case", "point", "work", "step", "part", "form", "line",
]

# Topic keyword banks (course-flavoured).
_TOPIC_BANKS = [
    ["gpu", "kernel", "thread", "block", "grid", "warp", "occupancy",
     "cuda", "stream", "launch"],
    ["graph", "node", "edge", "partition", "metis", "gcn", "adjacency",
     "neighbor", "degree", "community"],
    ["cloud", "aws", "instance", "sagemaker", "vpc", "subnet", "iam",
     "budget", "billing", "region"],
    ["agent", "reward", "policy", "replay", "epsilon", "qvalue",
     "episode", "environment", "action", "state"],
    ["retrieval", "embedding", "index", "query", "document", "faiss",
     "vector", "similarity", "generator", "pipeline"],
    ["profiler", "timeline", "bottleneck", "bandwidth", "latency",
     "throughput", "roofline", "transfer", "memory", "cache"],
    ["tensor", "gradient", "loss", "optimizer", "layer", "batch",
     "epoch", "accuracy", "training", "inference"],
    ["dask", "worker", "scheduler", "cluster", "task", "future",
     "scatter", "gather", "allreduce", "broadcast"],
]

#: words per topic bank (every bank has ten)
_BANK_SIZE = 10

#: the one word table: every topic bank in order, then the filler
_WORDS = np.array([w for bank in _TOPIC_BANKS for w in bank] + _FILLER,
                  dtype=object)
#: word-table index of (topic, bank index) and of each filler index
_BANK_WORDS = np.arange(len(_TOPIC_BANKS) * _BANK_SIZE).reshape(
    len(_TOPIC_BANKS), _BANK_SIZE)
_FILLER_WORDS = np.arange(_BANK_WORDS.size, len(_WORDS))

#: texts joined per step, which bounds the per-word temporaries
_JOIN_ROWS = 1024


@dataclass
class SyntheticCorpus:
    """Documents + queries + relevance ground truth."""

    documents: list[str]
    doc_topics: np.ndarray                  # (n_docs,) int
    queries: list[str]
    query_topics: np.ndarray                # (n_queries,) int
    relevant: list[np.ndarray] = field(default_factory=list)
    # relevant[i] = doc ids sharing query i's topic

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def n_queries(self) -> int:
        return len(self.queries)


def _draw_texts(rng: np.random.Generator, topics: np.ndarray,
                length: int, topic_fraction: float) -> list[str]:
    """One text of ``length`` words per entry of ``topics``, drawn as
    arrays: the topic mask, then bank indices, then filler indices."""
    shape = (len(topics), length)
    topical = rng.random(shape) < topic_fraction
    bank = rng.integers(_BANK_SIZE, size=shape, dtype=np.uint8)
    filler = rng.integers(len(_FILLER), size=shape, dtype=np.uint8)
    texts: list[str] = []
    for start in range(0, len(topics), _JOIN_ROWS):
        rows = slice(start, start + _JOIN_ROWS)
        word = np.where(topical[rows],
                        _BANK_WORDS[topics[rows, None], bank[rows]],
                        _FILLER_WORDS[filler[rows]])
        texts += map(" ".join, _WORDS[word].tolist())
    return texts


def make_corpus(n_docs: int = 200, n_queries: int = 40,
                n_topics: int = 8, doc_length: int = 40,
                query_length: int = 6, topic_fraction: float = 0.6,
                seed: int = 0) -> SyntheticCorpus:
    """Generate a topical corpus with known query relevance."""
    if not 1 <= n_topics <= len(_TOPIC_BANKS):
        raise ReproError(
            f"n_topics must be in [1, {len(_TOPIC_BANKS)}], got {n_topics}")
    rng = np.random.default_rng(seed)
    doc_topics = rng.integers(0, n_topics, size=n_docs)
    documents = _draw_texts(rng, doc_topics, doc_length, topic_fraction)
    query_topics = rng.integers(0, n_topics, size=n_queries)
    queries = _draw_texts(rng, query_topics, query_length,
                          min(topic_fraction + 0.2, 1.0))
    relevant = [np.flatnonzero(doc_topics == t) for t in query_topics]
    return SyntheticCorpus(documents=documents, doc_topics=doc_topics,
                           queries=queries, query_topics=query_topics,
                           relevant=relevant)
