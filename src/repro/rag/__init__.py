"""``repro.rag`` — Retrieval-Augmented Generation (Weeks 12-14).

The course's capstone arc: build a RAG pipeline (Lab 11: FAISS retrieval),
GPU-accelerate retriever and generator (Lab 12-13), and deploy a
real-time batched inference service (Lab 14 / Assignment 4).  Offline and
GPU-less, we rebuild the full stack:

* :mod:`~repro.rag.text` / :mod:`~repro.rag.embed` — tokenization
  (a corpus is tokenized once, into :class:`~repro.rag.text.TokenIds`),
  feature-hashing and TF-IDF embedders (deterministic, dependency-free);
* :mod:`~repro.rag.index` — FAISS-like vector indexes: exact ``FlatIndex``
  and clustered ``IVFFlatIndex`` (k-means coarse quantizer + probed
  lists), each with CPU and virtual-GPU execution backends;
* :mod:`~repro.rag.corpus` — a seeded topical corpus generator with known
  query→relevant-document ground truth, so recall@k is measurable;
* :mod:`~repro.rag.generator` — a "small LLM": an n-gram language model
  with a decoder-style per-token compute cost on the device timeline;
* :mod:`~repro.rag.pipeline` — the end-to-end ``RagPipeline`` with a
  per-stage latency breakdown (embed / retrieve / generate);
* :mod:`~repro.rag.serving` — the batched real-time server and the
  latency/throughput harness behind the Week 13-14 benchmark.
"""

from repro.rag.text import TokenIds, tokenize, Vocabulary
from repro.rag.embed import HashingEmbedder, TfidfEmbedder
from repro.rag.index import (
    FlatIndex,
    IVFFlatIndex,
    SearchResult,
    save_index,
    load_index,
)
from repro.rag.corpus import SyntheticCorpus, make_corpus
from repro.rag.generator import NgramGenerator, GeneratorConfig
from repro.rag.pipeline import RagPipeline, RagResponse, recall_at_k
from repro.rag.serving import RagServer, ServingStats
from repro.rag.rerank import CrossEncoderReranker, RerankResult, answer_support

__all__ = [
    "tokenize",
    "TokenIds",
    "Vocabulary",
    "HashingEmbedder",
    "TfidfEmbedder",
    "FlatIndex",
    "IVFFlatIndex",
    "SearchResult",
    "save_index",
    "load_index",
    "SyntheticCorpus",
    "make_corpus",
    "NgramGenerator",
    "GeneratorConfig",
    "RagPipeline",
    "RagResponse",
    "recall_at_k",
    "RagServer",
    "ServingStats",
    "CrossEncoderReranker",
    "RerankResult",
    "answer_support",
]
