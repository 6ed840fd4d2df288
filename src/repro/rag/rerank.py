"""Second-stage reranking — the classic RAG quality upgrade.

The two-stage retrieval pattern (cheap ANN candidates → expensive
cross-scoring of the top few) is the standard extension to the Lab 13
pipeline.  The "cross-encoder" here scores a (query, document) pair by
weighted term overlap with an idf-style emphasis on rare terms; its
*cost* is modeled as one decoder pass over the concatenated pair, so
reranking k candidates is visibly more expensive per candidate than the
first-stage dot products — exactly the trade-off that makes two-stage
designs sensible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.nn.device import ComputeDevice, resolve_device
from repro.rag.text import TokenIds, tokenize


@dataclass(frozen=True)
class RerankResult:
    """Reordered candidates with cross scores."""

    ids: np.ndarray
    scores: np.ndarray


class CrossEncoderReranker:
    """Pairwise (query, doc) scorer with decoder-pass costing."""

    def __init__(self, corpus_texts: list[str], device: str = "cpu",
                 d_model: int = 128, n_layers: int = 2) -> None:
        if not corpus_texts:
            raise ReproError("reranker needs the corpus texts")
        self.corpus_texts = corpus_texts
        self.device: ComputeDevice = resolve_device(device)
        self.d_model = d_model
        self.n_layers = n_layers
        # document-frequency table for idf weighting
        docs = TokenIds.from_texts(corpus_texts)
        n = len(docs)
        self._idf = {t: math.log((1 + n) / (1 + c)) + 1.0
                     for t, c in zip(docs.tokens,
                                     docs.document_frequency().tolist())}

    @property
    def flops_per_pair(self) -> float:
        # one "cross-encoder forward": 12 d^2 per layer, seq-pooled
        return 2.0 * 12.0 * self.d_model ** 2 * self.n_layers

    def score_pair(self, query: str, doc: str) -> float:
        """Idf-weighted overlap between query terms and the document."""
        q_terms = tokenize(query)
        if not q_terms:
            return 0.0
        doc_counts = Counter(tokenize(doc))
        num = sum(self._idf.get(t, 1.0) * min(doc_counts.get(t, 0), 3)
                  for t in q_terms)
        return num / len(q_terms)

    def rerank(self, query: str, candidate_ids: np.ndarray,
               top_k: int | None = None) -> RerankResult:
        """Cross-score the candidates and return them best-first.

        Padding ids (``-1``) from the first stage are dropped.
        """
        ids = [int(i) for i in np.asarray(candidate_ids).ravel() if i >= 0]
        if not ids:
            raise ReproError("no candidates to rerank")
        for i in ids:
            if i >= len(self.corpus_texts):
                raise ReproError(f"candidate id {i} outside the corpus")
        # charge one cross-encoder pass per pair
        self.device.charge(self.flops_per_pair * len(ids),
                           4.0 * self.d_model * len(ids) * 8.0,
                           "cross_encoder_rerank", gemm=True)
        scores = np.array([self.score_pair(query, self.corpus_texts[i])
                           for i in ids], dtype=np.float32)
        order = np.argsort(-scores, kind="stable")
        if top_k is not None:
            order = order[:top_k]
        return RerankResult(ids=np.asarray([ids[j] for j in order],
                                           dtype=np.int64),
                            scores=scores[order])


def answer_support(answer: str, context_docs: list[str]) -> float:
    """Fraction of answer tokens grounded in the retrieved context — the
    cheap "is the generator actually using the retrieval?" metric."""
    ans = tokenize(answer)
    if not ans:
        return 0.0
    vocab: set[str] = set()
    for d in context_docs:
        vocab.update(tokenize(d))
    return sum(1 for t in ans if t in vocab) / len(ans)
