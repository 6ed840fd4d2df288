"""The end-to-end RAG pipeline with per-stage latency accounting.

``answer(query)`` = embed → retrieve → generate, each stage timed on the
simulated clock, so the latency breakdown students chart in Lab 14 falls
out of ``RagResponse.timings_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.gpu.system import default_system
from repro.rag.corpus import SyntheticCorpus
from repro.rag.embed import HashingEmbedder, TfidfEmbedder
from repro.rag.generator import NgramGenerator
from repro.rag.index import FlatIndex, IVFFlatIndex, SearchResult
from repro.rag.text import TokenIds
from repro.telemetry import api as telemetry


def recall_at_k(result_ids: np.ndarray, relevant: np.ndarray) -> float:
    """Fraction of the top-k hits that are relevant-at-all recall:
    |retrieved ∩ relevant| / min(k, |relevant|)."""
    hits = np.isin(result_ids[result_ids >= 0], relevant).sum()
    denom = min(len(result_ids), len(relevant)) or 1
    return float(hits) / denom


def _check_k(k: int) -> int:
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    return k


@dataclass
class RagResponse:
    """One answered query."""

    query: str
    answer: str
    doc_ids: np.ndarray
    scores: np.ndarray
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return sum(self.timings_ms.values())


class RagPipeline:
    """Embedder + index + generator, wired over one corpus.

    The corpus is tokenized once; the embedder's fit and embed and the
    generator's fit all read those token ids.
    """

    def __init__(self, corpus: SyntheticCorpus,
                 embedder: HashingEmbedder | TfidfEmbedder | None = None,
                 index: FlatIndex | IVFFlatIndex | None = None,
                 generator: NgramGenerator | None = None,
                 device: str = "cpu", k: int = 5, seed: int = 0) -> None:
        self.corpus = corpus
        self.k = _check_k(k)
        docs = TokenIds.from_texts(corpus.documents)
        self.embedder = embedder or TfidfEmbedder(max_features=512)
        if isinstance(self.embedder, TfidfEmbedder) and self.embedder.vocab is None:
            self.embedder.fit(docs)
        doc_vecs = self.embedder.embed(docs)
        dim = doc_vecs.shape[1]
        self.index = index or FlatIndex(dim, device=device)
        if isinstance(self.index, IVFFlatIndex) and not self.index.is_trained:
            self.index.train(doc_vecs)
        if self.index.ntotal == 0:
            self.index.add(doc_vecs)
        self.generator = generator or NgramGenerator(device=device, seed=seed)
        if not self.generator.fitted:
            self.generator.fit(docs)
        self._reranker = None  # built lazily by answer(rerank=True)
        self._clock = default_system().clock

    def _k(self, k: int | None) -> int:
        """``k`` for one call: ``None`` means the pipeline's own."""
        return self.k if k is None else _check_k(k)

    def _now_ms(self) -> float:
        default_system().synchronize()
        return self._clock.now_ns / 1e6

    def embed_queries(self, texts: list[str]) -> np.ndarray:
        """Embed queries, charging the projection cost to the index's
        device (embedding co-locates with the retriever in Lab 13)."""
        vecs = self.embedder.embed(texts)
        self.index.device.charge(2.0 * vecs.size, 8.0 * vecs.size,
                                 "embed_queries")
        return vecs

    def retrieve(self, query: str, k: int | None = None) -> SearchResult:
        vec = self.embed_queries([query])
        return self.index.search(vec, self._k(k))

    def answer(self, query: str, k: int | None = None,
               max_new_tokens: int | None = None,
               rerank: bool = False,
               candidates: int | None = None) -> RagResponse:
        """Full RAG answer with the per-stage simulated-latency breakdown.

        With ``rerank=True`` the pipeline runs two-stage retrieval: fetch
        ``candidates`` (default 3·k) from the index, cross-score them with
        a :class:`~repro.rag.rerank.CrossEncoderReranker` (built lazily on
        first use), and keep the top k — the Lab 13 quality upgrade, with
        its extra cost visible in the ``rerank`` timing entry.
        """
        if not query.strip():
            raise ReproError("empty query")
        k = self._k(k)

        def ns(t_ms: float) -> int:
            return int(round(t_ms * 1e6))

        with telemetry.span("rag.answer", kind="stage",
                            attributes={"k": k, "rerank": rerank}):
            t0 = self._now_ms()
            vec = self.embed_queries([query])
            t1 = self._now_ms()
            telemetry.record("embed", "stage", ns(t0), ns(t1))
            n_fetch = (candidates or 3 * k) if rerank else k
            result = self.index.search(vec, n_fetch)
            t2 = self._now_ms()
            telemetry.record("retrieve", "stage", ns(t1), ns(t2))
            doc_ids = result.ids[0]
            scores = result.scores[0]
            timings = {"embed": t1 - t0, "retrieve": t2 - t1}
            if rerank:
                if self._reranker is None:
                    from repro.rag.rerank import CrossEncoderReranker
                    self._reranker = CrossEncoderReranker(
                        self.corpus.documents,
                        device=self.index.device.name)
                rr = self._reranker.rerank(query, doc_ids, top_k=k)
                doc_ids, scores = rr.ids, rr.scores
                t2b = self._now_ms()
                timings["rerank"] = t2b - t2
                telemetry.record("rerank", "stage", ns(t2), ns(t2b))
                t2 = t2b
            context = [self.corpus.documents[i] for i in doc_ids if i >= 0]
            text = self.generator.generate(query, context=context,
                                           max_new_tokens=max_new_tokens)
            t3 = self._now_ms()
            timings["generate"] = t3 - t2
            telemetry.record("generate", "stage", ns(t2), ns(t3))
            for stage, ms in timings.items():
                telemetry.observe(f"rag.{stage}_ms", ms)
        return RagResponse(
            query=query,
            answer=text,
            doc_ids=doc_ids,
            scores=scores,
            timings_ms=timings,
        )

    def evaluate_recall(self, k: int | None = None) -> float:
        """Mean recall@k over the corpus's ground-truth queries."""
        k = self._k(k)
        vecs = self.embed_queries(list(self.corpus.queries))
        result = self.index.search(vecs, k)
        recalls = [recall_at_k(result.ids[i], self.corpus.relevant[i])
                   for i in range(self.corpus.n_queries)]
        return float(np.mean(recalls))
