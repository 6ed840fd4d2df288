"""Text embedders: feature hashing and TF-IDF.

Both produce L2-normalized dense vectors so inner product = cosine
similarity, the convention the FAISS-like indexes assume.  Hashing is
stateless (any text, fixed dim); TF-IDF is fitted and sharper on topical
corpora — the two retriever options Lab 11 compares.

Both take a list of strings or a :class:`~repro.rag.text.TokenIds`
(the corpus tokenized once) and fill their output a block of texts at a
time, from the token ids.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ReproError
from repro.rag.text import TokenIds, Vocabulary, as_token_ids


def _l2_normalize(x: np.ndarray) -> np.ndarray:
    """Divide each row of ``x`` by its L2 norm, in place."""
    x /= np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
    return x


def _row_sums(enc: TokenIds, column: np.ndarray, dim: int,
              weight: np.ndarray | None = None
              ) -> Iterator[tuple[slice, np.ndarray]]:
    """``(texts, sums)`` per block of texts: row ``i`` of the
    ``(texts, dim)`` array counts text ``i``'s tokens by column
    ``column[token id]`` (or adds up ``weight[token id]``), dropping the
    tokens whose column is ``-1``."""
    for texts, ids, row in enc.blocks():
        col = column[ids]
        keep = col >= 0
        cells = row[keep] * dim + col[keep]
        w = None if weight is None else weight[ids[keep]]
        n = texts.stop - texts.start
        yield texts, np.bincount(cells, weights=w,
                                 minlength=n * dim).reshape(n, dim)


class HashingEmbedder:
    """Feature hashing ("hashing trick"): token -> crc32 bucket, with a
    sign hash to de-bias collisions.  Deterministic across processes."""

    def __init__(self, dim: int = 256) -> None:
        if dim <= 0:
            raise ReproError("dim must be positive")
        self.dim = dim

    def embed(self, texts: Sequence[str] | TokenIds) -> np.ndarray:
        enc = as_token_ids(texts)
        h = np.array([zlib.crc32(t.encode()) for t in enc.tokens],
                     dtype=np.int64)
        sign = np.where((h >> 31) & 1, 1.0, -1.0)
        out = np.empty((len(enc), self.dim), dtype=np.float32)
        for rows, sums in _row_sums(enc, h % self.dim, self.dim, sign):
            out[rows] = sums
        return _l2_normalize(out)

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed([text])[0]


class TfidfEmbedder:
    """Classic TF-IDF over a fitted vocabulary, projected to dense.

    ``fit`` learns idf from the corpus; ``embed`` produces
    tf·idf-weighted, L2-normalized vectors in vocabulary space (optionally
    truncated to ``max_features`` most frequent tokens).
    """

    def __init__(self, max_features: int = 512) -> None:
        self.max_features = max_features
        self.vocab: Vocabulary | None = None
        self.idf: np.ndarray | None = None

    @property
    def dim(self) -> int:
        if self.vocab is None:
            raise ReproError("embedder not fitted")
        return len(self.vocab)

    def fit(self, corpus: Sequence[str] | TokenIds) -> "TfidfEmbedder":
        enc = as_token_ids(corpus)
        if not len(enc):
            raise ReproError("cannot fit on an empty corpus")
        self.vocab = Vocabulary(enc, max_size=self.max_features)
        column = self.vocab.ids_for(enc.tokens)
        in_vocab = column >= 0
        df = np.zeros(len(self.vocab), dtype=np.float64)
        df[column[in_vocab]] = enc.document_frequency()[in_vocab]
        n = len(enc)
        self.idf = np.log((1 + n) / (1 + df)) + 1.0  # smoothed idf
        return self

    def embed(self, texts: Sequence[str] | TokenIds) -> np.ndarray:
        if self.vocab is None or self.idf is None:
            raise ReproError("call fit() before embed()")
        enc = as_token_ids(texts)
        dim = len(self.vocab)
        out = np.empty((len(enc), dim), dtype=np.float32)
        for rows, tf in _row_sums(enc, self.vocab.ids_for(enc.tokens), dim):
            out[rows] = tf * self.idf
        return _l2_normalize(out)

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed([text])[0]
