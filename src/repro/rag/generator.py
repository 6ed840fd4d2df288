"""The "small LLM": an n-gram generator with decoder-style GPU costing.

Lab 13 pairs a GPU-tuned retriever with a *small* language model.  Our
generator is a bigram model fitted on the corpus and conditioned on the
retrieved context (it samples preferentially from context vocabulary).
The *numerics* are n-gram simple; the *cost model* is a transformer
decoder's: each generated token charges ``2 · n_params`` FLOPs (the
standard decode-step estimate), so generation latency scales with model
size and token count exactly as the Lab 14 serving study expects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.nn.device import ComputeDevice, resolve_device
from repro.rag.text import TokenIds, as_token_ids, tokenize


@dataclass(frozen=True)
class GeneratorConfig:
    """Size/behaviour of the simulated decoder.

    ``d_model``/``n_layers`` set the parameter count that drives the
    per-token cost; defaults give ~3M parameters — a "small LLM" indeed.
    """

    d_model: int = 256
    n_layers: int = 4
    max_new_tokens: int = 32
    temperature: float = 1.0

    @property
    def n_params(self) -> float:
        # 12 * d^2 per transformer layer is the classic estimate.
        return 12.0 * self.d_model ** 2 * self.n_layers

    @property
    def flops_per_token(self) -> float:
        return 2.0 * self.n_params


def _bigram_counts(enc: TokenIds) -> tuple[list[int], list[int], list[int]]:
    """Every pair of adjacent tokens inside one text, as ``(first ids,
    second ids, counts)`` in order of the pair's first occurrence."""
    n = len(enc.tokens)
    # the narrowest key type sorts fastest (uint16 keys take a radix sort)
    key = np.zeros(0, dtype=np.min_scalar_type(max(n * n - 1, 0)))
    first = count = np.zeros(0, dtype=np.int64)
    for texts, ids, row in enc.blocks():
        inside = np.flatnonzero(row[1:] == row[:-1])
        pair = (ids[inside].astype(np.int64) * n
                + ids[inside + 1]).astype(key.dtype)
        k, f, c = np.unique(pair, return_index=True, return_counts=True)
        # merge into the earlier blocks' pairs; np.unique keeps the first
        # of equal keys, so a pair seen before keeps its first position
        key, at, inverse = np.unique(np.concatenate([key, k]),
                                     return_index=True, return_inverse=True)
        first = np.concatenate(
            [first, inside[f] + enc.offsets[texts.start]])[at]
        total = np.zeros(len(key), dtype=np.int64)
        np.add.at(total, inverse, np.concatenate([count, c]))
        count = total
    order = np.argsort(first, kind="stable")
    key, count = key[order], count[order]
    return (key // n).tolist(), (key % n).tolist(), count.tolist()


class NgramGenerator:
    """Bigram LM with context conditioning and decoder-cost accounting."""

    def __init__(self, config: GeneratorConfig | None = None,
                 device: str = "cpu", seed: int = 0) -> None:
        self.config = config or GeneratorConfig()
        self.device: ComputeDevice = resolve_device(device)
        self._rng = np.random.default_rng(seed)
        self._bigrams: dict[str, dict[str, int]] = {}
        self._unigrams: dict[str, int] = {}
        self.fitted = False

    def fit(self, corpus: list[str] | TokenIds) -> "NgramGenerator":
        """Count unigrams and bigrams over the corpus's token ids (host
        side).  Both tables grow in first-occurrence order, the order
        ``_next_token`` samples over; fitting again adds to them."""
        enc = as_token_ids(corpus)
        if not len(enc):
            raise ReproError("cannot fit a generator on an empty corpus")
        tokens = enc.tokens
        for tok, count in zip(tokens, enc.token_counts().tolist()):
            self._unigrams[tok] = self._unigrams.get(tok, 0) + count
        for a, b, count in zip(*_bigram_counts(enc)):
            follow = self._bigrams.setdefault(tokens[a], {})
            follow[tokens[b]] = follow.get(tokens[b], 0) + count
        self.fitted = True
        return self

    def _next_token(self, prev: str, context_vocab: set[str]) -> str:
        """Sample the next token, boosting context vocabulary 4x (the
        "conditioning" that makes answers quote the retrieved docs)."""
        options = self._bigrams.get(prev)
        if not options:
            options = self._unigrams
        tokens = list(options.keys())
        weights = np.array([options[t] * (4.0 if t in context_vocab else 1.0)
                            for t in tokens], dtype=np.float64)
        if self.config.temperature != 1.0:
            weights = weights ** (1.0 / max(self.config.temperature, 1e-6))
        weights /= weights.sum()
        return tokens[self._rng.choice(len(tokens), p=weights)]

    def generate(self, prompt: str, context: list[str] | None = None,
                 max_new_tokens: int | None = None) -> str:
        """Generate a continuation; charges one decode step per token.

        ``max_new_tokens=None`` means the config's default; ``0`` gives
        an empty answer and charges nothing.
        """
        if not self.fitted:
            raise ReproError("call fit() before generate()")
        limit = (self.config.max_new_tokens if max_new_tokens is None
                 else max_new_tokens)
        if limit < 0:
            raise ReproError(f"max_new_tokens must be >= 0, got {limit}")
        context_vocab: set[str] = set()
        for c in context or []:
            context_vocab.update(tokenize(c))
        toks = tokenize(prompt) or ["the"]
        prev = toks[-1]
        out: list[str] = []
        for _ in range(limit):
            # each decode step: one pass through all parameters
            self.device.charge(self.config.flops_per_token,
                               4.0 * self.config.n_params / 8.0,
                               "decode_step", gemm=True)
            nxt = self._next_token(prev, context_vocab)
            out.append(nxt)
            prev = nxt
        return " ".join(out)
