"""Tokenization and vocabulary — the text plumbing under the embedders.

A corpus is tokenized once, into a :class:`TokenIds`: every token an
int32 id into the corpus's own token table, numbered in order of first
occurrence.  The vocabulary, the embedders and the n-gram generator all
fit from those ids; a plain list of strings is encoded at the door.
"""

from __future__ import annotations

import string
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

#: byte -> itself for an ASCII lowercase letter or digit, else a space
_SEPARATE = bytes(b if chr(b) in string.ascii_lowercase + string.digits
                  else 0x20 for b in range(256))

#: texts per block in :meth:`TokenIds.blocks`, which bounds the per-token
#: and per-(text, term) temporaries of a fit to one block's worth
BLOCK_TEXTS = 1024


def tokenize(text: str) -> list[str]:
    """Lowercase word tokenizer: the runs of ASCII letters and digits in
    ``text.lower()``, as ``re.findall(r"[a-z0-9]+", text.lower())``
    finds them.  Every other character, non-ASCII ones included (each
    UTF-8 byte of one is at least 0x80), separates tokens."""
    return (text.lower().encode("utf-8", "surrogatepass")
            .translate(_SEPARATE).decode("ascii").split())


class _FirstSeen(dict):
    """token -> id, numbering each token the first time it is looked up."""

    def __missing__(self, token: str) -> int:
        self[token] = idx = len(self)
        return idx


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Texts tokenized once, as integer ids.

    Text ``i``'s tokens are ``ids[offsets[i]:offsets[i + 1]]``.  Id ``j``
    stands for ``tokens[j]``, and ids are numbered in order of first
    occurrence, so ``tokens`` lists every distinct token in the order
    the texts first use it.
    """

    tokens: list[str]
    ids: np.ndarray         # (n_tokens,) int32
    offsets: np.ndarray     # (n_texts + 1,) int64

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "TokenIds":
        index = _FirstSeen()
        lookup = index.__getitem__
        ids = array("i")
        lengths = [0]
        for text in texts:
            toks = tokenize(text)
            ids.extend(map(lookup, toks))
            lengths.append(len(toks))
        return cls(tokens=list(index),
                   ids=np.frombuffer(ids, dtype=np.int32),
                   offsets=np.cumsum(lengths, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def token_counts(self) -> np.ndarray:
        """Occurrences of each token id over all texts."""
        n = len(self.tokens)
        counts = np.zeros(n, dtype=np.int64)
        for _, ids, _ in self.blocks():
            counts += np.bincount(ids, minlength=n)
        return counts

    def blocks(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """``(texts, ids, row)`` per block of up to ``BLOCK_TEXTS`` texts:
        the block's slice of texts, its token ids and, per token, the
        index of the token's text within the block."""
        for r0 in range(0, len(self), BLOCK_TEXTS):
            bounds = self.offsets[r0:r0 + BLOCK_TEXTS + 1]
            row = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            yield (slice(r0, r0 + len(bounds) - 1),
                   self.ids[bounds[0]:bounds[-1]], row)

    def document_frequency(self) -> np.ndarray:
        """Number of texts each token id occurs in."""
        n = len(self.tokens)
        df = np.zeros(n, dtype=np.int64)
        for _, ids, row in self.blocks():
            cells = np.sort(row * n + ids)    # one per (text, token id)
            first = np.ones(len(cells), dtype=bool)
            first[1:] = cells[1:] != cells[:-1]
            df += np.bincount(cells[first] % n, minlength=n)
        return df


def as_token_ids(texts: Iterable[str] | TokenIds) -> TokenIds:
    """``texts`` tokenized once; a :class:`TokenIds` passes through."""
    return texts if isinstance(texts, TokenIds) else TokenIds.from_texts(texts)


class Vocabulary:
    """A frozen token↔id mapping built from a corpus pass."""

    def __init__(self, texts: Iterable[str] | TokenIds, min_count: int = 1,
                 max_size: int | None = None) -> None:
        enc = as_token_ids(texts)
        items = [(t, c) for t, c in zip(enc.tokens, enc.token_counts().tolist())
                 if c >= min_count]
        items.sort(key=lambda tc: (-tc[1], tc[0]))  # frequent first, stable
        if max_size is not None:
            items = items[:max_size]
        self._token_to_id = {t: i for i, (t, _) in enumerate(items)}
        self._id_to_token = [t for t, _ in items]
        self.counts = dict(items)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int | None:
        return self._token_to_id.get(token)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def ids_for(self, tokens: list[str]) -> np.ndarray:
        """Vocabulary id of each token, ``-1`` when out of vocabulary:
        the table that maps a :class:`TokenIds` onto this vocabulary."""
        get = self._token_to_id.get
        return np.array([get(t, -1) for t in tokens], dtype=np.int32)

    def encode(self, text: str) -> list[int]:
        """Token ids, dropping out-of-vocabulary tokens."""
        out = []
        for tok in tokenize(text):
            i = self._token_to_id.get(tok)
            if i is not None:
                out.append(i)
        return out
