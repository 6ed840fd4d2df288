"""The corpus is tokenized once; every fit reads its token ids.

The reference functions below are the per-text loops the id-based fits
replaced.  A derandomized hypothesis test checks that vocabularies, idf,
embeddings, n-gram tables (in insertion order) and seeded generations
stay byte-identical to them.  The seeded corpus itself is pinned by a
sha256, so a change to its random stream shows up as an explicit
re-baseline.
"""

import hashlib
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.rag import (
    HashingEmbedder,
    NgramGenerator,
    RagPipeline,
    TfidfEmbedder,
    Vocabulary,
    make_corpus,
    tokenize,
)
from repro.rag.generator import GeneratorConfig
from repro.rag.text import TokenIds

# -- the per-text reference implementations ----------------------------------

_REF_TOKEN = re.compile(r"[a-z0-9]+")


def ref_tokenize(text):
    return _REF_TOKEN.findall(text.lower())


def ref_vocabulary(texts, max_size=None):
    """(tokens by id, counts) as the per-text Vocabulary built them."""
    counts = {}
    for text in texts:
        for tok in ref_tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    items = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        items = items[:max_size]
    return [t for t, _ in items], dict(items)


def ref_encode(tokens, text):
    index = {t: i for i, t in enumerate(tokens)}
    return [index[t] for t in ref_tokenize(text) if t in index]


def ref_normalize(x):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def ref_tfidf(corpus, queries, max_features):
    tokens, counts = ref_vocabulary(corpus, max_size=max_features)
    df = np.zeros(len(tokens), dtype=np.float64)
    for text in corpus:
        for tid in set(ref_encode(tokens, text)):
            df[tid] += 1
    n = len(corpus)
    idf = np.log((1 + n) / (1 + df)) + 1.0
    out = np.zeros((len(queries), len(tokens)), dtype=np.float32)
    for i, text in enumerate(queries):
        ids = ref_encode(tokens, text)
        if not ids:
            continue
        out[i] = np.bincount(ids, minlength=len(tokens)) * idf
    return tokens, counts, idf, ref_normalize(out)


def ref_hashing(texts, dim):
    out = np.zeros((len(texts), dim), dtype=np.float32)
    for i, text in enumerate(texts):
        for tok in ref_tokenize(text):
            h = zlib.crc32(tok.encode())
            out[i, h % dim] += 1.0 if (h >> 31) & 1 else -1.0
    return ref_normalize(out)


def ref_ngram_fit(unigrams, bigrams, corpus):
    for text in corpus:
        toks = ref_tokenize(text)
        for tok in toks:
            unigrams[tok] = unigrams.get(tok, 0) + 1
        for a, b in zip(toks, toks[1:]):
            bigrams.setdefault(a, {})[b] = bigrams.get(a, {}).get(b, 0) + 1


# -- generated corpora ---------------------------------------------------------

# case, digits and non-ASCII letters ("K" is the Kelvin sign, which
# lowercases to an ASCII "k")
_WORDS = ["gpu", "GPU", "Kernel", "kernel", "a1", "12", "4", "x", "the",
          "data", "naïve", "ÉCOLE", "straße", "K", "x2y"]
_SEPARATORS = [" ", "  ", ", ", ".", "!", "\t", "\n", "-", "_", "'", " & "]
_text = st.lists(st.tuples(st.sampled_from(_WORDS),
                           st.sampled_from(_SEPARATORS)),
                 max_size=14).map(lambda parts: "".join(w + s for w, s in parts))
# ragged texts, empty texts and texts of punctuation only
_texts = st.lists(st.one_of(_text, st.sampled_from(["", "!!! ...", " "])),
                  min_size=1, max_size=10)
# queries may use words the corpus never does (all out of vocabulary)
_queries = st.lists(st.one_of(_text, st.sampled_from(["zzz qq9", "", "?"])),
                    min_size=1, max_size=5)


def _bigram_items(bigrams):
    return [(a, list(follow.items())) for a, follow in bigrams.items()]


class TestIdFitsMatchPerTextLoops:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(corpus=_texts, queries=_queries,
           max_features=st.one_of(st.none(), st.integers(1, 12)))
    def test_vocabulary_idf_and_embeddings(self, corpus, queries,
                                           max_features):
        tokens, counts, idf, ref_vecs = ref_tfidf(corpus, queries,
                                                  max_features)
        emb = TfidfEmbedder(max_features=max_features)
        emb.fit(TokenIds.from_texts(corpus))
        assert emb.vocab._id_to_token == tokens
        assert list(emb.vocab.counts.items()) == list(counts.items())
        assert emb.idf.tobytes() == idf.tobytes()
        assert emb.embed(queries).tobytes() == ref_vecs.tobytes()
        # strings encoded at the door fit and embed the same
        by_text = TfidfEmbedder(max_features=max_features).fit(corpus)
        assert by_text.idf.tobytes() == idf.tobytes()
        assert (by_text.embed(TokenIds.from_texts(queries)).tobytes()
                == ref_vecs.tobytes())
        vocab = Vocabulary(corpus, max_size=max_features)
        assert list(vocab.counts.items()) == list(counts.items())
        assert (HashingEmbedder(dim=16).embed(corpus).tobytes()
                == ref_hashing(corpus, 16).tobytes())

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(first=_texts, second=_texts, prompts=_queries,
           seed=st.integers(0, 3))
    def test_ngram_tables_and_generation(self, first, second, prompts,
                                         seed):
        gen = NgramGenerator(seed=seed)
        gen.fit(TokenIds.from_texts(first)).fit(second)   # fitted twice
        ref = NgramGenerator(seed=seed)
        ref_ngram_fit(ref._unigrams, ref._bigrams, first)
        ref_ngram_fit(ref._unigrams, ref._bigrams, second)
        ref.fitted = True
        assert list(gen._unigrams.items()) == list(ref._unigrams.items())
        assert _bigram_items(gen._bigrams) == _bigram_items(ref._bigrams)
        if gen._unigrams:
            context = first[:2]
            assert ([gen.generate(p, context, max_new_tokens=6)
                     for p in prompts]
                    == [ref.generate(p, context, max_new_tokens=6)
                        for p in prompts])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text())
    def test_tokenize_matches_the_regex(self, text):
        assert tokenize(text) == ref_tokenize(text)

    def test_tokenize_lone_surrogate_separates(self):
        assert tokenize("ab\ud800Cd") == ["ab", "cd"]

    def test_token_ids_layout(self):
        enc = TokenIds.from_texts(["b a b", "", "C a!"])
        assert enc.tokens == ["b", "a", "c"]
        assert enc.ids.dtype == np.int32
        assert enc.ids.tolist() == [0, 1, 0, 2, 1]
        assert enc.offsets.tolist() == [0, 3, 3, 5]
        assert enc.token_counts().tolist() == [2, 2, 1]
        assert enc.document_frequency().tolist() == [1, 2, 1]

    def test_pipeline_indexes_the_per_text_vectors(self, system1):
        corpus = make_corpus(n_docs=60, n_queries=4, seed=5)
        pipe = RagPipeline(corpus, seed=5)
        _, _, _, ref_vecs = ref_tfidf(corpus.documents, corpus.documents,
                                      512)
        assert pipe.index._vectors.tobytes() == ref_vecs.tobytes()


#: sha256 of make_corpus(seed=0)'s documents and queries
CORPUS_SEED0_SHA256 = (
    "17c6c2f179bb94702b2e8aebd0e5b7be6160e67f02d838ba7ed76bebfa1ffeeb")


class TestCorpusStream:
    def test_seed0_corpus_is_pinned(self):
        """The array draw's output for seed 0.  A change here is a
        re-baseline of every seeded corpus (see docs/serving.md)."""
        c = make_corpus(seed=0)
        digest = hashlib.sha256(
            ("\n".join(c.documents) + "\0" + "\n".join(c.queries)).encode()
        ).hexdigest()
        assert digest == CORPUS_SEED0_SHA256

    def test_texts_have_the_requested_length_and_words(self):
        c = make_corpus(n_docs=30, n_queries=5, doc_length=7,
                        query_length=3, seed=2)
        assert all(len(d.split()) == 7 for d in c.documents)
        assert all(len(q.split()) == 3 for q in c.queries)
        assert make_corpus(n_docs=2, n_queries=0, doc_length=0,
                           seed=0).documents == ["", ""]


class TestLimits:
    @pytest.fixture
    def gen(self, system1):
        return NgramGenerator(GeneratorConfig(max_new_tokens=5),
                              device="cuda:0", seed=0).fit(["a b c d"])

    def test_zero_new_tokens_is_an_empty_free_answer(self, gen, system1):
        before = system1.device(0).kernel_count
        assert gen.generate("a", max_new_tokens=0) == ""
        assert system1.device(0).kernel_count == before

    def test_none_means_the_config_default(self, gen):
        assert len(gen.generate("a").split()) == 5
        assert len(gen.generate("a", max_new_tokens=None).split()) == 5

    def test_negative_new_tokens_rejected(self, gen):
        with pytest.raises(ReproError):
            gen.generate("a", max_new_tokens=-1)

    @pytest.fixture
    def pipe(self, system1):
        corpus = make_corpus(n_docs=40, n_queries=4, seed=0)
        return RagPipeline(corpus, k=3, seed=0)

    def test_k_none_means_the_pipeline_default(self, pipe):
        assert pipe.retrieve("gpu kernel").ids.shape == (1, 3)
        assert len(pipe.answer("gpu kernel", k=None).doc_ids) == 3
        assert pipe.evaluate_recall(None) == pipe.evaluate_recall(3)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, pipe, k):
        with pytest.raises(ReproError):
            pipe.retrieve("gpu kernel", k=k)
        with pytest.raises(ReproError):
            pipe.answer("gpu kernel", k=k)
        with pytest.raises(ReproError):
            pipe.evaluate_recall(k)

    def test_pipeline_k_below_one_rejected(self, system1):
        corpus = make_corpus(n_docs=20, n_queries=2, seed=0)
        with pytest.raises(ReproError):
            RagPipeline(corpus, k=0)
