"""The token-major fit against the reference scorer's tuple-major weights.

Every kernelised predicate derives its weighted postings token by token from
the corpus core's posting arrays (one element-wise expression per token with
numpy, the same expression per posting without).  This module checks that
derivation against something that is *not* itself: the per-tuple weight
tables of the reference scorer (``tests/reference.py``), written from the
paper's formulas, regrouped into posting lists the slow way.  Everything is compared with ``==`` -- no
tolerance -- on three legs: the numpy backend, the scalar backend forced over
a numpy fit, and ``kernels.np`` patched away (what ``REPRO_KERNEL=python``
runs).

The corpora are chosen for what the ledger corpus never does: a token in
every tuple (idf 0, a whole posting list dropped), ``df = N/2`` on an even
``N`` (RS weight exactly 0), an empty string, a single repeated token (the
language model's probability clamp), duplicates inside a tuple (``tf > 1``)
and a relation of one tuple (every idf 0, so every cosine norm is 0).
"""

from __future__ import annotations

import math

import pytest

from reference import Reference
from repro.core import kernels
from repro.core.predicates import make_predicate
from repro.text.tokenize import QgramTokenizer, WordTokenizer

KERNELISED = ["bm25", "cosine", "weighted_match", "weighted_jaccard", "lm", "hmm"]

TOKENIZERS = {
    "qgram2": QgramTokenizer(q=2),
    "qgram3": QgramTokenizer(q=3),
    "word": WordTokenizer(),
}

CORPORA = {
    # "the" sits in all four tuples (idf 0), "cat" in two of four (RS weight
    # 0), "the" and "cat" repeat inside a tuple.
    "every": ["the cat", "the dog", "the the end", "the cat cat nap"],
    # "x" occurs nowhere else, so p̂_avg(x) = pml = 1 and p̂(x|M_D) is clamped.
    "degenerate": ["", "aa aa aa", "aa", "ab ab cd", "x x x", "aa ab"],
    "one": ["single tuple here"],
    "names": [
        "Morgan Stanley Group Inc.",
        "Goldman Sachs Group",
        "AT&T Incorporated",
        "IBM Incorporated",
        "AT&T Inc.",
        "Beijing Hotel",
        "Hotel Beijing",
        "Stanley Morgan Group Incorporated",
    ],
}

QUERIES = ["the cat", "aa", "ab cd", "single here", "Morgn Stanley Inc", "Beijing", "", "zzz"]


@pytest.fixture(params=["numpy", "forced-scalar", "no-numpy"])
def leg(request, monkeypatch):
    """Run the test body on one kernel leg."""
    if request.param == "numpy":
        if not kernels.numpy_available():
            pytest.skip("numpy unavailable")
        yield
    elif request.param == "forced-scalar":
        with kernels.use_backend("python"):
            yield
    else:
        monkeypatch.setattr(kernels, "np", None)
        yield


def _reference(name, corpus, tokenizer):
    """``(token -> [(tid, weight)], lm complement sums or None)``: the
    reference scorer's per-tuple weight tables regrouped token-major, zero
    weights dropped as the weighted index drops them (the language models
    keep theirs)."""
    reference = Reference(name, corpus, tokenizer=tokenizer)
    keep_zeros = name in ("lm", "hmm")
    postings = {}
    for tid, weights in enumerate(reference.tuple_weights):
        for token, weight in weights.items():
            if keep_zeros or weight != 0.0:
                postings.setdefault(token, []).append((tid, weight))
    return postings, reference.complements if name == "lm" else None


def _assert_fit_equals_reference(predicate, name, corpus, tokenizer):
    expected, complements = _reference(name, corpus, tokenizer)
    token_lists = tokenizer.tokenize_many(corpus)
    weighted = predicate._weighted_index
    assert len(weighted) == len(expected)
    for token in {token for tokens in token_lists for token in tokens}:
        plist = expected.get(token, [])
        values = [value for _, value in plist]
        assert weighted.postings(token) == plist
        assert all(type(value) is float for _, value in weighted.postings(token))
        pair = weighted.arrays(token)
        if not plist or not kernels.numpy_available():
            assert pair is None
            continue
        tid_array, value_array = pair
        assert tid_array.tolist() == [tid for tid, _ in plist]
        assert value_array.tolist() == values
        assert str(tid_array.dtype) == "int64" and str(value_array.dtype) == "float64"
        assert tid_array.flags["C_CONTIGUOUS"] and value_array.flags["C_CONTIGUOUS"]
    total = sum(len(plist) for plist in expected.values())
    assert weighted.num_postings == total
    assert weighted.zero_dropped == sum(len(set(tokens)) for tokens in token_lists) - total
    if complements is not None:
        assert predicate._sum_complement == complements


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("tokenizer", sorted(TOKENIZERS))
@pytest.mark.parametrize("name", KERNELISED)
def test_fit_equals_the_tuple_major_reference(name, tokenizer, leg):
    for corpus in CORPORA.values():
        predicate = make_predicate(name, tokenizer=TOKENIZERS[tokenizer]).fit(corpus)
        _assert_fit_equals_reference(predicate, name, corpus, TOKENIZERS[tokenizer])


def test_the_corpora_reach_the_edges():
    """The cases this module exists for do occur (word tokens)."""
    word = WordTokenizer()
    every = CORPORA["every"]
    cosine = make_predicate("cosine", tokenizer=word).fit(every)._weighted_index
    assert "THE" not in cosine and cosine.zero_dropped == 4  # idf 0: in every tuple
    match = make_predicate("weighted_match", tokenizer=word).fit(every)._weighted_index
    assert "CAT" not in match and match.zero_dropped == 2  # RS weight 0: df = N/2
    bm25 = make_predicate("bm25", tokenizer=word).fit(every)._weighted_index
    assert "CAT" not in bm25 and min(v for _, v in bm25.postings("THE")) < 0.0
    lm = make_predicate("lm", tokenizer=word).fit(CORPORA["degenerate"])
    assert lm._sum_complement[0] == 0.0  # the empty string has no posting
    assert lm._sum_complement[4] == math.log(1.0 - (1.0 - 1e-12))  # clamped
    assert lm._weighted_index.zero_dropped == 0
    one = make_predicate("cosine", tokenizer=word).fit(CORPORA["one"])._weighted_index
    assert len(one) == 0 and one.zero_dropped == 3  # N = 1: every norm is 0


@pytest.mark.parametrize("name", KERNELISED)
def test_score_equals_the_tuples_entry_in_rank(name, leg):
    """``score`` recomputes one tuple from the contribution function the fit
    used and the tuple's own term frequency: bit for bit the scan's answer."""
    for tokenizer in TOKENIZERS.values():
        for corpus in CORPORA.values():
            predicate = make_predicate(name, tokenizer=tokenizer).fit(corpus)
            for query in QUERIES:
                ranked = predicate.rank(query)
                scores = dict(ranked)
                for match in ranked:
                    assert type(match.tid) is int and type(match.score) is float
                for tid in range(-1, len(corpus) + 1):
                    assert predicate.score(query, tid) == scores.get(tid, 0.0)


def _snapshot(predicate, corpus):
    weighted = predicate._weighted_index
    tokens = sorted(predicate._index.tokens())
    return (
        [weighted.postings(token) for token in tokens],
        [
            None if pair is None else [array.tolist() for array in pair]
            for pair in map(weighted.arrays, tokens)
        ],
        getattr(predicate, "_sum_complement", None),
        [[tuple(match) for match in predicate.rank(query)] for query in QUERIES],
        [[tuple(match) for match in predicate.top_k(query, 2)] for query in QUERIES],
        [predicate.score(query, tid) for query in QUERIES for tid in range(len(corpus))],
        predicate.weights_summary()["weighted_postings"],
    )


@pytest.mark.parametrize("name", KERNELISED)
def test_refit_rederives_everything(name, leg):
    """Nothing a fit derived survives a refit on another relation."""
    first, second = CORPORA["names"], CORPORA["every"] + CORPORA["degenerate"]
    predicate = make_predicate(name).fit(first)
    assert _snapshot(predicate, first) == _snapshot(make_predicate(name).fit(first), first)
    predicate.fit(second)
    assert _snapshot(predicate, second) == _snapshot(
        make_predicate(name).fit(second), second
    )
