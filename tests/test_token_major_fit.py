"""The token-major fit against the reference scorer's tuple-major weights.

Every kernelised predicate derives its weighted postings token by token from
the corpus core's posting arrays (one element-wise expression per token, or
the formula once per distinct ``(tf, |D|)`` of a token, gathered).  This
module checks that derivation against something that is *not* itself: the
per-tuple weight tables of the reference scorer (``tests/reference.py``),
written from the paper's formulas, regrouped into posting lists the slow
way.  Everything is compared with ``==`` -- no tolerance.

The corpora are chosen for what the ledger corpus never does: a token in
every tuple (idf 0, a whole posting list dropped), ``df = N/2`` on an even
``N`` (RS weight exactly 0), an empty string, a single repeated token (the
language model's probability clamp), duplicates inside a tuple (``tf > 1``)
and a relation of one tuple (every idf 0, so every cosine norm is 0).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from reference import Reference
from repro.core.corpus import CorpusCore
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

#: How a fitted predicate comes to be: fitted alone; fitted on a corpus core
#: the other kernelised fits have read (and partly built) first; or fitted
#: alone and sent through a pickle round trip, as the process executor
#: ships a shard.
ROUTES = ["alone", "shared-core", "pickled"]


def _fit(name, corpus, route, tokenizer=None):
    """``name`` fitted on ``corpus`` by ``route``."""
    kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}

    def make(other):
        return make_predicate(other, **kwargs)

    if route == "shared-core":
        core = CorpusCore(corpus, make(name).tokenizer)
        for other in KERNELISED:
            if other != name:
                make(other).fit(corpus, core=core)
        predicate = make(name).fit(corpus, core=core)
        assert predicate._core is core
        return predicate
    predicate = make(name).fit(corpus)
    return pickle.loads(pickle.dumps(predicate)) if route == "pickled" else predicate


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


def _postings(weighted, token):
    """``token``'s ``(tid, contribution)`` pairs, read off its arrays."""
    pair = weighted.arrays(token)
    return [] if pair is None else list(zip(*(array.tolist() for array in pair)))


def _assert_fit_equals_reference(predicate, name, corpus, tokenizer):
    expected, complements = _reference(name, corpus, tokenizer)
    token_lists = tokenizer.tokenize_many(corpus)
    weighted = predicate._weighted_index
    assert len(weighted) == len(expected)
    for token in {token for tokens in token_lists for token in tokens}:
        plist = expected.get(token, [])
        assert _postings(weighted, token) == plist
        assert weighted.posting_count(token) == len(plist)
        pair = weighted.arrays(token)
        if not plist:
            assert pair is None
            continue
        tid_array, value_array = pair
        assert str(tid_array.dtype) == "int64" and str(value_array.dtype) == "float64"
        assert tid_array.flags["C_CONTIGUOUS"] and value_array.flags["C_CONTIGUOUS"]
    total = sum(len(plist) for plist in expected.values())
    assert weighted.num_postings == total
    assert weighted.zero_dropped == sum(len(set(tokens)) for tokens in token_lists) - total
    if complements is not None:
        assert predicate._sum_complement.tolist() == complements


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("tokenizer", sorted(TOKENIZERS))
@pytest.mark.parametrize("name", KERNELISED)
def test_fit_equals_the_tuple_major_reference(name, tokenizer, route):
    for corpus in CORPORA.values():
        predicate = _fit(name, corpus, route, TOKENIZERS[tokenizer])
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
    assert "CAT" not in bm25 and bm25.arrays("THE")[1].min() < 0.0
    lm = make_predicate("lm", tokenizer=word).fit(CORPORA["degenerate"])
    assert lm._sum_complement[0] == 0.0  # the empty string has no posting
    assert lm._sum_complement[4] == math.log(1.0 - (1.0 - 1e-12))  # clamped
    assert lm._weighted_index.zero_dropped == 0
    one = make_predicate("cosine", tokenizer=word).fit(CORPORA["one"])._weighted_index
    assert len(one) == 0 and one.zero_dropped == 3  # N = 1: every norm is 0


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", KERNELISED)
def test_score_equals_the_tuples_entry_in_rank(name, route):
    """``score`` recomputes one tuple from the contribution function the fit
    used and the tuple's own term frequency: bit for bit the scan's answer."""
    for tokenizer in TOKENIZERS.values():
        for corpus in CORPORA.values():
            predicate = _fit(name, corpus, route, tokenizer)
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
        [_postings(weighted, token) for token in tokens],
        getattr(predicate, "_sum_complement", np.empty(0)).tolist(),
        [[tuple(match) for match in predicate.rank(query)] for query in QUERIES],
        [[tuple(match) for match in predicate.top_k(query, 2)] for query in QUERIES],
        [predicate.score(query, tid) for query in QUERIES for tid in range(len(corpus))],
        predicate.weights_summary()["weighted_postings"],
    )


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", KERNELISED)
def test_refit_rederives_everything(name, route):
    """Nothing a fit derived survives a refit on another relation, however
    the first fit came to be."""
    first, second = CORPORA["names"], CORPORA["every"] + CORPORA["degenerate"]
    predicate = _fit(name, first, route)
    assert _snapshot(predicate, first) == _snapshot(make_predicate(name).fit(first), first)
    predicate.fit(second)
    assert _snapshot(predicate, second) == _snapshot(
        make_predicate(name).fit(second), second
    )
