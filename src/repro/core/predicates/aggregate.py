"""Aggregate weighted predicates (paper section 3.2).

Both predicates score ``sim(Q, D) = Σ_{t ∈ Q∩D} wq(t, Q) * wd(t, D)``:

* :class:`CosineTfIdf` -- normalized tf-idf weights on both sides, so the sum
  is the cosine of the two tf-idf vectors.
* :class:`BM25` -- Okapi BM25 weights with the Robertson-Sparck Jones idf on
  the document side and the ``(k3+1)tf/(k3+tf)`` saturation on the query
  side.  Parameter defaults follow section 5.3.2 (k1=1.5, k3=8, b=0.675).

Each states its document-side weight **once**, as an element-wise function of
(the token's weight, ``tf``, a per-tuple factor) -- :meth:`BM25._contribution`,
:meth:`CosineTfIdf._contribution`.  The fit maps it over the corpus core's
postings token by token -- one ufunc per IEEE operation over the token's
``(tids, tfs)`` arrays -- into a
:class:`~repro.core.index.WeightedPostingIndex`; ``score()``
(:meth:`_AggregateBase._score_one`) calls the same function on the
tuple's own term frequency.
Nothing is kept per (tuple, token) besides those postings.

Query execution is postings-driven: accumulation is one scatter-add over
precomputed floats.  All accumulation iterates query tokens in sorted order
so summation is deterministic and every path agrees bit for bit.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.base import Predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer
from repro.text.weights import (
    BM25Parameters,
    CollectionStatistics,
    bm25_query_weights,
    l2_norm,
    tfidf_weights,
)

__all__ = ["CosineTfIdf", "BM25"]


class _AggregateBase(Predicate):
    family = "aggregate-weighted"
    #: Monotone-sum accumulation: scoring routes through repro.core.kernels.
    uses_kernels = True

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._stats: CollectionStatistics | None = None
        #: token -> collection-level weight (RS / idf): the per-token constant
        #: of :meth:`_contribution`.
        self._token_weights: Mapping[str, float] = {}
        #: The per-tuple factor of :meth:`_contribution`, one float per tuple.
        self._tuple_factors: List[float] = []

    def _contribution(self, weight, tf, factor):
        """Document-side weight ``wd(t, D)`` from the token's collection-level
        ``weight``, ``tf(t, D)`` and the tuple's ``factor``.

        Element-wise ``+ - * /`` only, so it maps over a token's ``tf`` and
        gathered-factor arrays exactly as it does over one posting's scalars
        (int64 -> float64 is exact and numpy fuses nothing): the fit and the
        single-tuple paths below share it, bit for bit.
        """
        raise NotImplementedError

    def _derive_weighted_index(
        self, token_weights: Mapping[str, float], tuple_factors: List[float]
    ) -> None:
        """Map :meth:`_contribution` over the core's postings, token-major."""
        self._token_weights, self._tuple_factors = token_weights, tuple_factors
        assert self._index is not None
        self._weighted_index = WeightedPostingIndex(self._index, self._posting_values())

    def _posting_values(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Per token, :meth:`_contribution` of each of its postings: one
        array expression over the token's ``(tids, tfs)``."""
        index, contribution = self._index, self._contribution
        token_weights = self._token_weights
        factor_array = np.array(self._tuple_factors, dtype=np.float64)
        for token in index.tokens():
            tids, tfs = index.arrays(token)
            yield token, contribution(token_weights[token], tfs, factor_array[tids])

    def _query_weights(self, query: str) -> Dict[str, float]:
        """Query-side weights ``wq(t, Q)`` (subclass-specific)."""
        raise NotImplementedError

    def _scores(self, query: str) -> kernels.Scores:
        """Dot product of query weights against every candidate's doc weights.

        One kernel call over the precomputed weighted postings; tokens are
        visited in sorted order so per-tuple summation order is canonical
        (the kernel keeps that order per tuple).
        """
        assert self._weighted_index is not None
        return kernels.accumulate(
            self._weighted_index,
            self._sorted_items(self._query_weights(query)),
            len(self._token_lists),
        )

    @staticmethod
    def _sorted_items(query_weights: Dict[str, float]) -> List[Tuple[str, float]]:
        return [
            (token, query_weights[token])
            for token in sorted(query_weights)
            if query_weights[token] != 0.0
        ]

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        """Exact rescoring of one tuple, in the order :meth:`_scores` uses."""
        if not 0 <= tid < len(self._tuple_factors):
            return 0.0
        contribution, weights = self._contribution, self._token_weights
        counts = self._index.term_frequencies(tid)
        factor = self._tuple_factors[tid]
        total = 0.0
        for token, query_weight in self._sorted_items(self._query_weights(query)):
            tf = counts.get(token)
            if tf:
                # What the token's posting for this tuple stores.
                weight = contribution(weights[token], tf, factor)
                if weight:
                    total += query_weight * weight
        return total


class CosineTfIdf(_AggregateBase):
    """tf-idf cosine similarity (Cohen's WHIRL / Gravano et al. text joins)."""

    name = "Cosine"

    def weight_phase(self) -> None:
        self._stats = stats = self._core.stats
        idf = stats.idf_table()
        # Each tuple's raw weights tf * idf in its first-occurrence token
        # order, as one element-wise product over the index's tuple-major
        # arrays; the L2 norm is a reduction: one l2_norm per tuple over its
        # squares as Python floats, never a vectorised sum.  A tuple whose
        # raw weights are all zero has every weight 0.0; dividing by inf
        # says so without a branch in the element-wise expression.
        index = self._index
        ids, tfs, bounds = index.tuple_major()
        idf_by_id = np.array([idf[token] for token in index.tokens()], dtype=np.float64)
        squares = idf_by_id[ids]
        squares *= tfs  # tf * idf
        squares *= squares
        edges = bounds.tolist()
        norms = [
            l2_norm(squares[start:stop].tolist()) or float("inf")
            for start, stop in zip(edges, edges[1:])
        ]
        self._derive_weighted_index(idf, norms)

    def _contribution(self, weight, tf, factor):
        """``tf * idf / ||w'(D)||`` (section 3.2.1)."""
        return tf * weight / factor

    def _query_weights(self, query: str) -> Dict[str, float]:
        # Query tokens absent from the base relation are dropped (idf 0),
        # matching the inner join with BASE_IDF in the declarative realization;
        # they cannot contribute to any candidate's score anyway.
        query_tf = Counter(self.tokenizer.tokenize(query))
        return tfidf_weights(query_tf, self._token_weights, default_idf=0.0)


class BM25(_AggregateBase):
    """Okapi BM25 adapted to approximate selection."""

    name = "BM25"

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        params: BM25Parameters | None = None,
    ):
        super().__init__(tokenizer)
        self.params = params or BM25Parameters()

    def weight_phase(self) -> None:
        self._stats = stats = self._core.stats
        k1, b = self.params.k1, self.params.b
        avgdl = stats.average_length or 1.0
        length_factors = [
            k1 * ((1.0 - b) + b * length / avgdl) for length in stats.lengths()
        ]
        self._derive_weighted_index(stats.rs_table(), length_factors)

    def _contribution(self, weight, tf, factor):
        """``rs * (k1 + 1) * tf / (k_d + tf)`` (section 3.2.2); ``factor`` is
        the tuple's length normalizer ``k_d = k1 * ((1 - b) + b * |D| / avgdl)``.
        """
        return weight * (self.params.k1 + 1.0) * tf / (factor + tf)

    def _query_weights(self, query: str) -> Dict[str, float]:
        query_tf = Counter(self.tokenizer.tokenize(query))
        return bm25_query_weights(query_tf, self.params)
