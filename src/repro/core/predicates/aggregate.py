"""Aggregate weighted predicates (paper section 3.2).

Both predicates score ``sim(Q, D) = Σ_{t ∈ Q∩D} wq(t, Q) * wd(t, D)``:

* :class:`CosineTfIdf` -- normalized tf-idf weights on both sides, so the sum
  is the cosine of the two tf-idf vectors.
* :class:`BM25` -- Okapi BM25 weights with the Robertson-Sparck Jones idf on
  the document side and the ``(k3+1)tf/(k3+tf)`` saturation on the query
  side.  Parameter defaults follow section 5.3.2 (k1=1.5, k3=8, b=0.675).

Query execution is postings-driven: the document-side weights are folded
into a :class:`~repro.core.index.WeightedPostingIndex` at fit time, so
accumulation is one flat loop over precomputed floats, and -- the score being
a monotone sum -- ``top_k`` can run with max-score early termination
(:mod:`repro.core.topk`; scalar kernel backend only).  All accumulation iterates query tokens in sorted
order so summation is deterministic and the pruned/unpruned paths agree bit
for bit.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import kernels
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.base import Predicate
from repro.core.topk import Term
from repro.text.tokenize import QgramTokenizer, Tokenizer
from repro.text.weights import (
    BM25Parameters,
    CollectionStatistics,
    bm25_document_weights,
    bm25_query_weights,
    tfidf_weights,
)

__all__ = ["CosineTfIdf", "BM25"]


class _AggregateBase(Predicate):
    family = "aggregate-weighted"
    supports_maxscore = True
    #: Monotone-sum accumulation: scoring routes through repro.core.kernels.
    uses_kernels = True

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._stats: CollectionStatistics | None = None
        #: per-tuple token -> document-side weight
        self._doc_weights: List[Dict[str, float]] = []
        #: token -> [(tid, document-side weight)] with per-token max/min bounds
        self._weighted_index: WeightedPostingIndex | None = None

    def _build_weighted_index(self) -> None:
        assert self._index is not None
        self._weighted_index = WeightedPostingIndex.from_doc_weights(
            self._index, self._doc_weights
        )

    def _query_weights(self, query: str) -> Dict[str, float]:
        """Query-side weights ``wq(t, Q)`` (subclass-specific)."""
        raise NotImplementedError

    def _accumulate(self, query_weights: Dict[str, float]) -> Dict[int, float]:
        """Dot product of query weights against every candidate's doc weights.

        One kernel call over the precomputed weighted postings; tokens are
        visited in sorted order so per-tuple summation order is canonical
        (the kernels reproduce that order bit for bit on both backends).
        """
        assert self._weighted_index is not None
        return kernels.accumulate(
            self._weighted_index,
            self._sorted_items(query_weights),
            len(self._token_lists),
        )

    def _scores(self, query: str) -> Dict[int, float]:
        return self._accumulate(self._query_weights(query))

    @staticmethod
    def _sorted_items(query_weights: Dict[str, float]) -> List[Tuple[str, float]]:
        return [
            (token, query_weights[token])
            for token in sorted(query_weights)
            if query_weights[token] != 0.0
        ]

    def _rescore_items(
        self, items: List[Tuple[str, float]], tids: Iterable[int]
    ) -> Dict[int, float]:
        """Exact per-tuple rescoring in the same order :meth:`_accumulate` uses."""
        scores: Dict[int, float] = {}
        for tid in tids:
            doc_weights = self._doc_weights[tid]
            total = 0.0
            for token, query_weight in items:
                contribution = doc_weights.get(token, 0.0)
                if contribution:
                    total += query_weight * contribution
            scores[tid] = total
        return scores

    def _rescore(
        self, query_weights: Dict[str, float], tids: Iterable[int]
    ) -> Dict[int, float]:
        return self._rescore_items(self._sorted_items(query_weights), tids)

    def _maxscore_plan(
        self, query: str
    ) -> Optional[Tuple[List[Term], Optional[set], object]]:
        if self._blocker is not None:
            # The aggregate family applies blockers *post*-scoring (the
            # blocker prunes the scored candidate set), which needs the full
            # candidate set -- incompatible with skipping posting lists.
            return None
        assert self._weighted_index is not None
        weighted = self._weighted_index
        query_weights = self._query_weights(query)
        terms = [
            Term(
                token=token,
                query_weight=query_weights[token],
                postings=weighted.postings(token),
                max_contribution=weighted.max_contribution(token),
                min_contribution=weighted.min_contribution(token),
            )
            for token in sorted(query_weights)
            if query_weights[token] != 0.0 and token in weighted
        ]
        allowed = None if self._restriction is None else set(self._restriction)
        items = self._sorted_items(query_weights)
        return terms, allowed, lambda tids: self._rescore_items(items, tids)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._doc_weights):
            return 0.0
        return self._rescore(self._query_weights(query), [tid])[tid]


class CosineTfIdf(_AggregateBase):
    """tf-idf cosine similarity (Cohen's WHIRL / Gravano et al. text joins)."""

    name = "Cosine"

    def weight_phase(self) -> None:
        self._stats = self._core.stats
        idf = self._stats.idf_table()
        self._idf = idf
        self._doc_weights = [
            tfidf_weights(self._stats.term_frequencies(tid), idf)
            for tid in range(len(self._token_lists))
        ]
        self._build_weighted_index()

    def _query_weights(self, query: str) -> Dict[str, float]:
        # Query tokens absent from the base relation are dropped (idf 0),
        # matching the inner join with BASE_IDF in the declarative realization;
        # they cannot contribute to any candidate's score anyway.
        query_tf = Counter(self.tokenizer.tokenize(query))
        return tfidf_weights(query_tf, self._idf, default_idf=0.0)


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
        self._stats = self._core.stats
        self._doc_weights = [
            bm25_document_weights(self._stats, tid, self.params)
            for tid in range(len(self._token_lists))
        ]
        self._build_weighted_index()

    def _query_weights(self, query: str) -> Dict[str, float]:
        query_tf = Counter(self.tokenizer.tokenize(query))
        return bm25_query_weights(query_tf, self.params)
