"""Overlap predicates (paper section 3.1).

* :class:`IntersectSize` -- ``|Q ∩ D|`` over distinct tokens.
* :class:`Jaccard` -- ``|Q ∩ D| / |Q ∪ D|``.
* :class:`WeightedMatch` -- total weight of the common tokens.
* :class:`WeightedJaccard` -- weight of the common tokens divided by the
  weight of the union.

The weighted variants take a weighting scheme; the paper finds that the
Robertson-Sparck Jones (RS) weights are more accurate than idf (section
5.3.1), so RS is the default.

All four score through :mod:`repro.core.kernels`: one scan over the query
tokens' postings, then a per-candidate finalizer.  The unweighted pair runs
the integer count scan (:func:`~repro.core.kernels.count_overlap`) over the
shared :class:`~repro.core.index.InvertedIndex`; the weighted pair folds its
weight table into a :class:`~repro.core.index.WeightedPostingIndex` at fit
time (every posting of a token carries the token's weight, over the core's
own tid arrays) and runs the weighted scan
(:func:`~repro.core.kernels.accumulate`),
iterating query tokens in sorted order everywhere, so accumulation is
deterministic.

:meth:`_OverlapBase._scores` runs the predicate's one full scan, and a
blocker or a restriction narrows the scan's ``(tids, values)`` with one
boolean mask (absent on a plain call): an exact blocker (``length``,
``prefix`` and pipelines of them) marks it on the arrays -- the probe
tokens' tid arrays, then the length bound as one comparison on the index's
per-tuple sizes (:meth:`~repro.core.index.InvertedIndex.candidate_mask`) --
and a restriction by :func:`~repro.core.kernels.allowed_mask`; only LSH
still hands over a candidate set.  The survivors are finalized as arrays
and returned as :class:`~repro.core.kernels.Scores`, the arrays selection
reads.  A fit builds no per-tuple token set: sizes come from the
index's arrays, and :meth:`score` takes the set of the tuple's token list
for that one call.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.base import Predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer
from repro.text.weights import CollectionStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

__all__ = ["IntersectSize", "Jaccard", "WeightedMatch", "WeightedJaccard"]


class _OverlapBase(Predicate):
    """Shared tokenization/indexing machinery for the overlap predicates."""

    family = "overlap"
    #: Blocking happens inside :meth:`_scores` (before any scoring work).
    _prunes_before_scoring = True
    #: Every overlap predicate scans through repro.core.kernels.
    uses_kernels = True

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)

    def _query_tokens(self, query: str) -> set[str]:
        return set(self.tokenizer.tokenize(query))

    def _tuple_tokens(self, tid: int) -> Optional[Set[str]]:
        """The token set of tuple ``tid``, ``None`` outside the relation."""
        if not 0 <= tid < len(self._token_lists):
            return None
        return set(self._token_lists[tid])

    # -- blocking -------------------------------------------------------------

    def _blocker_core(self, blocker: "Blocker") -> CorpusCore:
        """Blockers share the predicate's own core (same tokenizer)."""
        return self._bound_core()

    def _blocker_query_tokens(self, query: str, blocker: "Blocker") -> Set[str]:
        return self._query_tokens(query)

    # -- scoring --------------------------------------------------------------

    def _scores(self, query: str) -> kernels.Scores:
        query_tokens = self._query_tokens(query)
        scanned = self._scan(query_tokens)
        keep = self._allowed_keep(query_tokens, scanned.tids)
        if keep is not None:
            scanned = scanned.narrow(keep)
        tids = scanned.tids
        return kernels.Scores(tids, self._finalize_arrays(query_tokens, tids, scanned.values))

    def _allowed_keep(self, query_tokens: Set[str], tids):
        """Boolean mask over the scan's ``tids``: which the blocker and the
        restriction allow (``None`` on a plain call).

        An exact blocker answers on the arrays
        (:meth:`~repro.core.index.InvertedIndex.candidate_mask`), computed
        even when the scan found nothing, so its statistics count every
        query; any other blocker hands over its candidate set.  Restriction
        tids outside the relation are ignored.
        """
        blocker, restriction = self._blocker, self._restriction
        size = len(self._token_lists)
        keep = None
        if blocker is not None:
            assert self._index is not None
            if blocker.prunes_arrays:
                keep = self._index.candidate_mask(query_tokens, blocker)[tids]
            else:
                allowed = self._index.candidates(query_tokens, blocker=blocker)
                keep = kernels.allowed_mask(tids, allowed, size)
        if restriction is not None:
            restricted = kernels.allowed_mask(tids, restriction, size)
            keep = restricted if keep is None else keep & restricted
        return keep

    @abstractmethod
    def _scan(self, query_tokens: Set[str]) -> kernels.Scores:
        """The kernel scan: per candidate, the (count or weight of the)
        tokens shared with the query."""

    @abstractmethod
    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        """The float64 scores of the scan's candidates ``tids`` from their
        scanned ``values``."""


class _CountOverlapBase(_OverlapBase):
    """Unweighted overlap: the integer count scan over the shared index."""

    def weight_phase(self) -> None:
        """Unweighted predicates need no second phase."""

    def _scan(self, query_tokens: Set[str]) -> kernels.Scores:
        assert self._index is not None
        return kernels.count_overlap(self._index, query_tokens, len(self._token_lists))


class IntersectSize(_CountOverlapBase):
    """Number of common distinct tokens between the query and the tuple."""

    name = "IntersectSize"

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        return values.astype(np.float64)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        tokens = self._tuple_tokens(tid)
        if tokens is None:
            return 0.0
        return float(len(self._query_tokens(query) & tokens))


class Jaccard(_CountOverlapBase):
    """Jaccard coefficient of the query and tuple token sets."""

    name = "Jaccard"
    #: The length/prefix blockers' exactness guarantee is stated for exactly
    #: this score: an overlap fraction bounded by min/max set size.
    similarity_kind = "jaccard"

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        assert self._index is not None
        # A candidate shares a token, so union >= common >= 1: no zero guard.
        union = len(query_tokens) + self._index.set_sizes[tids] - values
        return values / union

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        tokens = self._tuple_tokens(tid)
        if tokens is None:
            return 0.0
        query_tokens = self._query_tokens(query)
        common = len(query_tokens & tokens)
        if not common:
            return 0.0
        return common / (len(query_tokens) + len(tokens) - common)


class _WeightedOverlapBase(_OverlapBase):
    """Weighted overlap predicates share the RS/idf weight table."""

    def __init__(self, tokenizer: Tokenizer | None = None, weighting: str = "rs"):
        super().__init__(tokenizer)
        if weighting not in ("rs", "idf"):
            raise ValueError("weighting must be 'rs' or 'idf'")
        self.weighting = weighting
        self._weights: Dict[str, float] = {}
        self._stats: CollectionStatistics | None = None

    def weight_phase(self) -> None:
        self._stats = self._core.stats
        if self.weighting == "rs":
            self._weights = self._stats.rs_table()
        else:
            self._weights = self._stats.idf_table()
        assert self._index is not None
        self._weighted_index = WeightedPostingIndex(self._index, self._posting_values())

    def _posting_values(self) -> Iterator[Tuple[str, Sequence[float]]]:
        """Every posting of a token contributes the token's weight, so a
        zero-weight token is dropped whole, as it would add nothing."""
        index, weights = self._index, self._weights
        for token in index.tokens():
            yield token, [weights[token]] * index.document_frequency(token)

    def _weight(self, token: str) -> float:
        return self._weights.get(token, 0.0)

    def _scan(self, query_tokens: Set[str]) -> kernels.Scores:
        """Weight of the common tokens per candidate, postings-driven.

        Tokens are visited in sorted order so per-tuple summation order is
        canonical (and matches :meth:`_tuple_common_weight`).
        """
        assert self._weighted_index is not None
        return kernels.accumulate(
            self._weighted_index,
            [(token, 1.0) for token in sorted(query_tokens)],
            len(self._token_lists),
        )

    def _tuple_common_weight(
        self, sorted_tokens: Sequence[str], tokens: Set[str]
    ) -> Tuple[float, bool]:
        """``(common weight, matched)`` of one tuple's ``tokens`` in the
        canonical order.

        ``sorted_tokens`` must be the query tokens in sorted order (the
        caller sorts once per query), so summation matches the
        postings-driven path bit for bit.
        """
        total = 0.0
        matched = False
        for token in sorted_tokens:
            if token not in tokens:
                continue
            weight = self._weight(token)
            if weight == 0.0:
                continue
            total += weight
            matched = True
        return total, matched


class WeightedMatch(_WeightedOverlapBase):
    """Sum of weights of the common tokens (RS weights by default)."""

    name = "WeightedMatch"

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        return values

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        tokens = self._tuple_tokens(tid)
        if tokens is None:
            return 0.0
        return self._tuple_common_weight(sorted(self._query_tokens(query)), tokens)[0]


class WeightedJaccard(_WeightedOverlapBase):
    """Weight of the common tokens over the weight of the union."""

    name = "WeightedJaccard"

    def __init__(self, tokenizer: Tokenizer | None = None, weighting: str = "rs"):
        super().__init__(tokenizer, weighting)
        #: Per tuple, the weight of its token set, as one float64 array.
        self._tuple_weight_sums = None

    def weight_phase(self) -> None:
        super().weight_phase()
        weight = self._weight
        self._tuple_weight_sums = np.array(
            [
                sum(weight(token) for token in sorted(set(tokens)))
                for tokens in self._token_lists
            ],
            dtype=np.float64,
        )

    def _query_weight_sum(self, query_tokens: Set[str]) -> float:
        return sum(self._weight(token) for token in sorted(query_tokens))

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        union = (
            self._query_weight_sum(query_tokens) + self._tuple_weight_sums[tids]
        ) - values
        scores = np.zeros(values.size, dtype=np.float64)
        np.divide(values, union, out=scores, where=union > 0)
        return scores

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        tokens = self._tuple_tokens(tid)
        if tokens is None:
            return 0.0
        query_tokens = self._query_tokens(query)
        common, matched = self._tuple_common_weight(sorted(query_tokens), tokens)
        if not matched:
            return 0.0
        union = (
            self._query_weight_sum(query_tokens)
            + float(self._tuple_weight_sums[tid])
            - common
        )
        return common / union if union > 0 else 0.0
