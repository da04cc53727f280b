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

:meth:`_OverlapBase._scores` is the one place the two kernel backends part.
On numpy the predicate always runs its one full scan, and a blocker or a
restriction narrows the scan's ``(tids, values)`` with one boolean mask
(absent on a plain call): an exact blocker (``length``, ``prefix`` and
pipelines of them) marks it on the arrays -- the probe tokens' tid arrays,
then the length bound as one comparison on the index's per-tuple sizes
(:meth:`~repro.core.index.InvertedIndex.candidate_mask`) -- and a restriction
by :func:`~repro.core.kernels.allowed_mask`; only LSH still hands over a
candidate set.  The survivors are finalized as arrays and returned as
:class:`~repro.core.kernels.DenseScores`, so selection never builds a dict.
On the scalar backend -- and when the ladder healed a numpy failure, in the
scan or in a probe -- the per-predicate dict loops answer: :meth:`_finalize`
over the scan's dict on a plain call, :meth:`_allowed_scores` (one set
intersection per allowed tuple of the set path's candidates, no scan) on a
blocked or restricted one.  Both paths record the same blocker statistics,
and they agree bit for bit: counts are exact integers, ``int / int`` is the
same correctly rounded quotient in CPython and numpy, and the weighted
finalizers apply the same float64 operations in the same order to the
chains the scan already reproduces.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Set, Tuple

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
        self._token_sets: list[set[str]] = []

    def tokenize_phase(self) -> None:
        super().tokenize_phase()
        self._token_sets = self._core.token_sets

    def _query_tokens(self, query: str) -> set[str]:
        return set(self.tokenizer.tokenize(query))

    # -- blocking -------------------------------------------------------------

    def _blocker_core(self, blocker: "Blocker") -> CorpusCore:
        """Blockers share the predicate's own core (same tokenizer)."""
        return self._bound_core()

    def _blocker_query_tokens(self, query: str, blocker: "Blocker") -> Set[str]:
        return self._query_tokens(query)

    def _candidate_ids(self, query_tokens: Set[str]) -> Set[int]:
        """The set path's allowed candidates (a blocker or a restriction is
        active): the blocker's from :meth:`InvertedIndex.candidates`, then
        the restriction's.  Restriction tids outside the relation are
        ignored, as the families that intersect a restriction with their
        scored candidates ignore them.
        """
        blocker, restriction = self._blocker, self._restriction
        if blocker is None:
            size = len(self._token_sets)
            return {tid for tid in restriction if 0 <= tid < size}
        assert self._index is not None
        allowed = self._index.candidates(query_tokens, blocker=blocker)
        return allowed if restriction is None else allowed & restriction

    def _in_range(self, tid: int) -> bool:
        return 0 <= tid < len(self._token_sets)

    # -- scoring --------------------------------------------------------------

    def _scores(self, query: str) -> Dict[int, float]:
        query_tokens = self._query_tokens(query)
        if kernels.active_backend() != "numpy":
            return self._scalar_scores(query_tokens)
        scanned = self._scan(query_tokens)
        pair = kernels.dense_pair(scanned)
        if pair is None and scanned:
            # The ladder healed the scan onto the scalar loop.
            return self._scalar_scores(query_tokens, scanned)
        tids = kernels.np.empty(0, dtype=kernels.np.int64) if pair is None else pair[0]
        try:
            keep = self._allowed_keep(query_tokens, tids)
        except Exception:
            # A probe tid array out of step with its posting list: the set
            # path reads the posting lists themselves.
            kernels.count_op("python_fallback")
            return self._scalar_scores(query_tokens)
        if pair is None:
            return {}
        values = pair[1]
        if keep is not None:
            tids, values = tids[keep], values[keep]
        scores = self._finalize_arrays(query_tokens, tids, values)
        return kernels.DenseScores(tids, scores)

    def _allowed_keep(self, query_tokens: Set[str], tids):
        """Boolean mask over the numpy scan's ``tids``: which the blocker and
        the restriction allow (``None`` on a plain call).

        An exact blocker answers on the arrays
        (:meth:`~repro.core.index.InvertedIndex.candidate_mask`), computed
        even when the scan found nothing, so its statistics count every
        query; any other blocker hands over its candidate set.
        """
        blocker, restriction = self._blocker, self._restriction
        size = len(self._token_sets)
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

    def _scalar_scores(
        self, query_tokens: Set[str], scanned: Optional[Dict[int, float]] = None
    ) -> Dict[int, float]:
        """The dict loops: :meth:`_finalize` over the scan on a plain call,
        :meth:`_allowed_scores` over the set path's candidates otherwise."""
        if self._blocker is None and self._restriction is None:
            return self._finalize(
                query_tokens, self._scan(query_tokens) if scanned is None else scanned
            )
        return self._allowed_scores(query_tokens, self._candidate_ids(query_tokens))

    @abstractmethod
    def _scan(self, query_tokens: Set[str]) -> Dict[int, float]:
        """The kernel scan: per candidate, the (count or weight of the)
        tokens shared with the query."""

    @abstractmethod
    def _finalize(
        self, query_tokens: Set[str], scanned: Dict[int, float]
    ) -> Dict[int, float]:
        """Scores from a scan's dict (scalar backend, plain call)."""

    @abstractmethod
    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        """:meth:`_finalize` over a numpy scan's arrays: the float64 scores
        of ``tids``, bit-identical to the dict loop's."""

    @abstractmethod
    def _allowed_scores(
        self, query_tokens: Set[str], allowed: Set[int]
    ) -> Dict[int, float]:
        """Scores of the allowed tuples sharing a (kept) token with the
        query, one tuple at a time (scalar backend, blocked or restricted)."""


class _CountOverlapBase(_OverlapBase):
    """Unweighted overlap: the integer count scan over the shared index."""

    def weight_phase(self) -> None:
        """Unweighted predicates need no second phase."""

    def _scan(self, query_tokens: Set[str]) -> Dict[int, int]:
        assert self._index is not None
        return kernels.count_overlap(
            self._index, query_tokens, len(self._token_sets)
        )


class IntersectSize(_CountOverlapBase):
    """Number of common distinct tokens between the query and the tuple."""

    name = "IntersectSize"

    def _finalize(
        self, query_tokens: Set[str], scanned: Dict[int, int]
    ) -> Dict[int, float]:
        return {tid: float(count) for tid, count in scanned.items()}

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        return values.astype(kernels.np.float64)

    def _allowed_scores(
        self, query_tokens: Set[str], allowed: Set[int]
    ) -> Dict[int, float]:
        scores: Dict[int, float] = {}
        for tid in allowed:
            common = len(query_tokens & self._token_sets[tid])
            if common:
                scores[tid] = float(common)
        return scores

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not self._in_range(tid):
            return 0.0
        return float(len(self._query_tokens(query) & self._token_sets[tid]))


class Jaccard(_CountOverlapBase):
    """Jaccard coefficient of the query and tuple token sets."""

    name = "Jaccard"
    #: The length/prefix blockers' exactness guarantee is stated for exactly
    #: this score: an overlap fraction bounded by min/max set size.
    similarity_kind = "jaccard"

    def _finalize(
        self, query_tokens: Set[str], scanned: Dict[int, int]
    ) -> Dict[int, float]:
        query_size = len(query_tokens)
        scores: Dict[int, float] = {}
        for tid, common in scanned.items():
            union = query_size + len(self._token_sets[tid]) - common
            scores[tid] = common / union if union else 0.0
        return scores

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        assert self._index is not None
        # A candidate shares a token, so union >= common >= 1: no zero guard.
        union = len(query_tokens) + self._index.set_sizes[tids] - values
        return values / union

    def _allowed_scores(
        self, query_tokens: Set[str], allowed: Set[int]
    ) -> Dict[int, float]:
        query_size = len(query_tokens)
        scores: Dict[int, float] = {}
        for tid in allowed:
            token_set = self._token_sets[tid]
            common = len(query_tokens & token_set)
            if not common:
                continue
            union = query_size + len(token_set) - common
            scores[tid] = common / union if union else 0.0
        return scores

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not self._in_range(tid):
            return 0.0
        query_tokens = self._query_tokens(query)
        token_set = self._token_sets[tid]
        common = len(query_tokens & token_set)
        if not common:
            return 0.0
        union = len(query_tokens) + len(token_set) - common
        return common / union if union else 0.0


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
        self._weighted_index = WeightedPostingIndex(
            self._index, self._posting_values(), self._posting_values
        )

    def _posting_values(self) -> Iterator[Tuple[str, Sequence[float]]]:
        """Every posting of a token contributes the token's weight, so a
        zero-weight token is dropped whole, as the accumulation loops would
        skip it."""
        index, weights = self._index, self._weights
        for token in index.tokens():
            yield token, [weights[token]] * index.document_frequency(token)

    def _weight(self, token: str) -> float:
        return self._weights.get(token, 0.0)

    def _scan(self, query_tokens: Set[str]) -> Dict[int, float]:
        """Weight of the common tokens per candidate, postings-driven.

        Tokens are visited in sorted order so per-tuple summation order is
        canonical (and matches :meth:`_tuple_common_weight`); the kernel
        reproduces that order bit for bit on both backends.
        """
        assert self._weighted_index is not None
        return kernels.accumulate(
            self._weighted_index,
            [(token, 1.0) for token in sorted(query_tokens)],
            len(self._token_sets),
        )

    def _tuple_common_weight(
        self, sorted_tokens: Sequence[str], tid: int
    ) -> Tuple[float, bool]:
        """``(common weight, matched)`` of one tuple in the canonical order.

        ``sorted_tokens`` must be the query tokens in sorted order (the
        caller sorts once per query), so summation matches the
        postings-driven path bit for bit.
        """
        token_set = self._token_sets[tid]
        total = 0.0
        matched = False
        for token in sorted_tokens:
            if token not in token_set:
                continue
            weight = self._weight(token)
            if weight == 0.0:
                continue
            total += weight
            matched = True
        return total, matched

    def _restricted_common_weight(
        self, query_tokens: Set[str], allowed: Set[int]
    ) -> Dict[int, float]:
        """Weight of the common tokens per allowed candidate.

        Candidates sharing only zero-weight tokens are omitted, matching the
        postings-driven accumulation of :meth:`_scan` (whose posting index
        drops zero-weight tokens).
        """
        sorted_tokens = sorted(query_tokens)
        common_weight: Dict[int, float] = {}
        for tid in allowed:
            total, matched = self._tuple_common_weight(sorted_tokens, tid)
            if matched:
                common_weight[tid] = total
        return common_weight

    def _allowed_scores(
        self, query_tokens: Set[str], allowed: Set[int]
    ) -> Dict[int, float]:
        return self._finalize(
            query_tokens, self._restricted_common_weight(query_tokens, allowed)
        )


class WeightedMatch(_WeightedOverlapBase):
    """Sum of weights of the common tokens (RS weights by default)."""

    name = "WeightedMatch"

    def _finalize(
        self, query_tokens: Set[str], scanned: Dict[int, float]
    ) -> Dict[int, float]:
        return scanned

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        return values

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not self._in_range(tid):
            return 0.0
        return self._tuple_common_weight(sorted(self._query_tokens(query)), tid)[0]


class WeightedJaccard(_WeightedOverlapBase):
    """Weight of the common tokens over the weight of the union."""

    name = "WeightedJaccard"

    def __init__(self, tokenizer: Tokenizer | None = None, weighting: str = "rs"):
        super().__init__(tokenizer, weighting)
        self._tuple_weight_sums: list[float] = []
        #: The same sums as one float64 array (``None`` without numpy).
        self._tuple_weight_sum_array = None

    def weight_phase(self) -> None:
        super().weight_phase()
        self._tuple_weight_sums = [
            sum(self._weight(token) for token in sorted(token_set))
            for token_set in self._token_sets
        ]
        np = kernels.np
        self._tuple_weight_sum_array = (
            None if np is None else np.array(self._tuple_weight_sums, dtype=np.float64)
        )

    def _query_weight_sum(self, query_tokens: Set[str]) -> float:
        return sum(self._weight(token) for token in sorted(query_tokens))

    def _finalize(
        self, query_tokens: Set[str], scanned: Dict[int, float]
    ) -> Dict[int, float]:
        query_weight_sum = self._query_weight_sum(query_tokens)
        scores: Dict[int, float] = {}
        for tid, common in scanned.items():
            union = query_weight_sum + self._tuple_weight_sums[tid] - common
            scores[tid] = common / union if union > 0 else 0.0
        return scores

    def _finalize_arrays(self, query_tokens: Set[str], tids, values):
        np = kernels.np
        union = (
            self._query_weight_sum(query_tokens) + self._tuple_weight_sum_array[tids]
        ) - values
        scores = np.zeros(values.size, dtype=np.float64)
        np.divide(values, union, out=scores, where=union > 0)
        return scores

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not self._in_range(tid):
            return 0.0
        query_tokens = self._query_tokens(query)
        common, matched = self._tuple_common_weight(sorted(query_tokens), tid)
        if not matched:
            return 0.0
        union = (
            self._query_weight_sum(query_tokens) + self._tuple_weight_sums[tid] - common
        )
        return common / union if union > 0 else 0.0
