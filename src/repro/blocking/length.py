"""Length filtering: token-count bounds derived from the threshold.

For any overlap-fraction similarity bounded by
``sim(Q, D) <= min(|Q|, |D|) / max(|Q|, |D|)`` over distinct token sets
(Jaccard is the canonical case: ``J(Q, D) <= min/max``), a pair can only
reach ``sim >= t`` when the candidate's distinct-token count lies within

    ``ceil(t * |Q|)  <=  |D|  <=  floor(|Q| / t)``.

The filter is *exact* for Jaccard: it never drops a candidate whose score can
reach the threshold, so thresholded selections and self-joins return exactly
the same matches as the unblocked baseline -- just without scoring tuples of
hopelessly different size.  On the numpy scans the bound is one comparison
over the index's per-tuple sizes (:meth:`LengthFilter._prune_array`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.blocking.base import Blocker
from repro.core.corpus import CorpusCore
from repro.text.tokenize import Tokenizer

__all__ = ["LengthFilter"]

#: Slack subtracted before ``ceil`` / added before ``floor`` so floating-point
#: noise in ``t * |Q|`` can only ever *loosen* the bounds (exactness first).
_EPS = 1e-9


class LengthFilter(Blocker):
    """Exact token-count pruning for Jaccard-style thresholds.

    Parameters
    ----------
    threshold:
        The similarity threshold the selection/join will be run at; the
        length bounds are derived from it.  ``0`` disables pruning.
    """

    name = "length"
    exact = True
    semantics = "jaccard"
    prunes_arrays = True

    def __init__(self, threshold: float, tokenizer: Optional[Tokenizer] = None):
        super().__init__(tokenizer)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold
        self._sizes: List[int] = []
        self._sorted_sizes: List[int] = []
        self._tids_by_size: List[int] = []

    def _fit(self, core: CorpusCore) -> None:
        sizes = self._sizes = list(map(len, core.token_sets))
        # A stable sort on the size alone orders ties by tid.
        order = self._tids_by_size = sorted(range(len(sizes)), key=sizes.__getitem__)
        self._sorted_sizes = [sizes[tid] for tid in order]

    # -- bounds ---------------------------------------------------------------

    def bounds(self, size: int) -> Tuple[float, float]:
        """Inclusive ``(low, high)`` candidate-size bounds for a query of ``size``."""
        if self.threshold <= 0.0 or size == 0:
            return (0, math.inf)
        low = math.ceil(self.threshold * size - _EPS)
        high = math.floor(size / self.threshold + _EPS)
        return (low, high)

    # -- hooks ----------------------------------------------------------------

    def _prune(self, query_tokens: Set[str], candidates: Set[int]) -> Set[int]:
        if self.threshold <= 0.0:
            return candidates
        low, high = self.bounds(len(query_tokens))
        sizes = self._sizes
        return {tid for tid in candidates if low <= sizes[tid] <= high}

    def _prune_array(self, query_tokens: Set[str], tids, index):
        if self.threshold <= 0.0:
            return tids
        low, high = self.bounds(len(query_tokens))
        sizes = index.set_sizes[tids]
        return tids[(sizes >= low) & (sizes <= high)]

    def supports_threshold(self, threshold: float) -> bool:
        return threshold >= self.threshold - _EPS

    def partners(self, tid: int) -> Optional[Set[int]]:
        self._require_fitted()
        if self.threshold <= 0.0:
            return None
        low, high = self.bounds(self._sizes[tid])
        left = bisect_left(self._sorted_sizes, low)
        right = bisect_right(self._sorted_sizes, high)
        block = set(self._tids_by_size[left:right])
        block.add(tid)
        return block

    def blocks(self) -> Optional[List[List[int]]]:
        """One block per distinct length: all tuples within its upper bound.

        Every compatible pair shares the block anchored at its *smaller*
        length, so iterating blocks covers all pairs the filter admits.
        """
        self._require_fitted()
        by_size: Dict[int, List[int]] = {}
        for tid, size in enumerate(self._sizes):
            by_size.setdefault(size, []).append(tid)
        output: List[List[int]] = []
        for size in sorted(by_size):
            _, high = self.bounds(size)
            left = bisect_left(self._sorted_sizes, size)
            right = bisect_right(self._sorted_sizes, high)
            output.append(list(self._tids_by_size[left:right]))
        return output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LengthFilter(threshold={self.threshold}, n={self._num_tuples})"
