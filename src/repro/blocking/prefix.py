"""Prefix filtering over weight-ordered tokens.

Order the vocabulary globally from rarest to most frequent (ascending
document frequency).  For Jaccard ``>= t`` a match must share at least
``ceil(t * |X|)`` distinct tokens with the query, so it is enough to consider
the first

    ``p(X) = |X| - ceil(t * |X|) + 1``

tokens of each set under that order (its *prefix*):

* **Probe side** (selections / joins): if a candidate shares *none* of the
  query's ``p(Q)`` prefix tokens, its overlap with the query is at most
  ``ceil(t * |Q|) - 1 < t * |Q|``, so it cannot reach the threshold.  Probing
  only the prefix tokens in the inverted index is therefore exact -- and
  because the prefix holds the *rarest* tokens, their postings are short.
* **Pair side** (self-joins): the classic prefix-filtering lemma (AllPairs /
  PPJoin): if ``J(Q, D) >= t`` then the prefixes of ``Q`` and ``D`` intersect.
  :meth:`PrefixFilter.partners` exploits this with a dedicated inverted index
  over prefix tokens only.

Exactness holds for Jaccard (and any similarity with
``sim >= t  =>  overlap >= t * max(|Q|, |D|)``); for other predicates the
filter is a heuristic.

The global order is fitted once as a rank per token of the host's core
(document frequencies read off its inverted index); the filter prunes
nothing itself, so on the numpy scans its whole effect is the probe mask
:meth:`repro.core.index.InvertedIndex.candidate_mask` marks from the prefix
tokens' tid arrays.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Set

from repro.blocking.base import Blocker
from repro.core.corpus import CorpusCore
from repro.text.tokenize import Tokenizer

__all__ = ["PrefixFilter"]

_EPS = 1e-9


class PrefixFilter(Blocker):
    """Exact prefix filtering for Jaccard-style thresholds.

    Parameters
    ----------
    threshold:
        The similarity threshold; determines the prefix lengths.  ``0``
        disables pruning (the prefix is the whole token set).
    """

    name = "prefix"
    exact = True
    semantics = "jaccard"
    prunes_arrays = True

    def __init__(self, threshold: float, tokenizer: Optional[Tokenizer] = None):
        super().__init__(tokenizer)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold
        #: token -> position in the global order (ascending document
        #: frequency, ties by token) over the fitted vocabulary.
        self._rank: Dict[str, int] = {}
        self._prefixes: List[FrozenSet[str]] = []
        self._prefix_postings: Dict[str, List[int]] = {}

    def prefix_length(self, size: int) -> int:
        """``p(X) = |X| - ceil(t * |X|) + 1`` (at least 1 for non-empty sets)."""
        if size == 0:
            return 0
        if self.threshold <= 0.0:
            return size
        needed = math.ceil(self.threshold * size - _EPS)
        return max(1, size - needed + 1)

    def prefix_of(self, tokens: Set[str]) -> List[str]:
        """The rarest-first prefix of a token set at the configured threshold.

        A token the fitted relation never saw has document frequency 0, so it
        orders before every fitted one (unseen tokens by token among
        themselves).
        """
        rank = self._rank
        seen = [token for token in tokens if token in rank]
        ordered = sorted(token for token in tokens if token not in rank)
        ordered += sorted(seen, key=rank.__getitem__)
        return ordered[: self.prefix_length(len(ordered))]

    def _fit(self, core: CorpusCore) -> None:
        vocabulary = sorted(
            (count, token) for token, count in core.document_frequencies.items()
        )
        self._rank = {token: position for position, (_, token) in enumerate(vocabulary)}
        by_rank = self._rank.__getitem__
        prefix_length = self.prefix_length
        prefixes: List[FrozenSet[str]] = []
        postings: Dict[str, List[int]] = defaultdict(list)
        for tid, tokens in enumerate(core.token_sets):
            prefix = sorted(tokens, key=by_rank)[: prefix_length(len(tokens))]
            prefixes.append(frozenset(prefix))
            for token in prefix:
                postings[token].append(tid)
        self._prefixes = prefixes
        self._prefix_postings = dict(postings)

    # -- hooks ----------------------------------------------------------------

    def probe_tokens(self, query_tokens: Set[str]) -> Set[str]:
        self._require_fitted()
        if self.threshold <= 0.0:
            return query_tokens
        return set(self.prefix_of(query_tokens))

    def supports_threshold(self, threshold: float) -> bool:
        return threshold >= self.threshold - _EPS

    def partners(self, tid: int) -> Optional[Set[int]]:
        self._require_fitted()
        if self.threshold <= 0.0:
            return None
        block: Set[int] = {tid}
        for token in self._prefixes[tid]:
            block.update(self._prefix_postings.get(token, ()))
        return block

    def blocks(self) -> Optional[List[List[int]]]:
        """One block per prefix token: all tuples carrying it in their prefix."""
        self._require_fitted()
        return [list(tids) for tids in self._prefix_postings.values()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixFilter(threshold={self.threshold}, n={self._num_tuples})"
