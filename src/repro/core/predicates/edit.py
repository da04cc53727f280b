"""Edit-based predicate (paper sections 3.4 and 4.4).

The similarity is the normalized edit similarity of equation 3.13::

    sim_edit(Q, D) = 1 - ed(Q, D) / max(|Q|, |D|)

Following Gravano et al., the declarative realization first generates a
*candidate set* using properties of the strings' q-grams (no false
negatives for a given threshold) and then verifies candidates with the exact
edit distance.  The same structure is used here:

* :meth:`EditDistance.rank` (used by the accuracy experiments, which do not
  prune by threshold) scores every tuple that shares at least one q-gram with
  the query.
* :meth:`EditDistance.select` applies the q-gram count filter and the length
  filter for the requested threshold before running a banded edit-distance
  verification, which is how the paper keeps this predicate fast.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.predicates.base import Pair, Predicate, rank_key
from repro.text.strings import edit_similarity, levenshtein_within
from repro.text.tokenize import QgramTokenizer, normalize_string

__all__ = ["EditDistance"]


def _max_distance(threshold: float, longest: int) -> int:
    """The largest edit distance ``d`` whose similarity ``1 - d / longest``
    still reaches ``threshold``, under the same float expression the
    verification scores with.

    ``int((1 - threshold) * longest)`` alone rounds down on float noise --
    ``(1 - 0.9) * 10`` is ``0.9999999999999998`` -- and would drop a tuple
    scoring exactly the threshold; the estimate is corrected both ways.
    """
    distance = int((1.0 - threshold) * longest)
    while distance < longest and 1.0 - (distance + 1) / longest >= threshold:
        distance += 1
    while distance >= 0 and 1.0 - distance / longest < threshold:
        distance -= 1
    return distance


class EditDistance(Predicate):
    """Normalized Levenshtein edit similarity with q-gram filtering."""

    name = "EditDistance"
    family = "edit-based"

    def __init__(self, q: int = 2):
        super().__init__()
        self.tokenizer = QgramTokenizer(q=q)
        self.q = q
        self._normalized: List[str] = []

    def tokenize_phase(self) -> None:
        super().tokenize_phase()
        self._normalized = [normalize_string(text) for text in self._strings]

    def weight_phase(self) -> None:
        """Edit distance needs no weights."""

    def _blocker_core(self, blocker) -> CorpusCore:
        """Blockers reuse the predicate's q-gram core."""
        return self._bound_core()

    def _blocker_query_tokens(self, query: str, blocker):
        return set(self.tokenizer.tokenize(query))

    # -- scoring ---------------------------------------------------------------

    #: Candidates are pruned before the (expensive) edit-distance DP below.
    _prunes_before_scoring = True

    def _scores(self, query: str) -> kernels.Scores:
        assert self._index is not None
        normalized_query = normalize_string(query)
        query_tokens = self.tokenizer.tokenize(query)
        candidates = self._index.candidates(query_tokens, blocker=self.blocker)
        if self._restriction is not None:
            candidates &= self._restriction
        scores: Dict[int, float] = {}
        for tid in candidates:
            scores[tid] = edit_similarity(normalized_query, self._normalized[tid])
        return kernels.Scores.from_dict(scores)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._normalized):
            return 0.0
        # Candidate semantics: a tuple sharing no q-gram with the query is
        # never scored by the whole-corpus path, however similar its text.
        query_tokens = set(self.tokenizer.tokenize(query))
        if query_tokens.isdisjoint(self._token_lists[tid]):
            return 0.0
        return edit_similarity(normalize_string(query), self._normalized[tid])

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Thresholded selection with q-gram count and length filtering.

        For ``sim_edit >= threshold`` the edit distance can be at most
        ``(1 - threshold) * max(|Q|, |D|)``; two strings within edit distance
        ``k`` differ in at most ``k * q`` q-grams, giving the classic count
        filter ``|G_Q ∩ G_D| >= max(|G_Q|, |G_D|) - k * q``.
        """
        self._require_fitted()
        assert self._index is not None
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self._check_blocker_threshold(threshold)
        normalized_query = normalize_string(query)
        query_tokens = self.tokenizer.tokenize(query)
        query_counts = Counter(query_tokens)

        # Count shared q-grams (multiset semantics) per candidate.
        shared: Dict[int, int] = {}
        for token, query_tf in query_counts.items():
            for tid, base_tf in self._index.postings(token):
                shared[tid] = shared.get(tid, 0) + min(query_tf, base_tf)

        # Honor an active blocker / self-join restriction (this selection
        # bypasses rank_pairs(), so the generic filtering there does not apply).
        # Candidate generation must consult the blocker's probe tokens --
        # exactly like ``_scores`` and the sharded merge layer -- so blocked
        # selections agree bit for bit whether sharded or not: a tuple
        # sharing only non-probe q-grams with the query is not a candidate.
        allowed: Optional[set] = None
        if self._blocker is not None:
            allowed = self._index.candidates(query_tokens, blocker=self._blocker)
            if self._restriction is not None:
                allowed &= self._restriction
        elif self._restriction is not None:
            allowed = self._restriction
        if allowed is not None:
            shared = {tid: common for tid, common in shared.items() if tid in allowed}
        self.last_num_candidates = len(shared)

        results: List[Pair] = []
        for tid, common in shared.items():
            candidate = self._normalized[tid]
            longest = max(len(normalized_query), len(candidate))
            if longest == 0:
                results.append((tid, 1.0))
                continue
            max_distance = _max_distance(threshold, longest)
            if abs(len(normalized_query) - len(candidate)) > max_distance:
                continue
            required = max(len(query_tokens), len(self._token_lists[tid])) - max_distance * self.q
            if common < required:
                continue
            distance = levenshtein_within(normalized_query, candidate, max_distance)
            if distance is None:
                continue
            similarity = 1.0 - distance / longest
            if similarity >= threshold:
                results.append((tid, similarity))
        results.sort(key=rank_key)
        return results
