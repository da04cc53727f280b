"""Language modeling predicate (paper sections 3.3.1 and 4.3.1).

The predicate follows Ponte & Croft's language model: each tuple induces a
model ``M_D``; the similarity of a query to a tuple is the (rank-equivalent
transformation of the) probability of generating the query from ``M_D``.

We implement the rank-preserving rewrite the paper uses for its declarative
realization (equation 4.4): terms that are constant for a given query are
dropped and only tokens in ``Q ∩ D`` plus a per-tuple precomputed term
``Σ_{t ∈ D} log(1 - p̂(t|M_D))`` are needed at query time.  Scores are
computed in log space and exponentiated at the end, exactly like the SQL in
Figure 4.4.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core import kernels
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.base import Predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer
from repro.text.weights import CollectionStatistics

__all__ = ["LanguageModeling"]

# Probabilities are clamped away from 1.0 so log(1 - p) stays finite; this
# mirrors the behaviour of the SQL realization where such degenerate tuples
# (a single repeated token) simply saturate the score.
_MAX_PROBABILITY = 1.0 - 1e-12


class LanguageModeling(Predicate):
    """Ponte-Croft language modeling similarity."""

    name = "LM"
    family = "language-modeling"
    #: Monotone-sum log-space accumulation routes through repro.core.kernels
    #: (the final exponentiation stays math.exp -- np.exp is not guaranteed
    #: ULP-identical to libm).
    uses_kernels = True

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._stats: CollectionStatistics | None = None
        #: per-tuple token -> p̂(t | M_D) (only for tokens present in the tuple)
        self._pm: List[Dict[str, float]] = []
        #: per-tuple Σ_{t ∈ D} log(1 - p̂(t|M_D))
        self._sum_complement: List[float] = []
        #: the same values as a float64 array (None without numpy)
        self._sum_complement_array = None
        #: token -> cf_t / cs
        self._cfcs: Dict[str, float] = {}
        #: token -> [(tid, log(pm) - log(1-pm) - log(cf/cs))]: the whole
        #: per-posting contribution of equation 4.4 precomputed at fit time,
        #: so query-time accumulation does no log() calls at all.
        self._weighted_index: WeightedPostingIndex | None = None

    # -- preprocessing --------------------------------------------------------

    def weight_phase(self) -> None:
        stats = self._core.stats
        self._stats = stats
        collection_size = stats.collection_size or 1

        # p̂_avg(t): mean maximum-likelihood probability over tuples containing
        # t -- a collection-level statistic, so it comes from the statistics
        # object (the whole relation's, also over a shard-local core).
        pavg = stats.pavg_table()
        self._cfcs = {
            token: stats.collection_frequency(token) / collection_size
            for token in stats.vocabulary
        }

        self._pm = []
        self._sum_complement = []
        for tid in range(len(self._token_lists)):
            length = stats.length(tid) or 1
            tuple_pm: Dict[str, float] = {}
            log_complement_sum = 0.0
            # Sorted token order keeps log_complement_sum bit-identical no
            # matter how the term-frequency dict was built (RPL001).
            for token, tf in sorted(stats.term_frequencies(tid).items()):
                pml = tf / length
                expected = pavg[token] * length  # f̄_{t,D}
                risk = (1.0 / (1.0 + expected)) * (expected / (1.0 + expected)) ** tf
                pm = (pml ** (1.0 - risk)) * (pavg[token] ** risk)
                pm = min(pm, _MAX_PROBABILITY)
                tuple_pm[token] = pm
                log_complement_sum += math.log(1.0 - pm)
            self._pm.append(tuple_pm)
            self._sum_complement.append(log_complement_sum)

        # Fold the full per-posting contribution into weighted postings.
        # Zero contributions are kept: a tuple sharing only such tokens is
        # still a candidate (it scores exp(sum_complement)).
        assert self._index is not None
        contributions: Dict[str, List[tuple]] = {}
        for token in self._index.tokens():
            cfcs = self._cfcs.get(token, 0.0)
            log_cfcs = math.log(cfcs) if cfcs > 0 else 0.0
            plist = []
            for tid, _ in self._index.postings(token):
                pm = self._pm[tid][token]
                plist.append((tid, math.log(pm) - math.log(1.0 - pm) - log_cfcs))
            contributions[token] = plist
        self._weighted_index = WeightedPostingIndex(contributions)
        # Array mirror for the vectorized finalize gather (built regardless
        # of backend forcing, like the posting arrays).
        if kernels.np is not None:
            self._sum_complement_array = kernels.np.array(
                self._sum_complement, dtype=kernels.np.float64
            )

    # -- query time -----------------------------------------------------------

    def _contribution(self, token: str, tid: int) -> float:
        """One posting's contribution, recomputed bit-identically to fit time."""
        cfcs = self._cfcs.get(token, 0.0)
        log_cfcs = math.log(cfcs) if cfcs > 0 else 0.0
        pm = self._pm[tid][token]
        return math.log(pm) - math.log(1.0 - pm) - log_cfcs

    @staticmethod
    def _finalize(log_score: float) -> float:
        # Exponentiation can underflow for long tuples; underflow to 0.0 is
        # harmless for ranking because exp is monotone.
        try:
            return math.exp(log_score)
        except OverflowError:  # pragma: no cover - defensive
            return float("inf")

    def _scores(self, query: str) -> Dict[int, float]:
        assert self._weighted_index is not None
        query_tokens = set(self.tokenizer.tokenize(query))
        accumulators = kernels.accumulate(
            self._weighted_index,
            [(token, 1.0) for token in sorted(query_tokens)],
            len(self._token_lists),
        )
        pair = kernels.dense_pair(accumulators)
        if pair is not None and self._sum_complement_array is not None:
            tids, accumulated = pair
            # One float64 add per candidate -- the identical IEEE operation
            # the scalar comprehension performs -- then scalar math.exp
            # (np.exp is not guaranteed ULP-identical to libm).
            log_scores = (accumulated + self._sum_complement_array[tids]).tolist()
            exp = math.exp
            try:
                finalized = [exp(log_score) for log_score in log_scores]
            except OverflowError:  # pragma: no cover - defensive
                finalized = [self._finalize(log_score) for log_score in log_scores]
            return kernels.dense_from_lists(tids, finalized)
        return {
            tid: self._finalize(accumulated + self._sum_complement[tid])
            for tid, accumulated in accumulators.items()
        }

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._pm):
            return 0.0
        tuple_pm = self._pm[tid]
        accumulated = 0.0
        matched = False
        for token in sorted(set(self.tokenizer.tokenize(query))):
            if token in tuple_pm:
                accumulated += self._contribution(token, tid)
                matched = True
        if not matched:
            return 0.0
        return self._finalize(accumulated + self._sum_complement[tid])
