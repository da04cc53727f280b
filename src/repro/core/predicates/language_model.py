"""Language modeling predicate (paper sections 3.3.1 and 4.3.1).

The predicate follows Ponte & Croft's language model: each tuple induces a
model ``M_D``; the similarity of a query to a tuple is the (rank-equivalent
transformation of the) probability of generating the query from ``M_D``.

We implement the rank-preserving rewrite the paper uses for its declarative
realization (equation 4.4): terms that are constant for a given query are
dropped and only tokens in ``Q ∩ D`` plus a per-tuple precomputed term
``Σ_{t ∈ D} log(1 - p̂(t|M_D))`` are needed at query time.  Scores are
computed in log space and exponentiated at the end, exactly like the SQL in
Figure 4.4; only the candidates a selection keeps are exponentiated
(:func:`repro.core.kernels.exp_scores`).

The fit is one token-major pass over the corpus core's posting arrays
(:meth:`LanguageModeling._posting_arrays`): :meth:`LanguageModeling._posting_terms`
states a posting's contribution once, and is *called* once per distinct
``(tf, |D|)`` of a token, found with ``np.unique`` -- the two logs and the
two ``**`` are taken for that pair and gathered to every posting of the
token that has it; ``log(1 - p̂)`` feeds both the contribution and the
tuple's complement sum.  The formula is scalar: ``**`` and ``math.log`` are
libm's, numpy's ``power`` / ``log`` are not guaranteed to round the same
way.  The complements are added into a ``float64`` array with ``sums[tids]
+= complement`` -- a tid occurs at most once per token, so each tuple's sum
takes one IEEE addition per token, in sorted token order, the order the
paper's sum is taken in.  Nothing is kept per (tuple, token) besides the
weighted postings; ``score()`` recomputes a posting from the same function
and the tuple's own term frequency.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.index import WeightedPostingIndex, distinct_pairs
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
    #: (the final exponentiation is kernels.finalize_exp -- np.exp is not
    #: guaranteed ULP-identical to libm -- deferred to the selected few).
    uses_kernels = True
    finalizes_selected = True

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._stats: CollectionStatistics | None = None
        #: token -> p̂_avg(t), the collection's (shared, read-only) table
        self._pavg: Dict[str, float] = {}
        #: per-tuple ``|D|`` (1 for an empty tuple, which has no posting)
        self._lengths: List[int] = []
        #: per-tuple Σ_{t ∈ D} log(1 - p̂(t|M_D)), a float64 array
        self._sum_complement = None
        #: token -> log(cf_t / cs)
        self._log_cfcs: Dict[str, float] = {}

    # -- preprocessing --------------------------------------------------------

    def weight_phase(self) -> None:
        stats = self._core.stats
        self._stats = stats
        collection_size = stats.collection_size or 1
        # p̂_avg(t): mean maximum-likelihood probability over tuples containing
        # t -- a collection-level statistic, so it comes from the statistics
        # object (the whole relation's, also over a shard-local core).
        self._pavg = stats.pavg_table()
        self._log_cfcs = {
            token: math.log(stats.collection_frequency(token) / collection_size)
            for token in stats.vocabulary
        }
        self._lengths = [length or 1 for length in stats.lengths()]
        # The whole per-posting contribution of equation 4.4 is precomputed,
        # so query-time accumulation does no log() calls at all.  Zero
        # contributions are kept: a tuple sharing only such tokens is still a
        # candidate (it scores exp(sum_complement)).
        assert self._index is not None
        sums = np.zeros(len(self._lengths), dtype=np.float64)
        self._weighted_index = WeightedPostingIndex(
            self._index, self._posting_arrays(sums), keep_zeros=True
        )
        self._sum_complement = sums

    def _posting_arrays(self, sums) -> Iterator[Tuple[str, np.ndarray]]:
        """Per token (sorted), :meth:`_posting_terms` once per distinct
        ``(tf, |D|)`` pair of its posting arrays, gathered per posting; each
        posting's ``log(1 - p̂)`` is added to its tuple's entry of the
        ``float64`` array ``sums``.  Tokens are visited in sorted order, so
        every tuple's sum adds its tokens in sorted order however the index
        was built (RPL001)."""
        index, posting_terms = self._index, self._posting_terms
        lengths = np.array(self._lengths, dtype=np.int64)
        for token in sorted(index.tokens()):
            pavg, log_cfcs = self._pavg[token], self._log_cfcs[token]
            tids, tfs = index.arrays(token)
            pairs, inverse = distinct_pairs(tids, tfs, lengths)
            contributions, complements = np.array(
                [posting_terms(pavg, log_cfcs, tf, length) for tf, length in pairs],
                dtype=np.float64,
            ).T
            # A tid occurs once per token: one addition per tuple.
            sums[tids] += complements[inverse]
            yield token, contributions[inverse]

    @staticmethod
    def _posting_terms(
        pavg: float, log_cfcs: float, tf: int, length: int
    ) -> Tuple[float, float]:
        """One posting's ``(contribution, log(1 - p̂(t|M_D)))``: equation 4.4's
        summand for a shared token, and what the tuple's complement sum takes
        from the posting -- each log taken once.

        ``p̂(t|M_D)`` is the maximum-likelihood estimate ``tf / |D|`` smoothed
        towards ``p̂_avg(t)`` by the risk of trusting it (section 3.3.1).
        """
        pml = tf / length
        expected = pavg * length  # f̄_{t,D}
        risk = (1.0 / (1.0 + expected)) * (expected / (1.0 + expected)) ** tf
        pm = min((pml ** (1.0 - risk)) * (pavg ** risk), _MAX_PROBABILITY)
        log_complement = math.log(1.0 - pm)
        return math.log(pm) - log_complement - log_cfcs, log_complement

    # -- query time -----------------------------------------------------------

    def _scores(self, query: str) -> Dict[int, float]:
        assert self._weighted_index is not None
        query_tokens = set(self.tokenizer.tokenize(query))
        accumulators = kernels.accumulate(
            self._weighted_index,
            [(token, 1.0) for token in sorted(query_tokens)],
            len(self._token_lists),
        )
        tids = accumulators.tids
        # One float64 add per candidate; exp is deferred to the candidates
        # selection keeps.
        return kernels.exp_scores(tids, accumulators.vals + self._sum_complement[tids])

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._lengths):
            return 0.0
        counts, length = self._index.term_frequencies(tid), self._lengths[tid]
        accumulated = 0.0
        matched = False
        for token in sorted(set(self.tokenizer.tokenize(query))):
            tf = counts.get(token)
            if tf:
                # What the token's posting for this tuple stores.
                accumulated += self._posting_terms(
                    self._pavg[token], self._log_cfcs[token], tf, length
                )[0]
                matched = True
        if not matched:
            return 0.0
        return kernels.finalize_exp(accumulated + float(self._sum_complement[tid]))
