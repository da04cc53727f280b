"""Language modeling predicate (paper sections 3.3.1 and 4.3.1).

The predicate follows Ponte & Croft's language model: each tuple induces a
model ``M_D``; the similarity of a query to a tuple is the (rank-equivalent
transformation of the) probability of generating the query from ``M_D``.

We implement the rank-preserving rewrite the paper uses for its declarative
realization (equation 4.4): terms that are constant for a given query are
dropped and only tokens in ``Q ∩ D`` plus a per-tuple precomputed term
``Σ_{t ∈ D} log(1 - p̂(t|M_D))`` are needed at query time.  Scores are
computed in log space and exponentiated at the end, exactly like the SQL in
Figure 4.4; on the numpy backend only the candidates a selection keeps are
exponentiated (:func:`repro.core.kernels.exp_scores`).

The fit is one token-major pass over the corpus core's postings:
:meth:`LanguageModeling._posting_terms` states a posting's contribution
once, and is *called* once per distinct ``(tf, |D|)`` of a token -- the two
logs and the two ``**`` are taken for that pair and shared by every posting
of the token that has it; ``log(1 - p̂)`` feeds both the contribution and the
tuple's complement sum -- and nothing is kept per (tuple, token) besides the
weighted postings; ``score()`` recomputes a posting from the same function
and the tuple's own term frequency.  The formula is scalar on both kernel
backends: ``**`` and ``math.log`` are libm's, numpy's ``power`` / ``log`` are
not guaranteed to round the same way.  What differs is how the postings are
walked.  A numpy fit (:meth:`LanguageModeling._posting_arrays`) reads the
index's posting arrays: per token (sorted) it finds the distinct integer
``(tf, |D|)`` pairs with ``np.unique``, calls the formula once per pair,
gathers the results per posting, and adds the complements into a
``float64`` array with ``sums[tids] += complement`` -- a tid occurs at most
once per token, so each tuple's sum takes one IEEE addition per token, in
sorted token order, exactly as the scalar loop adds them; no Python
``(tid, tf)`` list is read.  The scalar pass
(:meth:`LanguageModeling._posting_values`) walks the index's posting lists
with a per-token memo of the same pairs; it is the fit without numpy and
what the weighted index's scalar view re-runs on the first scalar read
after a numpy fit, so it must stay free of side effects on the fitted state:
the complement sums are added into the list the caller passes, and only the
fit passes one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

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
        #: per-tuple Σ_{t ∈ D} log(1 - p̂(t|M_D))
        self._sum_complement: List[float] = []
        #: the same values as a float64 array (None without numpy)
        self._sum_complement_array = None
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
        # candidate (it scores exp(sum_complement)).  With numpy the fit
        # reads the posting arrays and the sums land in a float64 array --
        # the vectorized finalize gather's mirror (built regardless of
        # backend forcing, like the posting arrays) -- else in a list.
        assert self._index is not None
        np = kernels.np
        if np is None:
            sums = [0.0] * len(self._lengths)
            values = self._posting_values(sums)
        else:
            sums = np.zeros(len(self._lengths), dtype=np.float64)
            values = self._posting_arrays(sums)
        self._weighted_index = WeightedPostingIndex(
            self._index, values, self._posting_values, keep_zeros=True
        )
        self._sum_complement_array = None if np is None else sums
        self._sum_complement = sums if np is None else sums.tolist()

    def _posting_arrays(self, sums) -> Iterator[Tuple[str, "np.ndarray"]]:
        """:meth:`_posting_values` over the posting arrays (a numpy fit):
        per token (sorted), :meth:`_posting_terms` once per distinct
        ``(tf, |D|)`` pair, gathered per posting; each posting's
        ``log(1 - p̂)`` is added to its tuple's entry of the ``float64``
        array ``sums``.  The same calls with the same Python ints, and per
        tuple the same additions in the same order, as the scalar pass."""
        np = kernels.np
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

    def _posting_values(
        self, sum_complement: Optional[List[float]] = None
    ) -> Iterator[Tuple[str, List[float]]]:
        """Per token, the contribution of each of its postings.

        The fit passes ``sum_complement`` and each posting's ``log(1 - p̂)``
        is added to its tuple's entry on the way; the weighted index's scalar
        view re-runs the pass without it and the sums go to a scratch list,
        so a re-run leaves the fitted state alone.  Tokens are visited in
        sorted order, so every tuple's sum adds its tokens in sorted order
        however the index was built (RPL001).

        Within one token a posting's terms depend on ``(tf, |D|)`` only, so
        :meth:`_posting_terms` is called once per distinct pair -- about a
        tenth of the postings on short strings -- and every other posting
        reads that call's result: the same function of the same arguments,
        ``==`` to calling it per posting.
        """
        index, lengths = self._index, self._lengths
        posting_terms = self._posting_terms
        if sum_complement is None:
            sum_complement = [0.0] * len(lengths)
        for token in sorted(index.tokens()):
            pavg, log_cfcs = self._pavg[token], self._log_cfcs[token]
            terms: Dict[Tuple[int, int], Tuple[float, float]] = {}
            values = []
            for tid, tf in index.postings(token):
                length = lengths[tid]
                pair = terms.get((tf, length))
                if pair is None:
                    pair = terms[tf, length] = posting_terms(pavg, log_cfcs, tf, length)
                values.append(pair[0])
                sum_complement[tid] += pair[1]
            yield token, values

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
        pair = kernels.dense_pair(accumulators)
        if pair is not None and self._sum_complement_array is not None:
            tids, accumulated = pair
            # One float64 add per candidate -- the identical IEEE operation
            # the scalar comprehension performs; exp is deferred to the
            # candidates selection keeps.
            return kernels.exp_scores(
                tids, accumulated + self._sum_complement_array[tids]
            )
        return {
            tid: kernels.finalize_exp(accumulated + self._sum_complement[tid])
            for tid, accumulated in accumulators.items()
        }

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._sum_complement):
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
        return kernels.finalize_exp(accumulated + self._sum_complement[tid])
