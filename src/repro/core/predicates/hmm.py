"""Hidden Markov Model predicate (paper sections 3.3.2 and 4.3.2).

A two-state HMM generates the query: state "String" emits tokens from the
tuple ``D`` (with probability ``P(q|D)``, the within-tuple maximum likelihood
estimate) and state "General English" emits tokens according to their overall
collection frequency ``P(q|GE)``.  The similarity is the probability of
generating the query, which after dropping query-constant factors
(equation 4.6) becomes::

    sim(Q, D) = Π_{q ∈ Q ∩ D} (1 + a1 * P(q|D) / (a0 * P(q|GE)))

The log of the per-(tuple, token) factor is precomputed during preprocessing,
exactly like the ``BASE_WEIGHTS`` table of the declarative realization:
:meth:`HMM._contribution` states it once, the fit maps it over the corpus
core's postings token by token into a
:class:`~repro.core.index.WeightedPostingIndex`, and ``score()`` calls the
same function on the tuple's own term frequency.  The formula stays scalar
-- ``math.log`` is libm's, numpy's ``log`` is not guaranteed to round the
same way: the fit (:meth:`HMM._posting_arrays`) calls it once per distinct
``(tf, |D|)`` of a token, found on the index's posting arrays with
``np.unique``, and gathers the results per posting.  Query evaluation is one
kernel scan over the query tokens' postings, then
:func:`repro.core.kernels.finalize_exp` of the log score -- only for the
candidates a selection keeps.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.index import WeightedPostingIndex, distinct_pairs
from repro.core.predicates.base import Predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer

__all__ = ["HMM"]


class HMM(Predicate):
    """Two-state Hidden Markov Model similarity."""

    name = "HMM"
    family = "language-modeling"
    #: Monotone-sum log-space accumulation routes through repro.core.kernels
    #: (final exponentiation is kernels.finalize_exp, like the LM predicate:
    #: overflow reads as inf, deferred to the selected few).
    uses_kernels = True
    finalizes_selected = True

    def __init__(self, tokenizer: Tokenizer | None = None, a0: float = 0.2):
        super().__init__()
        if not 0.0 < a0 < 1.0:
            raise ValueError("a0 must be strictly between 0 and 1")
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self.a0 = a0
        self.a1 = 1.0 - a0
        #: token -> P(q|GE) = cf_t / cs
        self._general_english: Dict[str, float] = {}
        #: per-tuple ``|D|`` (1 for an empty tuple, which has no posting)
        self._lengths: List[int] = []

    def weight_phase(self) -> None:
        stats = self._core.stats
        collection_size = stats.collection_size or 1
        self._general_english = {
            token: stats.collection_frequency(token) / collection_size
            for token in stats.vocabulary
        }
        self._lengths = [length or 1 for length in stats.lengths()]
        # Every posting keeps its log factor -- a tuple sharing a token is a
        # candidate even where 1 + x rounds to 1 -- so zeros are not dropped.
        assert self._index is not None
        self._weighted_index = WeightedPostingIndex(
            self._index, self._posting_arrays(), keep_zeros=True
        )

    def _posting_arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Per token, :meth:`_contribution` once per distinct ``(tf, |D|)``
        pair of its posting arrays, gathered per posting."""
        index, contribution = self._index, self._contribution
        lengths = np.array(self._lengths, dtype=np.int64)
        for token in index.tokens():
            p_general = self._general_english[token]
            tids, tfs = index.arrays(token)
            pairs, inverse = distinct_pairs(tids, tfs, lengths)
            values = [contribution(p_general, tf, length) for tf, length in pairs]
            yield token, np.array(values, dtype=np.float64)[inverse]

    def _contribution(self, p_general: float, tf: int, length: int) -> float:
        """``log(1 + a1 P(q|D) / (a0 P(q|GE)))`` of one posting, with
        ``P(q|D) = tf / |D|``: what the fit stores and ``score()`` recomputes."""
        return math.log(1.0 + (self.a1 * (tf / length)) / (self.a0 * p_general))

    def _scores(self, query: str) -> Dict[int, float]:
        assert self._weighted_index is not None
        query_counts = Counter(self.tokenizer.tokenize(query))
        # Query first-occurrence token order (not sorted): the canonical
        # order _score_one replicates, preserved through the kernel.
        log_scores = kernels.accumulate(
            self._weighted_index,
            [(token, float(count)) for token, count in query_counts.items()],
            len(self._token_lists),
        )
        return kernels.exp_scores(log_scores.tids, log_scores.vals)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._token_lists):
            return 0.0
        # Same token order as _scores (query first-occurrence), so the log
        # sum is float-identical to the whole-corpus path.
        counts = self._index.term_frequencies(tid)
        log_score = 0.0
        matched = False
        for token, multiplicity in Counter(self.tokenizer.tokenize(query)).items():
            tf = counts.get(token)
            if tf:
                # repro-analysis: disable=RPL001 reason=query first-occurrence order IS the canonical order; _scores and the vectorized kernels accumulate in the same Counter order, so sorting would break bit-identity with them
                log_score += multiplicity * self._contribution(
                    self._general_english[token], tf, self._lengths[tid]
                )
                matched = True
        return kernels.finalize_exp(log_score) if matched else 0.0
