"""Hidden Markov Model predicate (paper sections 3.3.2 and 4.3.2).

A two-state HMM generates the query: state "String" emits tokens from the
tuple ``D`` (with probability ``P(q|D)``, the within-tuple maximum likelihood
estimate) and state "General English" emits tokens according to their overall
collection frequency ``P(q|GE)``.  The similarity is the probability of
generating the query, which after dropping query-constant factors
(equation 4.6) becomes::

    sim(Q, D) = Π_{q ∈ Q ∩ D} (1 + a1 * P(q|D) / (a0 * P(q|GE)))

The per-(tuple, token) factor is precomputed during preprocessing, exactly
like the ``BASE_WEIGHTS`` table of the declarative realization; query
evaluation is then a single index lookup per query token.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

from repro.core import kernels
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.base import Predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer

__all__ = ["HMM"]


class HMM(Predicate):
    """Two-state Hidden Markov Model similarity."""

    name = "HMM"
    family = "language-modeling"
    #: Monotone-sum log-space accumulation routes through repro.core.kernels
    #: (final exponentiation stays math.exp, like the LM predicate).
    uses_kernels = True

    def __init__(self, tokenizer: Tokenizer | None = None, a0: float = 0.2):
        super().__init__()
        if not 0.0 < a0 < 1.0:
            raise ValueError("a0 must be strictly between 0 and 1")
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self.a0 = a0
        self.a1 = 1.0 - a0
        #: per-tuple token -> log(1 + a1 P(q|D) / (a0 P(q|GE)))
        self._log_weights: List[Dict[str, float]] = []
        #: token -> [(tid, log weight)]: the same factors folded into posting
        #: lists so query-time accumulation is one kernel call.
        self._weighted_index: WeightedPostingIndex | None = None

    def weight_phase(self) -> None:
        stats = self._core.stats
        collection_size = stats.collection_size or 1
        general_english = {
            token: stats.collection_frequency(token) / collection_size
            for token in stats.vocabulary
        }
        self._log_weights = []
        for tid in range(len(self._token_lists)):
            length = stats.length(tid) or 1
            weights: Dict[str, float] = {}
            for token, tf in stats.term_frequencies(tid).items():
                p_string = tf / length
                p_general = general_english[token]
                factor = 1.0 + (self.a1 * p_string) / (self.a0 * p_general)
                weights[token] = math.log(factor)
            self._log_weights.append(weights)
        # Every posting has a (strictly positive) log factor: fold them into
        # weighted posting lists for the vectorized accumulation kernels.
        assert self._index is not None
        contributions: Dict[str, List] = {}
        for token in self._index.tokens():
            contributions[token] = [
                (tid, self._log_weights[tid][token])
                for tid, _ in self._index.postings(token)
            ]
        self._weighted_index = WeightedPostingIndex(contributions)

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
        pair = kernels.dense_pair(log_scores)
        if pair is not None:
            tids, values = pair
            # Scalar math.exp over the exact accumulated log scores (np.exp
            # is not guaranteed ULP-identical to libm).
            exp = math.exp
            return kernels.dense_from_lists(
                tids, [exp(value) for value in values.tolist()]
            )
        return {tid: math.exp(value) for tid, value in log_scores.items()}

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._log_weights):
            return 0.0
        # Same token order as _scores (query first-occurrence), so the log
        # sum is float-identical to the whole-corpus path.
        weights = self._log_weights[tid]
        log_score = 0.0
        matched = False
        for token, multiplicity in Counter(self.tokenizer.tokenize(query)).items():
            if token in weights:
                # repro-analysis: disable=RPL001 reason=query first-occurrence order IS the canonical order; _scores and the vectorized kernels accumulate in the same Counter order, so sorting would break bit-identity with them
                log_score += multiplicity * weights[token]
                matched = True
        return math.exp(log_score) if matched else 0.0
