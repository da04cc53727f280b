"""IDF-based token pruning (paper section 5.6).

The enhancement drops tokens whose idf falls below
``MIN(idf) + rate * (MAX(idf) - MIN(idf))`` -- i.e. very frequent, stopword-
like q-grams -- *before* any weights are computed, so the probability
distributions of the remaining tokens stay consistent.  The paper reports
that moderate rates (0.2--0.3) keep or even improve accuracy (especially for
the unweighted overlap predicates) while cutting preprocessing and query cost
substantially.

:class:`IdfPruner` computes the pruned vocabulary for a relation and exposes a
wrapped tokenizer that filters pruned tokens, which can be passed to any
token-based predicate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union

from repro.core.predicates.base import Predicate
from repro.core.predicates import make_predicate
from repro.text.tokenize import QgramTokenizer, Tokenizer

__all__ = ["prune_rate_threshold", "PrunedTokenizer", "IdfPruner"]


def prune_rate_threshold(idf_values: Iterable[float], rate: float) -> float:
    """``MIN(idf) + rate * (MAX(idf) - MIN(idf))`` over the vocabulary."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    values = list(idf_values)
    if not values:
        return 0.0
    lowest, highest = min(values), max(values)
    return lowest + rate * (highest - lowest)


@dataclass(frozen=True)
class PrunedTokenizer(Tokenizer):
    """A tokenizer wrapper that removes a fixed set of pruned tokens.

    A frozen value object like every tokenizer: two wrappers are equal (and
    hash, and ``repr``, alike) exactly when they wrap equal tokenizers and
    drop the same tokens -- the engine keys fitted state by the tokenizer,
    so a wrapper that compared equal to every other one would answer one
    pruning's queries from another's state.  Unknown attribute access is
    forwarded to the wrapped tokenizer so that predicates depending on
    tokenizer parameters (e.g. the q-gram length) keep working.
    """

    inner: Tokenizer
    pruned_tokens: FrozenSet[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pruned_tokens", frozenset(self.pruned_tokens))

    def tokenize(self, text: str) -> List[str]:
        return [
            token
            for token in self.inner.tokenize(text)
            if token not in self.pruned_tokens
        ]

    @property
    def name(self) -> str:
        return f"pruned({self.inner.name}, dropped={len(self.pruned_tokens)})"

    def __getattr__(self, attribute: str):
        return getattr(object.__getattribute__(self, "inner"), attribute)


class IdfPruner:
    """Compute and apply IDF-threshold pruning for a base relation."""

    def __init__(self, rate: float, tokenizer: Optional[Tokenizer] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self.rate = rate
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._idf: Dict[str, float] = {}
        self._pruned: Set[str] = set()
        self._threshold: float = 0.0
        self._fitted = False

    # -- fitting -----------------------------------------------------------------

    def fit(self, strings: Sequence[str]) -> "IdfPruner":
        """Compute the idf table and the pruned vocabulary for ``strings``."""
        document_frequency: Counter = Counter()
        for text in strings:
            document_frequency.update(set(self.tokenizer.tokenize(text)))
        total = len(strings)
        self._idf = {
            token: math.log(total) - math.log(df)
            for token, df in document_frequency.items()
        }
        self._threshold = prune_rate_threshold(self._idf.values(), self.rate)
        if self.rate == 0.0:
            self._pruned = set()
        else:
            self._pruned = {
                token for token, idf in self._idf.items() if idf < self._threshold
            }
        self._fitted = True
        return self

    # -- results -----------------------------------------------------------------

    @property
    def threshold(self) -> float:
        self._require_fitted()
        return self._threshold

    @property
    def pruned_tokens(self) -> Set[str]:
        self._require_fitted()
        return set(self._pruned)

    @property
    def vocabulary_size(self) -> int:
        self._require_fitted()
        return len(self._idf)

    @property
    def retained_fraction(self) -> float:
        """Fraction of the vocabulary that survives pruning."""
        self._require_fitted()
        if not self._idf:
            return 1.0
        return 1.0 - len(self._pruned) / len(self._idf)

    def idf_table(self) -> Dict[str, float]:
        self._require_fitted()
        return dict(self._idf)

    def idf_histogram(self, num_bins: int = 10) -> List[int]:
        """Histogram of idf values over the vocabulary (Figure 5.6)."""
        self._require_fitted()
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if not self._idf:
            return [0] * num_bins
        values = list(self._idf.values())
        lowest, highest = min(values), max(values)
        width = (highest - lowest) / num_bins or 1.0
        bins = [0] * num_bins
        for value in values:
            index = min(int((value - lowest) / width), num_bins - 1)
            bins[index] += 1
        return bins

    def pruned_tokenizer(self) -> PrunedTokenizer:
        """A tokenizer that drops the pruned tokens (pass to any predicate)."""
        self._require_fitted()
        return PrunedTokenizer(self.tokenizer, self._pruned)

    def apply(
        self,
        predicate: Union[Predicate, str],
        strings: Sequence[str],
        **predicate_kwargs,
    ) -> Predicate:
        """Fit ``predicate`` on ``strings`` with the pruned tokenizer installed."""
        if not self._fitted:
            self.fit(strings)
        if isinstance(predicate, str):
            predicate = make_predicate(
                predicate, tokenizer=self.pruned_tokenizer(), **predicate_kwargs
            )
        else:
            predicate.tokenizer = self.pruned_tokenizer()
        return predicate.fit(strings)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("IdfPruner must be fit() before use")
