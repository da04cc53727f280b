"""Blocker interface and candidate-reduction statistics.

A *blocker* is a pluggable candidate-pruning strategy sitting between the
inverted index and the similarity predicates.  The paper's selection and join
operators spend almost all of their time scoring candidate tuples, and the
seed implementation considered every tuple sharing *any* token with the query
a candidate -- on realistic vocabularies that degenerates toward comparing
everything with everything.  Blockers cut that candidate set down, either

* **exactly** -- dropping only candidates that provably cannot reach the
  similarity threshold (:class:`~repro.blocking.length.LengthFilter`,
  :class:`~repro.blocking.prefix.PrefixFilter`), or
* **approximately** -- keeping candidates that are *probably* similar
  (:class:`~repro.blocking.lsh.MinHashLSH`), trading a bounded amount of
  recall for much larger reductions.

Every blocker answers three questions:

1. :meth:`Blocker.probe_tokens` -- which query tokens are worth probing in the
   inverted index at all (prefix filtering shrinks this set);
2. :meth:`Blocker.prune` -- which of the candidates produced by the index can
   still reach the threshold (length filtering and LSH shrink this set);
   :meth:`Blocker.prune_array` is its twin over an ``int64`` tid array, for
   the blockers whose pruning is array arithmetic (:attr:`prunes_arrays`:
   the exact filters and pipelines made only of them);
3. :meth:`Blocker.partners` -- for similarity *self-joins*, which tuples of
   the indexed relation may pair with a given tuple (used by
   :meth:`repro.core.join.ApproximateJoiner.self_join` to probe only within
   blocks and to skip singleton blocks entirely).

A blocker is fitted from a :class:`~repro.core.corpus.CorpusCore`
(:meth:`Blocker.fit_core`): a predicate hands it the core it is itself
fitted over, so token sets, document frequencies and sizes are read, not
recounted, and the core it was fitted from (:attr:`Blocker.fitted_core`)
tells a host whether re-attaching it needs a fit at all.

:class:`BlockingStats` counts candidates before and after pruning so
pipelines and benchmarks can report the achieved reduction; the engine
publishes the ``after - before`` delta of each operation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Set

from repro.core.corpus import CorpusCore
from repro.obs.metrics import CounterRecord, counter_field
from repro.text.tokenize import QgramTokenizer, Tokenizer

__all__ = ["BlockingStats", "Blocker"]


@dataclass
class BlockingStats(CounterRecord):
    """Candidate-reduction counters accumulated across queries.

    ``candidates_in`` counts candidates handed to :meth:`Blocker.prune`;
    ``candidates_out`` counts the survivors.  One "candidate" is one
    (query, tuple) pair that would otherwise be scored.
    """

    describe_format = (
        "{0.candidates_in} -> {0.candidates_out} candidates ({0.pruned} pruned, "
        "reduction {0.reduction_ratio:.1f}x)"
    )

    probes: int = counter_field("blocker_probes")
    candidates_in: int = counter_field("blocker_candidates_in")
    candidates_out: int = counter_field("blocker_candidates_out")

    def record(self, before: int, after: int) -> None:
        self.probes += 1
        self.candidates_in += before
        self.candidates_out += after

    @property
    def pruned(self) -> int:
        """Number of candidates eliminated by the blocker."""
        return self.candidates_in - self.candidates_out

    @property
    def reduction_ratio(self) -> float:
        """``candidates_in / candidates_out`` (``inf`` if everything pruned)."""
        if self.candidates_out == 0:
            return float("inf") if self.candidates_in else 1.0
        return self.candidates_in / self.candidates_out

    def reset(self) -> None:
        self.probes = 0
        self.candidates_in = 0
        self.candidates_out = 0


class Blocker(ABC):
    """Base class of all candidate blockers.

    Parameters
    ----------
    tokenizer:
        Tokenizer used by :meth:`fit_strings` and when a predicate without its
        own token lists hosts the blocker.  Defaults to the paper's 2-gram
        tokenizer so blockers agree with the default predicate tokenization.

    Subclasses implement :meth:`_fit` (and usually override one or more of
    :meth:`probe_tokens`, :meth:`_prune`, :meth:`partners`, :meth:`blocks`).
    The default implementations are conservative no-ops, so a blocker only
    has to override the hooks it can actually accelerate.  A blocker that
    also answers :meth:`_prune_array` sets :attr:`prunes_arrays`.
    """

    #: Registry name of the blocker (used by CLI flags and reports).
    name: str = "blocker"
    #: ``True`` when pruning is lossless: the blocker never drops a candidate
    #: whose similarity can reach the threshold it was configured with.
    exact: bool = True
    #: Similarity semantics the exactness guarantee is stated for: ``"any"``
    #: (threshold-independent, e.g. LSH) or ``"jaccard"`` (bounds derived
    #: from a Jaccard-style overlap fraction).  Attaching a ``"jaccard"``
    #: blocker to a predicate with different score semantics turns it into a
    #: heuristic and triggers a warning.
    semantics: str = "any"
    #: ``True`` when :meth:`prune_array` prunes exactly as :meth:`prune` does,
    #: so the numpy scans may narrow their result with it instead of building
    #: the candidate set (see :meth:`repro.core.index.InvertedIndex.candidate_mask`).
    prunes_arrays: bool = False

    def __init__(self, tokenizer: Optional[Tokenizer] = None):
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self.stats = BlockingStats()
        self._num_tuples = 0
        self._fitted = False
        self._core: Optional[CorpusCore] = None

    # -- preprocessing --------------------------------------------------------

    def fit(self, token_lists: Sequence[Sequence[str]]) -> "Blocker":
        """Index the base relation's token lists for pruning (a private
        :class:`~repro.core.corpus.CorpusCore` over them, see :meth:`fit_core`)."""
        return self.fit_core(CorpusCore.of_token_lists(token_lists, self.tokenizer))

    def fit_strings(self, strings: Sequence[str]) -> "Blocker":
        """Convenience: tokenize ``strings`` with :attr:`tokenizer` and fit."""
        return self.fit(self.tokenizer.tokenize_many(list(strings)))

    def fit_core(self, core: CorpusCore) -> "Blocker":
        """Index the relation of ``core`` for pruning.

        Predicates hosting a blocker hand it the core they are fitted over
        (or one under the blocker's tokenizer), so that blocker and predicate
        agree on tokenization -- required for the exact filters to be exact.
        The core's parts are read (built on first use, as for any fit), never
        changed, and the core is kept as :attr:`fitted_core`.
        What a fit builds depends on the core alone, so a blocker already
        fitted from this very core is left as it is, statistics included:
        re-attaching it (another threshold's plan, a blocked query after an
        unblocked one) costs no fit.
        """
        if core is self._core:
            return self
        self._num_tuples = len(core)
        self.stats.reset()
        self._fit(core)
        self._core = core
        self._fitted = True
        return self

    @abstractmethod
    def _fit(self, core: CorpusCore) -> None:
        """Build the blocker's internal structures from ``core``."""

    @property
    def fitted_core(self) -> Optional[CorpusCore]:
        """The core the last fit read (``None`` before any)."""
        return self._core

    # -- query-time hooks -----------------------------------------------------

    def probe_tokens(self, query_tokens: Set[str]) -> Set[str]:
        """Subset of ``query_tokens`` that must be probed in the index.

        The default probes everything; prefix filtering returns only the
        rarest tokens that can still witness a threshold-reaching match.
        """
        return query_tokens

    def prune(self, query_tokens: Set[str], candidates: Set[int]) -> Set[int]:
        """Drop candidates that cannot (or are unlikely to) reach the threshold.

        Wraps :meth:`_prune` with statistics bookkeeping.
        """
        self._require_fitted()
        before = len(candidates)
        survivors = self._prune(query_tokens, candidates)
        self.stats.record(before, len(survivors))
        return survivors

    def _prune(self, query_tokens: Set[str], candidates: Set[int]) -> Set[int]:
        return candidates

    def prune_array(self, query_tokens: Set[str], tids, index):
        """:meth:`prune` over arrays: the survivors among ``tids``.

        ``tids`` is an ascending ``int64`` array of distinct candidate tids;
        the result is the (ascending) survivors, exactly the set :meth:`prune`
        keeps, and the same :class:`BlockingStats` are recorded.  ``index`` is
        the host's :class:`~repro.core.index.InvertedIndex`, its posting
        arrays built.  Only meaningful when :attr:`prunes_arrays` is set.
        """
        self._require_fitted()
        survivors = self._prune_array(query_tokens, tids, index)
        self.stats.record(int(tids.size), int(survivors.size))
        return survivors

    def _prune_array(self, query_tokens: Set[str], tids, index):
        return tids

    def partners(self, tid: int) -> Optional[Set[int]]:
        """Tuples that may pair with ``tid`` in a self-join (incl. ``tid``).

        ``None`` means the blocker places no restriction.  A result of
        ``{tid}`` marks a *singleton block*: the self-join skips probing the
        tuple altogether.
        """
        return None

    def supports_threshold(self, threshold: float) -> bool:
        """Whether pruning stays lossless at the given selection threshold.

        Exact blockers derive their bounds from a configured threshold; a
        selection run at a *lower* threshold could match pairs the blocker
        prunes.  Threshold-independent blockers always return ``True``.
        """
        return True

    def blocks(self) -> Optional[List[List[int]]]:
        """Explicit block structure (groups of mutually comparable tuples).

        ``None`` when the blocker has no materialized block structure (the
        pairwise :meth:`partners` view is then the only interface).
        """
        return None

    # -- introspection --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    def reset_stats(self) -> None:
        self.stats.reset()

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fit() on the base relation first"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({status}, n={self._num_tuples})"
