"""Base class and shared types for similarity predicates.

Every predicate follows the same life cycle that the paper's declarative
framework imposes:

1. *Preprocessing* -- :meth:`Predicate.fit` binds the tokenized base
   relation (a :class:`~repro.core.corpus.CorpusCore`: token lists, inverted
   index, collection statistics -- shared with every other predicate fitted
   over the same core, or built privately) and derives whatever weights the
   predicate itself needs from it.  The two phases (:meth:`tokenize_phase`
   and :meth:`weight_phase`) are exposed separately so the timing harness can
   reproduce Figure 5.2, which reports them individually.
2. *Query time* -- :meth:`Predicate.rank` returns every candidate tuple with
   a positive similarity to the query, ordered by decreasing score (this is
   the unpruned ranking the accuracy metrics are computed over);
   :meth:`Predicate.select` applies a similarity threshold, which is the
   approximate selection operation proper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.blocking.host import BlockingHost
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex, WeightedPostingIndex
from repro.obs.clock import perf_clock

__all__ = ["Match", "Predicate"]


@dataclass(frozen=True)
class Match:
    """One result of an approximate selection, join probe or engine query.

    The single result type shared by every realization: ``tid`` is the
    position of the matched tuple in the base relation, ``score`` its
    similarity to the query and ``string`` the matched text itself.
    Predicates score tuples without materializing their text, so results
    produced below the engine layer carry ``string=None``; the engine fills
    it in before handing results to callers.  ``tid, score = match``
    unpacks the pair.
    """

    tid: int
    score: float
    string: Optional[str] = None

    def __post_init__(self):
        # Fail loudly on Match(tid, text, score) rather than carry the text
        # as a score.
        if isinstance(self.score, str):
            raise TypeError(
                "Match fields are (tid, score, string); pass the matched "
                "text third or by keyword"
            )

    def __iter__(self):
        """Allow ``tid, score = match`` unpacking."""
        yield self.tid
        yield self.score

    def with_string(self, string: str) -> "Match":
        """A copy of this match carrying the matched text."""
        return Match(self.tid, self.score, string)


class Predicate(BlockingHost, ABC):
    """Abstract base class of all similarity predicates.

    The blocking contract (``set_blocker``, ``restrict_candidates``, the
    post-scoring allowance) is :class:`~repro.blocking.host.BlockingHost`'s;
    the overlap and edit families override its hooks to share their own
    core with blockers and prune before scoring.
    """

    #: Human-readable predicate name used in reports and benchmarks.
    name: str = "predicate"
    #: The paper's class for this predicate (overlap / aggregate-weighted /
    #: language-modeling / edit-based / combination).
    family: str = "unspecified"
    #: Subclasses that apply the blocker *before* scoring (inside
    #: :meth:`_scores`) set this to ``True`` so :meth:`rank` does not filter
    #: (and count) the candidates a second time.
    _prunes_before_scoring: bool = False
    #: Score semantics relevant to exact blocking: ``"jaccard"`` for scores
    #: bounded by the Jaccard overlap fraction (length/prefix filters stay
    #: exact), ``"score"`` otherwise (those filters become heuristics).
    similarity_kind: str = "score"
    #: Predicates that score through :mod:`repro.core.kernels` (and so follow
    #: the numpy -> scalar backend selection) set this to ``True``.
    uses_kernels: bool = False
    #: Kernelised predicates whose numpy scan returns log scores with a
    #: deferred finalizer (:func:`repro.core.kernels.exp_scores`) set this.
    finalizes_selected: bool = False
    #: Vestige, never set: ``benchmarks/ledger/layers.py`` reads it after each
    #: ``top_k`` call; retires with that row in the next ``[benchmark]`` PR.
    pruning_stats = None

    def __init__(self) -> None:
        super().__init__()
        self._strings: List[str] = []
        self._fitted = False
        #: The corpus core this predicate is fitted over -- the one fit seam.
        #: Shared by reference when :meth:`fit` was handed one (the engine's
        #: per-(corpus, tokenizer) core, or a sharded parent's
        #: ``core.slice(a, b)``, whose statistics answer collection-level
        #: questions from the whole relation); otherwise built privately by
        #: :meth:`tokenize_phase`.  Read-only either way.
        self._core: Optional[CorpusCore] = None
        #: Bound from the core by the default :meth:`tokenize_phase`.
        self._token_lists: List[List[str]] = []
        self._index: Optional[InvertedIndex] = None
        #: The weighted postings a kernelised weighted predicate's
        #: :meth:`weight_phase` derives -- per token ``(tids, contributions)``
        #: arrays with numpy, ``(tid, contribution)`` lists without (``None``
        #: for every other predicate).
        self._weighted_index: Optional[WeightedPostingIndex] = None
        #: Seconds the last :meth:`fit` spent inside :meth:`weight_phase`.
        self.weight_seconds = 0.0
        #: Number of candidates scored by the most recent :meth:`rank` /
        #: :meth:`select` call (after blocking); joins aggregate this into
        #: their candidate-pair statistics.
        self.last_num_candidates: Optional[int] = None

    # -- preprocessing --------------------------------------------------------

    def fit(
        self,
        strings: Sequence[str],
        core: Optional[CorpusCore] = None,
        token_lists: Optional[Sequence[Sequence[str]]] = None,
    ) -> "Predicate":
        """Preprocess the base relation (tokenization + weights).

        ``core`` is the :class:`~repro.core.corpus.CorpusCore` of ``strings``
        under this predicate's tokenizer, when the caller holds one: the
        engine keeps one per (corpus, tokenizer) and sharded execution hands
        each shard a slice of the whole relation's, so a relation is
        tokenized, counted and indexed once however many predicates are
        fitted on it.  The predicate reads the core and derives only its own
        weights.  Without one, a private core is built from ``strings`` --
        ``predicate.fit(strings)`` needs nothing else.  ``token_lists`` is
        sugar for a private core over lists the caller already tokenized
        (trusted to be this tokenizer's output; copied).

        A core or token lists of another length than ``strings``, or a core
        built with another tokenizer, raise :class:`ValueError`: a mismatched
        seam is refused, not fitted.

        Returns ``self`` so that ``predicate = BM25().fit(strings)`` reads
        naturally.
        """
        self._bind(strings, core, token_lists)
        self.tokenize_phase()
        started = perf_clock()
        self.weight_phase()
        self.weight_seconds = perf_clock() - started
        self._fitted = True
        self._fit_blocker()
        return self

    def _bind(
        self,
        strings: Sequence[str],
        core: Optional[CorpusCore] = None,
        token_lists: Optional[Sequence[Sequence[str]]] = None,
    ) -> None:
        """Bind the relation, and the core to fit it over, ahead of the phases.

        ``fit`` is this plus the two phases; the timing harness calls the
        three steps itself to time the phases apart.
        """
        strings = list(strings)
        if token_lists is not None:
            if core is not None:
                raise ValueError("pass either core or token_lists, not both")
            core = CorpusCore(strings, self.tokenizer, token_lists=token_lists)
        elif core is not None:
            core.check_covers(strings, self.tokenizer)
        self._strings = strings
        self._core = core
        self._blocker_tokens = None

    def _bound_core(self) -> CorpusCore:
        """The core of the bound relation, built privately if none was given."""
        if self._core is None:
            self._core = CorpusCore(self._strings, self.tokenizer)
        return self._core

    def tokenize_phase(self) -> None:
        """Phase 1 of preprocessing: the tokenized, indexed base relation.

        Binds the token lists and the inverted index from the corpus core;
        a kernelised predicate also has the index hold its postings as
        arrays (once per core), which the count scan reads and every
        weighted fit derives its contributions from.  A predicate whose
        scans read the index's ``(tid, tf)`` lists -- every predicate without
        numpy, and the non-kernelised (edit) family -- has the index derive
        them here, inside the fit; on numpy a kernelised fit leaves them
        unbuilt until a scalar read asks.  A predicate that was
        handed no core builds its private one here, so standalone fits pay
        tokenization in this phase; over a shared core whose parts already
        exist the phase is a few attribute reads.
        """
        core = self._bound_core()
        self._token_lists = core.token_lists
        self._index = core.index
        if self.uses_kernels:
            core.build_index_arrays()
        if not self.uses_kernels or kernels.np is None:
            core.build_posting_lists()

    @abstractmethod
    def weight_phase(self) -> None:
        """Phase 2 of preprocessing: derive this predicate's own weights
        (collection statistics come from ``self._core.stats``)."""

    # -- query time -----------------------------------------------------------

    @abstractmethod
    def _scores(self, query: str) -> Dict[int, float]:
        """Similarity score for every candidate tuple (tuples sharing tokens)."""

    def _candidate_scores(self, query: str) -> Dict[int, float]:
        """Post-blocking candidate scores; records ``last_num_candidates``."""
        scores = self._scores(query)
        if not self._prunes_before_scoring:
            allowed = self._allowed_after_scoring(query, scores)
            if allowed is not None:
                scores = {tid: score for tid, score in scores.items() if tid in allowed}
        self.last_num_candidates = len(scores)
        return scores

    def rank(self, query: str, limit: Optional[int] = None) -> List[Match]:
        """Tuples ranked by decreasing similarity to ``query``.

        Only candidate tuples (those with a non-trivial score) are returned;
        ties are broken by tuple id so rankings are deterministic.  With a
        blocker attached (see :meth:`set_blocker`), only candidates that
        survive blocking are ranked.  With ``limit``, a top-``limit``
        selection replaces the full sort (``O(n log k)`` instead of
        ``O(n log n)`` scalar; a vectorized partition under the numpy
        kernel backend) -- both orderings are exact.
        """
        self._require_fitted()
        if limit is not None and limit <= 0:
            # Nothing can be returned, so nothing is scored.
            self.last_num_candidates = 0
            return []
        scores = self._candidate_scores(query)
        if limit is not None:
            top = kernels.top_items(scores, limit)
        else:
            top = kernels.sorted_items(scores)
        return [Match(tid, score) for tid, score in top]

    @classmethod
    def top_k_algorithm(cls) -> str:
        """Which algorithm answers :meth:`top_k` right now.

        The one place that maps the active kernel backend to an algorithm;
        ``plan()`` / ``explain()`` only word the answer.

        * ``"dense-scan"`` -- ``rank(limit=k)`` through the numpy kernels:
          dense accumulation plus a partition selection;
          ``"dense-scan, finalize k"`` for a predicate whose scan ends in log
          scores (:attr:`finalizes_selected`), selected before ``exp`` runs
          on the winners only.
        * ``"heap"`` -- ``rank(limit=k)`` through the scalar accumulation
          plus a bounded heap.
        """
        if cls.uses_kernels and kernels.active_backend() == "numpy":
            return "dense-scan, finalize k" if cls.finalizes_selected else "dense-scan"
        return "heap"

    def top_k(self, query: str, k: int) -> List[Match]:
        """The ``k`` most similar tuples: ``rank(query, limit=k)``."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.rank(query, limit=k)

    def select(self, query: str, threshold: float) -> List[Match]:
        """The approximate selection: tuples with ``sim(query, t) >= threshold``.

        Candidates are filtered *before* sorting, so the sort pays for the
        survivors only -- on selective thresholds that is a handful of tuples
        out of thousands of candidates.
        """
        self._require_fitted()
        self._check_blocker_threshold(threshold)
        scores = self._candidate_scores(query)
        return [
            Match(tid, score)
            for tid, score in kernels.select_items(scores, threshold)
        ]

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and tuple ``tid`` (0.0 if not a candidate).

        Sees the candidates :meth:`rank` sees: under a blocker or a
        restriction it is ``dict(rank(query)).get(tid, 0.0)``.  Predicates
        implementing :meth:`_score_one` answer a plain call from the single
        tuple's stored state instead of scoring the whole candidate set.
        """
        self._require_fitted()
        if self._blocker is None and self._restriction is None:
            single = self._score_one(query, tid)
            if single is not None:
                return single
        return self._candidate_scores(query).get(tid, 0.0)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        """Single-tuple score fast path; ``None`` = fall back to :meth:`_scores`.

        Implementations must reproduce ``_scores(query).get(tid, 0.0)``
        exactly, including candidate-membership semantics (a tuple sharing no
        token with the query scores 0.0 even if a direct string comparison
        would not).
        """
        return None

    # -- introspection --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def weights_summary(self) -> Dict[str, object]:
        """What the last fit derived into the weighted postings, what it
        cost, and whether the scalar view of them has been derived since
        (the engine's ``fit`` span and ``explain()`` report it); empty for a
        predicate that builds no weighted posting index."""
        weighted = self._weighted_index
        if weighted is None:
            return {}
        return {
            "weighted_postings": weighted.num_postings,
            "zero_dropped": weighted.zero_dropped,
            "weights_s": self.weight_seconds,
            "scalar_view": weighted.describe_scalar_view(),
        }

    @property
    def base_strings(self) -> List[str]:
        return list(self._strings)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fit() on a base relation before querying"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({status}, n={len(self._strings)})"
