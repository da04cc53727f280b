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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set

from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex, WeightedPostingIndex
from repro.obs.clock import perf_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

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


class Predicate(ABC):
    """Abstract base class of all similarity predicates."""

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
        self._blocker: Optional["Blocker"] = None
        #: The core of the relation under an attached blocker's tokenizer,
        #: for predicates that do not share their own (see
        #: :meth:`_blocker_core`); dropped by every fit.
        self._blocker_tokens: Optional[CorpusCore] = None
        self._restriction: Optional[Set[int]] = None
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
        if self._blocker is not None:
            self._fit_blocker(self._blocker)
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
        weighted fit derives its contributions from.  A predicate that was
        handed no core builds its private one here, so standalone fits pay
        tokenization in this phase; over a shared core whose parts already
        exist the phase is a few attribute reads.
        """
        core = self._bound_core()
        self._token_lists = core.token_lists
        self._index = core.index
        if self.uses_kernels:
            core.build_index_arrays()

    @abstractmethod
    def weight_phase(self) -> None:
        """Phase 2 of preprocessing: derive this predicate's own weights
        (collection statistics come from ``self._core.stats``)."""

    # -- blocking -------------------------------------------------------------

    @property
    def blocker(self) -> Optional["Blocker"]:
        """The candidate blocker attached to this predicate (``None`` = off)."""
        return self._blocker

    def set_blocker(self, blocker: Optional["Blocker"]) -> "Predicate":
        """Attach a :class:`repro.blocking.Blocker` for candidate pruning.

        The blocker is fitted on this predicate's base relation -- from the
        predicate's own corpus core where it shares one -- so that blocker
        and predicate agree on tokenization; a blocker already fitted from
        that core is attached as it is.  Pass ``None`` to detach.

        Attaching a Jaccard-derived exact filter (length/prefix) to a
        predicate with different score semantics (e.g. BM25) demotes it to a
        heuristic: candidates whose *score* clears the threshold may still be
        pruned.  A :class:`UserWarning` is emitted in that case.

        A blocker narrows *every* subsequent query: :meth:`select` stays
        exact at (or above) the blocker's threshold and refuses lower ones,
        while :meth:`rank` / :meth:`score` only see candidates that survive
        blocking -- ranked retrieval under a threshold-derived blocker is
        deliberately restricted to threshold-reachable candidates.  Detach
        the blocker for full unpruned rankings.
        """
        if (
            blocker is not None
            and getattr(blocker, "semantics", "any") == "jaccard"
            and self.similarity_kind != "jaccard"
        ):
            import warnings

            warnings.warn(
                f"{type(blocker).__name__} derives its bounds from Jaccard "
                f"semantics; with the {self.name} predicate it is a heuristic "
                "and may drop candidates whose score reaches the threshold",
                UserWarning,
                stacklevel=2,
            )
        self._blocker = blocker
        if blocker is not None and self._fitted:
            self._fit_blocker(blocker)
        return self

    def _fit_blocker(self, blocker: "Blocker") -> None:
        blocker.fit_core(self._blocker_core(blocker))

    def _blocker_core(self, blocker: "Blocker") -> CorpusCore:
        """The corpus core the blocker is fitted from.

        Token-based predicates override this to share their own core (same
        tokenizer, same token lists); the default is a core of the base
        strings under the blocker's tokenizer, built once per fit.
        """
        self._blocker_tokens = CorpusCore.under(
            self._blocker_tokens, self._strings, blocker.tokenizer
        )
        return self._blocker_tokens

    def _blocker_query_tokens(self, query: str, blocker: "Blocker") -> Set[str]:
        """Query-side tokens handed to the blocker (same source as the corpus)."""
        return set(blocker.tokenizer.tokenize(query))

    @contextmanager
    def restrict_candidates(self, allowed: Optional[Set[int]]) -> Iterator[None]:
        """Scope queries to the given tuple ids (used by blocked self-joins)."""
        previous = self._restriction
        self._restriction = allowed
        try:
            yield
        finally:
            self._restriction = previous

    def _generic_allowed(self, query: str, scores: Dict[int, float]) -> Optional[Set[int]]:
        """Post-scoring candidate allowance for predicates without index pruning."""
        blocker, restriction = self._blocker, self._restriction
        if blocker is None and restriction is None:
            return None
        allowed = set(scores)
        if restriction is not None:
            allowed &= restriction
        if blocker is not None:
            allowed = blocker.prune(self._blocker_query_tokens(query, blocker), allowed)
        return allowed

    # -- query time -----------------------------------------------------------

    @abstractmethod
    def _scores(self, query: str) -> Dict[int, float]:
        """Similarity score for every candidate tuple (tuples sharing tokens)."""

    def _candidate_scores(self, query: str) -> Dict[int, float]:
        """Post-blocking candidate scores; records ``last_num_candidates``."""
        scores = self._scores(query)
        if not self._prunes_before_scoring:
            allowed = self._generic_allowed(query, scores)
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

    def _check_blocker_threshold(self, threshold: float) -> None:
        """Refuse selections below the threshold an exact blocker was built for.

        An exact blocker prunes everything that cannot reach *its* configured
        threshold; selecting at a lower one would silently lose true matches.
        """
        if self._blocker is not None and not self._blocker.supports_threshold(threshold):
            raise ValueError(
                f"selection threshold {threshold} is below the threshold the "
                f"attached {self._blocker.name!r} blocker was built for; "
                "rebuild the blocker with the lower threshold"
            )

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and tuple ``tid`` (0.0 if not a candidate).

        Predicates implementing :meth:`_score_one` answer from the single
        tuple's stored state instead of scoring the whole candidate set; the
        fallback (and any blocked/restricted call, whose candidate semantics
        the full path defines) scores every candidate.
        """
        self._require_fitted()
        if self._blocker is None and self._restriction is None:
            single = self._score_one(query, tid)
            if single is not None:
                return single
        return self._scores(query).get(tid, 0.0)

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
