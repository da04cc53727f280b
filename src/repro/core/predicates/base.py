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

Every predicate host -- a direct :class:`Predicate`, a
:class:`~repro.shard.predicate.ShardedPredicate` and a
:class:`~repro.declarative.base.DeclarativePredicate` -- implements each
operation once, as ordered ``(tid, score)`` pairs (:class:`PairHost`'s
``*_pairs`` methods).  The engine reads the pairs and builds each result
:class:`Match` once, with its string; the public ``rank`` / ``top_k`` /
``select`` / ``run_many`` are one shared wrapper each, for direct callers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blocking.host import BlockingHost
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex, WeightedPostingIndex
from repro.obs.clock import perf_clock

__all__ = [
    "Match",
    "Pair",
    "PairHost",
    "Predicate",
    "check_batch_op",
    "rank_key",
    "run_op",
]


@dataclass(frozen=True)
class Match:
    """One result of an approximate selection, join probe or engine query.

    The single result type shared by every realization: ``tid`` is the
    position of the matched tuple in the base relation, ``score`` its
    similarity to the query and ``string`` the matched text itself.
    Below the engine no ``Match`` is built: every predicate host hands up
    ordered ``(tid, score)`` pairs, and the engine builds each returned row
    once, with its string attached.  A host's public ``rank`` / ``top_k`` /
    ``select`` / ``run_many`` wrap the same pairs as ``Match(tid, score)``
    with ``string=None``.  ``tid, score = match`` unpacks the pair.
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


#: One result row below the engine: ``(tid, score)``.
Pair = Tuple[int, float]


def rank_key(pair: Pair) -> Tuple[float, int]:
    """Sort key of the canonical result order: score desc, tid asc."""
    return -pair[1], pair[0]


def run_op(host: "PairHost", op: str, query: str, params: dict) -> List[Pair]:
    """One query of one operation as ``host``'s ordered pairs.

    The one ``(op, params)`` vocabulary of every batch (``run_many``) and of
    shard task payloads: ``params`` carries ``limit`` for ``"rank"``, ``k``
    for ``"top_k"`` and ``threshold`` for ``"select"``.
    """
    if op == "rank":
        return host.rank_pairs(query, params.get("limit"))
    if op == "top_k":
        return host.top_k_pairs(query, params["k"])
    if op == "select":
        return host.select_pairs(query, params["threshold"])
    raise ValueError(f"unknown batch op {op!r}; expected 'rank', 'top_k' or 'select'")


def check_batch_op(op: str, k: Optional[int], threshold: Optional[float]) -> None:
    """Refuse a ``run_many`` operation without the parameter it needs."""
    if op == "top_k":
        if k is None or k < 0:
            raise ValueError("op='top_k' requires a non-negative k")
    elif op == "select":
        if threshold is None:
            raise ValueError("op='select' requires a threshold")
    elif op != "rank":
        raise ValueError(
            f"unknown batch op {op!r}; expected 'rank', 'top_k' or 'select'"
        )


def _matches(pairs: Sequence[Pair]) -> List[Match]:
    return [Match(tid, score) for tid, score in pairs]


class PairHost:
    """Answers as ordered ``(tid, score)`` pairs, and the public wrappers.

    A host implements :meth:`rank_pairs` and :meth:`select_pairs` (and
    overrides :meth:`top_k_pairs` / :meth:`run_many_pairs` where it answers
    those in its own way).  Pairs come ordered by score desc, tid asc, the
    order of :mod:`repro.core.kernels`.  The engine reads the pairs; the
    public methods below wrap them as ``Match(tid, score)`` (``string=None``)
    for direct callers.  A subclass changes an operation by overriding its
    ``*_pairs`` method; one that overrides a public method instead is read
    through that method by the engine
    (:func:`repro.engine.protocol.pair_host`).
    """

    #: Number of candidates scored by the most recent single query.
    last_num_candidates: Optional[int] = None
    #: Per-query candidate counts of the most recent :meth:`run_many_pairs`.
    last_batch_candidates: Optional[List[Optional[int]]] = None

    def rank_pairs(self, query: str, limit: Optional[int] = None) -> List[Pair]:
        """Candidates by decreasing score (the first ``limit`` of them)."""
        raise NotImplementedError

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Candidates with ``score >= threshold``, by decreasing score."""
        raise NotImplementedError

    def top_k_pairs(self, query: str, k: int) -> List[Pair]:
        """The ``k`` most similar tuples: ``rank_pairs(query, k)``."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.rank_pairs(query, k)

    def run_many_pairs(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Pair]]:
        """One :func:`run_op` per query.  Per-query candidate counts land in
        :attr:`last_batch_candidates`; :attr:`last_num_candidates` is reset
        to ``None`` (no single query's count describes a batch)."""
        check_batch_op(op, k, threshold)
        params = {"k": k, "threshold": threshold, "limit": limit}
        answers: List[List[Pair]] = []
        counts: List[Optional[int]] = []
        for query in queries:
            answers.append(run_op(self, op, query, params))
            counts.append(self.last_num_candidates)
        self.last_batch_candidates = counts
        self.last_num_candidates = None
        return answers

    def rank(self, query: str, limit: Optional[int] = None) -> List[Match]:
        """Tuples ranked by decreasing similarity (see :meth:`rank_pairs`)."""
        return _matches(self.rank_pairs(query, limit))

    def top_k(self, query: str, k: int) -> List[Match]:
        """The ``k`` most similar tuples (see :meth:`top_k_pairs`)."""
        return _matches(self.top_k_pairs(query, k))

    def select(self, query: str, threshold: float) -> List[Match]:
        """Tuples with ``sim(query, t) >= threshold`` (see :meth:`select_pairs`)."""
        return _matches(self.select_pairs(query, threshold))

    def run_many(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Match]]:
        """A query workload (see :meth:`run_many_pairs`)."""
        return [
            _matches(pairs)
            for pairs in self.run_many_pairs(
                queries, op=op, k=k, threshold=threshold, limit=limit
            )
        ]


class Predicate(PairHost, BlockingHost, ABC):
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
    #: Predicates that score through :mod:`repro.core.kernels` (and so fit
    #: the index's posting arrays) set this to ``True``.
    uses_kernels: bool = False
    #: Kernelised predicates whose scan returns log scores with a
    #: deferred finalizer (:class:`repro.core.kernels.Scores` ``logs``) set this.
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
        #: arrays (``None`` for every other predicate).
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
        the index holds its postings as arrays from construction (once per
        core), which the count scan reads and every weighted fit derives
        its contributions from.  A predicate whose scans read the index's
        ``(tid, tf)`` lists -- the non-kernelised families -- has the index
        derive them here, inside the fit; a kernelised fit leaves them
        unbuilt.  A predicate that was handed no core builds its private
        one here, so standalone fits pay tokenization in this phase; over a
        shared core whose parts already exist the phase is a few attribute
        reads.
        """
        core = self._bound_core()
        self._token_lists = core.token_lists
        self._index = core.index
        if not self.uses_kernels:
            core.build_posting_lists()

    @abstractmethod
    def weight_phase(self) -> None:
        """Phase 2 of preprocessing: derive this predicate's own weights
        (collection statistics come from ``self._core.stats``)."""

    # -- query time -----------------------------------------------------------

    @abstractmethod
    def _scores(self, query: str) -> kernels.Scores:
        """Similarity score for every candidate tuple (tuples sharing tokens)."""

    def _candidate_scores(self, query: str) -> kernels.Scores:
        """Post-blocking candidate scores; records ``last_num_candidates``.

        A predicate that scores first keeps the candidates the post-scoring
        allowance lets through: one mask over the scores' arrays.  With no
        blocker attached the restriction itself is the mask; a blocker's
        prune reads the scored tids as a set.
        """
        scores = self._scores(query)
        if not self._prunes_before_scoring:
            allowed = self._restriction
            if self._blocker is not None:
                allowed = self._allowed_after_scoring(query, scores.tids.tolist())
            if allowed is not None:
                scores = scores.narrow(
                    kernels.allowed_mask(scores.tids, allowed, len(self._strings))
                )
        self.last_num_candidates = len(scores)
        return scores

    def rank_pairs(self, query: str, limit: Optional[int] = None) -> List[Pair]:
        """Tuples ranked by decreasing similarity to ``query``.

        Only candidate tuples (those with a non-trivial score) are returned;
        ties are broken by tuple id so rankings are deterministic.  With a
        blocker attached (see :meth:`set_blocker`), only candidates that
        survive blocking are ranked.  With ``limit``, a top-``limit``
        selection (a partition over the scores' arrays) replaces the full
        sort -- both orderings are exact.
        """
        self._require_fitted()
        if limit is not None and limit <= 0:
            # Nothing can be returned, so nothing is scored.
            self.last_num_candidates = 0
            return []
        scores = self._candidate_scores(query)
        if limit is not None:
            return kernels.top_items(scores, limit)
        return kernels.sorted_items(scores)

    @classmethod
    def top_k_algorithm(cls) -> str:
        """Which algorithm answers :meth:`top_k` right now.

        The one place that maps a predicate to an algorithm; ``plan()`` /
        ``explain()`` only word the answer.

        * ``"dense-scan"`` -- ``rank(limit=k)`` through the kernels: dense
          accumulation plus a partition selection; ``"dense-scan, finalize
          k"`` for a predicate whose scan ends in log scores
          (:attr:`finalizes_selected`), selected before ``exp`` runs on the
          winners only.
        * ``"per-tuple"`` -- ``rank(limit=k)`` over the scores the
          predicate computes tuple by tuple (the edit and combination
          families), then the same partition selection.
        """
        if cls.uses_kernels:
            return "dense-scan, finalize k" if cls.finalizes_selected else "dense-scan"
        return "per-tuple"

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """The approximate selection: tuples with ``sim(query, t) >= threshold``.

        Candidates are filtered *before* sorting, so the sort pays for the
        survivors only -- on selective thresholds that is a handful of tuples
        out of thousands of candidates.
        """
        self._require_fitted()
        self._check_blocker_threshold(threshold)
        return kernels.select_items(self._candidate_scores(query), threshold)

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and tuple ``tid`` (0.0 if not a candidate).

        Sees the candidates :meth:`rank` sees: under a blocker or a
        restriction it is ``dict(rank(query)).get(tid, 0.0)``, looked up in
        the candidate scores' tid array.  Predicates implementing
        :meth:`_score_one` answer a plain call from the single tuple's
        stored state instead of scoring the whole candidate set.
        """
        self._require_fitted()
        if self._blocker is None and self._restriction is None:
            single = self._score_one(query, tid)
            if single is not None:
                return single
        return self._candidate_scores(query).score(tid)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        """Single-tuple score fast path; ``None`` = fall back to :meth:`_scores`.

        Implementations must reproduce ``_scores(query).score(tid)``
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
        """What the last fit derived into the weighted postings and what it
        cost (the engine's ``fit`` span and ``explain()`` report it); empty
        for a predicate that builds no weighted posting index."""
        weighted = self._weighted_index
        if weighted is None:
            return {}
        return {
            "weighted_postings": weighted.num_postings,
            "zero_dropped": weighted.zero_dropped,
            "weights_s": self.weight_seconds,
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
