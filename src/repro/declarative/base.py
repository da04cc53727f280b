"""Base class of the declarative predicate realizations."""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.backends.memory import MemoryBackend
from repro.blocking.host import BlockingHost
from repro.core.predicates.base import Pair, PairHost, check_batch_op, rank_key
from repro.declarative import shared as shared_tables
from repro.declarative import tokens as token_tables
from repro.obs.metrics import CounterRecord, counter_field
from repro.text.tokenize import QgramTokenizer, Tokenizer

__all__ = ["DeclarativePredicate", "SQLStats"]


@dataclass
class SQLStats(CounterRecord):
    """Work counters of the most recent declarative query execution.

    How many candidate rows the SQL returned versus the base-relation size,
    and which plan steps the statement used (``"batch"``,
    ``"order-by-limit"``, ``"length-filter"``, ``"prefix-filter"``; each
    publishes one ``sql_plan.<step>`` event).
    """

    rows_scored: int = counter_field("sql_rows_scored", span="sql_rows")
    base_size: int = counter_field(None, span="base_size")
    plan: Tuple[str, ...] = counter_field("sql_plan.{}", default=())


class DeclarativePredicate(PairHost, BlockingHost, ABC):
    """A similarity predicate realized as SQL over a :class:`SQLBackend`.

    Life cycle (mirroring chapter 4 of the paper):

    1. :meth:`preprocess` -- acquire the backend's *shared core* for the base
       relation (``BASE_TABLE``, ``BASE_TOKENS`` and the predicate-independent
       statistics tables, materialized once per (backend, relation, tokenizer)
       and reused across predicates -- see :mod:`repro.declarative.shared`),
       then run the predicate's :meth:`weight_phase`.
    2. :meth:`rank_pairs` / :meth:`select_pairs` / :meth:`run_many_pairs` --
       load the query (or query batch) tables, run the predicate's
       query-time SQL and return its rows as ordered ``(int(tid),
       float(score))`` pairs (the public ``rank`` / ``select`` / ``top_k`` /
       ``run_many`` wrap them, see
       :class:`~repro.core.predicates.base.PairHost`).

    Subclasses implement :meth:`weight_phase` (the preprocessing SQL beyond
    the shared tables) and the query-time SQL as either

    * :meth:`prepare_query` + :meth:`scores_sql` -- a single parameterized
      SELECT producing ``(tid, score)`` rows, which unlocks the ORDER
      BY/LIMIT top-k pushdown, or
    * an override of :meth:`query_scores` (with :attr:`single_statement`
      ``False``) for predicates whose scoring cannot be one statement (the
      GES filter-verify predicates).

    Batched execution mirrors this with :meth:`prepare_batch` +
    :meth:`batch_scores_sql` (one statement per batch, grouped by ``qid``)
    behind :meth:`run_many` / :meth:`query_scores_batch`.

    Shared-table indexes, batched statements, the ORDER BY/LIMIT pushdown
    and in-SQL pruning apply wherever the family has them; ``rank(q)``
    without a limit and the per-query :meth:`query_scores` are the unpushed
    calls the pushdown is checked against.

    The class satisfies the same
    :class:`repro.engine.protocol.SimilarityPredicateProtocol` as the direct
    predicates (``fit`` is an alias of :meth:`preprocess`; blocking and
    candidate restriction are :class:`~repro.blocking.host.BlockingHost`'s,
    applied to the SQL result rows), so declarative
    predicates are drop-in replacements in the engine, the approximate join
    and deduplication.
    """

    name: str = "declarative"
    family: str = "unspecified"
    #: Score semantics relevant to exact blocking (see
    #: :attr:`repro.core.predicates.base.Predicate.similarity_kind`).
    similarity_kind: str = "score"
    #: Whether scoring is one SELECT (:meth:`scores_sql` returns a statement).
    #: Families that post-process in Python (the GES filter-verify pair) set
    #: this to ``False`` so the pushdown paths skip them *before* loading the
    #: per-query tables, instead of preparing twice.
    single_statement: bool = True

    def __init__(
        self,
        backend: Optional[SQLBackend] = None,
        tokenizer: Optional[Tokenizer] = None,
    ):
        super().__init__()
        self.backend = backend if backend is not None else MemoryBackend()
        self.tokenizer = tokenizer or QgramTokenizer(q=2)
        self._strings: List[str] = []
        self._preprocessed = False
        #: Number of candidates scored by the most recent :meth:`rank` /
        #: :meth:`select` call (after blocking), as for direct predicates.
        #: Reset to ``None`` by :meth:`run_many` -- no single query's count
        #: describes a batch; the per-qid counts live in
        #: :attr:`last_batch_candidates` instead.
        self.last_num_candidates: Optional[int] = None
        #: Per-query candidate counts of the most recent :meth:`run_many`
        #: batch (``None`` before any batch ran).
        self.last_batch_candidates: Optional[List[int]] = None
        #: SQL-side work counters of the most recent query execution.
        self.last_sql_stats: Optional[SQLStats] = None
        #: Last query's raw ``(tid, score)`` rows, so :meth:`score` loops over
        #: one query (e.g. join verification) pay the SQL once.
        self._score_cache: Optional[Tuple[str, Dict[int, float]]] = None
        #: Shared core handle + the feature signatures recorded at fit time
        #: (stale when another predicate rebuilt a feature with other params).
        self._core: Optional[shared_tables.SharedTables] = None
        self._core_features: Dict[str, object] = {}

    # -- preprocessing ----------------------------------------------------------

    def preprocess(self, strings: Sequence[str]) -> "DeclarativePredicate":
        """Materialize all base-relation tables this predicate needs."""
        self._strings = list(strings)
        self._blocker_tokens = None
        self._score_cache = None
        self._core = None
        self._core_features = {}
        self.tokenize_phase()
        self.weight_phase()
        self._preprocessed = True
        self._fit_blocker()
        return self

    # Alias so declarative and direct predicates can be used interchangeably.
    fit = preprocess

    def tokenize_phase(self) -> None:
        """Acquire the shared core tables (``BASE_TOKENS`` etc., Appendix A).

        The core is materialized on the first predicate that needs it and
        reused by every later predicate fitted on the same (backend, relation,
        tokenizer) -- fitting a second predicate pays no tokenization.
        """
        self._core = shared_tables.acquire_core(
            self.backend, self._strings, self.tokenizer
        )
        self._core_features = {shared_tables.CORE: None}

    def weight_phase(self) -> None:
        """Materialize the predicate-specific weight tables (Appendix B).

        The default needs nothing beyond the shared core; subclasses call
        :meth:`require` for shared features and build their own tables.
        """

    def require(self, feature: str, sig: object = None, builder=None) -> None:
        """Materialize a shared feature (no-op when it already exists).

        The signature is recorded so :meth:`tables_stale` notices when a
        different predicate instance later rebuilds the feature with other
        parameters.
        """
        assert self._core is not None, "tokenize_phase() must run first"
        self._core.require(self.backend, feature, sig=sig, builder=builder)
        self._core_features[feature] = sig

    @property
    def core(self) -> shared_tables.SharedTables:
        """The shared core this predicate was fitted on."""
        if self._core is None:
            raise RuntimeError("predicate has no shared core before preprocess()")
        return self._core

    def tbl(self, base: str) -> str:
        """The namespaced name of a core/feature table (prefix-aware)."""
        return self._core.name(base) if self._core is not None else base

    def tables_stale(self) -> bool:
        """Whether another fit invalidated this predicate's tables.

        Cores never clobber each other (they are namespaced by prefix), so
        staleness only arises when the core was torn down
        (:func:`repro.declarative.shared.clear_shared_state`) or a shared
        feature was rebuilt with a different parameter signature.
        """
        core = self._core
        if not self._preprocessed or core is None:
            return False
        if core.dead:
            return True
        missing = object()
        return any(
            core.sigs.get(feature, missing) != sig
            for feature, sig in self._core_features.items()
        )

    # -- blocking ----------------------------------------------------------------

    def _query_state_changed(self) -> None:
        self._score_cache = None

    def _apply_candidate_filter(self, query: str, raw: Iterable[tuple]) -> List[Pair]:
        """The SQL's rows as ``(int(tid), float(score))`` pairs (NULL scores
        dropped) after the post-scoring allowance (restriction, blocker);
        records :attr:`last_num_candidates` (the survivors)."""
        rows = [(int(tid), float(score)) for tid, score in raw if score is not None]
        allowed = self._allowed_after_scoring(query, (tid for tid, _ in rows))
        if allowed is not None:
            rows = [pair for pair in rows if pair[0] in allowed]
        self.last_num_candidates = len(rows)
        return rows

    # -- query-time SQL protocol -------------------------------------------------

    def prepare_query(self, query: str) -> None:
        """Load the per-query tables (default: ``QUERY_TOKENS(token)``)."""
        self.load_query_tokens(query)

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        """The single-SELECT scorer as ``(sql, params)``, if expressible.

        The statement must produce ``(tid, score)`` rows over the tables
        :meth:`prepare_query` loaded.  Predicates that cannot score in one
        statement return ``None`` and override :meth:`query_scores` instead.
        """
        return None

    def _scoring_statement(self, query: str) -> Tuple[str, Tuple]:
        """Load the per-query tables and return :meth:`scores_sql`."""
        self.prepare_query(query)
        pair = self.scores_sql()
        if pair is None:  # pragma: no cover - subclass contract violation
            raise NotImplementedError(
                f"{type(self).__name__} must implement scores_sql() or "
                "override query_scores() and set single_statement = False"
            )
        return pair

    def query_scores(self, query: str) -> List[tuple]:
        """Run the query-time SQL; returns ``(tid, score)`` rows (unordered)."""
        sql, params = self._scoring_statement(query)
        return self.backend.query(sql, params or None)

    def prepare_batch(self, queries: Sequence[str]) -> None:
        """Load the per-batch tables (default: the ``QUERY_BATCH`` schema)."""
        token_tables.load_query_batch(self.backend, queries, self.tokenizer)

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        """The batched scorer as ``(sql, params)`` producing
        ``(qid, tid, score)`` rows, or ``None`` when the family has no
        batched statement (falls back to one statement per query)."""
        return None

    def query_scores_batch(self, queries: Sequence[str]) -> List[List[tuple]]:
        """Score a batch of queries; returns per-query ``(tid, score)`` rows.

        With a per-family batched statement available, the whole batch runs
        as **one** SQL execution grouped by ``qid``.
        """
        queries = list(queries)
        self._last_batch_sql = False
        if not queries:
            return []
        self.prepare_batch(queries)
        pair = self.batch_scores_sql()
        if pair is None:
            return [self.query_scores(query) for query in queries]
        sql, params = pair
        rows = self.backend.query(sql, params or None)
        buckets: List[List[tuple]] = [[] for _ in queries]
        for qid, tid, score in rows:
            buckets[int(qid)].append((tid, score))
        self._last_batch_sql = True
        return buckets

    # -- query time --------------------------------------------------------------

    def _pushes_limit(self) -> bool:
        """Whether a limit can be cut inside the scoring SQL: scoring is one
        SELECT and no blocker or restriction prunes its rows afterwards."""
        return (
            self.single_statement
            and self._blocker is None
            and self._restriction is None
        )

    def rank_pairs(self, query: str, limit: Optional[int] = None) -> List[Pair]:
        """Tuples ranked by decreasing score, ties broken by tuple id.

        With a ``limit`` (and no blocker/restriction in play) the ordering
        and the cut run *inside* the SQL statement -- ``ORDER BY score DESC,
        tid LIMIT k`` -- so only ``k`` rows ever cross the SQL boundary.  The
        pushed path returns exactly the rows of the unpushed one: both order
        by ``(-score, tid)`` over the same SQL-computed scores.  A limit of
        zero or less returns ``[]`` without running any SQL.
        """
        self._require_preprocessed()
        if limit is not None and limit <= 0:
            # Nothing can be returned, so nothing is scored and no SQL runs.
            self.last_num_candidates = 0
            self.last_sql_stats = None
            return []
        if limit is not None and self._pushes_limit():
            return self._rank_pushdown(query, limit)
        rows = self._apply_candidate_filter(query, self.query_scores(query))
        self.last_sql_stats = SQLStats(
            rows_scored=len(rows), base_size=len(self._strings)
        )
        rows.sort(key=rank_key)
        if limit is not None:
            rows = rows[:limit]
        return rows

    def _rank_pushdown(self, query: str, limit: int) -> List[Pair]:
        """ORDER BY/LIMIT pushed into the scoring SQL (single-SELECT families)."""
        sql, params = self._scoring_statement(query)
        wrapped = (
            f"SELECT X.tid, X.score FROM ({sql}) X "
            f"WHERE X.score IS NOT NULL "
            f"ORDER BY X.score DESC, X.tid LIMIT {int(limit)}"
        )
        rows = self.backend.query(wrapped, params or None)
        # The SQL consumed the full candidate set internally; only the
        # returned rows are observable, which is what the stats report.
        self.last_num_candidates = len(rows)
        self.last_sql_stats = SQLStats(
            rows_scored=len(rows),
            base_size=len(self._strings),
            plan=("order-by-limit",),
        )
        return [(int(tid), float(score)) for tid, score in rows]

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Approximate selection with a similarity threshold."""
        self._check_blocker_threshold(threshold)
        return [pair for pair in self.rank_pairs(query) if pair[1] >= threshold]

    def run_many_pairs(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Pair]]:
        """Execute a query workload through the batched SQL path.

        ``op`` is ``"rank"`` (optionally with ``limit``), ``"top_k"`` (with
        ``k``) or ``"select"`` (with ``threshold``); semantics match calling
        the corresponding single-query method per query, but scoring runs as
        one SQL statement for the whole batch where the family supports it.

        A limited batch on a backend that cuts in SQL
        (``supports_window_functions``: SQLite) runs one ``ORDER BY ...
        LIMIT`` statement per query instead -- there that is cheaper than
        sorting every batch row, in a window function or in Python.  The
        in-memory engine parses and plans each statement in Python, so it
        keeps the one batch statement and cuts in Python.
        """
        queries = list(queries)
        check_batch_op(op, k, threshold)
        if op == "top_k":
            limit = k
        elif op == "select":
            self._check_blocker_threshold(threshold)
            limit = None  # a selection is cut by its threshold alone
        self._require_preprocessed()
        plan: Tuple[str, ...] = ()
        if limit is not None and limit <= 0:
            # Nothing can be returned, so nothing is scored.
            results: List[List[Pair]] = [[] for _ in queries]
            per_query_candidates = [0] * len(queries)
        elif (
            limit is not None
            and queries
            and self._pushes_limit()
            and getattr(self.backend, "supports_window_functions", False)
        ):
            results = [self._rank_pushdown(query, limit) for query in queries]
            per_query_candidates = [len(rows) for rows in results]
            plan = ("order-by-limit",)
        else:
            results, per_query_candidates = [], []
            for query, raw in zip(queries, self.query_scores_batch(queries)):
                rows = self._apply_candidate_filter(query, raw)
                per_query_candidates.append(len(rows))
                rows.sort(key=rank_key)
                if op == "select":
                    rows = [pair for pair in rows if pair[1] >= threshold]
                elif limit is not None:
                    rows = rows[:limit]
                results.append(rows)
            if getattr(self, "_last_batch_sql", False):
                plan = ("batch",)
        # One scalar cannot describe a batch: expose the per-qid counts and
        # reset the single-query counter so a later reader does not mistake
        # the batch's last (or a previous sequential call's) value for a
        # meaningful per-query statistic.
        self.last_batch_candidates = per_query_candidates
        self.last_num_candidates = None
        self.last_sql_stats = SQLStats(
            rows_scored=sum(per_query_candidates),
            base_size=len(self._strings) * max(len(queries), 1),
            plan=plan,
        )
        return results

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and tuple ``tid`` (0.0 if not scored).

        Sees the same candidates as :meth:`rank` (blocker and restriction
        applied) but skips the sort and caches the last query's rows, so
        scoring many tuples against one query (e.g. join verification) runs
        the SQL once.
        """
        self._require_preprocessed()
        cache = self._score_cache
        if cache is None or cache[0] != query:
            rows = self._apply_candidate_filter(query, self.query_scores(query))
            self._score_cache = cache = (query, dict(rows))
        return cache[1].get(tid, 0.0)

    # -- helpers ----------------------------------------------------------------

    def load_query_tokens(self, query: str) -> None:
        token_tables.load_query_tokens(self.backend, query, self.tokenizer)

    @property
    def is_preprocessed(self) -> bool:
        return self._preprocessed

    is_fitted = is_preprocessed

    @property
    def base_strings(self) -> List[str]:
        return list(self._strings)

    def _require_preprocessed(self) -> None:
        if not self._preprocessed:
            raise RuntimeError(
                f"{type(self).__name__} must preprocess() a base relation before querying"
            )
        if self.tables_stale():
            # Another fit rebuilt a shared feature this predicate depends on
            # (or the shared state was cleared): re-materialize before
            # answering from the wrong tables.  Near-free when the core and
            # untouched features survive.
            self.preprocess(self._strings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(backend={self.backend.name})"
