"""Query plans, explain reports, and SQL capture for the similarity engine.

:class:`QueryPlan` is the lazily-derived description of how a
:class:`repro.engine.query.Query` will execute (predicate, realization,
backend, blocker); :class:`ExplainReport` adds what actually happened when a
sample query ran -- the captured span tree, the emitted SQL (declarative
realization), blocker candidate-reduction statistics and timings.
:class:`RecordingBackend` is the transparent backend wrapper that emits a
``sql.statement`` span (and a ``sql_statements_total`` counter) for every
statement the declarative realization runs; with the default no-op tracer it
costs one method call per statement and stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.blocking.base import BlockingStats
from repro.core.predicates.base import Match
from repro.declarative.base import SQLStats
from repro.obs.metrics import CounterRecord, counter_field
from repro.obs.trace import Observability, Span
from repro.resilience import (
    NOOP_INJECTOR,
    FaultInjector,
    ResilienceStats,
    check_deadline,
)
from repro.shard.predicate import ShardStats

__all__ = [
    "QueryPlan",
    "ExplainReport",
    "RunManyStats",
    "RecordingBackend",
    "TraceResult",
    "sql_statements",
]


@dataclass(frozen=True)
class RunManyStats(CounterRecord):
    """Per-query work counters of one :meth:`Query.run_many` batch.

    A batch has no single meaningful ``last_num_candidates`` -- the engine
    records the candidate count of *every* query of the batch instead
    (``None`` entries mean the executed path could not observe a count);
    ``total_candidates`` is their sum, kept as a field so it publishes.
    """

    num_queries: int = counter_field("batch_queries_total")
    total_candidates: int = counter_field("batch_candidates_total")
    candidates_per_query: Tuple[Optional[int], ...] = ()


@dataclass(frozen=True)
class QueryPlan:
    """How the engine will execute one operation (before/without running it)."""

    operation: str
    predicate: str
    realization: str
    num_tuples: int
    backend: Optional[str] = None
    blocker: Optional[str] = None
    blocker_threshold: Optional[float] = None
    predicate_params: Tuple[Tuple[str, object], ...] = ()
    notes: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line human-readable plan (the CLI's ``--explain`` output)."""
        lines = [
            f"operation:   {self.operation}",
            f"predicate:   {self.predicate}"
            + (
                " (" + ", ".join(f"{k}={v!r}" for k, v in self.predicate_params) + ")"
                if self.predicate_params
                else ""
            ),
            f"realization: {self.realization}",
            f"backend:     {self.backend if self.backend else '-'}",
            f"blocker:     {self.blocker if self.blocker else '-'}"
            + (
                f" (threshold={self.blocker_threshold})"
                if self.blocker_threshold is not None
                else ""
            ),
            f"base size:   {self.num_tuples} tuples",
        ]
        for note in self.notes:
            lines.append(f"note:        {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


@dataclass
class ExplainReport:
    """A plan plus the measurements of one executed sample query."""

    plan: QueryPlan
    #: SQL statements emitted while answering the sample query (declarative
    #: realization only; the direct realization executes in-process).
    sql: Tuple[str, ...] = ()
    #: Blocker candidate-reduction counters for the sample query.
    blocker_stats: Optional[BlockingStats] = None
    #: SQL-side work counters when the declarative realization ran (rows the
    #: statement returned vs. base size, and which plan steps it used).
    sql_stats: Optional[SQLStats] = None
    #: The shared corpus core the predicate is fitted over (direct
    #: realization): tokenizer, rows / vocabulary / postings, build cost and
    #: how many of the engine's fitted predicates share it.
    core: Optional[str] = None
    #: What the predicate's fit derived from that core into its weighted
    #: postings -- how many, how many it left out for contributing exactly
    #: zero, and the seconds its weight phase took (direct realization,
    #: kernelised weighted predicates).
    weights: Optional[str] = None
    #: Shard-level counters when the query ran over a sharded predicate.
    shards: Optional[ShardStats] = None
    #: What the self-healing machinery did while the sample query ran --
    #: retries, pool rebuilds, serial fallbacks (sharded execution only;
    #: ``None`` when nothing ran through an executor).
    resilience: Optional[ResilienceStats] = None
    #: The strategy the sample query *actually* executed with -- as opposed
    #: to the plan's prediction.  ``plan()`` cannot know everything (e.g. a
    #: restriction attached at execution time), so the report states what
    #: really ran and, when that differs from the path the plan announced,
    #: why (:attr:`fallback_reason`).
    execution: Optional[str] = None
    fallback_reason: Optional[str] = None
    #: Candidates actually scored (after blocking) for the sample query.
    num_candidates: Optional[int] = None
    num_results: Optional[int] = None
    seconds: Optional[float] = None
    #: The sample query's matches (with strings), so callers that want both
    #: the explanation and the answer pay for one execution, not two.
    results: Optional[Tuple[Match, ...]] = None
    #: Span tree captured while the sample query ran: the report's numbers
    #: (``seconds``, ``sql``, per-shard counters) are read off this tree.
    trace: Optional[Span] = None

    def describe(self) -> str:
        lines = [self.plan.describe()]
        if self.execution is not None:
            lines.append(f"executed:    {self.execution}")
        if self.fallback_reason is not None:
            lines.append(f"fallback:    {self.fallback_reason}")
        if self.seconds is not None:
            lines.append(f"query time:  {self.seconds * 1000.0:.2f} ms")
        if self.num_candidates is not None:
            lines.append(f"candidates:  {self.num_candidates} scored")
        if self.core is not None:
            lines.append(f"core:        {self.core}")
        if self.weights is not None:
            lines.append(f"weights:     {self.weights}")
        if self.shards is not None:
            lines.append(f"shards:      {self.shards.describe()}")
        if self.resilience is not None and self.resilience.events:
            lines.append(f"resilience:  {self.resilience.describe()}")
        if self.sql_stats is not None:
            lines.append(f"sql path:    {self.sql_stats.describe()}")
        if self.num_results is not None:
            lines.append(f"results:     {self.num_results}")
        if self.blocker_stats is not None:
            lines.append(f"blocking:    {self.blocker_stats.describe()}")
        if self.sql:
            lines.append("emitted SQL:")
            for statement in self.sql:
                lines.append(f"  {statement}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


@dataclass
class TraceResult:
    """What :meth:`Query.trace` returns: the answer plus its span tree."""

    results: object
    span: Span

    def describe(self) -> str:
        return self.span.describe()

    def __str__(self) -> str:
        return self.describe()


def sql_statements(root: Span) -> Tuple[str, ...]:
    """The rendered SQL of every ``sql.statement`` span under ``root``."""
    return tuple(
        str(span.attributes.get("sql", ""))
        for span in root.walk()
        if span.name == "sql.statement"
    )


class RecordingBackend(SQLBackend):
    """A transparent :class:`SQLBackend` proxy emitting ``sql.statement`` spans.

    Wraps the real backend the declarative realization runs on.  Every
    statement increments ``sql_statements_total`` in the metrics registry and
    -- when the shared :class:`~repro.obs.trace.Observability` holder carries
    a live tracer -- opens a ``sql.statement`` span carrying the rendered
    SQL, nested under whatever engine span is currently open.  With the
    default no-op tracer nothing is stored, so a long-lived engine never
    accumulates statement text.  Table loads that bypass SQL (bulk
    ``insert_rows``) are rendered as SQL comments so the full script is
    visible in a trace.

    The proxy is also where the declarative realization meets the resilience
    layer: each statement is a natural boundary, so the ambient request
    deadline is checked here (a timed-out declarative query stops between
    statements instead of finishing the script into the void) and the
    ``sql.statement`` fault point fires here under an active injector.
    """

    def __init__(
        self,
        inner: SQLBackend,
        obs: Optional[Observability] = None,
        faults: Optional[FaultInjector] = None,
    ):
        # Deliberately no ``super().__init__()``: the inner backend already
        # registered the default UDFs, and this proxy adds no state of its own.
        self.inner = inner
        self.name = inner.name
        self.supports_window_functions = getattr(
            inner, "supports_window_functions", False
        )
        self.obs = obs if obs is not None else Observability()
        self._faults = faults if faults is not None else NOOP_INJECTOR

    def _statement_boundary(self) -> None:
        check_deadline()
        if self._faults.active:
            self._faults.check("sql.statement")

    # -- SQLBackend interface ----------------------------------------------------

    def execute(self, sql: str, params: Optional[Sequence[object]] = None) -> object:
        self._statement_boundary()
        self.obs.metrics.inc("sql_statements_total")
        with self.obs.tracer.span("sql.statement", sql=self._render(sql, params)):
            return self.inner.execute(sql, params)

    def query(self, sql: str, params: Optional[Sequence[object]] = None) -> List[Tuple]:
        self._statement_boundary()
        self.obs.metrics.inc("sql_statements_total")
        with self.obs.tracer.span("sql.statement", sql=self._render(sql, params)):
            return self.inner.query(sql, params)

    @staticmethod
    def _render(sql: str, params: Optional[Sequence[object]]) -> str:
        """Annotate traced statements with their bound parameter values."""
        if not params:
            return sql
        return f"{sql} -- params: {tuple(params)!r}"

    def _statement_span(self, statement: str):
        self._statement_boundary()
        self.obs.metrics.inc("sql_statements_total")
        return self.obs.tracer.span("sql.statement", sql=statement)

    def create_table(
        self, name: str, columns: Sequence[str], if_not_exists: bool = False
    ) -> None:
        clause = "IF NOT EXISTS " if if_not_exists else ""
        with self._statement_span(f"CREATE TABLE {clause}{name} ({', '.join(columns)})"):
            self.inner.create_table(name, columns, if_not_exists=if_not_exists)

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        materialized = [tuple(row) for row in rows]
        with self._statement_span(
            f"-- bulk load {len(materialized)} rows into {name}"
        ):
            return self.inner.insert_rows(name, materialized)

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        clause = "IF EXISTS " if if_exists else ""
        with self._statement_span(f"DROP TABLE {clause}{name}"):
            self.inner.drop_table(name, if_exists=if_exists)

    def has_table(self, name: str) -> bool:
        return self.inner.has_table(name)

    def register_function(self, name: str, num_args: int, func: Callable) -> None:
        self.inner.register_function(name, num_args, func)

    def create_index(self, name: str, table: str, columns: Sequence[str]) -> None:
        with self._statement_span(
            f"CREATE INDEX {name} ON {table} ({', '.join(columns)})"
        ):
            self.inner.create_index(name, table, columns)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()
