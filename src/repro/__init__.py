"""repro -- Benchmarking Declarative Approximate Selection Predicates.

A reproduction of the SIGMOD 2007 benchmark study of similarity predicates
for declarative approximate selections.  The front door is the unified
similarity engine:

Quickstart::

    from repro import SimilarityEngine

    engine = SimilarityEngine()
    query = engine.from_strings(["AT&T Incorporated", "IBM Corp."]).predicate("bm25")
    query.top_k("AT&T Inc.", 1)          # -> [Match(tid=0, score=..., string=...)]

The same fluent query runs every paper predicate in either *realization*
(direct in-memory Python, or the paper's declarative SQL on the bundled
in-memory engine / SQLite), with optional candidate blocking, batched
workloads and plan inspection::

    query.realization("declarative").backend("sqlite").top_k("AT&T Inc.", 1)
    query.blocker("length+prefix").select("AT&T Inc.", 0.6)
    query.run_many(["AT&T", "IBM"], op="top_k", k=3)   # preprocessing paid once
    print(query.explain("AT&T Inc.", k=1))             # plan, SQL, blocker stats

Package map:

* :mod:`repro.engine` -- the :class:`SimilarityEngine` facade, fluent
  :class:`~repro.engine.query.Query` builder, merged predicate registry,
  plans and explain reports;
* :mod:`repro.core` -- the direct predicate realizations plus the
  approximate join and deduplication operators;
* :mod:`repro.declarative` / :mod:`repro.dbengine` / :mod:`repro.backends`
  -- the declarative (pure SQL / UDF) realizations and their backends;
* :mod:`repro.blocking` -- candidate blockers (length / prefix filtering,
  MinHash-LSH, pipelines);
* :mod:`repro.text` -- tokenizers, string distances, weighting schemes;
* :mod:`repro.datagen` -- the UIS-style benchmark data generator;
* :mod:`repro.eval` -- accuracy metrics, experiment runner, timing harness;
* :mod:`repro.obs` -- end-to-end observability: span-tree tracing across
  engine -> realization -> shards -> SQL, a process-wide metrics registry
  of counters and latency histograms, the shared monotonic clock, and the
  JSON export schema used by traces, metrics and benchmarks.  Off by
  default (the no-op tracer costs nothing); turn it on per query with
  ``query.trace("AT&T Inc.", k=1)`` or per engine with
  ``SimilarityEngine(tracer=Tracer())``;
* :mod:`repro.serve` -- similarity-as-a-service: an asyncio HTTP serving
  layer (stdlib only) that multiplexes concurrent clients over the engine
  with admission control (bounded concurrency + queue, 429/504
  backpressure), micro-batching of compatible requests into ``run_many``
  batch executions (bit-identical to direct calls), per-corpus engine
  lifecycle with LRU eviction, graceful SIGTERM drain, and a small JSON
  client.  ``python -m repro.cli serve`` starts a server;
* :mod:`repro.resilience` -- failure handling wired through the shard and
  serve layers: deterministic fault injection (``REPRO_FAULTS``), bounded
  retries with seeded backoff, request deadlines propagated to shard-task
  and SQL-statement boundaries, per-corpus circuit breakers, and the
  ``resilience.*`` accounting surfaced by ``explain()``.  Self-healing is
  exact: shard tasks are pure, so retrying or re-running them after a
  worker crash is bit-identical to an undisturbed run;
* :mod:`repro.analysis` -- invariant-aware static analysis (stdlib ``ast``
  only): ``python -m repro.analysis`` checks the contracts the guarantees
  above rest on -- sorted-order float accumulation, the single sanctioned
  clock, pure executor tasks, lock discipline on shared caches, structured
  error envelopes (rules RPL001-RPL005; see ``docs/invariants.md``).

Migrating from 1.x: ``ApproximateSelector`` and the ``SelectionResult`` /
``ScoredTuple`` aliases were removed in 2.0.
``ApproximateSelector(strings, predicate="bm25").top_k(q, 5)`` is spelled
``SimilarityEngine().from_strings(strings).predicate("bm25").top_k(q, 5)``,
and results everywhere are :class:`~repro.engine.Match` objects (read
``.string`` where ``.text`` was read).
"""

from repro.core import (
    Match,
    Predicate,
    available_predicates,
    make_predicate,
)
from repro.blocking import (
    Blocker,
    BlockingPipeline,
    LengthFilter,
    MinHashLSH,
    PrefixFilter,
    make_blocker,
)
from repro.engine import (
    ExplainReport,
    Query,
    QueryPlan,
    SimilarityEngine,
    SimilarityPredicateProtocol,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    ResilienceStats,
    RetryPolicy,
)
from repro.shard import ShardedPredicate, ShardStats

__version__ = "2.0.0"

__all__ = [
    "SimilarityEngine",
    "Query",
    "Match",
    "QueryPlan",
    "ExplainReport",
    "SimilarityPredicateProtocol",
    "Predicate",
    "make_predicate",
    "available_predicates",
    "Blocker",
    "LengthFilter",
    "PrefixFilter",
    "MinHashLSH",
    "BlockingPipeline",
    "make_blocker",
    "ShardedPredicate",
    "ShardStats",
    "FaultInjector",
    "RetryPolicy",
    "Deadline",
    "CircuitBreaker",
    "ResilienceStats",
    "__version__",
]
