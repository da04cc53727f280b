"""The unified similarity engine and its fluent, lazily-planned query builder.

:class:`SimilarityEngine` is the single entry point over everything the
library can do with a relation of strings: the four operations the paper
studies (thresholded selection, top-k / ranked retrieval, approximate join,
deduplication), both realizations of every predicate (direct in-memory Python
and declarative SQL), both SQL backends (the bundled in-memory engine and
SQLite) and the blocking subsystem::

    from repro import SimilarityEngine

    engine = SimilarityEngine()
    matches = (
        engine.from_strings(rows)
        .predicate("bm25")
        .realization("declarative")
        .backend("sqlite")
        .top_k("Morgn Stanley Inc", 10)
    )

:class:`Query` objects are cheap immutable builders: each fluent setter
returns a new query, and nothing is fitted until a terminal operation runs.
Fitted predicate state (token tables, weights, blocker indexes) is cached on
the engine keyed by the full plan, so repeated queries -- and
:meth:`Query.run_many` batches -- pay preprocessing once; the
predicate-independent half of it (the tokenized, counted, indexed relation:
a :class:`~repro.core.corpus.CorpusCore`) is cached per (corpus, tokenizer)
and shared by every direct predicate fitted on that relation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from copy import copy
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.blocking.base import Blocker
from repro.blocking.factory import THRESHOLD_STAGE_NAMES, make_blocker
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.dedup import Deduplicator, DuplicateCluster
from repro.core.join import ApproximateJoiner, JoinMatch, SelfJoinStats
from repro.core.predicates.base import Match, Pair, Predicate, check_batch_op
from repro.declarative.base import DeclarativePredicate
from repro.declarative.shared import clear_shared_state
from repro.engine import registry
from repro.engine.plan import (
    ExplainReport,
    QueryPlan,
    RecordingBackend,
    RunManyStats,
    TraceResult,
    sql_statements,
)
from repro.engine.protocol import pair_host
from repro.obs.clock import perf_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Observability, Tracer
from repro.resilience import FaultInjector, RetryPolicy, faults_from_env
from repro.shard.predicate import ShardedPredicate, shard_offsets

__all__ = ["SimilarityEngine", "Query"]


@dataclass
class _Corpus:
    """One base relation handed to :meth:`SimilarityEngine.from_strings`."""

    key: int
    strings: List[str]

    def __len__(self) -> int:
        return len(self.strings)


@dataclass
class _FittedState:
    """A fitted predicate (plus blocker / SQL recorder) cached on the engine."""

    predicate: Union[Predicate, DeclarativePredicate]
    blocker: Optional[Blocker] = None
    recorder: Optional[RecordingBackend] = None


#: The attributes where each kind of predicate leaves the counter records
#: (:class:`~repro.obs.metrics.CounterRecord`) of the call it just ran.
_CALL_RECORDS = {
    "direct": (),
    "declarative": ("last_sql_stats",),
    "sharded": ("shard_stats", "resilience_stats"),
}


def _weights_summary(predicate: object) -> Dict[str, object]:
    """What ``predicate``'s fit derived into weighted postings and what that
    cost (:meth:`Predicate.weights_summary`; a sharded predicate sums its
    shards'); empty for predicates that build none -- declarative ones keep
    that state in SQL."""
    summary = getattr(predicate, "weights_summary", None)
    return summary() if summary is not None else {}


class SimilarityEngine:
    """Facade unifying selections, joins and dedup over every realization.

    Parameters are the session-wide defaults a :class:`Query` starts from;
    each can be overridden per query through the fluent builder.

    Example
    -------
    >>> engine = SimilarityEngine()
    >>> query = engine.from_strings(["AT&T Inc.", "IBM Corp."]).predicate("jaccard")
    >>> [match.tid for match in query.top_k("AT&T Incorporated", 1)]
    [0]
    """

    def __init__(
        self,
        predicate: str = "bm25",
        realization: str = "direct",
        backend: str = "memory",
        num_shards: int = 1,
        executor: str = "serial",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.default_predicate = predicate
        self.default_realization = realization
        self.default_backend = backend
        #: The observability pair (tracer + metrics registry) threaded through
        #: every layer the engine builds: terminal operations open span trees
        #: on the tracer (:data:`~repro.obs.trace.NOOP_TRACER` by default, a
        #: no-op), recording backends emit ``sql.statement`` spans, sharded
        #: predicates ship per-shard spans back from their workers, and all
        #: of them publish counters into the metrics registry
        #: (:data:`~repro.obs.metrics.GLOBAL_METRICS` by default).  The
        #: holder is shared *by reference*, so ``Query.trace()`` /
        #: ``explain()`` can swap a capturing tracer in for one call and
        #: every layer sees it.
        self.obs = Observability(tracer=tracer, metrics=metrics)
        #: Session-wide sharding defaults (direct realization only): with
        #: ``num_shards > 1`` the base relation is partitioned and queries
        #: execute per shard -- serially, on a thread pool or on a process
        #: pool (``executor``) -- with an exact global merge (see
        #: :mod:`repro.shard`).  Overridable per query via
        #: :meth:`Query.shards`.
        self.num_shards = int(num_shards)
        self.executor = executor
        #: The resilience pair threaded through everything the engine builds:
        #: sharded executors retry/rebuild under ``retry_policy`` and consult
        #: ``faults`` at their dispatch points, recording backends check the
        #: ``sql.statement`` point.  ``faults`` defaults to whatever the
        #: ``REPRO_FAULTS`` environment spec says (inactive when unset) so a
        #: chaos run needs no code changes; ``retry_policy=None`` leaves each
        #: executor on its default policy.
        self.faults = faults if faults is not None else faults_from_env()
        self.retry_policy = retry_policy
        self._states: Dict[tuple, _FittedState] = {}  # guarded-by: _lock
        self._blockers: Dict[tuple, Blocker] = {}  # guarded-by: _lock
        #: ids of blockers this engine attached itself (vs. blockers a caller
        #: attached to a predicate instance before handing it over) -- only
        #: engine-attached blockers are detached for blocker-less queries.
        self._attached_blocker_ids: set = set()  # guarded-by: _lock
        #: id(predicate instance) -> key of the corpus the engine last fitted
        #: it on, so the per-access staleness check is an int comparison
        #: instead of an O(n) corpus comparison.
        self._instance_fits: Dict[int, int] = {}  # guarded-by: _lock
        #: One SQL backend instance per backend *name*, shared by every
        #: declarative state the engine builds: shared token/weight cores
        #: (namespaced table prefixes, see :mod:`repro.declarative.shared`)
        #: live per backend instance, so fitting a second declarative
        #: predicate on an already-prepared backend reuses them.
        self._backend_instances: Dict[str, object] = {}  # guarded-by: _lock
        self._corpora: Dict[tuple, _Corpus] = {}  # guarded-by: _lock
        self._corpus_counter = 0
        #: One :class:`~repro.core.corpus.CorpusCore` per ``(corpus key,
        #: tokenizer)``: the relation tokenized, counted and indexed once,
        #: shared by reference by every direct predicate (sharded or not)
        #: the engine fits on it -- the in-memory mirror of the declarative
        #: shared cores above.  Keyed by the tokenizer *value*; built inside
        #: the fit that first needs it (:meth:`_fit`), read-only afterwards.
        self._cores: Dict[tuple, CorpusCore] = {}  # guarded-by: _lock
        #: Reentrant lock guarding the fitted-state/instance/backend caches
        #: and declarative SQL execution.  Concurrent callers (the serving
        #: layer runs engine calls on worker threads) must neither double-fit
        #: one cache key nor interleave statements on a shared SQL backend --
        #: declarative predicates stage queries in fixed-name tables, so two
        #: unserialized executions would clobber each other's staged rows.
        #: Reentrant because fits and declarative executions nest through the
        #: same code paths (``explain`` fits inside an execution span).
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        """Locks do not pickle; snapshots re-create one on load."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    @property
    def tracer(self) -> object:
        """The engine's tracer (swap via :attr:`obs`, not by reassigning)."""
        return self.obs.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry the engine's layers publish into."""
        return self.obs.metrics

    # -- building queries -------------------------------------------------------

    def from_strings(self, rows: Sequence[str]) -> "Query":
        """Bind a base relation and return a fresh :class:`Query` builder.

        Corpora are interned by content: calling ``from_strings`` twice with
        the same strings yields queries that share fitted predicate state.
        """
        content = tuple(rows)
        with self._lock:
            corpus = self._corpora.get(content)
            if corpus is None:
                self._corpus_counter += 1
                corpus = _Corpus(key=self._corpus_counter, strings=list(content))
                self._corpora[content] = corpus
        return Query(self, corpus)

    # -- registry passthrough ---------------------------------------------------

    @staticmethod
    def available_predicates(realization: Optional[str] = None) -> List[str]:
        """Canonical names of every registered predicate."""
        return registry.available_predicates(realization)

    # -- fitted-state cache -----------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached fitted predicate (frees token tables/backends).

        Also releases the interned corpora, so long-lived engines do not
        retain every relation ever queried; live :class:`Query` objects keep
        working (their state is simply rebuilt on the next operation).
        Blockers the engine attached to caller-owned predicate instances are
        detached first -- once their ids are forgotten they would otherwise
        pass for caller-attached and keep pruning blocker-less queries.

        The shared corpus cores go with the states fitted over them, so an
        evicted corpus (the serving layer's LRU calls this) frees its token
        lists, index and statistics too.

        Resources the engine itself created are *closed*, not just dropped:
        SQL backends instantiated for named backend specs have their
        connections closed (a long-lived engine must not accumulate open
        SQLite handles across ``clear_cache`` cycles), and sharded
        predicates shut down their worker pools.  Backend *instances* a
        caller passed in are left open -- the caller owns their lifecycle.
        """
        with self._lock:
            for state in self._states.values():
                attached = getattr(state.predicate, "blocker", None)
                if attached is not None and id(attached) in self._attached_blocker_ids:
                    state.predicate.set_blocker(None)
                if isinstance(state.predicate, ShardedPredicate):
                    state.predicate.close()
            self._states.clear()
            self._blockers.clear()
            self._attached_blocker_ids.clear()
            self._instance_fits.clear()
            for backend in self._backend_instances.values():
                clear_shared_state(backend)
                backend.close()
            self._backend_instances.clear()
            for core in self._cores.values():
                self._publish_core_size(core.summary(), -1)
            self._cores.clear()
            self._corpora.clear()

    @property
    def cache_size(self) -> int:
        """Number of fitted predicate states currently cached."""
        # len() on a dict is GIL-atomic, but a reader racing clear_cache()
        # could still observe a size no serialized execution produces; the
        # RLock is reentrant and uncontended here, so just take it (RPL004).
        with self._lock:
            return len(self._states)

    def _state(self, key: tuple, build) -> _FittedState:
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = build()
                self._states[key] = state
            return state

    def _fit(self, predicate, corpus: _Corpus) -> None:  # requires-lock: _lock
        """Fit ``predicate`` on ``corpus`` -- the one place the engine fits.

        Direct predicates (sharded or not, engine-built or caller-passed,
        first fit or refit) are fitted over the engine's shared core for
        ``(corpus, predicate.tokenizer)``, which is built here -- inside the
        fit that first needs it -- when no earlier fit did.  A tokenizer
        that cannot be a dict key gets a private core.  Anything else
        (declarative predicates preprocess in SQL; a caller's own
        protocol-only object knows no ``core=``; a ``Predicate`` subclass
        with its own phases may name no tokenizer) is fitted on the strings.
        """
        tokenizer = getattr(predicate, "tokenizer", None)
        if tokenizer is None or not isinstance(
            predicate, (Predicate, ShardedPredicate)
        ):
            predicate.fit(corpus.strings)
            return
        key = (corpus.key, tokenizer)
        try:
            core = self._cores.get(key)
        except TypeError:  # unhashable tokenizer: nothing to share it under
            predicate.fit(corpus.strings)
            return
        if core is not None:
            predicate.fit(corpus.strings, core=core)
            self.obs.metrics.inc("core_reuses_total")
            return
        with self.obs.tracer.span("core.build") as span:
            core = CorpusCore(corpus.strings, tokenizer)
        predicate.fit(corpus.strings, core=core)
        # Registered, sized and costed after the fit: it built the parts of
        # the core it needed (the span itself covers the tokenization pass),
        # and a fit that raised leaves nothing behind.
        self._cores[key] = core
        self.obs.metrics.inc("core_builds_total")
        size = core.summary()
        self._publish_core_size(size, +1)
        span.set(**size)

    def _publish_core_size(self, size: Dict[str, object], sign: int) -> None:
        """Move the ``engine.core.*`` gauges by one core's size (``sign`` is
        +1 when it is built, -1 when it is dropped).  Deltas, not levels:
        engines sharing a registry -- one per served corpus -- add up."""
        for part in ("rows", "vocabulary", "postings"):
            self.obs.metrics.gauge("engine.core." + part).inc(sign * size[part])

    def _core_line(self, predicate) -> Optional[str]:
        """``explain()``'s description of the core ``predicate`` is fitted
        over: its size, what building it cost, and how many of this engine's
        fitted predicates share it."""
        core = getattr(predicate, "_core", None)
        if not isinstance(core, CorpusCore):  # declarative cores live in SQL
            return None
        with self._lock:
            sharing = sum(
                getattr(state.predicate, "_core", None) is core
                for state in self._states.values()
            )
        return (
            f"{core.describe()}, shared by {sharing} fitted "
            f"predicate{'' if sharing == 1 else 's'}"
        )

    def _backend_instance(self, spec: Union[str, object]) -> object:
        """Resolve a backend spec to the engine's shared instance.

        Named backends resolve to one instance per name for the engine's
        lifetime, so every declarative state on e.g. ``"sqlite"`` shares one
        database -- and therefore the shared token/weight cores.  Instance
        specs are used as-is (the caller owns them).
        """
        if not isinstance(spec, str):
            return spec
        name = spec.strip().lower()
        with self._lock:
            backend = self._backend_instances.get(name)
            if backend is None:
                backend = registry.make_backend(name)
                self._backend_instances[name] = backend
        return backend


class Query:
    """A fluent, lazily-planned similarity query over one base relation.

    Builder methods (:meth:`predicate`, :meth:`realization`, :meth:`backend`,
    :meth:`blocker`) return *new* queries; terminal operations
    (:meth:`rank`, :meth:`top_k`, :meth:`select`, :meth:`join`,
    :meth:`self_join`, :meth:`dedup`, :meth:`run_many`) plan, fit (cached on
    the engine) and execute.  :meth:`explain` reports the chosen plan, the
    emitted SQL and blocker reduction statistics.
    """

    def __init__(self, engine: SimilarityEngine, corpus: _Corpus):
        self._engine = engine
        self._corpus = corpus
        self._predicate: Union[str, Predicate, DeclarativePredicate] = (
            engine.default_predicate
        )
        self._predicate_kwargs: Dict[str, object] = {}
        self._realization: Optional[str] = None
        self._backend: Optional[object] = None
        self._blocker_spec: Optional[Union[str, Blocker]] = None
        self._blocker_kwargs: Dict[str, object] = {}
        self._num_shards: Optional[int] = None
        self._executor: Optional[object] = None
        #: Statistics of the most recent :meth:`self_join` / :meth:`dedup` run.
        self.last_self_join_stats: Optional[SelfJoinStats] = None
        #: Per-query candidate counts of the most recent :meth:`run_many`.
        self.last_run_many_stats: Optional[RunManyStats] = None

    @property
    def engine(self) -> SimilarityEngine:
        """The engine this query executes on (tracer/metrics live there)."""
        return self._engine

    # -- fluent builder ---------------------------------------------------------

    def _clone(self) -> "Query":
        other = Query(self._engine, self._corpus)
        other._predicate = self._predicate
        other._predicate_kwargs = dict(self._predicate_kwargs)
        other._realization = self._realization
        other._backend = self._backend
        other._blocker_spec = self._blocker_spec
        other._blocker_kwargs = dict(self._blocker_kwargs)
        other._num_shards = self._num_shards
        other._executor = self._executor
        return other

    def predicate(
        self,
        predicate: Union[str, Predicate, DeclarativePredicate],
        **predicate_kwargs,
    ) -> "Query":
        """Choose the similarity predicate: a registry name/alias or an instance.

        Keyword arguments are forwarded to the predicate constructor (names
        only).  Passing an instance pins the realization to the instance's.
        """
        if not isinstance(predicate, str) and predicate_kwargs:
            raise ValueError("predicate kwargs are only valid with a predicate name")
        other = self._clone()
        other._predicate = predicate
        other._predicate_kwargs = dict(predicate_kwargs)
        return other

    def realization(self, realization: str) -> "Query":
        """Choose the realization: ``"direct"`` or ``"declarative"``."""
        if realization not in registry.REALIZATIONS:
            raise ValueError(
                f"unknown realization {realization!r}; "
                f"expected one of {registry.REALIZATIONS}"
            )
        other = self._clone()
        other._realization = realization
        return other

    def backend(self, backend: Union[str, object]) -> "Query":
        """Choose the SQL backend (``"memory"`` / ``"sqlite"`` or an instance).

        Only meaningful for the declarative realization; the direct
        realization executes in-process and ignores it (noted in the plan).
        """
        if isinstance(backend, str) and backend.strip().lower() not in registry.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; available: {sorted(registry.BACKENDS)}"
            )
        other = self._clone()
        other._backend = backend
        return other

    def blocker(
        self, blocker: Optional[Union[str, Blocker]], **blocker_kwargs
    ) -> "Query":
        """Attach a candidate blocker: a spec string (``"length+prefix"``,
        ``"lsh"``, ``"none"``), a :class:`~repro.blocking.base.Blocker`
        instance, or ``None``.

        Spec strings accept ``lsh_bands`` / ``lsh_rows`` keyword arguments.
        Exact filters derive their bounds from the operation's similarity
        threshold, so they require a thresholded operation (``select``,
        ``join``, ``dedup``).
        """
        other = self._clone()
        if isinstance(blocker, str) and blocker.strip().lower() in ("", "none"):
            blocker = None
        other._blocker_spec = blocker
        other._blocker_kwargs = dict(blocker_kwargs)
        return other

    def shards(self, num_shards: int, executor: Optional[object] = None) -> "Query":
        """Partition the base relation into ``num_shards`` for this query.

        Applies to the direct realization of *named* predicates: the relation
        is split into contiguous shards, each shard is fitted on its slice
        of the relation's shared corpus core (tokenized and counted once,
        collection statistics answered from the whole relation), and
        results merge exactly (see :mod:`repro.shard`).  ``executor`` picks
        the execution strategy (``"serial"`` / ``"thread"`` / ``"process"``
        or a :class:`~repro.shard.executors.ShardExecutor` instance);
        ``None`` keeps the engine default.  Named pooled executors size
        themselves (one thread per shard; ``min(shards, cpu_count)``
        processes); pass an instance for another size.  ``num_shards=1``
        restores unsharded execution.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        other = self._clone()
        other._num_shards = int(num_shards)
        other._executor = executor
        return other

    # -- plan resolution --------------------------------------------------------

    @property
    def predicate_name(self) -> str:
        """Canonical predicate name (or the instance's reported name)."""
        if isinstance(self._predicate, str):
            return registry.canonical_name(self._predicate)
        return getattr(self._predicate, "name", type(self._predicate).__name__)

    def _resolved_realization(self) -> str:
        if not isinstance(self._predicate, str):
            inferred = (
                "declarative"
                if isinstance(self._predicate, DeclarativePredicate)
                else "direct"
            )
            if self._realization is not None and self._realization != inferred:
                raise ValueError(
                    f"predicate instance {type(self._predicate).__name__} is "
                    f"{inferred}, but the query requests the "
                    f"{self._realization} realization"
                )
            return inferred
        return self._realization or self._engine.default_realization

    def _backend_name(self) -> Optional[str]:
        if self._backend is None:
            return self._engine.default_backend
        if isinstance(self._backend, str):
            return self._backend.strip().lower()
        return getattr(self._backend, "name", type(self._backend).__name__)

    def _resolved_shards(self) -> tuple:
        """``(num_shards, executor_spec)`` for this query."""
        num_shards = (
            self._num_shards if self._num_shards is not None else self._engine.num_shards
        )
        executor = self._executor if self._executor is not None else self._engine.executor
        return num_shards, executor

    def _sharding_active(self) -> bool:
        """Whether this query executes through a sharded predicate.

        Sharding partitions the *direct* realization of engine-built (named)
        predicates; predicate instances own their fitted state and the
        declarative realization executes in SQL, so both stay unsharded.
        """
        if not isinstance(self._predicate, str):
            return False
        if self._resolved_realization() != "direct":
            return False
        return self._resolved_shards()[0] > 1

    @staticmethod
    def _executor_name(executor: object) -> str:
        if isinstance(executor, str):
            return executor.strip().lower()
        return getattr(executor, "name", type(executor).__name__)

    def _blocker_needs_threshold(self) -> bool:
        spec = self._blocker_spec
        if not isinstance(spec, str):
            return False
        return any(
            stage.strip().lower() in THRESHOLD_STAGE_NAMES for stage in spec.split("+")
        )

    def _resolve_blocker(self, threshold: Optional[float]) -> Optional[Blocker]:
        spec = self._blocker_spec
        if spec is None:
            return None
        if isinstance(spec, Blocker):
            return spec
        return make_blocker(
            spec,
            threshold=threshold,
            lsh_bands=int(self._blocker_kwargs.get("lsh_bands", 16)),
            lsh_rows=int(self._blocker_kwargs.get("lsh_rows", 4)),
            tokenizer=self._blocker_kwargs.get("tokenizer"),
            seed=int(self._blocker_kwargs.get("seed", 20070411)),
        )

    def _predicate_key(self) -> tuple:
        """Cache key of the fitted predicate state -- deliberately excludes
        the blocker, so threshold sweeps and blocked/unblocked variants of
        the same plan share one expensive preprocessing."""
        realization = self._resolved_realization()
        if isinstance(self._predicate, str):
            predicate_key: object = (
                registry.canonical_name(self._predicate),
                tuple(sorted((k, repr(v)) for k, v in self._predicate_kwargs.items())),
            )
        else:
            predicate_key = ("instance", id(self._predicate))
        backend_key: object = None
        if realization == "declarative" and isinstance(self._predicate, str):
            backend_key = (
                self._backend_name()
                if self._backend is None or isinstance(self._backend, str)
                else ("instance", id(self._backend))
            )
        shard_key: object = None
        if self._sharding_active():
            num_shards, executor = self._resolved_shards()
            shard_key = (
                num_shards,
                self._executor_name(executor)
                if isinstance(executor, str)
                else ("instance", id(executor)),
            )
        return (self._corpus.key, realization, predicate_key, backend_key, shard_key)

    def _blocker_for(
        self, predicate_key: tuple, threshold: Optional[float]
    ) -> Optional[Blocker]:  # requires-lock: _lock
        """Resolve (and cache) the blocker this plan requests, if any.

        Only called from :meth:`_state_locked`, i.e. with the engine lock
        already held (it touches the engine's ``_blockers`` cache).
        """
        spec = self._blocker_spec
        if spec is None:
            return None
        if isinstance(spec, Blocker):
            return spec
        key = predicate_key + (
            spec,
            threshold if self._blocker_needs_threshold() else None,
            tuple(sorted((k, repr(v)) for k, v in self._blocker_kwargs.items())),
        )
        blocker = self._engine._blockers.get(key)
        if blocker is None:
            blocker = self._resolve_blocker(threshold)
            self._engine._blockers[key] = blocker
        return blocker

    def _state(self, threshold: Optional[float] = None) -> _FittedState:
        """Fitted predicate + blocker for this plan, from the engine cache.

        Predicate *instances* can be shared across corpora: each corpus keys
        its own cached state around the same object, so a cache hit here may
        wrap a predicate that was meanwhile refitted on another relation.
        Staleness is therefore checked on every access (not just on the cache
        miss in :meth:`_build_state`) and the predicate refitted when its
        ``base_strings`` no longer match this query's corpus.  Engine-built
        predicates are private to their cache key and cannot drift, so they
        skip the check.  Declarative states sharing one SQL backend instance
        use namespaced shared cores that never clobber each other; the only
        remaining staleness -- a shared feature rebuilt with different
        parameters, or cleared shared state -- is reported by the predicate
        itself (``tables_stale``) and likewise triggers a refit.

        The predicate's attached blocker is reconciled with the plan on every
        call: cached predicate states are shared across blocked, unblocked
        and differently-thresholded variants of the same plan, so a blocker
        attached for an earlier query must not leak into this one.  Blockers
        a caller attached to a predicate *instance* themselves (rather than
        via :meth:`blocker`) are left alone.
        """
        predicate_key = self._predicate_key()
        engine = self._engine
        obs = engine.obs
        with engine._lock:
            return self._state_locked(predicate_key, engine, obs, threshold)

    def _state_locked(
        self, predicate_key: tuple, engine: SimilarityEngine, obs, threshold
    ) -> _FittedState:  # requires-lock: _lock
        """Body of :meth:`_state`; runs under the engine lock so concurrent
        callers cannot double-fit one cache key or interleave the blocker
        reconciliation below with another thread's."""
        cached = engine._states.get(predicate_key)
        if cached is not None:
            obs.metrics.inc("cache_hits")
            with obs.tracer.span("cache_hit", predicate=self.predicate_name):
                pass
            state = cached
        else:
            fit_started = perf_clock()
            with obs.tracer.span(
                "fit", predicate=self.predicate_name, num_tuples=len(self._corpus)
            ) as span:
                state = engine._state(predicate_key, self._build_state)
                span.set(**_weights_summary(state.predicate))
            obs.metrics.inc("fits_total")
            obs.metrics.observe("latency.fit", perf_clock() - fit_started)
        predicate = state.predicate
        refit = False
        if (
            not isinstance(self._predicate, str)
            and self._engine._instance_fits.get(id(predicate)) != self._corpus.key
        ):
            base = getattr(predicate, "base_strings", None)
            refit = base is not None and base != self._corpus.strings
        if isinstance(predicate, DeclarativePredicate) and predicate.tables_stale():
            # A shared feature this state depends on was rebuilt with other
            # parameters (or the shared cores were cleared): rematerialize
            # before answering from the wrong tables.
            refit = True
        if refit:
            stale = getattr(predicate, "blocker", None)
            if stale is not None and id(stale) in self._engine._attached_blocker_ids:
                # Detach the engine-attached blocker (it may belong to
                # another corpus's plan) before refitting, so fit() does
                # not refit it on this corpus; the reconciliation below
                # attaches and fits the right one.
                predicate.set_blocker(None)
            fit_started = perf_clock()
            with obs.tracer.span(
                "fit",
                predicate=self.predicate_name,
                num_tuples=len(self._corpus),
                refit=True,
            ) as span:
                engine._fit(predicate, self._corpus)
                span.set(**_weights_summary(predicate))
            obs.metrics.inc("fits_total")
            obs.metrics.observe("latency.fit", perf_clock() - fit_started)
        if not isinstance(self._predicate, str):
            self._engine._instance_fits[id(predicate)] = self._corpus.key
        attached = getattr(predicate, "blocker", None)
        blocker = self._blocker_for(predicate_key, threshold)
        if blocker is not None:
            if attached is not blocker:
                predicate.set_blocker(blocker)
            self._engine._attached_blocker_ids.add(id(blocker))
        elif attached is not None and id(attached) in self._engine._attached_blocker_ids:
            predicate.set_blocker(None)
        else:
            blocker = attached
        return _FittedState(
            predicate=predicate, blocker=blocker, recorder=state.recorder
        )

    def _build_state(self) -> _FittedState:  # requires-lock: _lock
        realization = self._resolved_realization()
        recorder: Optional[RecordingBackend] = None
        if isinstance(self._predicate, str):
            if realization == "declarative":
                backend_spec = (
                    self._backend
                    if self._backend is not None
                    else self._engine.default_backend
                )
                recorder = RecordingBackend(
                    self._engine._backend_instance(backend_spec),
                    obs=self._engine.obs,
                    faults=self._engine.faults,
                )
                predicate = registry.make(
                    self._predicate,
                    realization="declarative",
                    backend=recorder,
                    **self._predicate_kwargs,
                )
            elif self._sharding_active():
                name, kwargs = self._predicate, dict(self._predicate_kwargs)
                num_shards, executor = self._resolved_shards()
                predicate = ShardedPredicate(
                    factory=lambda: registry.make(
                        name, realization="direct", **kwargs
                    ),
                    num_shards=num_shards,
                    executor=executor,
                    obs=self._engine.obs,
                    faults=self._engine.faults,
                    retry_policy=self._engine.retry_policy,
                )
            else:
                predicate = registry.make(
                    self._predicate, realization="direct", **self._predicate_kwargs
                )
        else:
            predicate = self._predicate
            inner_backend = getattr(predicate, "backend", None)
            if (
                isinstance(predicate, DeclarativePredicate)
                and not predicate.is_preprocessed
                and inner_backend is not None
            ):
                recorder = RecordingBackend(
                    inner_backend, obs=self._engine.obs, faults=self._engine.faults
                )
                predicate.backend = recorder
        fitted = getattr(predicate, "is_fitted", False)
        # Refit instance predicates that were fitted on a *different* relation;
        # reusing their state here would silently answer over the wrong corpus.
        base = getattr(predicate, "base_strings", None)
        if not fitted or (base is not None and base != self._corpus.strings):
            self._engine._fit(predicate, self._corpus)
        return _FittedState(predicate=predicate, recorder=recorder)

    def fitted_predicate(
        self, threshold: Optional[float] = None
    ) -> Union[Predicate, DeclarativePredicate]:
        """Fit (or fetch from the engine cache) and return the predicate.

        Exact blockers need the operation threshold; pass it when the query
        carries a length/prefix blocker spec.
        """
        return self._state(threshold).predicate

    # -- terminal operations ----------------------------------------------------

    def _to_matches(self, rows: Iterable[Pair]) -> List[Match]:
        """The one place a result :class:`Match` is built: once per
        returned row, from the host's ordered pairs, string attached."""
        strings = self._corpus.strings
        return [Match(tid, score, strings[tid]) for tid, score in rows]

    @staticmethod
    def _execution_kind(predicate: object) -> str:
        """Which ``execute.*`` span a predicate's operations run under."""
        if isinstance(predicate, ShardedPredicate):
            return "sharded"
        if isinstance(predicate, DeclarativePredicate):
            return "declarative"
        return "direct"

    @contextmanager
    def _query_span(self, op: str, **attributes) -> Iterator[None]:
        """Root ``engine.query`` span + the per-query counter/latency pair."""
        obs = self._engine.obs
        obs.metrics.inc("queries_total")
        started = perf_clock()
        with obs.tracer.span(
            "engine.query",
            op=op,
            predicate=self.predicate_name,
            num_tuples=len(self._corpus),
            **attributes,
        ):
            yield
        obs.metrics.observe("latency.engine.query", perf_clock() - started)

    def _execute(
        self,
        state: _FittedState,
        runner,
        annotate_candidates: bool = True,
    ):
        """Run one operation inside its ``execute.<kind>`` span.

        Returns ``(results, span, records)``: the counter records of exactly
        this operation, by name -- the predicate's :data:`_CALL_RECORDS`
        attributes (cleared before the run, so a path that records nothing
        publishes nothing rather than a previous call's record) and, under
        a blocker, its ``after - before`` delta as ``"blocker"``.  Each is
        published into the metrics registry and, while tracing, its
        non-zero fields are set on the span.
        """
        obs = self._engine.obs
        predicate = state.predicate
        kind = self._execution_kind(predicate)
        names = _CALL_RECORDS[kind]
        blocker = state.blocker
        kernel_before = kernels.ops_snapshot()
        started = perf_clock()
        # Declarative predicates stage query rows in fixed-name tables on
        # the (engine-shared) SQL backend; concurrent executions must not
        # interleave statements -- nor each other's records, which a sharded
        # predicate guards on its own.
        if kind == "declarative":
            guard = self._engine._lock
        elif kind == "sharded":
            guard = predicate.records_lock
        else:
            guard = nullcontext()
        with obs.tracer.span("execute." + kind) as span, guard:
            for name in names:
                setattr(predicate, name, None)
            before = copy(blocker.stats) if blocker is not None else None
            results = runner()
            records = {name: getattr(predicate, name) for name in names}
            if before is not None:
                records["blocker"] = blocker.stats - before
            traced = obs.tracer.enabled
            if annotate_candidates and traced:
                candidates = getattr(predicate, "last_num_candidates", None)
                if candidates is not None:
                    span.set(num_candidates=candidates)
            for record in records.values():
                if record is not None:
                    record.publish(obs.metrics)
                    if traced:
                        span.set(**record.span_attributes())
        obs.metrics.observe("latency.execute." + kind, perf_clock() - started)
        # Attribute the scoring-kernel invocations of this execution (process
        # workers keep their counts worker-side; serial/thread land here).
        for name, total in kernels.ops_snapshot().items():
            delta = total - kernel_before.get(name, 0)
            if delta:
                obs.metrics.inc("kernel_ops." + name, delta)
        return results, span, records

    def rank(self, query: str, limit: Optional[int] = None) -> List[Match]:
        """All candidate tuples ordered by decreasing similarity to ``query``."""
        with self._query_span("rank"):
            state = self._state(None)
            host = pair_host(state.predicate)
            results = self._execute(state, lambda: host.rank_pairs(query, limit))[0]
        return self._to_matches(results)

    def top_k(self, query: str, k: int) -> List[Match]:
        """The ``k`` most similar tuples.

        On the direct realization this is the predicate's ``top_k``, i.e.
        ``rank(query, limit=k)``: dense scan + partition selection for a
        kernelised predicate, a bounded heap over the score dict otherwise.
        Results are identical to a full ranking cut to ``k`` either way;
        :meth:`explain` names the path that ran.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        with self._query_span("top_k", k=k):
            state = self._state(None)
            host = pair_host(state.predicate)
            results = self._execute(state, lambda: host.top_k_pairs(query, k))[0]
        return self._to_matches(results)

    def select(self, query: str, threshold: float) -> List[Match]:
        """The approximate selection ``{t | sim(query, t) >= threshold}``."""
        with self._query_span("select", threshold=threshold):
            state = self._state(threshold)
            host = pair_host(state.predicate)
            results = self._execute(
                state, lambda: host.select_pairs(query, threshold)
            )[0]
        return self._to_matches(results)

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and the tuple with id ``tid``."""
        return self._state(None).predicate.score(query, tid)

    def run_many(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Match]]:
        """Execute a batch of queries against one shared fitted state.

        ``op`` is ``"rank"`` (optionally with ``limit``), ``"top_k"`` (with
        ``k``) or ``"select"`` (with ``threshold``).  Preprocessing -- token
        tables, weights, blocker indexes -- happens at most once for the whole
        batch (and is shared with every earlier query of the same plan), which
        is the amortization that makes query workloads cheap.

        On the declarative realization the batch additionally executes through
        the predicate's batched SQL (:meth:`DeclarativePredicate.run_many_pairs`):
        one statement scores the whole workload instead of one per query.
        """
        return [
            self._to_matches(rows)
            for rows in self._run_many_pairs(queries, op, k, threshold, limit)
        ]

    def _run_many_pairs(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Pair]]:
        """:meth:`run_many`'s execution: every query's ordered ``(tid,
        score)`` pairs, as the host answered them (no :class:`Match` built).

        The host's own ``run_many_pairs`` runs the batch: a declarative
        predicate scores it in one SQL statement, a sharded one sends each
        shard the whole workload as one task, a direct one answers query by
        query.  Each records per-query candidate counts and resets
        ``last_num_candidates`` itself.  The accuracy runner reads rankings
        here, where no result object is needed.
        """
        check_batch_op(op, k, threshold)
        obs = self._engine.obs
        # Count logical queries, not batches; the root span carries the size.
        obs.metrics.inc("queries_total", max(0, len(queries) - 1))
        with self._query_span("run_many", batch_op=op, num_queries=len(queries)):
            state = self._state(threshold if op == "select" else None)
            host = pair_host(state.predicate)
            batches = self._execute(
                state,
                lambda: host.run_many_pairs(
                    queries, op=op, k=k, threshold=threshold, limit=limit
                ),
                annotate_candidates=False,
            )[0]
            counts = host.last_batch_candidates or []
            self.last_run_many_stats = RunManyStats(
                num_queries=len(queries),
                total_candidates=sum(count or 0 for count in counts),
                candidates_per_query=tuple(counts),
            )
            self.last_run_many_stats.publish(obs.metrics)
        return batches

    # -- join / dedup -----------------------------------------------------------

    def _joiner(self, state: _FittedState, threshold: float) -> ApproximateJoiner:
        return ApproximateJoiner(
            self._corpus.strings, predicate=state.predicate, threshold=threshold
        )

    def join(
        self,
        probe: Iterable[str],
        threshold: float = 0.5,
        top_k: Optional[int] = None,
    ) -> List[JoinMatch]:
        """Approximate join: probe strings against the indexed base relation."""
        with self._query_span("join", threshold=threshold):
            state = self._state(threshold)
            joiner = self._joiner(state, threshold)
            matches = self._execute(
                state,
                lambda: joiner.join(probe, threshold=threshold, top_k=top_k),
                annotate_candidates=False,
            )[0]
        return matches

    def self_join(
        self, threshold: float = 0.5, include_identity: bool = False
    ) -> List[JoinMatch]:
        """Similarity self-join of the base relation (see the joiner docs).

        Work counters land in :attr:`last_self_join_stats`.
        """
        with self._query_span("self_join", threshold=threshold):
            state = self._state(threshold)
            joiner = self._joiner(state, threshold)
            matches = self._execute(
                state,
                lambda: joiner.self_join(threshold, include_identity=include_identity),
                annotate_candidates=False,
            )[0]
        self.last_self_join_stats = joiner.last_self_join_stats
        return matches

    def dedup(self, threshold: float = 0.5) -> List[DuplicateCluster]:
        """Duplicate clusters of the base relation at the given threshold."""
        with self._query_span("dedup", threshold=threshold):
            state = self._state(threshold)
            deduplicator = Deduplicator(
                self._corpus.strings, predicate=state.predicate, threshold=threshold
            )
            clusters = self._execute(
                state, deduplicator.clusters, annotate_candidates=False
            )[0]
        self.last_self_join_stats = deduplicator.joiner.last_self_join_stats
        return clusters

    # -- explain ----------------------------------------------------------------

    def _direct_target(self) -> object:
        """The direct predicate class (or the caller-passed instance)."""
        if isinstance(self._predicate, str):
            return registry.spec_for(self._predicate).direct
        return self._predicate

    def _uses_kernels(self) -> bool:
        """Whether the direct predicate scores through repro.core.kernels."""
        return bool(getattr(self._direct_target(), "uses_kernels", False))

    def _top_k_path(self) -> str:
        """Wording for the ``rank(limit=k)`` path a direct ``top_k`` takes:
        the predicate's own answer (:meth:`Predicate.top_k_algorithm`, the
        one place that decides); predicates that do not say take the heap."""
        algorithm = getattr(self._direct_target(), "top_k_algorithm", None)
        name = algorithm() if algorithm is not None else "heap"
        if name == "dense-scan":
            return "dense scan + partition (numpy kernel)"
        if name == "dense-scan, finalize k":
            return "dense scan + partition (numpy kernel), finalize k"
        return "heap accumulation"

    def _declarative_kind(self) -> Optional[str]:
        """``similarity_kind`` of the declarative realization, if any."""
        if not isinstance(self._predicate, str):
            return getattr(self._predicate, "similarity_kind", None)
        declarative = registry.spec_for(self._predicate).declarative
        return getattr(declarative, "similarity_kind", None)

    def plan(
        self, op: str = "rank", threshold: Optional[float] = None
    ) -> QueryPlan:
        """The execution plan this query would use for ``op`` (no execution)."""
        realization = self._resolved_realization()
        notes: List[str] = []
        backend_name: Optional[str] = None
        if realization == "declarative":
            backend_name = self._backend_name()
            notes.append(f"scores computed by SQL on the {backend_name!r} backend")
            if self._resolved_shards()[0] > 1:
                notes.append(
                    "sharding ignored: it applies to the direct realization "
                    "(the declarative realization executes unsharded SQL)"
                )
            notes.append(
                "declarative fast path: shared token/weight tables "
                "(reused across predicates), batched multi-query SQL"
            )
            if op == "top_k":
                notes.append(
                    "top_k fast path: ORDER BY score DESC, tid LIMIT k "
                    "pushed into the scoring SQL"
                )
            elif op == "select" and self._declarative_kind() == "jaccard":
                notes.append(
                    "select fast path: length/prefix bounds pushed into "
                    "the scoring SQL (exact for jaccard)"
                )
        else:
            notes.append("direct realization executes in-process (no SQL)")
            if self._uses_kernels():
                notes.append(
                    "scoring kernels: numpy (vectorized accumulation over "
                    "array-backed postings)"
                )
            if self._backend is not None:
                notes.append("backend setting ignored by the direct realization")
            if self._sharding_active():
                num_shards, executor = self._resolved_shards()
                actual = max(1, min(num_shards, len(self._corpus) or 1))
                offsets = shard_offsets(len(self._corpus), actual)
                layout = [
                    offsets[i + 1] - offsets[i] for i in range(actual)
                ]
                notes.append(
                    f"sharded execution: {actual} shards "
                    f"via {self._executor_name(executor)!r} executor, "
                    f"layout {layout} (global statistics broadcast; exact merge)"
                )
                if self._executor_name(executor) != "serial":
                    notes.append(
                        "executor fallback ladder: failed shard tasks retry "
                        "with backoff, a broken pool is rebuilt once, and "
                        "last-resort tasks run serially in-process "
                        "(bit-identical; counted as resilience.*)"
                    )
            elif (
                self._resolved_shards()[0] > 1
                and not isinstance(self._predicate, str)
            ):
                notes.append(
                    "sharding ignored: predicate instances own their fitted "
                    "state (pass a predicate name to shard)"
                )
            if op == "top_k":
                notes.append(f"top_k: {self._top_k_path()}")
            elif op == "select":
                notes.append(
                    "select fast path: threshold filter before sorting survivors"
                )
        blocker_name: Optional[str] = None
        if isinstance(self._blocker_spec, Blocker):
            blocker_name = self._blocker_spec.name
        elif self._blocker_spec is not None:
            blocker_name = self._blocker_spec
        blocker_threshold = (
            threshold if (blocker_name and self._blocker_needs_threshold()) else None
        )
        if blocker_name and realization == "declarative":
            notes.append("blocker prunes the scored SQL rows (post-scoring)")
        return QueryPlan(
            operation=op,
            predicate=self.predicate_name,
            realization=realization,
            num_tuples=len(self._corpus),
            backend=backend_name,
            blocker=blocker_name,
            blocker_threshold=blocker_threshold,
            predicate_params=tuple(sorted(self._predicate_kwargs.items())),
            notes=tuple(notes),
        )

    def trace(
        self,
        query: str,
        op: Optional[str] = None,
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> TraceResult:
        """Run one operation and return its results with the span tree.

        ``op`` defaults like :meth:`explain`: ``select`` when a threshold is
        given, ``top_k`` when ``k`` is given, ``rank`` otherwise.  When the
        engine already carries a live tracer it is used as-is; with the
        default no-op tracer a capturing :class:`~repro.obs.trace.Tracer` is
        activated for just this call -- so tracing one query never requires
        rebuilding the engine.
        """
        if op is None:
            op = (
                "select"
                if threshold is not None
                else ("top_k" if k is not None else "rank")
            )
        obs = self._engine.obs
        tracer = obs.tracer if obs.tracer.enabled else Tracer()
        with obs.activate(tracer):
            if op == "rank":
                results: object = self.rank(query, limit=limit)
            elif op == "top_k":
                if k is None or k < 0:
                    raise ValueError("op='top_k' requires a non-negative k")
                results = self.top_k(query, k)
            elif op == "select":
                if threshold is None:
                    raise ValueError("op='select' requires a threshold")
                results = self.select(query, threshold)
            else:
                raise ValueError(f"trace() cannot execute op {op!r}")
        return TraceResult(results=results, span=tracer.last_root)

    def explain(
        self,
        query: Optional[str] = None,
        op: Optional[str] = None,
        threshold: Optional[float] = None,
        k: Optional[int] = None,
    ) -> ExplainReport:
        """The chosen plan -- and, with a sample ``query``, what it executed.

        With ``query`` given, the operation runs once under a capturing
        tracer and the report is read off the span tree it produced: the
        emitted SQL (``sql.statement`` spans), the execute-span duration,
        the blocker's candidate reduction for that query and the number of
        candidates scored.  The tree itself lands in ``report.trace``.
        """
        if op is None:
            op = "select" if threshold is not None else ("top_k" if k is not None else "rank")
        report = ExplainReport(plan=self.plan(op, threshold=threshold))
        if query is None:
            return report
        if op not in ("rank", "top_k", "select"):
            raise ValueError(f"explain() cannot execute op {op!r}")
        if op == "select" and threshold is None:
            raise ValueError("op='select' requires a threshold")
        obs = self._engine.obs
        tracer = obs.tracer if obs.tracer.enabled else Tracer()
        ran_top_k = False
        with obs.activate(tracer):
            obs.metrics.inc("queries_total")
            with tracer.span(
                "engine.query",
                op=op,
                predicate=self.predicate_name,
                num_tuples=len(self._corpus),
                explain=True,
            ) as root:
                state = self._state(threshold)
                host = pair_host(state.predicate)
                if op == "select":
                    runner = lambda: host.select_pairs(query, threshold)  # noqa: E731
                elif op == "rank":
                    runner = lambda: host.rank_pairs(query)  # noqa: E731
                elif k is not None and hasattr(state.predicate, "top_k"):
                    runner = lambda: host.top_k_pairs(query, k)  # noqa: E731
                    ran_top_k = True
                else:
                    runner = lambda: host.rank_pairs(query, k)  # noqa: E731
                results, execute_span, records = self._execute(state, runner)
        report.trace = root
        report.seconds = execute_span.duration
        report.sql = sql_statements(root)
        report.num_results = len(results)
        report.results = tuple(self._to_matches(results))
        report.num_candidates = getattr(state.predicate, "last_num_candidates", None)
        if op == "top_k":
            if not ran_top_k:
                report.execution = "top_k executed as a full ranking"
                if k is None:
                    report.fallback_reason = (
                        "no k was given to explain(); pass k= to run the "
                        "top_k path"
                    )
                else:
                    report.fallback_reason = (
                        "the predicate implements no top_k method; "
                        "rank(limit=k) ran instead"
                    )
            elif isinstance(state.predicate, DeclarativePredicate):
                report.execution = "top_k via SQL (see sql path / emitted SQL)"
            else:
                report.execution = f"top_k via {self._top_k_path()}"
        report.core = self._engine._core_line(state.predicate)
        weights = _weights_summary(state.predicate)
        if weights:
            report.weights = (
                "{weighted_postings} postings ({zero_dropped} dropped as zero), "
                "derived in {weights_s:.2f} s".format(
                    **weights
                )
            )
        report.shards = records.get("shard_stats")
        report.resilience = records.get("resilience_stats")
        report.sql_stats = records.get("last_sql_stats")
        report.blocker_stats = records.get("blocker")
        return report

    # -- introspection ----------------------------------------------------------

    @property
    def strings(self) -> List[str]:
        return list(self._corpus.strings)

    def __len__(self) -> int:
        return len(self._corpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Query(n={len(self._corpus)}, predicate={self.predicate_name}, "
            f"realization={self._resolved_realization()})"
        )
