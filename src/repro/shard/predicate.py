"""Sharded execution of a direct predicate with an exact global merge.

:class:`ShardedPredicate` partitions the base relation into ``S`` contiguous
shards and fits one shard-local predicate per shard on a slice of the whole
relation's :class:`~repro.core.corpus.CorpusCore` -- the global pass -- whose
statistics keep answering collection-level questions from the whole relation
(:mod:`repro.shard.stats`).  The slices are parts of the core, one per range,
so sharded fits of several predicates over one relation share them.  Every
shard then scores its tuples *bit-identically* to an unsharded fit, so
merging per-shard results in the canonical ``(score desc, tid)`` order
reproduces the unsharded answer exactly -- selections, rankings, top-k and
batched workloads alike.

Query execution runs through a pluggable :class:`~repro.shard.executors.
ShardExecutor` (serial / thread pool / process pool).  Every operation --
``top_k`` included -- is one round (:meth:`ShardedPredicate._round`): all
shards are dispatched at once and their rows merged.  Fitting has one path
too, whatever the executor: every shard is fitted in the calling process
(process workers inherit the fitted shards by ``fork``).

Blockers apply *pre-partition*: they are fitted on the full relation and
their candidate decisions are taken against global tuple ids, then narrowed
into per-shard restrictions.  Sharded results match the unsharded blocked
results: candidate generation consults the blocker's probe tokens on both
paths (including the edit-distance family's ``select``, whose unsharded
candidate set is built through ``InvertedIndex.candidates`` with the blocker
attached), so exact blockers agree bit for bit and heuristic combinations
(a Jaccard-derived filter on a non-Jaccard predicate, which already warns at
attach time) prune identically sharded or not.

Tracing: when the engine's :class:`~repro.obs.trace.Observability` holder
carries a live tracer, every task payload is stamped with its shard id and
the worker times its own execution (workers in other processes use their own
clock, so durations are meaningful but absolute timestamps are not
comparable to the parent's).  The resulting ``shard[i].task`` span records
travel back as plain dicts and are re-attached under the currently open
``execute.sharded`` span.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.blocking.host import BlockingHost
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.predicates.base import (
    Pair,
    PairHost,
    Predicate,
    check_batch_op,
    rank_key,
    run_op,
)
from repro.obs.clock import perf_clock
from repro.obs.metrics import CounterRecord, counter_field
from repro.obs.trace import Observability, Span
from repro.resilience import (
    FaultInjector,
    ResilienceStats,
    RetryPolicy,
    check_deadline,
)
from repro.shard.executors import ShardExecutor, make_executor

__all__ = ["ShardStats", "ShardedPredicate", "shard_offsets", "execute_shard_op"]


def shard_offsets(num_tuples: int, num_shards: int) -> List[int]:
    """Contiguous, balanced shard boundaries: ``S + 1`` offsets.

    Shard ``i`` owns global tuple ids ``offsets[i] <= tid < offsets[i + 1]``;
    the first ``num_tuples % num_shards`` shards are one tuple larger.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, extra = divmod(num_tuples, num_shards)
    offsets = [0]
    for index in range(num_shards):
        offsets.append(offsets[-1] + base + (1 if index < extra else 0))
    return offsets


@dataclass
class ShardStats(CounterRecord):
    """Shard-level work counters of the most recent sharded operation."""

    describe_format = "{0.shards_run}/{0.num_shards} shards run via {0.executor!r} executor"

    num_shards: int = 0
    executor: str = ""
    shard_sizes: Tuple[int, ...] = ()
    shards_run: int = counter_field("shards_run", span="shards_run")
    #: Vestige, never set: ``benchmarks/ledger/layers.py`` reads it after each
    #: sharded call; retires with that row in the next ``[benchmark]`` PR.
    shards_skipped: int = 0


def execute_shard_op(shard: Predicate, op: str, payload: dict) -> dict:
    """Run one operation against one fitted shard predicate.

    This is the function shard executors invoke -- in-process, on a worker
    thread, or inside a worker process.  Results are the shard's ordered
    ``(tid, score)`` pairs as its predicate returned them (shard-local tids)
    and plain ints, so process executors pickle as little as possible and
    nothing is copied on the way up; per-shard work
    counters travel back explicitly (a worker process mutating its own copy
    of the shard would otherwise be invisible to the parent).

    Payloads stamped with ``trace``/``shard_id`` (by a tracing parent, see
    :meth:`ShardedPredicate._round`) additionally time the execution
    with the worker's own clock and attach a serializable ``shard[i].task``
    span record under ``result["span"]``.
    """
    if not payload.get("trace"):
        return _dispatch_shard_op(shard, op, payload)
    started = perf_clock()
    result = _dispatch_shard_op(shard, op, payload)
    result["span"] = _shard_span_record(
        payload.get("shard_id", -1), op, started, perf_clock(), result
    )
    return result


def _shard_span_record(
    shard_id: int, op: str, started: float, ended: float, result: dict
) -> dict:
    """Serializable ``shard[i].task`` span record for one executed task."""
    attributes: Dict[str, object] = {"shard_id": shard_id, "op": op}
    rows = result.get("rows")
    if rows is not None:
        attributes["rows"] = len(rows)
    if result.get("candidates") is not None:
        attributes["candidates"] = result["candidates"]
    rows_per_query = result.get("rows_per_query")
    if rows_per_query is not None:
        attributes["num_queries"] = len(rows_per_query)
        attributes["rows"] = sum(len(per_query) for per_query in rows_per_query)
    return {
        "name": f"shard[{shard_id}].task",
        "start": started,
        "end": ended,
        "attributes": attributes,
        "children": [],
    }


def _dispatch_shard_op(shard: Predicate, op: str, payload: dict) -> dict:
    if op == "run_many":
        rows_per_query: List[List[Pair]] = []
        candidates_per_query: List[Optional[int]] = []
        for query in payload["queries"]:
            # Per-query boundary: a timed-out batch stops between queries
            # instead of computing the whole remainder into the void.
            check_deadline()
            rows_per_query.append(run_op(shard, payload["op"], query, payload))
            candidates_per_query.append(shard.last_num_candidates)
        return {
            "rows_per_query": rows_per_query,
            "candidates_per_query": candidates_per_query,
        }
    allowed = payload.get("allowed")
    with nullcontext() if allowed is None else shard.restrict_candidates(allowed):
        rows = run_op(shard, op, payload["query"], payload)
    return {
        "rows": rows,
        "candidates": shard.last_num_candidates,
    }


class ShardedPredicate(PairHost, BlockingHost):
    """Data-partitioned execution of a direct predicate, exact by merge.

    The blocking contract is :class:`~repro.blocking.host.BlockingHost`'s,
    with the blocker fitted from the whole relation: the prototype, bound to
    that relation by :meth:`fit`, answers the core and query-token hooks.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh (unfitted) predicate
        instance; called once per shard plus once for the prototype that
        answers protocol attributes (name, tokenizer, score semantics).
    num_shards:
        Requested shard count; clamped to the relation size at fit time.
    executor:
        ``"serial"`` / ``"thread"`` / ``"process"`` or a
        :class:`~repro.shard.executors.ShardExecutor` instance.
        Name specs build an executor that sizes its own pool (one
        thread per shard; ``min(shards, cpu_count)`` processes); pass an
        instance for another size.
    obs:
        The :class:`~repro.obs.trace.Observability` holder to publish into
        (the engine passes its own, so sharded spans land under the engine's
        execute span); a private default pair otherwise.
    """

    def __init__(
        self,
        factory: Callable[[], Predicate],
        num_shards: int = 2,
        executor: object = "serial",
        obs: Optional[Observability] = None,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__()
        self.obs = obs if obs is not None else Observability()
        self._factory = factory
        self.requested_shards = int(num_shards)
        self._prototype = factory()
        #: Executor instances passed in stay caller-owned: :meth:`close`
        #: leaves them running (mirroring the engine's treatment of
        #: caller-passed SQL backends); name specs create an owned executor.
        self._owns_executor = not isinstance(executor, ShardExecutor)
        self._executor: ShardExecutor = make_executor(executor)
        self._executor.configure_resilience(faults=faults, retry_policy=retry_policy)
        #: Resilience record of the executor runs since it was last cleared
        #: (``None`` while nothing has run), summed with ``+``.  The engine
        #: clears it before each operation and publishes what that
        #: operation's rounds left, surfacing it in ``explain()``.
        self.resilience_stats: Optional[ResilienceStats] = None
        #: Held by the engine from clearing :attr:`shard_stats` /
        #: :attr:`resilience_stats` to reading them back, so concurrent
        #: operations on one sharded predicate each read their own records.
        self.records_lock = threading.Lock()
        self._strings: List[str] = []
        #: The whole relation's corpus core (the engine's shared one when it
        #: drove the fit); shards are fitted over slices of it.
        self._core: Optional[CorpusCore] = None
        self._offsets: List[int] = [0]
        self._shards: List[Predicate] = []
        #: Layout half of :attr:`shard_stats` (shard count, executor, sizes),
        #: fixed by the fit; each round stamps a copy with what it ran.
        self._layout: Optional[ShardStats] = None
        self._fitted = False
        #: Mirrors the direct-predicate protocol: candidates scored by the
        #: most recent single query (summed across shards), shard-level
        #: counters, and per-query candidate counts of the most recent
        #: :meth:`run_many` batch.
        self.last_num_candidates: Optional[int] = None
        self.shard_stats: Optional[ShardStats] = None
        self.last_batch_candidates: Optional[List[Optional[int]]] = None

    # -- protocol attributes ----------------------------------------------------

    @property
    def name(self) -> str:
        return self._prototype.name

    @property
    def family(self) -> str:
        return self._prototype.family

    @property
    def similarity_kind(self) -> str:
        return self._prototype.similarity_kind

    @property
    def uses_kernels(self) -> bool:
        return bool(getattr(self._prototype, "uses_kernels", False))

    def top_k_algorithm(self) -> str:
        """The algorithm each shard's ``top_k`` runs (the shards decide)."""
        return self._prototype.top_k_algorithm()

    @property
    def _prunes_before_scoring(self) -> bool:
        return bool(getattr(self._prototype, "_prunes_before_scoring", False))

    @property
    def tokenizer(self):
        return self._prototype.tokenizer

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def base_strings(self) -> List[str]:
        return list(self._strings)

    @property
    def num_shards(self) -> int:
        """Actual shard count after clamping to the relation size."""
        return len(self._shards) if self._shards else self.requested_shards

    @property
    def executor_name(self) -> str:
        return self._executor.name

    @property
    def shards(self) -> List[Predicate]:
        """The fitted shard-local predicates (shard ``i`` owns
        ``offsets[i] <= tid < offsets[i+1]``)."""
        return list(self._shards)

    @property
    def offsets(self) -> List[int]:
        return list(self._offsets)

    # -- preprocessing ----------------------------------------------------------

    def fit(
        self, strings: Sequence[str], core: Optional[CorpusCore] = None
    ) -> "ShardedPredicate":
        """Fit one shard-local predicate per shard on a slice of the core.

        ``core`` is the whole relation's
        :class:`~repro.core.corpus.CorpusCore` under the prototype's
        tokenizer (the engine passes its shared one; a private one is built
        otherwise): the global tokenization and the global statistics pass.
        A kernelised prototype (:attr:`uses_kernels`) runs its tokenize phase
        over the whole relation first, which builds the core's index, so the
        whole relation's statistics are read off that one index (exact
        ``df`` / ``cf`` integers, as an unsharded kernelised fit's), with no
        per-tuple ``Counter`` objects.  Each
        shard is fitted on ``core.slice(a, b)`` -- a part of the core, built
        once per range: its token lists are the core's, its collection-level
        statistics answered from the whole relation -- so shard fits pay no
        second tokenization, and every later sharded fit over the same
        ranges (another predicate, another executor) reads the slices'
        index as it is.  A core of another length or tokenizer raises
        :class:`ValueError`, as in :meth:`Predicate.fit`.  The shard-local
        fits run here, in the calling process, whatever the executor: process
        workers inherit the fitted shards by ``fork``, and shipping them back
        pickled from a pool costs more time and memory than fitting them.
        Under a live tracer each fit is a ``shard[i].fit`` span.
        """
        strings = list(strings)
        self._prototype._bind(strings, core)
        core = self._prototype._bound_core()
        if self.uses_kernels:
            # Phase one over the whole relation builds the core's index; the
            # global statistics are then read off it.
            self._prototype.tokenize_phase()
        self._strings = strings
        self._core = core
        count = len(strings)
        num_shards = max(1, min(self.requested_shards, count or 1))
        self._offsets = shard_offsets(count, num_shards)
        bounds = list(zip(self._offsets, self._offsets[1:]))
        tracer = self.obs.tracer
        shards = []
        for shard_id, (start, stop) in enumerate(bounds):
            with tracer.span(f"shard[{shard_id}].fit", rows=stop - start):
                shards.append(
                    self._factory().fit(strings[start:stop], core=core.slice(start, stop))
                )
        self._shards = shards
        self._layout = ShardStats(
            num_shards=num_shards,
            executor=self._executor.name,
            shard_sizes=tuple(stop - start for start, stop in bounds),
        )
        self._fitted = True
        self._executor.bind(self._shards, owner=self)
        self._fit_blocker()
        return self

    def weights_summary(self) -> Dict[str, object]:
        """The shards' :meth:`Predicate.weights_summary`, summed (the engine's
        ``fit`` span and ``explain()`` report it); empty when the shards
        build no weighted posting index."""
        summaries = [shard.weights_summary() for shard in self._shards]
        if not summaries or not all(summaries):
            return {}
        return {
            key: sum(part[key] for part in summaries)
            for key in ("weighted_postings", "zero_dropped", "weights_s")
        }

    def close(self) -> None:
        """Shut down the executor's worker pool (shards stay usable: pooled
        executors re-create their pool lazily on the next query).

        Caller-passed executor *instances* are left running -- the caller
        owns their lifecycle, exactly like SQL backend instances passed to
        the engine.
        """
        if self._owns_executor:
            self._executor.close()

    # -- blocking (pre-partition: fitted on the full relation) ------------------

    def _blocker_core(self, blocker) -> CorpusCore:
        """The prototype's answer over the whole relation it is bound to:
        its own core for families that share theirs with blockers (overlap,
        edit), one under the blocker's tokenizer for the rest."""
        return self._prototype._blocker_core(blocker)

    def _blocker_query_tokens(self, query: str, blocker) -> Set[str]:
        return self._prototype._blocker_query_tokens(query, blocker)

    # -- execution helpers ------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fit() on a base relation "
                "before querying"
            )

    def _shard_of(self, tid: int) -> Tuple[int, int]:
        shard_id = bisect_right(self._offsets, tid) - 1
        return shard_id, tid - self._offsets[shard_id]

    def _local_allowed(self, allowed: Set[int], shard_id: int) -> Set[int]:
        low, high = self._offsets[shard_id], self._offsets[shard_id + 1]
        return {tid - low for tid in allowed if low <= tid < high}

    def _merge_rows(self, per_shard: Iterable[Sequence[Pair]]) -> List[Pair]:
        """The shards' pairs on global tids, in the canonical order."""
        merged = [
            (tid + offset, score)
            for offset, rows in zip(self._offsets, per_shard)
            for tid, score in rows
        ]
        merged.sort(key=rank_key)
        return merged

    def _finish(self, results: List[dict]) -> None:
        """Count the completed tasks and re-attach their shipped spans."""
        self.obs.metrics.inc("shard_tasks", len(results))
        tracer = self.obs.tracer
        if tracer.enabled:
            parent = tracer.current
            if parent is not None:
                for result in results:
                    record = result.get("span") if isinstance(result, dict) else None
                    if record is not None:
                        parent.attach(Span.from_dict(record))

    def _round(
        self, op: str, payload: dict, allowed: Optional[Iterable[int]] = None
    ) -> List[Tuple[List[Pair], Optional[int]]]:
        """The one dispatch round every operation is.

        Every shard runs ``(op, payload)`` -- under its own slice of the
        *global* ``allowed`` ids when given -- through the executor; the rows
        merge in the canonical order, the shards' candidate counts sum, and
        :attr:`shard_stats` records the round.  One ``(merged rows,
        candidates)`` pair comes back per query: one for the single-query
        operations, ``len(payload["queries"])`` for ``"run_many"``.
        """
        tracing = self.obs.tracer.enabled
        tasks = []
        for shard_id in range(len(self._shards)):
            task = payload
            if allowed is not None or tracing:
                # Copy-on-write: the payload dict is shared by every task.
                task = dict(payload)
                if allowed is not None:
                    task["allowed"] = self._local_allowed(allowed, shard_id)
                if tracing:
                    # The worker times itself and ships a ``shard[i].task``
                    # span record back (see :func:`execute_shard_op`).
                    task["shard_id"] = shard_id
                    task["trace"] = True
            tasks.append((shard_id, op, task))
        results = self._executor.run(tasks)
        record, merged = self._executor.last_resilience, self.resilience_stats
        self.resilience_stats = record if merged is None else merged + record
        self._finish(results)
        self.shard_stats = replace(self._layout, shards_run=len(self._shards))
        if op == "run_many":
            rows = zip(*(result["rows_per_query"] for result in results))
            counts = zip(*(result["candidates_per_query"] for result in results))
        else:
            rows = [[result["rows"] for result in results]]
            counts = [[result["candidates"] for result in results]]
        return [
            (
                self._merge_rows(per_shard),
                None
                if all(count is None for count in per_query)
                else sum(count or 0 for count in per_query),
            )
            for per_shard, per_query in zip(rows, counts)
        ]

    def _answer(
        self, op: str, payload: dict, allowed: Optional[Iterable[int]] = None
    ) -> List[Pair]:
        """:meth:`_round` for one query: its merged rows, with its candidate
        count left in :attr:`last_num_candidates`."""
        [(merged, candidates)] = self._round(op, payload, allowed)
        self.last_num_candidates = candidates or 0
        return merged

    def _global_candidates(self, probe_tokens: Set[str]) -> Set[int]:
        """Union of the shard indexes' candidates for the probe tokens
        (global ids) -- identical to the unsharded index's candidate set.

        Each shard answers from its tid arrays
        (:func:`~repro.core.kernels.posting_tids`, checked in step with the
        document frequencies: a short array raises), so a blocked call
        derives no posting list.
        """
        candidates: Set[int] = set()
        for shard_id, shard in enumerate(self._shards):
            index = getattr(shard, "_index", None)
            if index is None:  # pragma: no cover - defensive
                continue
            tids = kernels.posting_tids(index, probe_tokens)
            if tids is not None:
                candidates.update((tids + self._offsets[shard_id]).tolist())
        return candidates

    def _blocked_allowed(self, query: str) -> Optional[Set[int]]:
        """Global allowed set for pre-scoring families under blocking.

        Reproduces ``InvertedIndex.candidates(tokens, blocker)`` against the
        union of the shard indexes: probe tokens from the blocker, candidate
        union over shards, then one global prune -- all on global ids, i.e.
        strictly *pre-partition*.
        """
        blocker = self._blocker
        query_tokens = self._blocker_query_tokens(query, blocker)
        probe = blocker.probe_tokens(query_tokens)
        candidates = self._global_candidates(probe)
        allowed = blocker.prune(query_tokens, candidates)
        if self._restriction is not None:
            allowed = allowed & self._restriction
        return allowed

    # -- query time -------------------------------------------------------------

    def rank_pairs(self, query: str, limit: Optional[int] = None) -> List[Pair]:
        """Merged ranking, bit-identical to the unsharded predicate's."""
        self._require_fitted()
        merged = self._filtered_rank(query, limit)
        return merged if limit is None else merged[:limit]

    def _filtered_rank(self, query: str, limit: Optional[int]) -> List[Pair]:
        """Merged, blocker/restriction-honoring ranking (before any limit cut)."""
        blocker = self._blocker
        if blocker is not None and self._prunes_before_scoring:
            # Pre-scoring families: one global blocking decision, narrowed
            # into per-shard restrictions -- each shard only scores tuples
            # the (globally fitted) blocker admits.
            return self._answer(
                "rank", {"query": query, "limit": limit}, self._blocked_allowed(query)
            )
        # Post-scoring families (or no blocker): shards score their full
        # candidate sets (under any active restriction); the blocker then
        # prunes the merged rows, exactly like the unsharded post-scoring
        # path.  A limit can only be pushed into the shards when no blocker
        # filters rows afterwards.
        merged = self._answer(
            "rank",
            {"query": query, "limit": None if blocker is not None else limit},
            self._restriction,
        )
        if blocker is not None:
            allowed = self._allowed_after_scoring(query, (tid for tid, _ in merged))
            merged = [pair for pair in merged if pair[0] in allowed]
            self.last_num_candidates = len(merged)
        return merged

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Merged approximate selection (thresholded per shard where possible)."""
        self._require_fitted()
        self._check_blocker_threshold(threshold)
        blocker = self._blocker
        if blocker is not None and not self._prunes_before_scoring:
            # Post-scoring families: prune the merged *unthresholded* scores
            # first (as the unsharded path does), then threshold.
            merged = self._filtered_rank(query, limit=None)
            return [pair for pair in merged if pair[1] >= threshold]
        allowed = (
            self._blocked_allowed(query) if blocker is not None else self._restriction
        )
        return self._answer("select", {"query": query, "threshold": threshold}, allowed)

    def score(self, query: str, tid: int) -> float:
        """Similarity of one tuple: on a plain call, routed to its owning
        shard; under a blocker or a restriction, its score in :meth:`rank`
        (0.0 when ``rank`` leaves it out)."""
        self._require_fitted()
        if not 0 <= tid < len(self._strings):
            return 0.0
        if self._blocker is None and self._restriction is None:
            shard_id, local_tid = self._shard_of(tid)
            return self._shards[shard_id].score(query, local_tid)
        return dict(self._filtered_rank(query, None)).get(tid, 0.0)

    def top_k_pairs(self, query: str, k: int) -> List[Pair]:
        """The global top ``k``: exact merge of the per-shard top-k results."""
        self._require_fitted()
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            self.shard_stats = replace(self._layout, shards_run=0)
            self.last_num_candidates = 0
            return []
        if self._blocker is not None or self._restriction is not None:
            # Blocked top-k equals blocked rank cut to k (the same fallback
            # the unsharded aggregate family takes): the merge layer applies
            # the global blocking decision before the cut.
            return self._filtered_rank(query, limit=k)[:k]
        return self._answer("top_k", {"query": query, "k": k})[:k]

    def run_many_pairs(
        self,
        queries: Sequence[str],
        op: str = "rank",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[List[Pair]]:
        """Execute a query workload: one task per shard for the whole batch.

        Semantics match calling the corresponding single-query method per
        query; scheduling differs -- each shard receives the entire workload
        as a single task, so a process-pool executor pays one round trip per
        shard instead of one per (query, shard) pair.  Per-query candidate
        counts land in :attr:`last_batch_candidates` and
        :attr:`last_num_candidates` is reset to ``None`` (no single query's
        count would describe the batch).
        """
        queries = list(queries)
        check_batch_op(op, k, threshold)
        if op == "select":
            self._check_blocker_threshold(threshold)
        self._require_fitted()
        params = {"op": op, "k": k, "threshold": threshold, "limit": limit}
        answers: List[Tuple[List[Pair], Optional[int]]] = []
        if self._blocker is not None or self._restriction is not None:
            # Blocked batches take the per-query merge paths (the global
            # blocking decision is per query); candidate counts are still
            # recorded per query.
            for query in queries:
                merged = run_op(self, op, query, params)
                answers.append((merged, self.last_num_candidates))
        elif queries:
            cut = {"top_k": k, "rank": limit, "select": None}[op]
            answers = [
                (merged if cut is None else merged[:cut], candidates)
                for merged, candidates in self._round(
                    "run_many", {"queries": queries, **params}
                )
            ]
        self.last_batch_candidates = [candidates for _, candidates in answers]
        self.last_num_candidates = None
        return [merged for merged, _ in answers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        return (
            f"ShardedPredicate({self.name}, shards={self.num_shards}, "
            f"executor={self._executor.name!r}, {status}, n={len(self._strings)})"
        )
