"""The similarity service: corpora, engines and the request pipeline.

:class:`SimilarityService` is the asyncio front of the library -- everything
the HTTP server does is one call to :meth:`~SimilarityService.handle`.  One
request flows::

    handle(payload)
      parse            (protocol.parse_query_request -> 400 on bad input)
      serve.request    (span; also the latency.serve.request histogram)
      ├─ admission     (bounded queue + concurrency; 429 / 504 failures)
      ├─ batch_wait    (in a bucket: none while the corpus is idle, else
      │                 until its engine frees up, capped by the window)
      └─ batch         (micro-batcher coalesces compatible requests...)
         └─ engine.query / run_many   (...into one engine execution)

Each registered corpus owns one :class:`~repro.engine.query.SimilarityEngine`
whose fitted-state caches make repeated queries cheap, binds its relation to
that engine once and keeps one built :class:`~repro.engine.query.Query` per
plan, so what a request costs does not depend on the relation's size.  The
engines share the service's :class:`~repro.obs.trace.Observability` holder
by reference, so the engine's own span tree (``engine.query ->
fit/cache_hit -> execute.*``) nests under the service's ``serve.batch`` span
and one metrics registry sees every layer.  Corpora are interned by content
hash and evicted LRU beyond ``max_corpora`` -- eviction drops the entry's
built queries and calls the engine's ``clear_cache()``, which closes
engine-owned SQL backends and shard worker pools (the warm-state lifecycle
the engine already defines).

Batches execute on worker threads (``asyncio.to_thread``) so the event loop
keeps accepting requests while the engine computes; a per-corpus lock
serializes executions on one engine, which keeps per-call stats objects
coherent and -- together with the engine's internal lock -- makes served
results bit-identical to direct engine calls under any interleaving.  That
lock is also why the corpus is the batcher's *lane*: a request waits for
company only while a batch of its corpus is executing.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predicates.base import Match
from repro.engine.query import Query, SimilarityEngine
from repro.obs.clock import perf_clock
from repro.obs.trace import Observability, Span
from repro.resilience import (
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    deadline_scope,
    faults_from_env,
)
from repro.serve.admission import AdmissionController, AdmissionTimeout, RejectedError
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    ProtocolError,
    QueryRequest,
    error_envelope,
    parse_query_request,
    result_envelope,
)

__all__ = ["SimilarityService", "corpus_id_for"]

logger = logging.getLogger("repro.serve")


def corpus_id_for(strings: Sequence[str]) -> str:
    """Deterministic content id of a relation (same strings -> same id)."""
    digest = hashlib.sha1()
    for text in strings:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:12]


@dataclass
class _CorpusEntry:
    """One registered relation: its strings, engine and execution lock."""

    corpus_id: str
    strings: List[str]
    engine: SimilarityEngine
    #: The relation bound to the engine, once; every plan's query derives
    #: from it, so no request pays ``from_strings`` for the whole relation.
    relation: Query
    #: Isolates a persistently failing corpus: once tripped, its requests
    #: fail fast with 503 instead of burning worker threads, while healthy
    #: corpora on the same service keep executing.
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    #: Serializes batch executions on this corpus's engine so per-call stats
    #: and staged declarative tables never interleave across worker threads.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: One built query per plan -- the batch-key fields that shape a
    #: :class:`Query`: predicate, realization, backend, num_shards, executor
    #: -- kept once the plan has answered; dropped with the entry's warm
    #: state on eviction and ``close()``.
    queries: Dict[Tuple, Query] = field(default_factory=dict)  # guarded-by: lock

    def release(self) -> None:
        """Drop every built query and the engine's warm state, after any
        in-flight batch on this corpus."""
        with self.lock:
            self.queries.clear()
            self.engine.clear_cache()


class SimilarityService:
    """Asyncio request pipeline over per-corpus similarity engines."""

    def __init__(
        self,
        max_concurrency: int = 4,
        max_queue: int = 16,
        default_timeout: Optional[float] = 30.0,
        batch_window: float = 0.005,
        batch_max: int = 16,
        max_corpora: int = 8,
        obs: Optional[Observability] = None,
        faults: Optional[FaultInjector] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
        drain_timeout: Optional[float] = None,
    ):
        if max_corpora < 1:
            raise ValueError("max_corpora must be >= 1")
        self.obs = obs if obs is not None else Observability()
        self.default_timeout = default_timeout
        self.max_corpora = int(max_corpora)
        #: One injector shared with every corpus engine, so a ``REPRO_FAULTS``
        #: plan (or an explicitly passed injector) covers the whole pipeline
        #: -- ``serve.batch`` here, ``shard.task`` / ``sql.statement`` below
        #: -- with one consistent set of call counters.
        self.faults = faults if faults is not None else faults_from_env()
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset = float(breaker_reset)
        #: Upper bound on how long :meth:`drain` waits for in-flight work;
        #: ``None`` waits forever (the pre-existing behavior).  On expiry the
        #: remaining work is abandoned, logged and counted.
        self.drain_timeout = drain_timeout
        self.admission = AdmissionController(
            max_concurrency=max_concurrency, max_queue=max_queue, obs=self.obs
        )
        self.batcher = MicroBatcher(
            self._run_batch, window=batch_window, max_batch=batch_max, obs=self.obs
        )
        self._corpora: "OrderedDict[str, _CorpusEntry]" = OrderedDict()  # guarded-by: _corpora_lock
        self._corpora_lock = threading.Lock()
        self._draining = False

    # -- corpus lifecycle --------------------------------------------------------

    def register_corpus(self, strings: Sequence[str]) -> Tuple[str, int, bool]:
        """Intern a relation; returns ``(corpus_id, num_tuples, created)``.

        Registering the same strings twice is idempotent (same id, warm
        engine kept).  Beyond ``max_corpora`` the least recently used corpus
        is evicted and its engine's warm state released via ``clear_cache``.
        """
        if not isinstance(strings, (list, tuple)) or not all(
            isinstance(text, str) for text in strings
        ):
            raise ProtocolError("strings must be a JSON array of strings")
        if not strings:
            raise ProtocolError("strings must not be empty")
        corpus_id = corpus_id_for(strings)
        with self._corpora_lock:
            entry = self._corpora.get(corpus_id)
            if entry is not None:
                self._corpora.move_to_end(corpus_id)
                return corpus_id, len(entry.strings), False
            engine = SimilarityEngine(faults=self.faults)
            # Share the service's observability holder by reference so
            # tracer swaps and metrics reach every engine layer.
            engine.obs = self.obs
            self._corpora[corpus_id] = _CorpusEntry(
                corpus_id=corpus_id,
                strings=list(strings),
                engine=engine,
                relation=engine.from_strings(strings),
                breaker=CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    reset_timeout=self.breaker_reset,
                ),
            )
            evicted = []
            while len(self._corpora) > self.max_corpora:
                _, stale = self._corpora.popitem(last=False)
                evicted.append(stale)
        for stale in evicted:
            stale.release()
            self.obs.metrics.inc("serve.corpora_evicted_total")
        return corpus_id, len(strings), True

    def corpus(self, corpus_id: str) -> _CorpusEntry:
        """Look up a registered corpus (LRU touch); 404 when unknown."""
        with self._corpora_lock:
            entry = self._corpora.get(corpus_id)
            if entry is None:
                raise ProtocolError(
                    f"unknown corpus_id {corpus_id!r}; register it via POST /corpora",
                    status=404,
                    error="unknown_corpus",
                )
            self._corpora.move_to_end(corpus_id)
            return entry

    @property
    def corpus_ids(self) -> List[str]:
        with self._corpora_lock:
            return list(self._corpora)

    def close(self) -> None:
        """Release every engine's warm state (backends, pools, corpora)."""
        with self._corpora_lock:
            entries = list(self._corpora.values())
            self._corpora.clear()
        for entry in entries:
            entry.release()

    # -- request pipeline --------------------------------------------------------

    async def handle(self, payload: object) -> dict:
        """Serve one query request; always returns a response envelope.

        Failure ladder, outermost first: 400 (parse), 503 (draining or an
        open circuit breaker, both carrying ``retry_after``), 404 (unknown
        corpus), 429/504 (admission), 504 (deadline -- whether caught by
        ``wait_for`` on the event loop or by an in-engine ``check_deadline``),
        and finally 500: an unexpected engine exception becomes a JSON error
        envelope instead of tearing down the connection.
        """
        metrics = self.obs.metrics
        metrics.inc("serve.requests_total")
        started = perf_clock()
        try:
            request = parse_query_request(payload, self.default_timeout)
            if self._draining:
                raise ProtocolError(
                    "server is draining; retry against another instance",
                    status=503,
                    error="draining",
                )
            entry = self.corpus(request.corpus_id)  # 404 before queuing
            try:
                entry.breaker.allow()  # fast 503 before any engine work
            finally:
                self._publish_breaker(entry)
            # The deadline is minted here -- covering queue wait *and*
            # execution -- and rides the request into the batch, where
            # `deadline_scope` makes it ambient for the engine layers.
            request = replace(request, deadline=Deadline(request.timeout))
            matches, batch_size = await asyncio.wait_for(
                self._admit_and_run(request),
                timeout=request.timeout,
            )
        except ProtocolError as exc:
            envelope = exc.envelope()
        except BreakerOpen as exc:
            metrics.inc("serve.breaker_rejections_total")
            envelope = error_envelope(
                503, "breaker_open", str(exc), retry_after=exc.retry_after
            )
        except (RejectedError, AdmissionTimeout) as exc:
            envelope = error_envelope(exc.status, exc.error, str(exc))
        except (asyncio.TimeoutError, DeadlineExceeded):
            metrics.inc("serve.timeouts_total")
            budget = (
                f"request deadline of {request.timeout:.3f}s expired"
                if request.timeout is not None
                else "request deadline expired"
            )
            envelope = error_envelope(504, "timeout", budget)
        except Exception as exc:  # degraded mode: a bug answers 500, not a crash
            logger.exception("unexpected error serving request")
            envelope = error_envelope(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        else:
            envelope = result_envelope(
                request, matches, batch_size, perf_clock() - started
            )
        elapsed = perf_clock() - started
        metrics.observe("latency.serve.request", elapsed)
        if envelope["status"] != 200:
            metrics.inc("serve.errors_total")
        return envelope

    def _publish_breaker(self, entry: _CorpusEntry) -> None:
        """Export the breaker state gauge (0 closed / 1 open / 2 half-open)."""
        self.obs.metrics.gauge(
            f"serve.breaker_state.{entry.corpus_id}"
        ).set(entry.breaker.state_value)

    async def _admit_and_run(
        self, request: QueryRequest
    ) -> Tuple[List[Match], int]:
        """Admission then batched execution, inside the ``serve.request`` span.

        The span is built by hand rather than as a context manager: the
        batch executes on a worker thread (its spans open on that thread's
        stack), so the request span adopts the finished batch span as a
        child record instead of nesting it live.
        """
        tracer = self.obs.tracer
        span = (
            Span(
                "serve.request",
                start=perf_clock(),
                attributes={
                    "corpus_id": request.corpus_id,
                    "op": request.op,
                    "predicate": request.predicate,
                },
            )
            if tracer.enabled
            else None
        )
        try:
            admit_started = perf_clock()
            async with self.admission.admit(timeout=request.timeout):
                if span is not None:
                    span.attach(
                        Span(
                            "serve.admission",
                            start=admit_started,
                            end=perf_clock(),
                        )
                    )
                submitted = perf_clock()
                matches, batch_span, batch_size, batch_started = (
                    await self.batcher.submit(
                        request.batch_key(), request, lane=request.corpus_id
                    )
                )
            if span is not None:
                span.set(batch_size=batch_size)
                span.attach(
                    Span("serve.batch_wait", start=submitted, end=batch_started)
                )
                if batch_span is not None:
                    span.attach(Span.from_dict(batch_span))
            return matches, batch_size
        finally:
            if span is not None:
                span.end = perf_clock()
                tracer.last_root = span

    # -- batch execution ---------------------------------------------------------

    async def _run_batch(
        self, key: Tuple, requests: Sequence[QueryRequest]
    ) -> List[Tuple[List[Match], Optional[dict], int, float]]:
        """Execute one coalesced batch off the event loop.

        Every waiter gets its matches, the batch's span record and size, and
        when the batch started (the end of its ``serve.batch_wait``).
        """
        started = perf_clock()
        batches, batch_span = await asyncio.to_thread(
            self._execute_batch, requests
        )
        size = len(requests)
        return [(matches, batch_span, size, started) for matches in batches]

    def _execute_batch(
        self, requests: Sequence[QueryRequest]
    ) -> Tuple[List[List[Match]], Optional[dict]]:
        """Worker-thread body: one ``run_many`` for the whole bucket.

        All requests share one batch key, so the first request describes the
        plan for all of them; the plan's built query is kept on the entry
        once it has answered, so later batches neither rebind the relation
        nor rebuild the query.  ``run_many`` routes each query through the
        same code paths as the single-query terminals, which is what makes
        the split results bit-identical to individual calls.

        The batch executes under the *latest* of its waiters' deadlines
        (:meth:`Deadline.combine`): a batch may only be abandoned once every
        waiter is out of time, since stopping at the earliest deadline would
        discard work other waiters still need.  The corpus breaker records
        one verdict per batch -- engine failures count against it, deadline
        expiry does not (a slow request says nothing about corpus health).
        """
        first = requests[0]
        entry = self.corpus(first.corpus_id)
        plan = (
            first.predicate,
            first.realization,
            first.backend,
            first.num_shards,
            first.executor,
        )
        tracer = self.obs.tracer
        batch_deadline = Deadline.combine(
            tuple(request.deadline for request in requests)
        )
        try:
            with entry.lock, deadline_scope(batch_deadline):
                if self.faults.active:
                    self.faults.check("serve.batch")
                with tracer.span(
                    "serve.batch",
                    corpus_id=first.corpus_id,
                    op=first.op,
                    predicate=first.predicate,
                    batch_size=len(requests),
                ) as span:
                    query = entry.queries.get(plan)
                    if query is None:
                        query = self._build_query(entry, first)
                    batches = query.run_many(
                        [request.text for request in requests],
                        op=first.op,
                        k=first.k,
                        threshold=first.threshold,
                        limit=first.limit,
                    )
                    entry.queries[plan] = query
        except DeadlineExceeded:
            raise
        except Exception:
            entry.breaker.record_failure()
            self._publish_breaker(entry)
            raise
        entry.breaker.record_success()
        self._publish_breaker(entry)
        record = span.to_dict() if tracer.enabled else None
        return batches, record

    @staticmethod
    def _build_query(entry: _CorpusEntry, request: QueryRequest) -> Query:
        query = entry.relation.predicate(request.predicate)
        if request.realization is not None:
            query = query.realization(request.realization)
        if request.backend is not None:
            query = query.backend(request.backend)
        if request.num_shards > 1:
            query = query.shards(request.num_shards, executor=request.executor)
        return query

    # -- drain -------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop taking new requests, finish everything in flight.

        Event-driven rather than polled: the admission controller signals
        when its last request releases, and ``flush_all`` awaits the actual
        flush tasks -- the drain loop sleeps on those events instead of
        spinning on a 5ms poll.  With ``drain_timeout`` set, work still in
        flight when the budget expires is abandoned (logged and counted as
        ``serve.drain_abandoned_total``); waiters see their futures fail
        when the loop shuts down rather than hanging a stuck drain forever.
        """
        self._draining = True
        if self.drain_timeout is None:
            await self._drain_idle()
            return
        try:
            await asyncio.wait_for(self._drain_idle(), self.drain_timeout)
        except asyncio.TimeoutError:
            abandoned = (
                self.admission.active + self.admission.waiting + self.batcher.pending
            )
            logger.warning(
                "drain timed out after %.3fs; abandoning %d in-flight request(s)",
                self.drain_timeout,
                abandoned,
            )
            self.obs.metrics.inc("serve.drain_abandoned_total", abandoned)

    async def _drain_idle(self) -> None:
        """Wait until no request is admitted, queued or batched anywhere."""
        while True:
            await self.batcher.flush_all()
            await self.admission.wait_idle()
            if not (
                self.admission.active
                or self.admission.waiting
                or self.batcher.pending
            ):
                return

    @property
    def draining(self) -> bool:
        return self._draining
