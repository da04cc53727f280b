"""Micro-batching: coalesce compatible requests into one engine execution.

Concurrent clients asking the same plan (same corpus, predicate, backend,
operation and parameters -- see
:meth:`~repro.serve.protocol.QueryRequest.batch_key`) do not need one engine
execution each: :meth:`Query.run_many` answers the whole set against one
shared fitted state.  On the declarative realization an uncut batch
(``rank`` / ``select``) scores the entire workload in one SQL statement; a
cut one (``top_k``, or ``rank`` with a limit) of a family whose scoring is
one ``SELECT`` runs one ``ORDER BY ... LIMIT`` statement per query on SQLite
and keeps the one batch statement on the in-memory backend.  A batch exists
to share that one execution,
so waiting for company only buys anything while the engine is *busy*: the
:class:`MicroBatcher` counts the batches in flight per **lane** (the
service's lane is the corpus, whose executions its lock serialises anyway)
and closes a bucket at the earliest of

* its lane being **idle** -- at once on arrival when nothing of the lane is
  executing, otherwise the moment the lane's last in-flight batch finishes
  (oldest open bucket first, one bucket per release, so the others keep
  collecting);
* the bucket reaching ``max_batch`` entries;
* ``window`` seconds having passed since the bucket opened -- the cap on how
  long a request waits for company behind a busy engine, after which it is
  dispatched anyway and queues on whatever serialises the runner.

An idle server therefore adds no wait, and batch size follows load by
itself.  Each submitter awaits a future resolved with its own slice of the
batch result.

Coalescing changes *when* work runs, not *what* it computes.  On the direct
realization ``run_many`` executes the same per-query code paths as the
single-query terminals, so a batched answer is bit-identical to the answer
the request would have gotten alone (the serving test-suite asserts this).
An uncut declarative batch on SQLite is not held to that: its one statement
may sum a near-tie's contributions in another float order than the
per-query statement, so two tuples whose scores differ in the last bits can
swap places.

Futures may be abandoned (the submitter's deadline expired and
``asyncio.wait_for`` cancelled the await); the flush checks ``fut.done()``
before resolving, so a late batch never trips over a cancelled waiter.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.clock import perf_clock
from repro.obs.trace import Observability

__all__ = ["MicroBatcher"]

#: Histogram buckets for the ``serve.batch_size`` distribution.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _Bucket:
    """Requests of one batch key collecting until their flush."""

    __slots__ = ("lane", "items", "timer")

    def __init__(self, lane: Hashable) -> None:
        self.lane = lane
        #: ``(request, waiter, submitted_at)`` in arrival order.
        self.items: List[Tuple[object, asyncio.Future, float]] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class MicroBatcher:
    """Coalesces ``submit()`` calls per key while their lane is busy.

    Parameters
    ----------
    runner:
        ``async (key, requests) -> results`` executing one batch; must
        return exactly one result per request, in request order.
    window:
        Longest a request waits for company behind a busy lane, in seconds;
        ``0`` never coalesces.  An idle lane never waits at all.
    max_batch:
        Bucket size that flushes at once, busy lane or not.
    """

    def __init__(
        self,
        runner: Callable[[Hashable, Sequence[object]], Awaitable[Sequence[object]]],
        window: float = 0.005,
        max_batch: int = 16,
        obs: Optional[Observability] = None,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._runner = runner
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.obs = obs if obs is not None else Observability()
        #: Open buckets by key; insertion order is age, oldest first.
        self._buckets: Dict[Hashable, _Bucket] = {}
        #: Batches executing per lane; a lane with no entry is idle.
        self._in_flight: Dict[Hashable, int] = {}
        self._flushes: set = set()

    @property
    def pending(self) -> int:
        """Requests currently waiting in open buckets."""
        return sum(len(bucket.items) for bucket in self._buckets.values())

    async def submit(
        self, key: Hashable, request: object, lane: Optional[Hashable] = None
    ) -> object:
        """Enqueue one request and await its individual result.

        ``lane`` names what serialises this key's executions (default: the
        key itself); the request waits for company only while a batch of
        its lane is executing.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key if lane is None else lane)
        bucket.items.append((request, future, perf_clock()))
        if bucket.lane not in self._in_flight:
            self._close_bucket(key, bucket, "idle")
        elif len(bucket.items) >= self.max_batch:
            self._close_bucket(key, bucket, "full")
        elif not self.window:
            self._close_bucket(key, bucket, "window")
        elif bucket.timer is None:
            bucket.timer = loop.call_later(
                self.window, self._close_bucket, key, bucket, "window"
            )
        try:
            return await future
        except asyncio.CancelledError:
            # The submitter's deadline expired: ``asyncio.wait_for`` cancelled
            # this coroutine while the batch may still be running.  Cancelling
            # a task normally cancels the awaited future too, but make it
            # explicit so a late flush's ``done()`` check reliably skips the
            # abandoned waiter instead of tripping on InvalidStateError.
            future.cancel()
            raise

    async def flush_all(self) -> None:
        """Flush every open bucket now and wait for in-flight flushes (drain).

        Every flush, whatever closed its bucket, is a task in ``_flushes``,
        so this waits for all of them.  Uses ``asyncio.wait`` rather than
        ``gather``: a *bounded* drain cancels this wait when its budget
        expires, and that cancellation must not propagate into the flush
        tasks themselves -- an abandoned drain still lets in-flight batches
        finish and resolve their waiters.
        """
        for key, bucket in list(self._buckets.items()):
            self._close_bucket(key, bucket, "drain")
        while self._flushes:
            await asyncio.wait(list(self._flushes))

    # -- internals ---------------------------------------------------------------

    def _close_bucket(self, key: Hashable, bucket: _Bucket, cause: str) -> None:
        """The one way a flush starts: detach the bucket from the open set,
        mark its lane busy and run it as a tracked task.  ``cause`` is what
        closed it (``idle`` / ``lane_free`` / ``full`` / ``window`` /
        ``drain``), counted so ``GET /metrics`` explains the batch sizes."""
        del self._buckets[key]
        if bucket.timer is not None:
            bucket.timer.cancel()
        self._in_flight[bucket.lane] = self._in_flight.get(bucket.lane, 0) + 1
        self.obs.metrics.inc("serve.flushes_total." + cause)
        task = asyncio.get_running_loop().create_task(self._flush(key, bucket))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    def _release(self, lane: Hashable) -> None:
        """One batch of ``lane`` finished; once the lane is idle its oldest
        waiting bucket goes next (and makes the lane busy again)."""
        remaining = self._in_flight[lane] - 1
        if remaining:
            self._in_flight[lane] = remaining
            return
        del self._in_flight[lane]
        for key, bucket in self._buckets.items():
            if bucket.lane == lane:
                self._close_bucket(key, bucket, "lane_free")
                return

    async def _flush(self, key: Hashable, bucket: _Bucket) -> None:
        items = bucket.items
        metrics = self.obs.metrics
        started = perf_clock()
        waited = metrics.histogram("latency.serve.batch_wait")
        for _, _, submitted in items:
            waited.observe(started - submitted)
        metrics.inc("serve.batches_total")
        metrics.inc("serve.batched_queries_total", len(items))
        metrics.histogram("serve.batch_size", BATCH_SIZE_BUCKETS).observe(len(items))
        requests = [request for request, _, _ in items]
        try:
            results = await self._runner(key, requests)
            if len(results) != len(requests):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(requests)} requests"
                )
        except Exception as exc:  # resolve every waiter, never swallow
            for _, future, _ in items:
                self._resolve(future, error=exc)
        else:
            for (_, future, _), result in zip(items, results):
                self._resolve(future, result=result)
        finally:
            # Failed, cancelled or abandoned by every waiter: the lane is
            # freed whatever became of the batch.
            self._release(bucket.lane)

    @staticmethod
    def _resolve(
        future: asyncio.Future, result: object = None, error: Optional[BaseException] = None
    ) -> None:
        """Resolve one waiter, tolerating cancellation at any point.

        ``done()`` filters waiters whose deadlines expired mid-batch; the
        InvalidStateError guard covers the remaining sliver where a future is
        cancelled between that check and the set (belt and braces -- both run
        on the event loop, but the contract must not depend on it).
        """
        if future.done():
            return
        with contextlib.suppress(asyncio.InvalidStateError):
            # InvalidStateError: cancelled since the done() check above.
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
