"""Request admission: a bounded waiting room in front of the engine.

The serving layer multiplexes many clients over CPU-bound engine work, so
unbounded acceptance just converts overload into unbounded latency.  The
:class:`AdmissionController` enforces the classic two-knob policy instead:

* at most ``max_concurrency`` requests execute at once (an
  :class:`asyncio.Semaphore`);
* at most ``max_queue`` requests wait for a slot -- the next one is rejected
  *immediately* with :class:`RejectedError` (HTTP 429), which is the
  backpressure signal that keeps queues short and tail latencies bounded;
* a waiter whose per-request deadline expires before a slot frees is failed
  with :class:`AdmissionTimeout` (HTTP 504).

Every transition is published: gauges ``serve.queue_depth`` and
``serve.active_requests`` track the instantaneous occupancy (with high-water
marks), counters ``serve.rejections_total`` / ``serve.timeouts_total`` count
the failures, and the ``latency.serve.admission_wait`` histogram records how
long admitted requests queued.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator, Optional

from repro.obs.clock import perf_clock
from repro.obs.trace import Observability

__all__ = ["AdmissionController", "RejectedError", "AdmissionTimeout"]


class RejectedError(Exception):
    """Queue full: the request was turned away without waiting (HTTP 429)."""

    status = 429
    error = "rejected"


class AdmissionTimeout(Exception):
    """The per-request deadline expired while queued (HTTP 504)."""

    status = 504
    error = "timeout"


class AdmissionController:
    """Bounded concurrency + bounded queue with immediate-reject overflow."""

    def __init__(
        self,
        max_concurrency: int = 4,
        max_queue: int = 16,
        obs: Optional[Observability] = None,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = int(max_concurrency)
        self.max_queue = int(max_queue)
        self.obs = obs if obs is not None else Observability()
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._waiting = 0
        self._active = 0
        # Set whenever no request is queued or executing; drain sleeps on
        # this instead of polling the counters.
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def waiting(self) -> int:
        """Requests currently queued for a slot."""
        return self._waiting

    @property
    def active(self) -> int:
        """Requests currently holding an execution slot."""
        return self._active

    async def wait_idle(self) -> None:
        """Block until no request is queued or holding a slot."""
        await self._idle.wait()

    def _update_idle(self) -> None:
        if self._active == 0 and self._waiting == 0:
            self._idle.set()
        else:
            self._idle.clear()

    @asynccontextmanager
    async def admit(self, timeout: Optional[float] = None) -> AsyncIterator[None]:
        """Hold an execution slot for the duration of the ``with`` body.

        Raises :class:`RejectedError` without waiting when the queue is
        full, :class:`AdmissionTimeout` when ``timeout`` seconds pass before
        a slot frees.
        """
        metrics = self.obs.metrics
        if self._waiting >= self.max_queue and self._semaphore.locked():
            metrics.inc("serve.rejections_total")
            raise RejectedError(
                f"queue full ({self._waiting} waiting, "
                f"{self.max_queue} allowed); retry later"
            )
        self._waiting += 1
        self._update_idle()
        metrics.gauge("serve.queue_depth").set(self._waiting)
        started = perf_clock()
        try:
            if timeout is None or not self._semaphore.locked():
                # A free slot is taken without suspending, so the deadline
                # cannot expire here: skip wait_for's Task and timer handle.
                await self._semaphore.acquire()
            else:
                try:
                    await asyncio.wait_for(self._semaphore.acquire(), timeout)
                except asyncio.TimeoutError:
                    metrics.inc("serve.timeouts_total")
                    raise AdmissionTimeout(
                        f"no execution slot within {timeout:.3f}s"
                    ) from None
        finally:
            self._waiting -= 1
            self._update_idle()
            metrics.gauge("serve.queue_depth").set(self._waiting)
        metrics.observe("latency.serve.admission_wait", perf_clock() - started)
        self._active += 1
        self._update_idle()
        metrics.gauge("serve.active_requests").set(self._active)
        try:
            yield
        finally:
            self._active -= 1
            self._update_idle()
            metrics.gauge("serve.active_requests").set(self._active)
            self._semaphore.release()
