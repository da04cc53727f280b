"""Process-wide named counters and fixed-bucket histograms.

The engine's per-call stats dataclasses
(:class:`~repro.declarative.base.SQLStats`,
:class:`~repro.engine.plan.RunManyStats`, :class:`~repro.blocking.base.
BlockingStats`, :class:`~repro.shard.predicate.ShardStats`) describe *one*
operation and are overwritten by the next; the :class:`MetricsRegistry`
accumulates them into long-lived counters and latency histograms a serving
front (or the planned cost model) can read at any time.

Conventions:

* counters are monotone totals (``queries_total``, ``cache_hits``,
  ``core_builds_total``, ``core_reuses_total``, ``sql_statements_total``,
  ``shards_run``, ``shard_tasks``, ...);
* histograms observe seconds into fixed buckets
  (``latency.fit``, ``latency.execute.direct|declarative|sharded``);
* gauges are point-in-time levels that go up *and* down
  (``serve.queue_depth``, ``serve.active_requests``, written by the serving
  layer's admission controller; ``engine.core.rows`` / ``.vocabulary`` /
  ``.postings``, the size of the corpus cores the engines hold).

:data:`GLOBAL_METRICS` is the default registry every engine publishes into;
pass ``SimilarityEngine(metrics=MetricsRegistry())`` for an isolated one.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_METRICS",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Upper bounds (seconds) of the default latency buckets: 100 µs .. 10 s,
#: roughly log-spaced, plus an implicit overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotone named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time level that can rise and fall (queue depths etc.).

    Unlike :class:`Counter`, a gauge is not monotone: ``set`` overwrites the
    level and ``inc``/``dec`` move it.  ``high_water`` remembers the maximum
    level ever set, which is what capacity planning reads after a load run.
    """

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.high_water = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value}, high_water={self.high_water})"


class Histogram:
    """A fixed-bucket histogram of observed values (typically seconds).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot is
    the overflow bucket.  Quantiles are bucket-resolution estimates: the
    upper bound of the bucket where the cumulative count crosses ``q``.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be within (0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return float("inf")  # overflow bucket
        return float("inf")  # pragma: no cover - unreachable

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.6f})"


class MetricsRegistry:
    """Named counters and histograms, created on first use, thread-safe."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    # -- access ------------------------------------------------------------------
    #
    # The getters run a lock-free fast path first: dict.get is GIL-atomic
    # and metric objects are only ever added (reset() is tests-only), so a
    # hit needs no lock and the hot engine paths never serialize on the
    # registry.  Creation falls into the locked setdefault.

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)  # repro-analysis: disable=RPL004 reason=GIL-atomic dict.get fast path; creation races fall through to the locked setdefault below
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)  # repro-analysis: disable=RPL004 reason=GIL-atomic dict.get fast path; creation races fall through to the locked setdefault below
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self._histograms.get(name)  # repro-analysis: disable=RPL004 reason=GIL-atomic dict.get fast path; creation races fall through to the locked setdefault below
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, buckets or DEFAULT_LATENCY_BUCKETS)
                )
        return histogram

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment the named counter (created at zero if missing)."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name).observe(value)

    def value(self, name: str) -> float:
        """Current value of a counter (0 if it was never incremented)."""
        counter = self._counters.get(name)  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an insert-only dict; a racing creation just reads as 0
        return counter.value if counter is not None else 0

    def gauge_value(self, name: str) -> float:
        """Current level of a gauge (0 if it was never set)."""
        gauge = self._gauges.get(name)  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an insert-only dict; a racing creation just reads as 0
        return gauge.value if gauge is not None else 0

    # -- snapshots ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (see :mod:`repro.obs.export`)."""
        # Unlike the single-key reads above, iterating the dicts while
        # another thread inserts raises RuntimeError (dict mutated during
        # iteration) -- snapshots take the lock (RPL004).
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: {"value": gauge.value, "high_water": gauge.high_water}
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Drop every counter, gauge and histogram (tests; not live engines)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry (every engine without an explicit
#: ``metrics=`` publishes here).
GLOBAL_METRICS = MetricsRegistry()
