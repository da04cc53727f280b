"""Process-wide named counters and fixed-bucket histograms.

The per-call work records (:class:`~repro.blocking.base.BlockingStats`,
:class:`~repro.declarative.base.SQLStats`,
:class:`~repro.shard.predicate.ShardStats`,
:class:`~repro.engine.plan.RunManyStats`,
:class:`~repro.resilience.stats.ResilienceStats`,
:class:`~repro.core.join.SelfJoinStats`) describe *one* operation and are
overwritten by the next.  They share one protocol, :class:`CounterRecord`:
each field is a counter that names its metric, and publishing, printing,
merging (``a + b``) and deltas (``after - before``) are implemented once,
here.  The :class:`MetricsRegistry` accumulates what they publish into
long-lived counters and latency histograms a serving front (or the planned
cost model) can read at any time.

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

import operator
import threading
from bisect import bisect_right
from dataclasses import field, fields
from functools import lru_cache
from typing import ClassVar, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_METRICS",
    "DEFAULT_LATENCY_BUCKETS",
    "CounterRecord",
    "counter_field",
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


def counter_field(
    metric: Optional[str], default: object = 0, span: Optional[str] = None
):
    """A field of a :class:`CounterRecord` that publishes as ``metric``.

    A tuple-valued field publishes one event per element, under
    ``metric.format(element)``; a ``None`` metric (or a field declared with
    a plain default) is described but not published.  ``span`` names the
    attribute the engine sets the field under on its ``execute`` span.
    """
    return field(default=default, metadata={"metric": metric, "span": span})


_Pairs = Tuple[Tuple[str, str], ...]


@lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Tuple[str, ...], _Pairs, _Pairs]:
    """A record class's field names, ``(field, metric)`` pairs and
    ``(field, span attribute)`` pairs, read off its dataclass fields once
    per class."""
    specs = fields(cls)
    names = tuple(spec.name for spec in specs)
    published, spanned = (
        tuple((spec.name, spec.metadata[key]) for spec in specs if spec.metadata.get(key))
        for key in ("metric", "span")
    )
    return names, published, spanned


def _text(value: object) -> str:
    return "+".join(map(str, value)) if isinstance(value, tuple) else str(value)


class CounterRecord:
    """The protocol of every per-call work record.

    A record is a dataclass whose fields are its counters, each naming the
    registry metric it publishes as (:func:`counter_field`) or none.  From
    that one declaration every record gets:

    * :meth:`publish` -- increments each metric by its field's value; zeros
      are skipped, so a clean run adds no counter churn;
    * :meth:`describe` -- ``name=value`` for the non-zero fields, or the
      class's :attr:`describe_format` filled in with the record;
    * :meth:`span_attributes` -- the fields the engine mirrors onto its
      ``execute`` span;
    * ``a + b`` (merge) and ``after - before`` (delta): numeric fields add
      and subtract; any other field is a label (an executor name, the SQL
      plan steps), which ``+`` takes from ``b`` unless empty and ``-`` takes
      from ``after``.
    """

    #: ``str.format`` template over the record (``{0.field}``), for records
    #: whose line in ``explain()`` / the CLI is fixed text; ``None`` =
    #: ``name=value``.
    describe_format: ClassVar[Optional[str]] = None

    def publish(self, metrics: MetricsRegistry) -> None:
        """Accumulate the non-zero fields into ``metrics``."""
        for name, metric in _layout(type(self))[1]:
            value = getattr(self, name)
            if not value:
                continue
            if isinstance(value, tuple):
                for item in value:
                    metrics.inc(metric.format(item))
            else:
                metrics.inc(metric, value)

    def span_attributes(self) -> Dict[str, object]:
        """``{span attribute: value}`` of the span-named fields; empty when
        every published field is zero (the record publishes nothing)."""
        _, published, spanned = _layout(type(self))
        if not any(getattr(self, name) for name, _ in published):
            return {}
        return {attribute: getattr(self, name) for name, attribute in spanned}

    def describe(self) -> str:
        """One human line for ``explain()`` and the CLI."""
        if self.describe_format is not None:
            return self.describe_format.format(self)
        pairs = [
            (name, value)
            for name in _layout(type(self))[0]
            if (value := getattr(self, name))
        ]
        return ", ".join(f"{name}={_text(value)}" for name, value in pairs) or "-"

    def __add__(self, other):
        return self._combine(other, operator.add, lambda mine, theirs: theirs or mine)

    def __sub__(self, other):
        return self._combine(other, operator.sub, lambda mine, _theirs: mine)

    def _combine(self, other, arithmetic, label):
        if type(other) is not type(self):
            return NotImplemented
        values = {}
        for name in _layout(type(self))[0]:
            mine, theirs = getattr(self, name), getattr(other, name)
            values[name] = (
                arithmetic(mine, theirs)
                if isinstance(mine, (int, float))
                else label(mine, theirs)
            )
        return type(self)(**values)
