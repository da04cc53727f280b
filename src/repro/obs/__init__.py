"""Observability: span-tree tracing, a metrics registry, and JSON export.

This package is the instrumentation seam of the engine.  The pieces:

* :mod:`repro.obs.clock` -- :func:`perf_clock`, the single sanctioned
  monotonic clock (bare ``time.perf_counter()`` is banned elsewhere);
* :mod:`repro.obs.trace` -- :class:`Tracer` / :class:`Span` span trees with
  an injectable clock, the zero-cost :data:`NOOP_TRACER`, and the
  :class:`Observability` holder the engine threads through its layers;
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` counters and
  fixed-bucket histograms, with the process-wide :data:`GLOBAL_METRICS`,
  and :class:`CounterRecord`, the one protocol of the per-call work records
  that publish into it;
* :mod:`repro.obs.export` -- the versioned JSON schemas for traces, metrics
  snapshots and benchmark reports.

Quick start::

    from repro import SimilarityEngine
    from repro.obs import Tracer

    engine = SimilarityEngine(tracer=Tracer())
    query = engine.from_strings(rows).predicate("bm25")
    traced = query.trace("Morgn Stanley", op="top_k", k=5)
    print(traced.span.describe())
"""

from repro.obs.clock import perf_clock
from repro.obs.export import (
    SCHEMA,
    bench_envelope,
    metrics_to_json,
    trace_to_json,
    write_json,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    GLOBAL_METRICS,
    Counter,
    CounterRecord,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_field,
)
from repro.obs.trace import NOOP_TRACER, NullTracer, Observability, Span, Tracer

__all__ = [
    "perf_clock",
    "Span",
    "Tracer",
    "NullTracer",
    "NOOP_TRACER",
    "Observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_METRICS",
    "DEFAULT_LATENCY_BUCKETS",
    "CounterRecord",
    "counter_field",
    "SCHEMA",
    "trace_to_json",
    "metrics_to_json",
    "bench_envelope",
    "write_json",
]
