"""Shared JSON schemas for traces, metrics snapshots and benchmark reports.

Three artifact kinds leave the process as JSON, all versioned under one
schema string so downstream tooling can dispatch on shape:

* ``trace`` -- one span tree (:func:`trace_to_json`), from ``--trace`` or
  :meth:`Query.trace`;
* ``metrics`` -- a registry snapshot (:func:`metrics_to_json`), from
  ``--metrics-out``;
* ``bench`` -- a benchmark/timing report (:func:`bench_envelope`), the
  common envelope of ``eval/timing.py``, the two ``benchmarks/bench_*.py``
  scripts' BENCH_*.json files and the timing cases of
  ``benchmarks/paper.py``: ``{schema, benchmark, relation, config, results}``.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

__all__ = [
    "SCHEMA",
    "trace_to_json",
    "metrics_to_json",
    "bench_envelope",
    "write_json",
]

#: Version tag stamped on every exported artifact.
SCHEMA = "repro.obs/1"


def trace_to_json(root: Span) -> dict:
    """Wrap one span tree in the versioned trace envelope."""
    return {"schema": SCHEMA, "kind": "trace", "root": root.to_dict()}


def metrics_to_json(metrics: MetricsRegistry) -> dict:
    """Wrap a registry snapshot in the versioned metrics envelope."""
    payload = metrics.to_dict()
    payload.update({"schema": SCHEMA, "kind": "metrics"})
    return payload


def bench_envelope(
    benchmark: str,
    relation: Optional[dict],
    config: dict,
    results: Sequence[dict],
    **extra,
) -> dict:
    """The common benchmark-report envelope (BENCH_*.json shape).

    ``results`` is a list of flat dicts -- one per measured configuration --
    whose keys the individual benchmark defines; the envelope is what makes
    the files machine-comparable across benchmarks.  Every envelope records
    the scoring-kernel backend that was active when it was produced
    (``numpy``/``python``), so BENCH_*.json numbers are attributable.
    """
    report = {
        "schema": SCHEMA,
        "kind": "bench",
        "benchmark": benchmark,
        "relation": dict(relation) if relation else {},
        "config": dict(config),
        "kernel": _kernel_backend(),
        "results": [dict(row) for row in results],
    }
    report.update(extra)
    return report


def _kernel_backend() -> str:
    # Imported lazily: repro.obs must stay importable without repro.core.
    try:
        from repro.core.kernels import active_backend
    except ImportError:  # pragma: no cover - defensive
        return "unknown"
    return active_backend()


def write_json(path: str, payload: dict) -> None:
    """Write one exported artifact with stable formatting."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
