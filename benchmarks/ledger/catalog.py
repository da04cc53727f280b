"""Every metric the perf ledger reports, in one table.

``END_TO_END`` is what a user of the system sees; ``PER_LAYER`` is what one
layer does, with -- written down before anything was measured -- the
end-to-end metric it should move and the workloads it should move it on.
``BENCHMARK.json`` mirrors both lists (``tests/test_contract.py`` checks
that); the README renders them as tables.

Layers are the package names under ``src/repro``: ``text``, ``core``,
``blocking``, ``engine``, ``declarative``, ``backends``, ``dbengine``,
``shard``, ``serve``, ``resilience``, ``obs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["EndToEndMetric", "LayerMetric", "END_TO_END", "PER_LAYER", "UNITS"]

ALL = ("lib-topk", "lib-scan", "sql-declarative", "sharded-topk", "served-topk")


@dataclass(frozen=True)
class EndToEndMetric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    what: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Where the number comes from (a span of the ladder or a public counter).
    source: str
    #: End-to-end metrics this one should move ...
    moves: Tuple[str, ...]
    #: ... on these workloads (it reads 0 on the others).
    workloads: Tuple[str, ...]


END_TO_END: Tuple[EndToEndMetric, ...] = (
    EndToEndMetric(
        "setup_s", "s", "lower", 0.25,
        "strings in hand -> first answer from every target: corpus "
        "registration, fit/preprocess, pool or server start (median of 3)",
    ),
    EndToEndMetric(
        "call_p50_ms", "ms", "lower", 0.25,
        "median call latency, per round, median over rounds",
    ),
    EndToEndMetric(
        "call_p95_ms", "ms", "lower", 0.25,
        "95th-percentile call latency, per round, median over rounds",
    ),
    EndToEndMetric(
        "throughput_qps", "1/s", "higher", 0.25,
        "queries answered per wall second of a round (closed loop), median "
        "over rounds",
    ),
    EndToEndMetric(
        "cpu_ms_per_query", "ms", "lower", 0.25,
        "user+sys CPU of the program's process tree per query (/proc)",
    ),
    EndToEndMetric(
        "peak_rss_mb", "MB", "lower", 0.15,
        "summed VmHWM of the program's process tree after the last round",
    ),
)


def _layer(name, unit, better, source, moves, workloads) -> LayerMetric:
    moves = (moves,) if isinstance(moves, str) else tuple(moves)
    workloads = (workloads,) if isinstance(workloads, str) else tuple(workloads)
    return LayerMetric(name, unit, better, source, moves, workloads)


PER_LAYER: Tuple[LayerMetric, ...] = (
    _layer("text.tokenize.query_us", "us", "lower", "leaf span tokenizer.tokenize",
           "call_p50_ms", ("lib-topk", "lib-scan", "served-topk")),
    _layer("text.tokenize.fit_s", "s", "lower",
           "eval.time_preprocessing -> Predicate.tokenize_phase()",
           "setup_s", ("lib-topk", "lib-scan", "sharded-topk")),
    _layer("core.fit.weight_phase_s", "s", "lower",
           "eval.time_preprocessing -> Predicate.weight_phase()",
           "setup_s", ("lib-topk", "lib-scan", "sharded-topk")),
    _layer("core.topk.busy_ms", "ms", "lower", "span fitted_predicate().top_k",
           ("call_p50_ms", "throughput_qps"),
           ("lib-topk", "sharded-topk", "served-topk")),
    _layer("core.scan.busy_ms", "ms", "lower", "span fitted_predicate().select/rank",
           "call_p50_ms", ("lib-scan", "served-topk")),
    _layer("core.topk.postings_skipped_share", "ratio", "higher",
           "pruning_stats: postings_skipped / (opened + skipped)",
           ("call_p50_ms", "cpu_ms_per_query"), "lib-topk"),
    _layer("core.candidates_per_result", "ratio", "lower",
           "candidates scored / matches returned",
           "cpu_ms_per_query", ("lib-topk", "lib-scan")),
    _layer("core.kernels.numpy_op_share", "ratio", "higher",
           "engine.metrics kernel_ops.numpy / all kernel_ops",
           "cpu_ms_per_query", ("lib-topk", "lib-scan")),
    _layer("core.kernels.python_fallbacks", "count", "lower",
           "engine.metrics kernel_ops.python_fallback (must stay 0)",
           "cpu_ms_per_query", ("lib-topk", "lib-scan")),
    _layer("blocking.reduction_share", "ratio", "higher",
           "blocker stats: 1 - candidates_out / candidates_in",
           "call_p95_ms", "lib-scan"),
    _layer("blocking.fit_s", "s", "lower", "span of the blocker (re)fit",
           "setup_s", "lib-scan"),
    _layer("engine.self_ms", "ms", "lower",
           "Query.<op> minus fitted_predicate().<op>, same input",
           "call_p50_ms", ALL),
    _layer("engine.cache_hit_share", "ratio", "higher",
           "engine.metrics cache_hits / (cache_hits + fits_total) in the replay",
           "setup_s", ALL),
    _layer("engine.fits_total", "count", "lower", "engine.metrics fits_total",
           "setup_s", ALL),
    _layer("declarative.preprocess_s", "s", "lower",
           "span fitted_predicate() -> DeclarativePredicate.preprocess",
           "setup_s", "sql-declarative"),
    _layer("declarative.self_ms", "ms", "lower",
           "predicate op minus backend-proxy busy time, same execution",
           "call_p50_ms", "sql-declarative"),
    _layer("declarative.statements_per_query", "1/query", "lower",
           "backend-proxy call count / queries",
           "call_p50_ms", "sql-declarative"),
    _layer("declarative.rows_scored_per_result", "ratio", "lower",
           "last_sql_stats.rows_scored / matches returned",
           "call_p50_ms", "sql-declarative"),
    _layer("backends.sqlite.busy_ms", "ms", "lower",
           "backend-proxy time per call on SQLiteBackend",
           "call_p50_ms", "sql-declarative"),
    _layer("backends.sqlite.load_s", "s", "lower",
           "backend-proxy time inside preprocess on SQLiteBackend",
           "setup_s", "sql-declarative"),
    _layer("dbengine.busy_ms", "ms", "lower",
           "backend-proxy time per call on MemoryBackend",
           ("call_p95_ms", "throughput_qps"), "sql-declarative"),
    _layer("dbengine.parse_ms", "ms", "lower",
           "dbengine.parser.parse_statement on the SQL each call issued",
           "call_p95_ms", "sql-declarative"),
    _layer("shard.self_ms", "ms", "lower",
           "ShardedPredicate.<op> minus the slowest shards[i].<op>",
           "call_p50_ms", "sharded-topk"),
    _layer("shard.process.roundtrip_ms", "ms", "lower",
           "process executor minus serial executor, same call",
           ("call_p95_ms", "cpu_ms_per_query"), "sharded-topk"),
    _layer("shard.fit_s", "s", "lower", "spans fitted_predicate(), all four targets",
           "setup_s", "sharded-topk"),
    _layer("shard.skipped_share", "ratio", "higher",
           "shard_stats: shards_skipped / (run + skipped)",
           "cpu_ms_per_query", "sharded-topk"),
    _layer("shard.tasks_per_query", "1/query", "lower",
           "engine.metrics shard_tasks / queries",
           "cpu_ms_per_query", "sharded-topk"),
    _layer("resilience.retries_total", "count", "lower",
           "resilience.task_retries (must stay 0)",
           "call_p95_ms", ("sharded-topk", "served-topk")),
    _layer("resilience.serial_fallbacks", "count", "lower",
           "resilience.serial_fallbacks (must stay 0)",
           "call_p95_ms", ("sharded-topk", "served-topk")),
    _layer("serve.http.self_ms", "ms", "lower",
           "ServeClient.query over loopback minus SimilarityService.handle",
           "call_p50_ms", "served-topk"),
    _layer("serve.pipeline.self_ms", "ms", "lower",
           "handle minus Query.run_many([q]): admission, batch window, "
           "thread hop, envelope",
           ("call_p50_ms", "throughput_qps"), "served-topk"),
    _layer("serve.protocol.parse_us", "us", "lower", "leaf span parse_query_request",
           "call_p50_ms", "served-topk"),
    _layer("serve.protocol.encode_us", "us", "lower",
           "leaf span json.dumps(result_envelope(...))",
           "call_p50_ms", "served-topk"),
    _layer("serve.batcher.mean_batch_size", "count", "higher",
           "GET /metrics: batched_queries_total / batches_total",
           ("throughput_qps", "call_p50_ms"), "served-topk"),
    _layer("serve.admission.wait_mean_ms", "ms", "lower",
           "GET /metrics: latency.serve.admission_wait sum / count",
           "call_p95_ms", "served-topk"),
    _layer("serve.queue_depth_high_water", "count", "lower",
           "GET /metrics: serve.queue_depth high water",
           "call_p95_ms", "served-topk"),
    _layer("serve.errors_total", "count", "lower", "GET /metrics: serve.errors_total",
           "call_p95_ms", "served-topk"),
    _layer("call_p99_ms", "ms", "lower",
           "one untraced round, pooled (diagnostic only: too noisy to bound)",
           "call_p95_ms", ALL),
    _layer("obs.tracer_on.overhead_share", "ratio", "lower",
           "the replay under engine.obs.activate(Tracer()) vs. the no-op tracer",
           "call_p50_ms", "lib-topk"),
    _layer("trace.overhead_share", "ratio", "lower",
           "top span of the traced pass vs. the same calls untraced",
           "call_p50_ms", ALL),
    _layer("trace.ladder_residual_share", "ratio", "lower",
           "|sum of the ladder's self-time medians - top span median| / top",
           "call_p50_ms", ALL),
    _layer("bench.machine_slowdown", "ratio", "lower",
           "median time of a fixed numpy+dict kernel over its nominal time "
           "(measure.Calibrator); not a layer: the state of the machine",
           ("call_p50_ms", "call_p95_ms", "throughput_qps", "cpu_ms_per_query", "setup_s"),
           ALL),
    _layer("failed_share", "ratio", "lower",
           "calls that raised, were refused or answered wrongly / calls attempted",
           "call_p50_ms", ALL),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
