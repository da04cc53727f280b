"""Observability layer tests: span trees, metrics, and stats consistency.

The load-bearing guarantees:

* **Consistency** -- span-level counters must *equal* the engine's stats
  objects: a traced ``top_k`` yields one span per shard whose aggregated
  candidate counters match ``explain()`` exactly, across realizations and
  shard counts.
* **Zero-cost default** -- the no-op tracer must leave results bit-identical
  and capture nothing (a long-lived engine accumulates no statement text).
* **Clock discipline** -- ``time.perf_counter`` is called only through
  :func:`repro.obs.clock.perf_clock` (mirrors the CI grep ban).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import SimilarityEngine
from repro.obs import (
    NOOP_TRACER,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    bench_envelope,
    metrics_to_json,
    trace_to_json,
    write_json,
)

COMPANIES = [
    "Morgan Stanley Group Inc",
    "Morgn Stanley Inc",
    "Goldman Sachs & Co",
    "Golden Sax Co",
    "AT&T Corporation",
    "ATT Corp",
    "Beijing Hotel Holdings",
    "Bejing Hotel Holding",
    "Shanghai Hotel Group",
    "International Business Machines",
    "Intl Business Machines Corp",
    "Microsoft Corporation",
    "Micro Soft Corp",
    "First National Bank",
    "First Natl Bank Inc",
    "Second National Bank",
]


class _FakeClock:
    """Deterministic clock: each call returns the next integer."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestSpanTree:
    def test_nesting_durations_and_last_root(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("root", op="rank") as root:
            assert tracer.current is root
            with tracer.span("child") as child:
                child.set(rows=7).add("rows", 3)
        # clock ticks: root start=1, child start=2, child end=3, root end=4
        assert root.duration == 3.0
        assert child.duration == 1.0
        assert child.attributes["rows"] == 10
        assert root.children == [child]
        assert tracer.current is None
        assert tracer.last_root is root

    def test_roundtrip_and_queries(self):
        root = Span("root", start=1.0, end=5.0, attributes={"k": 3})
        root.attach(Span("shard[0].task", attributes={"rows": 2}))
        root.attach(Span("shard[1].task", attributes={"rows": 5}))
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.to_dict() == root.to_dict()
        assert rebuilt.sum_attribute("rows") == 7
        assert [s.name for s in rebuilt.find_all("shard[")] == [
            "shard[0].task",
            "shard[1].task",
        ]
        assert rebuilt.find("shard[1].task").attributes["rows"] == 5
        assert "shard[0].task" in rebuilt.describe()

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=_FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("boom")
        assert tracer.current is None
        assert tracer.last_root.name == "root"
        assert tracer.last_root.end > tracer.last_root.start

    def test_noop_tracer_is_inert(self):
        span = NOOP_TRACER.span("anything", k=3)
        with span as inner:
            inner.set(rows=5).add("rows")
            inner.attach(Span("child"))
        assert not NOOP_TRACER.enabled
        assert NOOP_TRACER.current is None
        assert NOOP_TRACER.last_root is None
        assert inner.attributes == {}
        assert inner.children == []


class TestMetrics:
    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("queries_total")
        metrics.inc("queries_total", 4)
        assert metrics.value("queries_total") == 5
        assert metrics.value("never_touched") == 0
        histogram = metrics.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            metrics.observe("latency", value)
        assert histogram.count == 4
        assert histogram.counts == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert histogram.mean == pytest.approx(6.25 / 4)
        assert histogram.quantile(0.25) == 0.1
        assert histogram.quantile(0.75) == 1.0
        assert histogram.quantile(1.0) == float("inf")

    def test_empty_histogram_and_validation(self):
        histogram = Histogram("empty", buckets=(1.0,))
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            Histogram("no-buckets", buckets=())

    def test_snapshot_and_reset(self):
        metrics = MetricsRegistry()
        metrics.inc("b")
        metrics.inc("a", 2)
        metrics.observe("lat", 0.01)
        snapshot = metrics.to_dict()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["histograms"]["lat"]["count"] == 1
        metrics.reset()
        assert metrics.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestExport:
    def test_json_payloads_roundtrip(self, tmp_path: Path):
        root = Span("engine.query", start=0.0, end=1.0, attributes={"op": "rank"})
        trace_payload = trace_to_json(root)
        assert trace_payload["schema"] == "repro.obs/1"
        assert trace_payload["kind"] == "trace"
        metrics = MetricsRegistry()
        metrics.inc("queries_total")
        metrics_payload = metrics_to_json(metrics)
        assert metrics_payload["kind"] == "metrics"
        bench_payload = bench_envelope(
            benchmark="b", relation={"size": 3}, config={"k": 1}, results=[{"x": 1}]
        )
        assert bench_payload["kind"] == "bench"
        path = tmp_path / "out.json"
        write_json(path, trace_payload)
        assert json.loads(path.read_text())["root"]["name"] == "engine.query"


@pytest.fixture
def engine():
    engine = SimilarityEngine(metrics=MetricsRegistry())
    yield engine
    engine.clear_cache()


class TestTraceExplainConsistency:
    """Span counters must equal the stats objects, layer by layer."""

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_sharded_top_k_span_counters_match_explain(self, engine, num_shards):
        query = (
            engine.from_strings(COMPANIES)
            .predicate("cosine")
            .shards(num_shards, executor="serial")
        )
        traced = query.trace("Morgn Stanley", op="top_k", k=3)
        report = query.explain("Morgn Stanley", op="top_k", k=3)
        # The traced and explained runs are the same run, result for result.
        assert [(m.tid, m.score) for m in traced.results] == [
            (m.tid, m.score) for m in report.results
        ]
        execute = traced.span.find("execute.sharded")
        if num_shards == 1:
            assert execute is None  # single shard plans as a direct predicate
        else:
            assert execute is not None
            assert [s.name for s in execute.children] == [
                f"shard[{i}].task" for i in range(num_shards)
            ]
            assert report.shards.shards_run == report.shards.num_shards == num_shards
            assert execute.attributes["shards_run"] == num_shards
            assert traced.span.sum_attribute("candidates") == report.num_candidates
            assert execute.attributes["num_candidates"] == report.num_candidates

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_parallel_executor_spans_travel_back(self, engine, num_shards):
        query = (
            engine.from_strings(COMPANIES)
            .predicate("bm25")
            .shards(num_shards, executor="thread")
        )
        traced = query.trace("Beijing Hotel", op="top_k", k=2)
        report = query.explain("Beijing Hotel", op="top_k", k=2)
        assert traced.span.sum_attribute("candidates") == report.num_candidates
        # Worker spans re-attached, one per shard (the first trace also
        # holds the fit, with its own ``shard[i].fit`` spans).
        tasks = [s for s in traced.span.find_all("shard[") if s.name.endswith(".task")]
        assert len(tasks) == num_shards

    def test_direct_top_k_span_matches_explain(self, engine):
        query = engine.from_strings(COMPANIES).predicate("cosine")
        traced = query.trace("Morgn Stanley", op="top_k", k=3)
        report = query.explain("Morgn Stanley", op="top_k", k=3)
        execute = traced.span.find("execute.direct")
        assert execute.children == []
        assert execute.attributes["num_candidates"] == report.num_candidates

    def test_declarative_sql_spans_match_explain_sql(self, engine):
        query = (
            engine.from_strings(COMPANIES)
            .predicate("jaccard")
            .realization("declarative")
        )
        query.fitted_predicate()  # fit outside the traced window
        traced = query.trace("Morgn Stanley", op="top_k", k=3)
        report = query.explain("Morgn Stanley", op="top_k", k=3)
        traced_sql = tuple(
            s.attributes["sql"]
            for s in traced.span.walk()
            if s.name == "sql.statement"
        )
        assert traced_sql == report.sql
        assert len(traced_sql) > 0
        execute = traced.span.find("execute.declarative")
        assert execute is not None
        assert execute.attributes["sql_rows"] == report.sql_stats.rows_scored

    def test_engine_metrics_accumulate(self, engine):
        query = engine.from_strings(COMPANIES).predicate("cosine")
        query.top_k("Morgn Stanley", 3)
        query.top_k("Goldman Sachs", 3)
        query.rank("AT&T")
        assert engine.metrics.value("queries_total") == 3
        assert engine.metrics.value("fits_total") == 1
        assert engine.metrics.histogram("latency.engine.query").count == 3
        # A second engine with its own registry starts from zero.
        other = SimilarityEngine(metrics=MetricsRegistry())
        assert other.metrics.value("queries_total") == 0

    def test_cache_hits_counted(self, engine):
        query = engine.from_strings(COMPANIES).predicate("cosine")
        query.top_k("Morgn Stanley", 3)
        before = engine.metrics.value("cache_hits")
        query.top_k("Goldman Sachs", 3)
        assert engine.metrics.value("cache_hits") == before + 1

    def test_shard_tasks_counted(self, engine):
        query = (
            engine.from_strings(COMPANIES)
            .predicate("cosine")
            .shards(2, executor="serial")
        )
        query.rank("Morgn Stanley")
        assert engine.metrics.value("shard_tasks") == 2
        assert engine.metrics.value("shards_run") == 2


class TestNoopDefault:
    def test_default_engine_results_identical_to_traced(self):
        plain = SimilarityEngine(metrics=MetricsRegistry())
        traced_engine = SimilarityEngine(
            tracer=Tracer(), metrics=MetricsRegistry()
        )
        for predicate in ("cosine", "jaccard", "edit_distance"):
            baseline = plain.from_strings(COMPANIES).predicate(predicate)
            traced = traced_engine.from_strings(COMPANIES).predicate(predicate)
            assert [
                (m.tid, m.score) for m in baseline.top_k("Morgn Stanley", 5)
            ] == [(m.tid, m.score) for m in traced.top_k("Morgn Stanley", 5)]
            assert [
                (m.tid, m.score) for m in baseline.select("Morgn Stanley", 0.3)
            ] == [(m.tid, m.score) for m in traced.select("Morgn Stanley", 0.3)]
        plain.clear_cache()
        traced_engine.clear_cache()

    def test_noop_engine_stores_no_spans(self):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        query = (
            engine.from_strings(COMPANIES)
            .predicate("jaccard")
            .realization("declarative")
        )
        query.run_many(["Morgn Stanley", "AT&T"], op="rank")
        assert engine.obs.tracer is NOOP_TRACER
        assert engine.obs.tracer.last_root is None
        # ... but the metrics registry still counted the SQL statements.
        assert engine.metrics.value("sql_statements_total") > 0
        engine.clear_cache()

    def test_trace_restores_noop_tracer(self):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        query = engine.from_strings(COMPANIES).predicate("cosine")
        traced = query.trace("Morgn Stanley", k=3)
        assert traced.span is not None
        assert engine.obs.tracer is NOOP_TRACER
        engine.clear_cache()


class TestEditDistanceShardParity:
    """Regression (heuristic-blocker parity corner): blocked sharded
    ``EditDistance.select`` consults the blocker's probe tokens; the
    unsharded path must generate candidates the same way."""

    @pytest.mark.parametrize("num_shards", [2, 3, 7])
    def test_blocked_select_identical_sharded_or_not(self, num_shards):
        import warnings

        base = COMPANIES + ["Stanley Morgan", "Morgan Stanly Group", "M Stanley"]
        engine = SimilarityEngine(metrics=MetricsRegistry())
        with warnings.catch_warnings():
            # prefix filtering on edit distance is a heuristic combination
            # (Jaccard-derived bounds) and warns; parity must hold anyway.
            warnings.simplefilter("ignore", UserWarning)
            for threshold in (0.2, 0.4, 0.6):
                unsharded = (
                    engine.from_strings(base)
                    .predicate("edit_distance")
                    .blocker("prefix", threshold=threshold)
                )
                sharded = unsharded.shards(num_shards, executor="serial")
                expected = unsharded.select("Morgn Stanley", threshold)
                got = sharded.select("Morgn Stanley", threshold)
                assert [(m.tid, m.score) for m in got] == [
                    (m.tid, m.score) for m in expected
                ]
        engine.clear_cache()


class TestClockDiscipline:
    def test_no_bare_perf_counter_outside_obs_clock(self):
        """Mirror of the CI ``lint-invariants`` job: rule RPL002 (the
        scope-aware replacement for the old grep ban) finds no sanctioned-
        clock violations outside ``repro/obs/clock.py``."""
        from repro.analysis import check_paths, load_config

        repo = Path(__file__).resolve().parent.parent
        config = load_config(repo)
        findings = check_paths(
            [repo / "src" / "repro", repo / "benchmarks", repo / "examples"],
            config=config.rules,
            select=["RPL002"],
            root=repo,
        )
        assert not findings, "\n".join(f.render() for f in findings)
