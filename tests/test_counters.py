"""The counters protocol and what the engine publishes through it.

Every per-call work record is a :class:`~repro.obs.metrics.CounterRecord`:
one ``publish`` / ``describe`` / ``+`` / ``-`` implementation, checked here
over every record class.  The counter golden pins what a fixed script
publishes: a blocked select, declarative ``run_many`` on both SQL backends,
a sharded ``run_many`` with one injected ``shard.task`` fault and a blocked
``self_join`` run on a fresh engine, and the non-zero counters they leave
behind must equal ``tests/golden/counters.json``.  Re-record the golden only
when a change is meant to move a counter::

    PYTHONPATH=src python tests/test_counters.py --record
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import fields
from pathlib import Path
from typing import Dict

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.blocking import BlockingStats  # noqa: E402
from repro.core import SelfJoinStats  # noqa: E402
from repro.datagen import make_dataset  # noqa: E402
from repro.declarative import SQLStats  # noqa: E402
from repro.engine import RunManyStats, SimilarityEngine  # noqa: E402
from repro.obs import metrics as metrics_module  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.resilience import FaultInjector, ResilienceStats, parse_fault_spec  # noqa: E402
from repro.shard import ShardStats  # noqa: E402

#: Two records per class: ``(a, b)``.  Each has a zero counter somewhere,
#: and ``b``'s labels are non-empty, so ``(a + b) - a == b`` holds exactly.
SAMPLES = {
    BlockingStats: (
        BlockingStats(probes=2, candidates_in=30, candidates_out=12),
        BlockingStats(probes=1, candidates_in=0, candidates_out=0),
    ),
    SQLStats: (
        SQLStats(rows_scored=5, base_size=7, plan=("batch", "order-by-limit")),
        SQLStats(rows_scored=0, base_size=7, plan=("length-filter",)),
    ),
    ShardStats: (
        ShardStats(num_shards=2, executor="thread", shard_sizes=(4, 3), shards_run=2),
        ShardStats(num_shards=3, executor="serial", shard_sizes=(1, 1, 1)),
    ),
    RunManyStats: (
        RunManyStats(num_queries=3, total_candidates=11, candidates_per_query=(5, 6, None)),
        RunManyStats(num_queries=1, total_candidates=0, candidates_per_query=(0,)),
    ),
    ResilienceStats: (
        ResilienceStats(executor="thread", tasks=4, task_retries=1),
        ResilienceStats(executor="process", tasks=2, pool_rebuilds=1, faults_injected=1),
    ),
    SelfJoinStats: (
        SelfJoinStats(probes=10, probes_skipped=2, pairs_examined=40, pairs_emitted=3),
        SelfJoinStats(probes=1, pairs_examined=5),
    ),
}

RECORDS = list(SAMPLES)


def _values(record) -> Dict[str, object]:
    return {spec.name: getattr(record, spec.name) for spec in fields(record)}


def _declared_publication(record) -> Dict[str, int]:
    """What the field declarations say ``publish`` must put in a registry."""
    expected: Dict[str, int] = {}
    for spec in fields(record):
        metric, value = spec.metadata.get("metric"), getattr(record, spec.name)
        if metric is None or not value:
            continue
        if isinstance(value, tuple):
            for item in value:
                name = metric.format(item)
                expected[name] = expected.get(name, 0) + 1
        else:
            expected[metric] = value
    return expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestCounterProtocol:
    def test_publish_puts_exactly_the_nonzero_fields(self, cls):
        for record in SAMPLES[cls]:
            registry = MetricsRegistry()
            record.publish(registry)
            assert registry.to_dict()["counters"] == _declared_publication(record)
        registry = MetricsRegistry()
        cls().publish(registry)
        assert registry.to_dict()["counters"] == {}

    def test_add_and_subtract_fieldwise(self, cls):
        a, b = SAMPLES[cls]
        total = a + b
        for name, mine in _values(a).items():
            theirs = getattr(b, name)
            if isinstance(mine, (int, float)):
                assert getattr(total, name) == mine + theirs
            else:
                assert getattr(total, name) == (theirs or mine)
        assert (a + b) - a == b
        assert type(total) is cls

    def test_describe_omits_zero_fields(self, cls):
        for record in SAMPLES[cls]:
            text = record.describe()
            if cls.describe_format is not None:
                assert text == cls.describe_format.format(record)
                continue
            for name, value in _values(record).items():
                assert (f"{name}=" in text) == bool(value)


def test_records_of_different_classes_do_not_combine():
    with pytest.raises(TypeError):
        BlockingStats() + SelfJoinStats()


def test_fixed_describe_texts():
    assert SAMPLES[ShardStats][0].describe() == "2/2 shards run via 'thread' executor"
    assert SAMPLES[SelfJoinStats][0].describe() == (
        "40 candidate pairs examined over 10 probes "
        "(2 probes skipped with no block partners)"
    )
    assert SAMPLES[BlockingStats][0].describe() == (
        "30 -> 12 candidates (18 pruned, reduction 2.5x)"
    )
    assert SAMPLES[SQLStats][0].describe() == (
        "rows_scored=5, base_size=7, plan=batch+order-by-limit"
    )
    assert ResilienceStats().describe() == "-"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_span_attributes_are_empty_when_nothing_publishes(cls):
    for record in SAMPLES[cls]:
        spanned = record.span_attributes()
        registry = MetricsRegistry()
        record.publish(registry)
        assert bool(spanned) == (
            bool(registry.to_dict()["counters"])
            and any(spec.metadata.get("span") for spec in fields(record))
        )
    assert cls().span_attributes() == {}


def test_span_attribute_names():
    assert SAMPLES[SQLStats][0].span_attributes() == {"sql_rows": 5, "base_size": 7}
    assert SAMPLES[ShardStats][0].span_attributes() == {"shards_run": 2}
    assert SAMPLES[ResilienceStats][1].span_attributes() == {
        "resilience_retries": 0,
        "resilience_pool_rebuilds": 1,
        "resilience_serial_fallbacks": 0,
    }
    assert SAMPLES[BlockingStats][0].span_attributes() == {}


def test_field_layout_is_read_once_per_class(monkeypatch):
    calls = []

    def counting_fields(cls):
        calls.append(cls)
        return fields(cls)

    monkeypatch.setattr(metrics_module, "fields", counting_fields)
    metrics_module._layout.cache_clear()
    record = SAMPLES[ResilienceStats][0]
    for _ in range(3):
        record.publish(MetricsRegistry())
        record.describe()
        record = record + record - record
    assert calls == [ResilienceStats]
    metrics_module._layout.cache_clear()


# ---------------------------------------------------------------------------
# the engine publishes the record of the execution it just ran
# ---------------------------------------------------------------------------

EDIT_ROWS = [
    "AT&T Inc.",
    "AT&T Incorporated",
    "IBM Corp.",
    "IBM Corporation",
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "Beijing Hotel",
]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_declarative_edit_select_publishes_its_own_sql_stats(backend):
    # The declarative edit-distance select used to leave the previous
    # call's SQLStats in place, so each select re-published the rank's rows.
    engine = SimilarityEngine(metrics=MetricsRegistry(), faults=FaultInjector())
    query = (
        engine.from_strings(EDIT_ROWS)
        .predicate("edit_distance")
        .realization("declarative")
        .backend(backend)
    )
    try:
        query.rank("AT&T")
        ranked = query.fitted_predicate().last_sql_stats.rows_scored
        published = []
        for _ in range(3):
            before = engine.metrics.value("sql_rows_scored")
            query.select("IBM Corp", 0.3)
            published.append(engine.metrics.value("sql_rows_scored") - before)
        scored = query.fitted_predicate().last_num_candidates
        assert scored != ranked
        assert published == [scored] * 3
        report = query.explain("IBM Corp", op="select", threshold=0.3)
        assert report.sql_stats.rows_scored == report.num_candidates == scored
        # A path that records nothing publishes nothing: rank(limit=0)
        # returns before any SQL runs.
        before = engine.metrics.value("sql_rows_scored")
        assert query.rank("AT&T", limit=0) == []
        assert engine.metrics.value("sql_rows_scored") == before
        assert query.fitted_predicate().last_sql_stats is None
    finally:
        engine.clear_cache()


def test_concurrent_sharded_calls_each_publish_their_own_records():
    # The engine clears a sharded predicate's records before each operation
    # and reads them back after it; threads sharing one fitted predicate
    # must not clear each other's records in between.
    engine = SimilarityEngine(metrics=MetricsRegistry(), faults=FaultInjector())
    query = (
        engine.from_strings(EDIT_ROWS).predicate("bm25").shards(2, executor="thread")
    )
    calls, num_threads = 25, 4
    reports, errors = [], []
    barrier = threading.Barrier(num_threads)

    def worker() -> None:
        try:
            barrier.wait()
            for _ in range(calls):
                query.top_k("IBM Corp", 2)
                reports.append(query.explain("AT&T", op="top_k", k=2))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    # A tiny switch interval makes the threads interleave inside the
    # clear -> run -> read window often enough to catch a missing guard.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        query.fitted_predicate()
        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        engine.clear_cache()
    assert errors == []
    assert engine.metrics.value("shards_run") == 2 * 2 * calls * num_threads
    assert all(report.shards is not None for report in reports)
    assert all(report.shards.shards_run == 2 for report in reports)


GOLDEN = Path(__file__).resolve().parent / "golden" / "counters.json"

#: Counters that follow the kernel backend (numpy or the scalar leg), not the
#: script: they differ between the two CI legs by design.
_KERNEL_PREFIXES = ("kernel_ops.", "core.scalar_view.")


def counter_script() -> Dict[str, float]:
    """Run the fixed script on a fresh engine; its non-zero counters by name."""
    rows = make_dataset("CU1", size=150, num_clean=25, seed=7).strings
    queries = [rows[i] for i in (0, 17, 42, 99)]
    # An explicit injector: the script ignores any REPRO_FAULTS in the
    # environment, and only the sharded step consults ``shard.task``.
    engine = SimilarityEngine(
        metrics=MetricsRegistry(), faults=parse_fault_spec("shard.task:once")
    )
    try:
        base = engine.from_strings(rows)
        blocked = base.predicate("jaccard").blocker("length+prefix")
        for text in queries:
            blocked.select(text, 0.6)
        for backend in ("sqlite", "memory"):
            declarative = base.realization("declarative").backend(backend)
            declarative.predicate("bm25").run_many(queries, op="top_k", k=5)
            declarative.predicate("jaccard").run_many(
                queries, op="select", threshold=0.5
            )
            declarative.predicate("jaccard").select(queries[0], 0.6)
        base.predicate("bm25").shards(2, executor="thread").run_many(
            queries, op="top_k", k=5
        )
        blocked.self_join(0.7)
    finally:
        engine.clear_cache()
    counters = engine.metrics.to_dict()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if value and not name.startswith(_KERNEL_PREFIXES)
    }


def test_counter_golden():
    assert counter_script() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_counters.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(counter_script(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
