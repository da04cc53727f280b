"""Chaos suite: injected faults must heal bit-identically.

The exactness contract of the shard layer (pure tasks over immutable
fitted shards) is what makes self-healing *exact*: any schedule of
retries, pool rebuilds and serial fallbacks must return the same Match
lists -- same tids, same float scores, same order -- as an undisturbed
serial run.  Every test here drives a query under deterministic injected
faults (transient raises, worker crashes, broken pools) and compares
against the fault-free baseline, then checks the ``resilience.*``
accounting said what actually happened.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import make_predicate
from repro.core import kernels
from repro.engine import SimilarityEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Observability
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    deadline_scope,
    parse_fault_spec,
)

ROWS = [
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "AT&T Incorporated",
    "IBM Incorporated",
    "AT&T Inc.",
    "Beijing Hotel",
    "Beijing Labs",
    "Hotel Beijing",
    "Stanley Morgan Group Incorporated",
    "Silicon Valley Group, Inc.",
    "Pacific Gas and Electric Company",
    "Granite Construction Incorporated",
]

QUERIES = ["Morgn Stanley", "AT&T Corp", "Beijing Htel"]


def make_engine(**kwargs) -> SimilarityEngine:
    """An engine with its own metrics registry (the default is shared
    process-wide, which would bleed counters across tests)."""
    engine = SimilarityEngine(**kwargs)
    engine.obs = Observability(metrics=MetricsRegistry())
    return engine

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="process executors need a POSIX platform"
)


def run_workload(query) -> list:
    """The comparison workload: top-k and select answers for every query."""
    results = [query.top_k(text, 5) for text in QUERIES]
    results += [query.select(text, 0.1) for text in QUERIES]
    return results


def baseline(predicate: str) -> list:
    """Fault-free serial, unsharded: the ground truth all runs must match."""
    engine = make_engine()
    try:
        return run_workload(engine.from_strings(ROWS).predicate(predicate))
    finally:
        engine.clear_cache()


# ---------------------------------------------------------------------------
# the chaos matrix: predicates x shard counts x executors
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("predicate", ["bm25", "jaccard"])
    def test_injected_faults_heal_bit_identically(
        self, predicate, num_shards, executor
    ):
        if executor == "process" and sys.platform == "win32":
            pytest.skip("process executors need a POSIX platform")
        # nth=1 guarantees at least one fault; the seeded p-rule adds more
        # chaos on a stream that replays identically on every run.
        injector = FaultInjector(
            [
                FaultRule("shard.task", nth=1),
                FaultRule("shard.task", p=0.25, seed=11),
            ]
        )
        engine = make_engine(faults=injector)
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate(predicate)
                .shards(num_shards, executor=executor)
            )
            assert run_workload(query) == baseline(predicate)
        finally:
            engine.clear_cache()
        if num_shards == 1:
            return  # shards(1) restores unsharded execution: nothing to inject
        # The plan actually ran under fire, and every fault healed.
        assert injector.calls("shard.task") > 0
        assert injector.fired("shard.task") >= 1
        assert engine.obs.metrics.value("resilience.task_retries") > 0


# ---------------------------------------------------------------------------
# specific failure modes
# ---------------------------------------------------------------------------


class TestFailureModes:
    @needs_fork
    def test_worker_crash_mid_batch_rebuilds_pool(self):
        """A worker dying with ``os._exit`` breaks the pool; the executor
        rebuilds it once and re-runs the unfinished tasks bit-identically."""
        injector = parse_fault_spec("shard.task:once:action=crash")
        engine = make_engine(faults=injector)
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .shards(2, executor="process")
            )
            assert run_workload(query) == baseline("bm25")
        finally:
            engine.clear_cache()
        metrics = engine.obs.metrics
        assert injector.fired("shard.task") == 1
        assert metrics.value("resilience.pool_rebuilds") == 1
        assert metrics.value("resilience.faults_injected") == 1

    def test_crash_demotes_to_raise_off_process_executors(self):
        """``action=crash`` on thread/serial executors must not kill the
        parent process -- it demotes to a transient raise and is retried."""
        for executor in ("serial", "thread"):
            injector = parse_fault_spec("shard.task:once:action=crash")
            engine = make_engine(faults=injector)
            try:
                query = (
                    engine.from_strings(ROWS)
                    .predicate("bm25")
                    .shards(2, executor=executor)
                )
                assert run_workload(query) == baseline("bm25")
            finally:
                engine.clear_cache()
            assert engine.obs.metrics.value("resilience.task_retries") == 1

    def test_broken_pool_fault_triggers_rebuild(self):
        injector = parse_fault_spec("executor.pool:once")
        engine = make_engine(faults=injector)
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .shards(2, executor="thread")
            )
            assert run_workload(query) == baseline("bm25")
        finally:
            engine.clear_cache()
        assert engine.obs.metrics.value("resilience.pool_rebuilds") == 1

    def test_exhausted_retries_fall_back_to_serial(self):
        """With a one-attempt policy the failed task cannot retry in the
        pool; the last-resort in-process serial run still heals exactly."""
        injector = parse_fault_spec("shard.task:once")
        engine = make_engine(
            faults=injector, retry_policy=RetryPolicy(max_attempts=1)
        )
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .shards(2, executor="thread")
            )
            assert run_workload(query) == baseline("bm25")
        finally:
            engine.clear_cache()
        assert engine.obs.metrics.value("resilience.serial_fallbacks") == 1

    def test_env_spec_drives_a_plain_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "shard.task:nth=1")
        engine = make_engine()
        try:
            assert engine.faults.active
            query = (
                engine.from_strings(ROWS)
                .predicate("jaccard")
                .shards(2, executor="thread")
            )
            assert run_workload(query) == baseline("jaccard")
        finally:
            engine.clear_cache()
        assert engine.faults.fired("shard.task") == 1

    def test_sql_statement_fault_surfaces_then_clears(self):
        injector = parse_fault_spec("sql.statement:once")
        engine = make_engine(faults=injector)
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .realization("declarative")
            )
            with pytest.raises(InjectedFault):
                query.top_k(QUERIES[0], 5)
            clean = make_engine()
            try:
                want = (
                    clean.from_strings(ROWS)
                    .predicate("bm25")
                    .realization("declarative")
                    .top_k(QUERIES[0], 5)
                )
            finally:
                clean.clear_cache()
            # The rule is spent: the same engine answers correctly now.
            assert query.top_k(QUERIES[0], 5) == want
        finally:
            engine.clear_cache()

    def test_expired_deadline_stops_sharded_execution(self):
        engine = make_engine()
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .shards(2, executor="serial")
            )
            with deadline_scope(Deadline(0.0)):
                with pytest.raises(DeadlineExceeded):
                    query.top_k(QUERIES[0], 5)
            # Outside the scope the same engine serves normally.
            assert query.top_k(QUERIES[0], 5) == (
                baseline("bm25")[0]
            )
        finally:
            engine.clear_cache()

    def test_explain_reports_resilience_and_ladder_notes(self):
        injector = parse_fault_spec("shard.task:once")
        engine = make_engine(faults=injector)
        try:
            query = (
                engine.from_strings(ROWS)
                .predicate("bm25")
                .shards(2, executor="thread")
            )
            report = query.explain(QUERIES[0], k=5)
        finally:
            engine.clear_cache()
        assert report.resilience is not None
        assert report.resilience.task_retries == 1
        text = report.describe()
        assert "resilience:" in text
        notes = " ".join(report.plan.notes)
        assert "executor fallback ladder" in notes
        assert "kernel fallback ladder" in notes or not kernels.numpy_available()


# ---------------------------------------------------------------------------
# kernel fallback ladder
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy unavailable")
class TestKernelFallback:
    def test_numpy_accumulate_failure_heals_bit_identically(self, monkeypatch):
        predicate = make_predicate("bm25").fit(ROWS)
        with kernels.use_backend("python"):
            want = dict(predicate._scores(QUERIES[0]))

        def boom(*args, **kwargs):
            raise RuntimeError("corrupted arrays")

        monkeypatch.setattr(kernels, "_accumulate_numpy", boom)
        before = kernels.ops_snapshot()["python_fallback"]
        with kernels.use_backend("numpy"):
            got = dict(predicate._scores(QUERIES[0]))
        assert got == want
        assert kernels.ops_snapshot()["python_fallback"] > before

    def test_engine_publishes_kernel_fallback_counter(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("corrupted arrays")

        monkeypatch.setattr(kernels, "_accumulate_numpy", boom)
        engine = make_engine()
        try:
            with kernels.use_backend("numpy"):
                got = engine.from_strings(ROWS).predicate("bm25").rank(QUERIES[0])
        finally:
            engine.clear_cache()
        assert got  # healed: real results despite the broken kernel
        assert engine.obs.metrics.value("kernel_ops.python_fallback") > 0


    @pytest.mark.parametrize("cold", [False, True])
    @pytest.mark.parametrize("damage", ["truncate", "retype", "drop", "overrun"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("predicate", ["jaccard", "bm25", "lm"])
    def test_damaged_posting_arrays_heal_the_scan(
        self, predicate, damage, num_shards, cold
    ):
        """Both scans sit on one ladder: a token whose arrays are short --
        *in step*, so no shape mismatch gives them away -- of the wrong
        dtype, missing or pointing past the relation makes the call return
        the scalar answer: one ``python_fallback`` per healed call, nothing
        escapes.  ``jaccard`` damages the count scan's ``(tids, tfs)``,
        ``bm25`` and ``lm`` the weighted scan's ``(tids, contributions)``.

        ``cold`` damages the arrays before anything has read the weighted
        index's scalar view, so the heal itself derives it -- from the
        predicate's formula, not from the arrays it is healing from: the
        answers are those of a fresh scalar fit on another engine."""
        np = kernels.np
        engine, reference = make_engine(), make_engine()
        try:
            query = engine.from_strings(ROWS).predicate(predicate).shards(num_shards)
            fresh = reference.from_strings(ROWS).predicate(predicate).shards(num_shards)
            with kernels.use_backend("python"):
                want = run_workload(fresh if cold else query)
            fitted = query.fitted_predicate()
            shard = fitted if num_shards == 1 else fitted.shards[0]
            weighted = shard._weighted_index
            index = shard._index if predicate == "jaccard" else weighted
            if weighted is not None:
                assert weighted.scalar_view_built is not cold
            token = max(index._arrays, key=lambda token: index._arrays[token][0].size)
            tids, values = index._arrays[token]
            assert tids.size > 1
            if damage == "drop":
                del index._arrays[token]
            else:
                index._arrays[token] = {
                    "truncate": (tids[:-1], values[:-1]),
                    "retype": (tids.astype(np.float64), values),
                    "overrun": (tids + len(ROWS), values),
                }[damage]
            probe = next(text for text in ROWS if token in fitted.tokenizer.tokenize(text))
            before = kernels.ops_snapshot()["python_fallback"]
            with kernels.use_backend("numpy"):
                healed = [query.top_k(probe, 5), query.select(probe, 0.1)]
                got = run_workload(query)
            if cold and weighted is not None:
                # The heal derived the view -- once, whatever number of calls
                # it then healed -- and only on the shard that needed it.
                assert weighted.scalar_view_built and weighted.view_cause == "heal"
                assert engine.obs.metrics.value("core.scalar_view.builds_total") == 1
                reference_shard = fresh.fitted_predicate()
                if num_shards > 1:
                    reference_shard = reference_shard.shards[0]
                assert [
                    (tid, value.hex()) for tid, value in weighted.postings(token)
                ] == [
                    (tid, value.hex())
                    for tid, value in reference_shard._weighted_index.postings(token)
                ]
            with kernels.use_backend("python"):
                assert healed == [fresh.top_k(probe, 5), fresh.select(probe, 0.1)]
            assert got == want
            touching = sum(
                token in fitted.tokenizer.tokenize(text) for text in QUERIES
            )
            assert (
                kernels.ops_snapshot()["python_fallback"] - before
                == 2 + 2 * touching
            )
            assert engine.obs.metrics.value("kernel_ops.python_fallback") == 2 + 2 * touching
        finally:
            engine.clear_cache()
            reference.clear_cache()
