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

import numpy as np
import pytest

from repro.core import kernels, make_predicate
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
        assert "kernel fallback ladder" not in notes


# ---------------------------------------------------------------------------
# the scans' in-step checks
# ---------------------------------------------------------------------------


#: The kernelised predicates, by the scan that reads their posting arrays.
COUNT_SCAN = ["intersect", "jaccard"]
WEIGHTED_SCAN = ["bm25", "cosine", "hmm", "lm", "weighted_jaccard", "weighted_match"]


def _truncate(arrays, token):
    """Drop the last posting of ``token``'s arrays: short *in step*, so no
    shape mismatch gives them away -- only the stored counts do."""
    first, second = arrays[token]
    arrays[token] = (first[:-1], second[:-1])


def _widest(arrays, tokens):
    """The token of ``tokens`` with the most postings."""
    return max(set(tokens) & set(arrays), key=lambda token: arrays[token][0].size)


class TestInStepChecks:
    """A posting array out of step with the counts the fit stored fails the
    call with the check's ``ValueError`` -- wherever it is read, never a
    partial answer -- and a served query over it answers the structured 500
    envelope while the server keeps serving."""

    def test_weighted_index_top_k(self):
        predicate = make_predicate("bm25").fit(ROWS)
        arrays = predicate._weighted_index._arrays
        query_tokens = set(predicate.tokenizer.tokenize(QUERIES[0]))
        _truncate(arrays, _widest(arrays, query_tokens))
        predicate.last_num_candidates = None
        with pytest.raises(ValueError, match="out of step with the posting counts"):
            predicate.top_k(QUERIES[0], 5)
        assert predicate.last_num_candidates is None

    def test_inverted_index_count_scan(self):
        predicate = make_predicate("jaccard").fit(ROWS)
        arrays = predicate._index._arrays
        _truncate(arrays, _widest(arrays, predicate._query_tokens(QUERIES[0])))
        with pytest.raises(ValueError, match="out of step with the document frequencies"):
            predicate.rank(QUERIES[0])
        assert predicate.last_num_candidates is None

    @staticmethod
    def _prefix_damaged(predicate, query):
        """Shorten the query's widest prefix token's tid array and lengthen
        another query token's by as much, so a count scan over all of the
        query's tokens still reads the right total: only a probe of the
        prefix sees it."""
        blocker = predicate.blocker
        prefix_filter = blocker.stages[-1] if hasattr(blocker, "stages") else blocker
        index = predicate._index
        arrays = index._arrays
        query_tokens = predicate._query_tokens(query)
        prefix = set(prefix_filter.prefix_of(query_tokens))
        token = _widest(arrays, prefix)
        other = next(t for t in sorted(query_tokens - prefix) if t in arrays)
        _truncate(arrays, token)
        tids, tfs = arrays[other]
        arrays[other] = (tids[[*range(tids.size), 0]], tfs[[*range(tfs.size), 0]])

    def test_blocker_candidate_mask(self):
        from repro.blocking import make_blocker

        rows = ROWS * 3
        predicate = make_predicate("jaccard").fit(rows)
        predicate.set_blocker(make_blocker("length+prefix", threshold=0.5))
        query = max(rows, key=len)
        self._prefix_damaged(predicate, query)
        tokens = predicate._query_tokens(query)
        kernels.count_overlap(predicate._index, tokens, len(rows))  # still in step
        with pytest.raises(ValueError, match="out of step with the document frequencies"):
            predicate._index.candidate_mask(tokens, predicate.blocker)
        with pytest.raises(ValueError, match="out of step with the document frequencies"):
            predicate.select(query, 0.5)
        assert predicate.last_num_candidates is None

    def test_sharded_global_candidates(self, monkeypatch):
        from repro.blocking import make_blocker
        from repro.shard import ShardedPredicate

        rows = ROWS * 3
        sharded = ShardedPredicate(lambda: make_predicate("jaccard"), num_shards=2)
        sharded.fit(rows)
        sharded.set_blocker(make_blocker("length+prefix", threshold=0.5))
        query = max(rows, key=len)
        shard = sharded.shards[0]
        arrays = shard._index._arrays
        probe = sharded.blocker.probe_tokens(shard._query_tokens(query))
        _truncate(arrays, _widest(arrays, probe))
        calls = []
        global_candidates = ShardedPredicate._global_candidates

        def spy(self, probe_tokens):
            try:
                return global_candidates(self, probe_tokens)
            except ValueError as exc:
                calls.append(exc)
                raise

        monkeypatch.setattr(ShardedPredicate, "_global_candidates", spy)
        with pytest.raises(ValueError, match="out of step with the document frequencies"):
            sharded.select(query, 0.5)
        assert len(calls) == 1  # raised by the pre-partition candidates

    @pytest.mark.parametrize("damage", ["truncate", "retype", "drop", "overrun"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("predicate", COUNT_SCAN + WEIGHTED_SCAN)
    def test_damaged_posting_arrays_fail_every_call_that_reads_them(
        self, predicate, num_shards, damage
    ):
        """Whichever scan reads them -- the count scan's ``(tids, tfs)`` for
        ``jaccard`` / ``intersect``, the weighted scan's ``(tids,
        contributions)`` for the rest -- a token whose arrays are short in
        step, missing, of the wrong dtype or pointing past the relation fails
        every call whose query holds it, on one shard or on one of two; every
        other query answers as a fresh fit on another engine does."""
        engine, reference = make_engine(), make_engine()
        try:
            query = engine.from_strings(ROWS).predicate(predicate).shards(num_shards)
            fresh = reference.from_strings(ROWS).predicate(predicate).shards(num_shards)
            fitted = query.fitted_predicate()
            shard = fitted if num_shards == 1 else fitted.shards[0]
            index = shard._index if predicate in COUNT_SCAN else shard._weighted_index
            arrays = index._arrays
            token = max(arrays, key=lambda token: arrays[token][0].size)
            tids, values = arrays[token]
            assert tids.size > 1
            if damage == "drop":
                del arrays[token]
            else:
                arrays[token] = {
                    "truncate": (tids[:-1], values[:-1]),
                    "retype": (tids.astype(np.float64), values),
                    "overrun": (tids + len(ROWS), values),
                }[damage]
            texts = ROWS + QUERIES
            reads = [text for text in texts if token in fitted.tokenizer.tokenize(text)]
            clean = [text for text in texts if text not in reads]
            assert reads and clean
            if damage in ("truncate", "drop"):
                errors, match = ValueError, "out of step"
            else:  # a wrong dtype or a tid beyond the relation fails in numpy
                errors, match = (ValueError, TypeError, IndexError), None
            for text in reads:
                for operation, args in (("top_k", (5,)), ("select", (0.1,)), ("rank", ())):
                    with pytest.raises(errors, match=match):
                        getattr(query, operation)(text, *args)
            for text in clean:
                assert [query.top_k(text, 5), query.select(text, 0.1)] == [
                    fresh.top_k(text, 5),
                    fresh.select(text, 0.1),
                ]
        finally:
            engine.clear_cache()
            reference.clear_cache()

    @pytest.mark.parametrize("name", ["bm25", "jaccard", "lm"])
    def test_served_query_answers_500_and_the_server_keeps_serving(self, name):
        import asyncio

        from repro.serve import SimilarityService

        service = SimilarityService(batch_window=0.0, obs=Observability(metrics=MetricsRegistry()))
        try:
            corpus_id, _, _ = service.register_corpus(ROWS)
            healthy_id, _, _ = service.register_corpus(ROWS[:6])
            ask = {"corpus_id": corpus_id, "op": "top_k", "k": 3, "predicate": name}
            assert asyncio.run(service.handle({**ask, "text": QUERIES[0]}))["status"] == 200
            [query] = service.corpus(corpus_id).queries.values()
            predicate = query.fitted_predicate()
            index = predicate._index if name in COUNT_SCAN else predicate._weighted_index
            arrays = index._arrays
            damaged = _widest(arrays, predicate.tokenizer.tokenize(QUERIES[0]))
            _truncate(arrays, damaged)
            envelope = asyncio.run(service.handle({**ask, "text": QUERIES[0]}))
            assert (envelope["status"], envelope["error"]) == (500, "internal")
            assert "ValueError" in envelope["message"] and "out of step" in envelope["message"]
            assert "matches" not in envelope
            # The same corpus answers queries that do not read the damaged
            # token; another corpus is untouched.
            clean = next(
                text for text in ROWS if damaged not in predicate.tokenizer.tokenize(text)
            )
            assert asyncio.run(service.handle({**ask, "text": clean}))["status"] == 200
            healthy = {**ask, "corpus_id": healthy_id, "text": QUERIES[0]}
            assert asyncio.run(service.handle(healthy))["status"] == 200
        finally:
            service.close()
