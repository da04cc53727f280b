"""Tests of the serving layer: protocol, admission, batching, HTTP, drain.

The load-bearing invariant throughout is *bit-identity*: a request served
through admission control and micro-batching must return exactly the
``Match`` list a direct call on a :class:`SimilarityEngine` returns --
same tids, same float scores, same strings, same order -- under any
interleaving of concurrent clients.  The hypothesis test at the bottom
drives that across realizations and shard counts.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import Reference
from repro.engine import Query, SimilarityEngine
from repro.obs.clock import perf_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Observability, Tracer
from repro.serve import (
    AdmissionController,
    AdmissionTimeout,
    MicroBatcher,
    ProtocolError,
    RejectedError,
    ServeClient,
    ServeError,
    ServeServer,
    SimilarityService,
    corpus_id_for,
    parse_query_request,
)
from repro.serve.protocol import match_to_dict
from repro.serve.server import MAX_BODY_BYTES
from test_reference import assert_tie_equal


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


def fresh_obs() -> Observability:
    return Observability(metrics=MetricsRegistry())


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_minimal_top_k(self):
        request = parse_query_request(
            {"corpus_id": "abc", "text": "AT&T", "op": "top_k", "k": 3}
        )
        assert request.corpus_id == "abc"
        assert request.op == "top_k"
        assert request.k == 3
        assert request.predicate == "bm25"

    def test_default_timeout_applies(self):
        request = parse_query_request(
            {"corpus_id": "abc", "text": "x", "op": "rank"}, default_timeout=12.5
        )
        assert request.timeout == 12.5

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"corpus_id": "a"},
            {"corpus_id": "a", "text": "x", "op": "explode"},
            {"corpus_id": "a", "text": "x", "op": "top_k"},  # missing k
            {"corpus_id": "a", "text": "x", "op": "top_k", "k": -1},
            {"corpus_id": "a", "text": "x", "op": "top_k", "k": True},
            {"corpus_id": "a", "text": "x", "op": "select"},  # missing threshold
            {"corpus_id": "a", "text": "x", "op": "rank", "num_shards": 0},
            {"corpus_id": "a", "text": "x", "op": "rank", "timeout": -1},
            {"corpus_id": "a", "text": "x", "op": "rank", "bogus": 1},
            {"corpus_id": "a", "text": "x", "op": "rank", "predicate": "nope"},
            {"corpus_id": "a", "text": "x", "op": "rank", "predicate": 5},
            {"corpus_id": "a", "text": "x", "op": "rank", "realization": "weird"},
            {"corpus_id": "a", "text": "x", "op": "rank", "backend": "postgres"},
            {"corpus_id": "a", "text": "x", "op": "rank", "executor": "bogus"},
            {"corpus_id": "a", "text": "x", "op": "rank", "executor": {"x": 1}},
        ],
    )
    def test_rejects_bad_payloads(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request(payload)
        assert excinfo.value.status == 400

    def test_accepts_the_plan_names_the_engine_accepts(self):
        request = parse_query_request(
            {
                "corpus_id": "a",
                "text": "x",
                "op": "rank",
                "predicate": "Okapi",  # an alias, case-folded by the registry
                "realization": "declarative",
                "backend": " SQLite ",
                "executor": "Thread",
            }
        )
        assert (request.predicate, request.backend, request.executor) == (
            "Okapi",
            " SQLite ",
            "Thread",
        )

    def test_batch_key_separates_plans(self):
        base = {"corpus_id": "a", "text": "x", "op": "top_k", "k": 3}
        same_plan_other_text = dict(base, text="y")
        other_k = dict(base, k=4)
        other_predicate = dict(base, predicate="jaccard")
        key = parse_query_request(base).batch_key()
        assert parse_query_request(same_plan_other_text).batch_key() == key
        assert parse_query_request(other_k).batch_key() != key
        assert parse_query_request(other_predicate).batch_key() != key

    def test_corpus_id_is_content_deterministic(self):
        assert corpus_id_for(ROWS) == corpus_id_for(list(ROWS))
        assert corpus_id_for(ROWS) != corpus_id_for(ROWS[:-1])
        # Boundary-shift must change the id (the separator matters).
        assert corpus_id_for(["ab", "c"]) != corpus_id_for(["a", "bc"])


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_concurrency_is_capped(self):
        async def run():
            controller = AdmissionController(
                max_concurrency=2, max_queue=16, obs=fresh_obs()
            )
            active = 0
            high_water = 0

            async def worker():
                nonlocal active, high_water
                async with controller.admit():
                    active += 1
                    high_water = max(high_water, active)
                    await asyncio.sleep(0.005)
                    active -= 1

            await asyncio.gather(*[worker() for _ in range(8)])
            return high_water, controller.obs.metrics

        high_water, metrics = asyncio.run(run())
        assert high_water == 2
        assert metrics.gauge("serve.active_requests").high_water == 2
        assert metrics.gauge_value("serve.active_requests") == 0
        assert metrics.gauge_value("serve.queue_depth") == 0

    def test_full_queue_rejects_immediately(self):
        async def run():
            obs = fresh_obs()
            controller = AdmissionController(max_concurrency=1, max_queue=1, obs=obs)
            release = asyncio.Event()

            async def holder():
                async with controller.admit():
                    await release.wait()

            async def waiter():
                async with controller.admit():
                    pass

            holding = asyncio.create_task(holder())
            await asyncio.sleep(0.005)
            waiting = asyncio.create_task(waiter())
            await asyncio.sleep(0.005)
            started = perf_clock()
            with pytest.raises(RejectedError):
                async with controller.admit():
                    pass
            elapsed = perf_clock() - started
            release.set()
            await asyncio.gather(holding, waiting)
            return elapsed, obs.metrics

        elapsed, metrics = asyncio.run(run())
        assert elapsed < 0.05  # rejected without waiting
        assert metrics.value("serve.rejections_total") == 1

    def test_queued_request_times_out(self):
        async def run():
            obs = fresh_obs()
            controller = AdmissionController(max_concurrency=1, max_queue=4, obs=obs)
            release = asyncio.Event()

            async def holder():
                async with controller.admit():
                    await release.wait()

            holding = asyncio.create_task(holder())
            await asyncio.sleep(0.005)
            with pytest.raises(AdmissionTimeout):
                async with controller.admit(timeout=0.02):
                    pass
            release.set()
            await holding
            return obs.metrics

        metrics = asyncio.run(run())
        assert metrics.value("serve.timeouts_total") == 1
        assert metrics.gauge_value("serve.queue_depth") == 0


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------


class GatedRunner:
    """A batch runner whose executions block until the test opens their key.

    ``calls`` records ``(key, requests)`` in the order batches *start*, so a
    test can tell what the batcher dispatched while a lane was still busy.
    Build it inside the running loop (its events bind to it on Python 3.9).
    """

    def __init__(self, result=lambda requests: [value * 2 for value in requests]):
        self.calls: list = []
        self.gates: dict = {}
        self._result = result

    def gate(self, key) -> asyncio.Event:
        return self.gates.setdefault(key, asyncio.Event())

    async def __call__(self, key, requests):
        self.calls.append((key, list(requests)))
        await self.gate(key).wait()
        return self._result(list(requests))

    def open(self, *keys) -> None:
        for key in keys:
            self.gate(key).set()


async def until(condition, timeout: float = 5.0) -> None:
    """Yield to the loop until ``condition()`` holds (an event, not a nap)."""

    async def spin():
        while not condition():
            await asyncio.sleep(0)

    await asyncio.wait_for(spin(), timeout)


def flush_causes(obs: Observability) -> dict:
    prefix = "serve.flushes_total."
    return {
        name[len(prefix):]: value
        for name, value in obs.metrics.to_dict()["counters"].items()
        if name.startswith(prefix)
    }


class TestMicroBatcher:
    def test_idle_lane_flushes_on_arrival(self):
        async def runner(key, requests):
            return list(requests)

        obs = fresh_obs()

        async def run():
            # Nothing is executing, so the 30s window must never be waited.
            batcher = MicroBatcher(runner, window=30.0, obs=obs)
            return await asyncio.wait_for(batcher.submit("k", 7), 5)

        assert asyncio.run(run()) == 7
        assert flush_causes(obs) == {"idle": 1}

    def test_coalesces_within_window(self):
        """Behind a busy lane, requests of one key share the next batch."""
        obs = fresh_obs()

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, max_batch=16, obs=obs)
            tasks = [asyncio.create_task(batcher.submit("k", 0))]
            await until(lambda: len(runner.calls) == 1)  # runs alone, at once
            tasks += [asyncio.create_task(batcher.submit("k", i)) for i in range(1, 5)]
            await until(lambda: batcher.pending == 4)
            assert runner.calls == [("k", [0])]  # the rest wait for the lane
            runner.open("k")
            return await asyncio.gather(*tasks), runner.calls

        results, calls = asyncio.run(run())
        assert results == [0, 2, 4, 6, 8]
        assert calls == [("k", [0]), ("k", [1, 2, 3, 4])]
        assert flush_causes(obs) == {"idle": 1, "lane_free": 1}

    def test_lane_releases_oldest_bucket_one_per_completion(self):
        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, obs=fresh_obs())
            tasks = [asyncio.create_task(batcher.submit("a", 1, lane="L"))]
            await until(lambda: len(runner.calls) == 1)
            tasks.append(asyncio.create_task(batcher.submit("b", 2, lane="L")))
            tasks.append(asyncio.create_task(batcher.submit("c", 3, lane="L")))
            await until(lambda: batcher.pending == 2)
            # Another lane is never held up by lane L being busy.
            tasks.append(asyncio.create_task(batcher.submit("x", 9, lane="M")))
            await until(lambda: len(runner.calls) == 2)
            assert runner.calls[1] == ("x", [9])
            runner.open("a")
            await until(lambda: len(runner.calls) == 3)
            assert runner.calls[2] == ("b", [2])  # oldest first ...
            assert batcher.pending == 1  # ... and only one per completion
            runner.open("b")
            await until(lambda: len(runner.calls) == 4)
            assert runner.calls[3] == ("c", [3])
            runner.open("c", "x")
            return await asyncio.gather(*tasks)

        assert asyncio.run(run()) == [2, 4, 6, 18]

    def test_distinct_keys_do_not_coalesce(self):
        calls = []

        async def runner(key, requests):
            calls.append(key)
            return list(requests)

        async def run():
            batcher = MicroBatcher(runner, window=0.02, obs=fresh_obs())
            return await asyncio.gather(
                batcher.submit("a", 1), batcher.submit("b", 2)
            )

        assert asyncio.run(run()) == [1, 2]
        assert sorted(calls) == ["a", "b"]

    def test_max_batch_flushes_early(self):
        obs = fresh_obs()

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, max_batch=3, obs=obs)
            tasks = [asyncio.create_task(batcher.submit("k", 0))]
            await until(lambda: len(runner.calls) == 1)
            tasks += [asyncio.create_task(batcher.submit("k", i)) for i in range(1, 4)]
            # A full bucket goes although its lane is still busy.
            await until(lambda: len(runner.calls) == 2)
            assert runner.calls[1] == ("k", [1, 2, 3])
            runner.open("k")
            return await asyncio.gather(*tasks)

        assert asyncio.run(run()) == [0, 2, 4, 6]
        assert flush_causes(obs) == {"idle": 1, "full": 1}

    def test_window_caps_the_wait_behind_a_busy_lane(self):
        obs = fresh_obs()

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=0.01, obs=obs)
            tasks = [asyncio.create_task(batcher.submit("a", 1, lane="L"))]
            await until(lambda: len(runner.calls) == 1)
            tasks.append(asyncio.create_task(batcher.submit("b", 2, lane="L")))
            # "a" never finishes on its own: only the window can dispatch "b".
            await until(lambda: len(runner.calls) == 2)
            assert runner.calls[1] == ("b", [2])
            runner.open("a", "b", "c")
            results = await asyncio.gather(*tasks)
            # Two batches were in flight on L; both released, the lane is idle.
            batcher.window = 30.0
            results.append(await asyncio.wait_for(batcher.submit("c", 3, lane="L"), 5))
            return results

        assert asyncio.run(run()) == [2, 4, 6]
        assert flush_causes(obs) == {"idle": 2, "window": 1}

    def test_zero_window_never_coalesces(self):
        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=0, obs=fresh_obs())
            tasks = [asyncio.create_task(batcher.submit("k", i)) for i in range(4)]
            await until(lambda: len(runner.calls) == 4)  # busy lane or not
            runner.open("k")
            return await asyncio.gather(*tasks), runner.calls

        results, calls = asyncio.run(run())
        assert results == [0, 2, 4, 6]
        assert calls == [("k", [i]) for i in range(4)]

    def test_runner_failure_reaches_every_waiter(self):
        async def runner(key, requests):
            raise ValueError("boom")

        async def run():
            batcher = MicroBatcher(runner, window=0.005, obs=fresh_obs())
            return await asyncio.gather(
                *[batcher.submit("k", i) for i in range(3)], return_exceptions=True
            )

        results = asyncio.run(run())
        assert len(results) == 3
        assert all(isinstance(result, ValueError) for result in results)

    def test_failed_batch_frees_its_lane(self):
        failing = [True]

        async def runner(key, requests):
            if failing[0]:
                raise ValueError("boom")
            return list(requests)

        async def run():
            batcher = MicroBatcher(runner, window=30.0, obs=fresh_obs())
            with pytest.raises(ValueError):
                await batcher.submit("k", 1)
            failing[0] = False
            return await asyncio.wait_for(batcher.submit("k", 2), 5)

        assert asyncio.run(run()) == 2

    def test_result_count_mismatch_is_an_error(self):
        async def run():
            # One result whatever the batch size: wrong arity for a batch of 2.
            runner = GatedRunner(result=lambda requests: requests[:1])
            batcher = MicroBatcher(runner, window=30.0, obs=fresh_obs())
            first = asyncio.create_task(batcher.submit("k", 0))
            await until(lambda: len(runner.calls) == 1)
            pair = [asyncio.create_task(batcher.submit("k", i)) for i in (1, 2)]
            await until(lambda: batcher.pending == 2)
            runner.open("k")
            results = await asyncio.gather(first, *pair, return_exceptions=True)
            # The mismatched batch freed its lane: the next request runs at once.
            results.append(await asyncio.wait_for(batcher.submit("k", 3), 5))
            return results

        first, second, third, after = asyncio.run(run())
        assert first == 0 and after == 3
        assert isinstance(second, RuntimeError) and isinstance(third, RuntimeError)

    def test_abandoned_batch_frees_its_lane(self):
        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, obs=fresh_obs())
            with pytest.raises(asyncio.TimeoutError):
                # The deadline expires mid-batch; wait_for cancels the waiter.
                await asyncio.wait_for(batcher.submit("k", 1), 0.01)
            assert len(runner.calls) == 1
            runner.open("k")
            await batcher.flush_all()  # the abandoned batch finishes
            return await asyncio.wait_for(batcher.submit("k", 2), 5)

        assert asyncio.run(run()) == 4

    def test_flush_all_resolves_pending(self):
        obs = fresh_obs()

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, obs=obs)
            tasks = [asyncio.create_task(batcher.submit("a", 1, lane="L"))]
            await until(lambda: len(runner.calls) == 1)
            tasks.append(asyncio.create_task(batcher.submit("b", 7, lane="L")))
            await until(lambda: batcher.pending == 1)
            drain = asyncio.create_task(batcher.flush_all())
            # A drain does not wait for the lane: the bucket goes now.
            await until(lambda: len(runner.calls) == 2)
            assert batcher.pending == 0
            runner.open("a", "b")
            await drain
            assert all(task.done() for task in tasks)
            return [task.result() for task in tasks]

        assert asyncio.run(run()) == [2, 14]
        assert flush_causes(obs) == {"idle": 1, "drain": 1}

    def test_flush_all_waits_for_every_started_flush(self):
        """Regression: a flush the window timer started was not tracked, so
        ``flush_all`` returned while its batch was still executing."""

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=0.001, obs=fresh_obs())
            tasks = [asyncio.create_task(batcher.submit("k", 0))]
            await until(lambda: len(runner.calls) == 1)
            tasks.append(asyncio.create_task(batcher.submit("k", 1)))
            await until(lambda: len(runner.calls) == 2)  # started by the timer
            assert batcher.pending == 0
            drain = asyncio.create_task(batcher.flush_all())
            for _ in range(5):
                await asyncio.sleep(0)
            assert not drain.done()  # both batches are still executing
            runner.open("k")
            await asyncio.wait_for(drain, 5)
            assert all(task.done() for task in tasks)

        asyncio.run(run())

    def test_batch_metrics_published(self):
        obs = fresh_obs()

        async def run():
            runner = GatedRunner()
            batcher = MicroBatcher(runner, window=30.0, obs=obs)
            tasks = [asyncio.create_task(batcher.submit("k", 0))]
            await until(lambda: len(runner.calls) == 1)
            tasks += [asyncio.create_task(batcher.submit("k", i)) for i in range(1, 4)]
            await until(lambda: batcher.pending == 3)
            runner.open("k")
            await asyncio.gather(*tasks)

        asyncio.run(run())
        assert obs.metrics.value("serve.batches_total") == 2
        assert obs.metrics.value("serve.batched_queries_total") == 4
        assert obs.metrics.histogram("serve.batch_size").count == 2
        # One wait observation per request, one flush cause per batch.
        waits = obs.metrics.histogram("latency.serve.batch_wait")
        assert waits.count == 4 and waits.total >= 0.0
        assert flush_causes(obs) == {"idle": 1, "lane_free": 1}


# ---------------------------------------------------------------------------
# service pipeline
# ---------------------------------------------------------------------------


def make_service(**kwargs) -> SimilarityService:
    kwargs.setdefault("batch_window", 0.002)
    kwargs.setdefault("obs", fresh_obs())
    return SimilarityService(**kwargs)


class TestService:
    def test_register_is_idempotent(self):
        service = make_service()
        first = service.register_corpus(ROWS)
        second = service.register_corpus(list(ROWS))
        assert first[0] == second[0]
        assert first[2] is True and second[2] is False

    def test_served_results_match_direct_engine(self):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        payload = {"corpus_id": corpus_id, "text": "Morgn Stanley", "op": "top_k", "k": 4}
        envelope = asyncio.run(service.handle(payload))
        assert envelope["status"] == 200
        direct = (
            SimilarityEngine().from_strings(ROWS).predicate("bm25").top_k(
                "Morgn Stanley", 4
            )
        )
        assert envelope["matches"] == [match_to_dict(match) for match in direct]
        service.close()

    def test_unknown_corpus_is_404(self):
        service = make_service()
        envelope = asyncio.run(
            service.handle({"corpus_id": "nope", "text": "x", "op": "rank"})
        )
        assert envelope["status"] == 404
        assert envelope["error"] == "unknown_corpus"

    def test_bad_payload_is_400(self):
        service = make_service()
        envelope = asyncio.run(service.handle({"text": "x"}))
        assert envelope["status"] == 400
        assert envelope["kind"] == "error"

    @pytest.mark.parametrize(
        "typo",
        [
            {"predicate": "nope"},
            {"predicate": 5},
            {"realization": "weird"},
            {"backend": "postgres"},
            {"executor": "bogus", "num_shards": 2},
            {"executor": {"x": 1}, "num_shards": 2},
        ],
    )
    def test_plan_typos_are_400_and_leave_the_breaker_closed(self, typo, caplog):
        """A client's typo in a plan field used to reach the engine: 500, a
        traceback in the log, and -- five in a row -- an open corpus breaker
        answering every valid request 503."""
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        good = {"corpus_id": corpus_id, "text": "Morgn Stanley", "op": "top_k", "k": 2}
        with caplog.at_level("ERROR"):
            for _ in range(10):
                envelope = asyncio.run(service.handle({**good, **typo}))
                assert (envelope["status"], envelope["error"]) == (400, "bad_request")
        assert caplog.records == []
        assert asyncio.run(service.handle(good))["status"] == 200
        assert service.obs.metrics.gauge_value(f"serve.breaker_state.{corpus_id}") == 0
        assert service.corpus(corpus_id).breaker.state == "closed"
        service.close()

    def test_concurrent_same_plan_requests_coalesce(self):
        service = make_service(batch_window=30.0, max_concurrency=8, max_queue=32)
        corpus_id, _, _ = service.register_corpus(ROWS)
        entry = service.corpus(corpus_id)
        texts = ["Morgn Stanley", "AT&T", "Beijing", "Goldman", "IBM Corp"]
        sizes = []
        run_many = Query.run_many

        def spy(query, queries, **kwargs):
            sizes.append(len(queries))
            return run_many(query, queries, **kwargs)

        async def run():
            payloads = [
                {"corpus_id": corpus_id, "text": text, "op": "top_k", "k": 3}
                for text in texts
            ]
            # The test holds the corpus lock: the first request is dispatched
            # at once (idle corpus) and blocks in its worker thread, so the
            # corpus stays busy while the other four arrive.
            entry.lock.acquire()
            try:
                tasks = [asyncio.create_task(service.handle(p)) for p in payloads]
                await until(lambda: service.batcher.pending == 4)
            finally:
                entry.lock.release()
            return await asyncio.gather(*tasks)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Query, "run_many", spy)
            envelopes = asyncio.run(run())
        assert all(envelope["status"] == 200 for envelope in envelopes)
        # The first ran alone; the four behind it became one run_many of four.
        assert sizes == [1, 4]
        assert [envelope["batch_size"] for envelope in envelopes] == [1, 4, 4, 4, 4]
        assert service.obs.metrics.value("serve.batches_total") == 2
        assert flush_causes(service.obs) == {"idle": 1, "lane_free": 1}
        # Batched answers are bit-identical to sequential direct calls.
        query = SimilarityEngine().from_strings(ROWS).predicate("bm25")
        for text, envelope in zip(texts, envelopes):
            assert envelope["matches"] == [
                match_to_dict(match) for match in query.top_k(text, 3)
            ]
        service.close()

    def test_one_built_query_per_plan(self):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        entry = service.corpus(corpus_id)
        binds = []
        from_strings = entry.engine.from_strings
        entry.engine.from_strings = lambda rows: binds.append(1) or from_strings(rows)

        def ask(text, **options):
            payload = {"corpus_id": corpus_id, "text": text, "op": "top_k", "k": 2}
            envelope = asyncio.run(service.handle({**payload, **options}))
            assert envelope["status"] == 200
            return envelope

        ask("AT&T")
        (kept,) = entry.queries.values()
        ask("Beijing Hotel")
        (again,) = entry.queries.values()
        assert again is kept  # reused, not rebuilt
        assert binds == []  # the relation was bound at registration, once
        # A second plan gets its own query; another k is the same plan.
        ask("AT&T", predicate="jaccard")
        ask("AT&T", k=3)
        assert len(entry.queries) == 2
        service.close()

    def test_unanswered_plan_is_not_kept(self, monkeypatch):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)

        def broken(query, queries, **kwargs):
            raise RuntimeError("engine failure")

        monkeypatch.setattr(Query, "run_many", broken)
        envelope = asyncio.run(
            service.handle(
                {"corpus_id": corpus_id, "text": "AT&T", "op": "top_k", "k": 2}
            )
        )
        assert envelope["status"] == 500
        assert service.corpus(corpus_id).queries == {}
        service.close()

    def test_eviction_and_close_drop_built_queries(self):
        service = make_service(max_corpora=1)
        first_id, _, _ = service.register_corpus(ROWS)
        payload = {"corpus_id": first_id, "text": "AT&T", "op": "top_k", "k": 2}
        expected = asyncio.run(service.handle(payload))["matches"]
        first = service.corpus(first_id)
        assert len(first.queries) == 1
        second_id, _, _ = service.register_corpus(ROWS[:4])
        assert first.queries == {}  # evicted with the engine's warm state
        second = service.corpus(second_id)
        asyncio.run(service.handle({**payload, "corpus_id": second_id}))
        assert len(second.queries) == 1
        service.close()
        assert second.queries == {}
        assert asyncio.run(service.handle(payload))["status"] == 404
        # Registering again starts from a fresh entry and answers as before.
        again_id, _, created = service.register_corpus(ROWS)
        assert again_id == first_id and created is True
        assert asyncio.run(service.handle(payload))["matches"] == expected
        service.close()

    def test_request_span_tree(self):
        obs = Observability(tracer=Tracer(), metrics=MetricsRegistry())
        service = make_service(obs=obs)
        corpus_id, _, _ = service.register_corpus(ROWS)
        envelope = asyncio.run(
            service.handle(
                {"corpus_id": corpus_id, "text": "AT&T", "op": "top_k", "k": 2}
            )
        )
        assert envelope["status"] == 200
        root = obs.tracer.last_root
        assert root is not None and root.name == "serve.request"
        admission = root.find("serve.admission")
        assert admission is not None
        batch = root.find("serve.batch")
        assert batch is not None
        # The time in a bucket is a layer of its own, between the two.
        wait = root.find("serve.batch_wait")
        assert wait is not None
        assert [child.name for child in root.children] == [
            "serve.admission",
            "serve.batch_wait",
            "serve.batch",
        ]
        assert admission.end <= wait.start <= wait.end <= batch.start
        assert batch.find("engine.query") is not None
        assert batch.find("execute.direct") is not None
        service.close()

    def test_lru_eviction_clears_engine_state(self):
        service = make_service(max_corpora=1)
        first_id, _, _ = service.register_corpus(ROWS)
        first_engine = service.corpus(first_id).engine
        asyncio.run(
            service.handle(
                {"corpus_id": first_id, "text": "AT&T", "op": "top_k", "k": 1}
            )
        )
        assert first_engine.cache_size == 1
        gauges = service.obs.metrics
        assert gauges.gauge_value("engine.core.rows") == len(ROWS)
        second_id, _, _ = service.register_corpus(ROWS[:4])
        assert service.corpus_ids == [second_id]
        assert first_engine.cache_size == 0  # evicted corpus released its state
        # ... its corpus core included: nothing is held for either corpus now.
        assert first_engine._cores == {}
        assert gauges.gauge_value("engine.core.rows") == 0
        assert gauges.gauge_value("engine.core.postings") == 0
        envelope = asyncio.run(
            service.handle(
                {"corpus_id": first_id, "text": "AT&T", "op": "top_k", "k": 1}
            )
        )
        assert envelope["status"] == 404
        assert service.obs.metrics.value("serve.corpora_evicted_total") == 1
        service.close()

    def test_deadline_expiry_is_504(self):
        async def run():
            service = make_service(max_concurrency=1, max_queue=4)
            corpus_id, _, _ = service.register_corpus(ROWS)
            release = asyncio.Event()

            async def holder():
                async with service.admission.admit():
                    await release.wait()

            holding = asyncio.create_task(holder())
            await asyncio.sleep(0.005)
            envelope = await service.handle(
                {
                    "corpus_id": corpus_id,
                    "text": "AT&T",
                    "op": "top_k",
                    "k": 1,
                    "timeout": 0.03,
                }
            )
            release.set()
            await holding
            service.close()
            return envelope

        envelope = asyncio.run(run())
        assert envelope["status"] == 504
        assert envelope["error"] == "timeout"

    def test_overload_is_429(self):
        async def run():
            service = make_service(max_concurrency=1, max_queue=0)
            corpus_id, _, _ = service.register_corpus(ROWS)
            release = asyncio.Event()

            async def holder():
                async with service.admission.admit():
                    await release.wait()

            holding = asyncio.create_task(holder())
            await asyncio.sleep(0.005)
            envelope = await service.handle(
                {"corpus_id": corpus_id, "text": "AT&T", "op": "top_k", "k": 1}
            )
            release.set()
            await holding
            service.close()
            return envelope

        envelope = asyncio.run(run())
        assert envelope["status"] == 429
        assert envelope["error"] == "rejected"

    def test_draining_service_answers_503(self):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        asyncio.run(service.drain())
        envelope = asyncio.run(
            service.handle(
                {"corpus_id": corpus_id, "text": "AT&T", "op": "top_k", "k": 1}
            )
        )
        assert envelope["status"] == 503
        assert envelope["error"] == "draining"
        service.close()


# ---------------------------------------------------------------------------
# HTTP server end-to-end
# ---------------------------------------------------------------------------


class _ServerThread:
    """Runs a ServeServer on a private event loop in a daemon thread."""

    def __init__(self, service: SimilarityService):
        self.service = service
        self.host: str = ""
        self.port: int = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: ServeServer | None = None
        #: Contexts handed to the loop's exception handler (what asyncio
        #: would otherwise log as "Unhandled exception ..." tracebacks).
        self.loop_errors: list = []
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.request_stop)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread failed to stop"

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )
        self._server = ServeServer(self.service, port=0)
        self.host, self.port = await self._server.start()
        self._ready.set()
        await self._server.serve_until_stopped()


class TestHTTPServer:
    def test_health_metrics_and_routing(self):
        with _ServerThread(make_service()) as server:
            client = ServeClient(server.host, server.port)
            health = client.health()
            assert health["kind"] == "health" and health["draining"] is False
            snapshot = client.metrics()
            assert snapshot["schema"] == "repro.obs/1"
            assert snapshot["kind"] == "metrics"
            with pytest.raises(ServeError) as excinfo:
                client.request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.request("GET", "/query")
            assert excinfo.value.status == 405
            client.close()

    def test_rejects_invalid_json_body(self):
        with _ServerThread(make_service()) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            connection.request(
                "POST", "/query", b"{not json", {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            envelope = json.loads(response.read())
            assert response.status == 400
            assert envelope["error"] == "bad_request"
            connection.close()

    @pytest.mark.parametrize("declared", [b"abc", b"-5"])
    def test_rejects_invalid_content_length(self, declared):
        """A malformed Content-Length gets a 400 envelope, then a close."""
        with _ServerThread(make_service()) as server:
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
                    + declared
                    + b"\r\n\r\n{}"
                )
                reply = b""
                while chunk := sock.recv(65536):  # until the server closes
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"connection: close" in head.lower()
            envelope = json.loads(body)
            assert envelope["error"] == "bad_request"
            assert "Content-Length" in envelope["message"]
            # The server survives and keeps answering.
            client = ServeClient(server.host, server.port)
            assert client.health()["kind"] == "health"
            client.close()

    @pytest.mark.parametrize(
        "request_head, status, error",
        [
            (
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
                431,
                "header_too_large",
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nX-Pad: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                431,
                "header_too_large",
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode("ascii")
                + b"\r\n\r\n",
                413,
                "payload_too_large",
            ),
        ],
        ids=["request-line-over-limit", "header-line-over-limit", "body-over-limit"],
    )
    def test_rejects_oversize_input(self, request_head, status, error):
        """Hostile sizes get a structured envelope and a close -- not a
        traceback in the server's log, not a silently dropped socket."""
        with _ServerThread(make_service()) as server:
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(request_head)
                reply = b""
                while chunk := sock.recv(65536):  # until the server closes
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 %d " % status)
            assert b"connection: close" in head.lower()
            envelope = json.loads(body)
            assert envelope["schema"] == "repro.serve/1"
            assert envelope["kind"] == "error"
            assert envelope["status"] == status
            assert envelope["error"] == error
            assert envelope["message"]
            # The server survives and keeps answering.
            client = ServeClient(server.host, server.port)
            assert client.health()["kind"] == "health"
            client.close()
        assert server.loop_errors == []

    def test_served_queries_bit_identical_over_http(self):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        predicates = SimilarityEngine.available_predicates()
        assert len(predicates) == 13
        with _ServerThread(make_service()) as server:
            client = ServeClient(server.host, server.port)
            corpus_id = client.register_corpus(ROWS)
            for predicate in predicates:
                for realization in ("direct", "declarative"):
                    served = client.top_k(
                        corpus_id,
                        "Morgn Stanley",
                        k=5,
                        predicate=predicate,
                        realization=realization,
                    )
                    direct = (
                        engine.from_strings(ROWS)
                        .predicate(predicate)
                        .realization(realization)
                        .top_k("Morgn Stanley", 5)
                    )
                    assert served == direct, (predicate, realization)
            # "How big and how warm is this corpus's state" from GET /metrics:
            # the served engine built and shared exactly the cores the direct
            # one did -- one per tokenizer, far fewer than predicates.
            snapshot = client.metrics()
            builds = engine.metrics.value("core_builds_total")
            reuses = engine.metrics.value("core_reuses_total")
            assert snapshot["counters"]["core_builds_total"] == builds
            assert snapshot["counters"]["core_reuses_total"] == reuses
            assert 1 <= builds < builds + reuses <= len(predicates)
            assert snapshot["gauges"]["engine.core.rows"]["value"] == builds * len(ROWS)
            assert snapshot["gauges"]["engine.core.postings"]["value"] > 0
            client.close()

    def test_eight_concurrent_clients(self):
        """More clients than cores, over three plans of one corpus: the
        shared per-plan queries and the lane bookkeeping must not cost an
        answer (a lost update would surface as a wrong or failed reply)."""
        texts = ["Morgn Stanley", "AT&T", "Beijing Hotel", "Goldman", "IBM"]
        predicates = ["bm25", "jaccard", "cosine"]
        engine = SimilarityEngine()
        expected = {
            (predicate, text): engine.from_strings(ROWS)
            .predicate(predicate)
            .top_k(text, 3)
            for predicate in predicates
            for text in texts
        }
        failures: list = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _ServerThread(
                make_service(max_concurrency=4, max_queue=64, batch_window=0.002)
            ) as server:
                seed_client = ServeClient(server.host, server.port)
                corpus_id = seed_client.register_corpus(ROWS)

                def client_worker(worker_id: int) -> None:
                    try:
                        client = ServeClient(server.host, server.port)
                        for round_index in range(6):
                            text = texts[(worker_id + round_index) % len(texts)]
                            predicate = predicates[round_index % len(predicates)]
                            served = client.top_k(
                                corpus_id, text, k=3, predicate=predicate
                            )
                            if served != expected[predicate, text]:
                                failures.append((worker_id, predicate, text))
                        client.close()
                    except Exception as exc:  # pragma: no cover - failure reporting
                        failures.append((worker_id, repr(exc)))

                threads = [
                    threading.Thread(target=client_worker, args=(i,)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                counters = seed_client.metrics()["counters"]
                seed_client.close()
        finally:
            sys.setswitchinterval(switch_interval)
        assert failures == []
        # Every request was flushed by exactly one cause, none was lost.
        assert counters["serve.batched_queries_total"] == 8 * 6
        assert counters["serve.batches_total"] == sum(
            value
            for name, value in counters.items()
            if name.startswith("serve.flushes_total.")
        )


# ---------------------------------------------------------------------------
# graceful shutdown (subprocess + SIGTERM)
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_sigterm_drains_without_dropping_requests(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--batch-window",
                "0.002",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("listening on"), line
            port = int(line.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
            connection.request(
                "POST",
                "/corpora",
                json.dumps({"strings": ROWS}),
                {"Content-Type": "application/json"},
            )
            corpus_id = json.loads(connection.getresponse().read())["corpus_id"]
            connection.close()

            responses: list = []

            def fire_query(text: str) -> None:
                worker = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                worker.request(
                    "POST",
                    "/query",
                    json.dumps(
                        {"corpus_id": corpus_id, "text": text, "op": "top_k", "k": 3}
                    ),
                    {"Content-Type": "application/json"},
                )
                responses.append(json.loads(worker.getresponse().read()))
                worker.close()

            threads = [
                threading.Thread(target=fire_query, args=(text,))
                for text in ("Morgn Stanley", "AT&T", "Beijing")
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.01)  # requests in flight
            process.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=30)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # Every mid-flight request got a full, successful response.
        assert len(responses) == 3
        assert all(envelope["status"] == 200 for envelope in responses)
        assert all(envelope["matches"] for envelope in responses)
        assert process.returncode == 0
        assert "drained and stopped" in stdout
        assert "Traceback" not in stderr


# ---------------------------------------------------------------------------
# served-vs-sequential equivalence (hypothesis)
# ---------------------------------------------------------------------------


_WORDS = sorted({word for row in ROWS for word in row.replace(",", " ").split()})

#: The bm25 reference scorer over ROWS.  The declarative BM25 admits tuples
#: sharing only zero-weight tokens (see ``tests/test_reference.py``).
_REFERENCE = {
    "direct": Reference("bm25", ROWS),
    "declarative": Reference("bm25", ROWS, zero_weight_candidates=True, avgdl_skips_empty=True),
}


class TestServedEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        queries=st.lists(
            st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join),
            min_size=1,
            max_size=6,
        ),
        num_shards=st.sampled_from([1, 2, 7]),
        realization=st.sampled_from(["direct", "declarative"]),
    )
    def test_concurrent_serving_is_bit_identical(
        self, queries, num_shards, realization
    ):
        """Concurrent requests answer the reference scorer's top 5: ``==``
        on the direct realization, to the tie rule on the declarative one."""
        expected = [_REFERENCE[realization].rank(text) for text in queries]

        async def run():
            service = make_service(max_concurrency=4, max_queue=64)
            corpus_id, _, _ = service.register_corpus(ROWS)
            payloads = [
                {
                    "corpus_id": corpus_id,
                    "text": text,
                    "op": "top_k",
                    "k": 5,
                    "realization": realization,
                    "num_shards": num_shards,
                }
                for text in queries
            ]
            envelopes = await asyncio.gather(
                *[service.handle(payload) for payload in payloads]
            )
            service.close()
            return envelopes

        envelopes = asyncio.run(run())
        for text, envelope, ranking in zip(queries, envelopes, expected):
            context = (text, realization, num_shards)
            assert envelope["status"] == 200, envelope
            got = [(row["tid"], row["score"]) for row in envelope["matches"]]
            assert [row["string"] for row in envelope["matches"]] == [
                ROWS[tid] for tid, _ in got
            ], context
            if realization == "direct":
                assert got == ranking[:5], context
            else:
                assert_tie_equal(got, ranking[:5], ranking, False, context)
