"""Unit tests of the resilience primitives and their serving-layer wiring.

The state machines (retry backoff, deadlines, circuit breaker) run on fake
clocks and recorded sleeps, so every schedule is asserted exactly; the
serving tests drive :class:`SimilarityService` with deterministic injected
faults and check the degraded-mode envelopes (500 / 503 + ``Retry-After``)
and the bounded, event-based drain.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Observability
from repro.resilience import (
    BREAKER_STATES,
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultRule,
    InjectedFault,
    NOOP_INJECTOR,
    ResilienceStats,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
    faults_from_env,
    parse_fault_spec,
)
from repro.serve import ServeClient, ServeError, ServeServer, SimilarityService


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# fault rules and injectors
# ---------------------------------------------------------------------------


class TestFaultRules:
    def test_once_fires_exactly_once(self):
        rule = FaultRule("shard.task", once=True)
        assert [rule.fire(i) for i in (1, 2, 3)] == [True, False, False]

    def test_nth_fires_on_the_nth_call_only(self):
        rule = FaultRule("shard.task", nth=3)
        assert [rule.fire(i) for i in (1, 2, 3, 4)] == [False, False, True, False]

    def test_probability_stream_is_seeded(self):
        def fires(seed: int) -> list:
            rule = FaultRule("shard.task", p=0.5, seed=seed)
            return [rule.fire(i) for i in range(1, 33)]

        assert fires(7) == fires(7)
        assert any(fires(7)) and not all(fires(7))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # no trigger
            {"once": True, "nth": 2},  # two triggers
            {"nth": 0},
            {"p": 0.0},
            {"p": 1.5},
            {"once": True, "action": "explode"},
        ],
    )
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule("shard.task", **kwargs)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("warp.core", once=True)

    def test_injector_counts_calls_and_fires(self):
        injector = FaultInjector([FaultRule("shard.task", nth=2)])
        assert injector.active
        assert injector.directive("shard.task") is None
        assert injector.directive("shard.task") == "raise"
        assert injector.directive("shard.task") is None
        assert injector.calls("shard.task") == 3
        assert injector.fired("shard.task") == 1

    def test_check_raises_injected_fault(self):
        injector = FaultInjector([FaultRule("sql.statement", once=True)])
        with pytest.raises(InjectedFault):
            injector.check("sql.statement")
        injector.check("sql.statement")  # spent: no-op

    def test_noop_injector_is_inactive(self):
        assert not NOOP_INJECTOR.active
        assert NOOP_INJECTOR.directive("shard.task") is None

    def test_injector_pickles(self):
        injector = FaultInjector([FaultRule("shard.task", once=True)])
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.active
        assert clone.directive("shard.task") == "raise"

    def test_parse_fault_spec(self):
        injector = parse_fault_spec(
            "shard.task:nth=3:action=crash; sql.statement:p=0.25:seed=9"
        )
        rules = injector._rules
        assert set(rules) == {"shard.task", "sql.statement"}
        assert rules["shard.task"][0].action == "crash"

    @pytest.mark.parametrize(
        "spec",
        ["shard.task", "shard.task:bogus", "shard.task:frob=1", "warp:once"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_faults_from_env(self):
        assert not faults_from_env({}).active
        assert not faults_from_env({"REPRO_FAULTS": "  "}).active
        injector = faults_from_env({"REPRO_FAULTS": "serve.batch:once"})
        assert injector.active
        assert injector.directive("serve.batch") == "raise"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def make(self, **kwargs):
        sleeps: list = []
        kwargs.setdefault("sleep", sleeps.append)
        return RetryPolicy(**kwargs), sleeps

    def test_backoff_schedule_is_exponential_capped_and_seeded(self):
        policy_a = RetryPolicy(backoff=0.1, multiplier=2.0, max_backoff=0.3, seed=5)
        policy_b = RetryPolicy(backoff=0.1, multiplier=2.0, max_backoff=0.3, seed=5)
        delays = [policy_a.delay(i) for i in (1, 2, 3, 4)]
        assert delays == [policy_b.delay(i) for i in (1, 2, 3, 4)]
        # Base 0.1, 0.2, then capped at 0.3; jitter adds at most 10%.
        assert 0.1 <= delays[0] <= 0.11
        assert 0.2 <= delays[1] <= 0.22
        assert 0.3 <= delays[2] <= 0.33
        assert 0.3 <= delays[3] <= 0.33

    def test_run_retries_then_succeeds(self):
        policy, sleeps = self.make(max_attempts=3, backoff=0.01, jitter=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedFault("transient")
            return "ok"

        seen = []
        result = policy.run(flaky, on_retry=lambda n, exc: seen.append(n))
        assert result == "ok"
        assert len(attempts) == 3
        assert seen == [1, 2]
        assert sleeps == [0.01, 0.02]

    def test_run_exhausts_and_raises(self):
        policy, sleeps = self.make(max_attempts=2, jitter=0.0)

        def always():
            raise InjectedFault("never heals")

        with pytest.raises(InjectedFault):
            policy.run(always)
        assert len(sleeps) == 1  # one retry, then the final failure propagates

    def test_non_matching_exceptions_propagate_immediately(self):
        policy, sleeps = self.make(max_attempts=5)

        def typo():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.run(typo, retry_on=(InjectedFault,))
        assert sleeps == []

    def test_deadline_exceeded_is_never_retried(self):
        policy, sleeps = self.make(max_attempts=5)

        def out_of_time():
            raise DeadlineExceeded("budget gone")

        with pytest.raises(DeadlineExceeded):
            policy.run(out_of_time)
        assert sleeps == []

    def test_backoff_cannot_outlive_the_deadline(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=5, backoff=0.01, jitter=0.0, sleep=lambda s: clock.advance(5.0)
        )
        with deadline_scope(Deadline(1.0, clock=clock)):
            with pytest.raises(DeadlineExceeded):
                policy.run(lambda: (_ for _ in ()).throw(InjectedFault("x")))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_bounded_deadline_expires_on_the_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        deadline.check()
        clock.advance(2.5)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.5)
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_unbounded_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()

    def test_combine_takes_the_latest(self):
        clock = FakeClock()
        early = Deadline(1.0, clock=clock)
        late = Deadline(9.0, clock=clock)
        assert Deadline.combine((early, late)) is late
        assert Deadline.combine((late, early)) is late
        assert Deadline.combine(()) is None
        assert Deadline.combine((early, None)) is None
        assert Deadline.combine((early, Deadline(None))) is None

    def test_scope_sets_and_restores_the_ambient_deadline(self):
        clock = FakeClock()
        assert current_deadline() is None
        check_deadline()  # no scope: free no-op
        deadline = Deadline(1.0, clock=clock)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            clock.advance(2.0)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        assert current_deadline() is None

    def test_scopes_nest(self):
        outer, inner = Deadline(None), Deadline(None)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = FakeClock()
        return CircuitBreaker(
            failure_threshold=threshold, reset_timeout=reset, clock=clock
        ), clock

    def test_trips_open_after_threshold_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after == pytest.approx(10.0)

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_retry_after_shrinks_as_the_window_elapses(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after == pytest.approx(6.0)

    def test_half_open_admits_one_probe_and_success_closes(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()  # the probe
        assert breaker.state == "half_open"
        with pytest.raises(BreakerOpen):
            breaker.allow()  # concurrent caller must not stampede
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_failed_probe_reopens_for_a_full_window(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        with pytest.raises(BreakerOpen):
            breaker.allow()

    def test_state_values_match_the_gauge_encoding(self):
        breaker, clock = self.make(threshold=1)
        assert breaker.state_value == BREAKER_STATES["closed"] == 0
        breaker.record_failure()
        assert breaker.state_value == BREAKER_STATES["open"] == 1
        clock.advance(10.0)
        breaker.allow()
        assert breaker.state_value == BREAKER_STATES["half_open"] == 2

    def test_validation_and_pickle(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0)
        clone = pickle.loads(pickle.dumps(CircuitBreaker()))
        assert clone.state == "closed"


# ---------------------------------------------------------------------------
# resilience stats
# ---------------------------------------------------------------------------


class TestResilienceStats:
    def test_merge_and_events(self):
        stats = ResilienceStats(executor="thread", tasks=4)
        assert stats.events == 0
        stats += ResilienceStats(tasks=2, task_retries=1, pool_rebuilds=1)
        assert stats.executor == "thread"
        assert stats.tasks == 6
        assert stats.task_retries == 1
        assert stats.events == 2

    def test_publish_skips_zero_counters(self):
        metrics = MetricsRegistry()
        ResilienceStats(tasks=3, task_retries=2, faults_injected=1).publish(metrics)
        assert metrics.value("resilience.task_retries") == 2
        assert metrics.value("resilience.faults_injected") == 1
        assert "resilience.pool_rebuilds" not in metrics.to_dict()["counters"]


# ---------------------------------------------------------------------------
# degraded-mode serving
# ---------------------------------------------------------------------------

ROWS = [
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "AT&T Incorporated",
    "AT&T Inc.",
    "IBM Incorporated",
    "Pacific Gas and Electric Company",
]


def make_service(**kwargs) -> SimilarityService:
    kwargs.setdefault("batch_window", 0.002)
    kwargs.setdefault("obs", Observability(metrics=MetricsRegistry()))
    return SimilarityService(**kwargs)


def top_k_payload(corpus_id: str, timeout: float = 5.0) -> dict:
    return {
        "corpus_id": corpus_id,
        "text": "Morgn Stanley",
        "op": "top_k",
        "k": 3,
        "timeout": timeout,
    }


class TestDegradedServing:
    def test_unexpected_engine_error_becomes_500_envelope(self):
        service = make_service(faults=parse_fault_spec("serve.batch:once"))
        corpus_id, _, _ = service.register_corpus(ROWS)
        failed = asyncio.run(service.handle(top_k_payload(corpus_id)))
        assert failed["status"] == 500
        assert failed["error"] == "internal"
        assert "InjectedFault" in failed["message"]
        assert service.obs.metrics.value("serve.errors_total") == 1
        # The fault was one-shot: the service answers normally afterwards.
        healed = asyncio.run(service.handle(top_k_payload(corpus_id)))
        assert healed["status"] == 200
        assert healed["matches"]
        service.close()

    def test_breaker_trips_rejects_fast_then_recovers(self):
        service = make_service(
            faults=parse_fault_spec("serve.batch:nth=1;serve.batch:nth=2"),
            breaker_threshold=2,
            breaker_reset=1.0,
        )
        corpus_id, _, _ = service.register_corpus(ROWS)
        for _ in range(2):  # two failing batches trip the breaker
            assert asyncio.run(service.handle(top_k_payload(corpus_id)))["status"] == 500
        gauge = f"serve.breaker_state.{corpus_id}"
        assert service.obs.metrics.gauge_value(gauge) == 1  # open
        rejected = asyncio.run(service.handle(top_k_payload(corpus_id)))
        assert rejected["status"] == 503
        assert rejected["error"] == "breaker_open"
        assert 0 < rejected["retry_after"] <= 1.0
        assert service.obs.metrics.value("serve.breaker_rejections_total") == 1
        time.sleep(1.05)  # let the reset window elapse; next request probes
        probed = asyncio.run(service.handle(top_k_payload(corpus_id)))
        assert probed["status"] == 200
        assert service.obs.metrics.gauge_value(gauge) == 0  # closed again
        service.close()

    def test_breaker_isolates_corpora(self):
        service = make_service(
            faults=parse_fault_spec("serve.batch:nth=1"),
            breaker_threshold=1,
            breaker_reset=30.0,
        )
        sick_id, _, _ = service.register_corpus(ROWS)
        healthy_id, _, _ = service.register_corpus(ROWS[:3])
        assert asyncio.run(service.handle(top_k_payload(sick_id)))["status"] == 500
        assert asyncio.run(service.handle(top_k_payload(sick_id)))["status"] == 503
        assert asyncio.run(service.handle(top_k_payload(healthy_id)))["status"] == 200
        service.close()

    def test_deadline_rides_into_the_batch_scope(self):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        seen: list = []
        original = service._execute_batch

        def spy(requests):
            seen.append([request.deadline for request in requests])
            return original(requests)

        service._execute_batch = spy
        assert asyncio.run(service.handle(top_k_payload(corpus_id, timeout=7.5)))[
            "status"
        ] == 200
        (deadlines,) = seen
        assert len(deadlines) == 1
        assert deadlines[0] is not None
        assert 0 < deadlines[0].remaining() <= 7.5
        service.close()

    def test_timeout_during_batch_is_504_and_leaves_service_healthy(self):
        service = make_service()
        corpus_id, _, _ = service.register_corpus(ROWS)
        original = service._execute_batch
        stall = [0.2]

        def slow(requests):
            time.sleep(stall[0])
            return original(requests)

        service._execute_batch = slow

        async def run():
            timed_out = await service.handle(top_k_payload(corpus_id, timeout=0.05))
            # The abandoned batch is still running on its worker thread; the
            # late flush must skip the cancelled waiter without raising
            # InvalidStateError, and the next request must succeed.
            await asyncio.sleep(0.3)
            stall[0] = 0.0
            healthy = await service.handle(top_k_payload(corpus_id, timeout=5.0))
            return timed_out, healthy

        timed_out, healthy = asyncio.run(run())
        assert timed_out["status"] == 504
        assert timed_out["error"] == "timeout"
        assert healthy["status"] == 200
        service.close()

    def test_drain_is_bounded_and_counts_abandoned_work(self):
        service = make_service(drain_timeout=0.05)
        corpus_id, _, _ = service.register_corpus(ROWS)
        original = service._execute_batch

        def slow(requests):
            time.sleep(0.4)
            return original(requests)

        service._execute_batch = slow

        async def run():
            pending = asyncio.create_task(
                service.handle(top_k_payload(corpus_id, timeout=10.0))
            )
            await asyncio.sleep(0.1)  # let it get admitted and into the batch
            started = time.monotonic()
            await service.drain()
            drained_in = time.monotonic() - started
            envelope = await pending  # the stuck request still completes
            return drained_in, envelope

        drained_in, envelope = asyncio.run(run())
        assert drained_in < 0.35  # did not wait out the 0.4s batch
        assert service.obs.metrics.value("serve.drain_abandoned_total") >= 1
        assert envelope["status"] == 200
        service.close()

    def test_unbounded_drain_still_completes_when_idle(self):
        service = make_service()
        service.register_corpus(ROWS)
        asyncio.run(service.drain())
        assert service.draining
        service.close()


# ---------------------------------------------------------------------------
# client retries
# ---------------------------------------------------------------------------


class TestClientRetries:
    def closed_port(self) -> int:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_no_retries_by_default(self):
        client = ServeClient("127.0.0.1", self.closed_port(), timeout=1.0)
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        client.close()

    def test_bounded_retry_on_connection_errors(self):
        sleeps: list = []
        client = ServeClient(
            "127.0.0.1",
            self.closed_port(),
            timeout=1.0,
            retries=2,
            backoff=0.001,
            sleep=sleeps.append,
        )
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        assert len(sleeps) == 2  # initial try + exactly `retries` more
        client.close()

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, retries=-1)


# ---------------------------------------------------------------------------
# client retries against a flaky in-process server
# ---------------------------------------------------------------------------


class _ServerThread:
    """Runs a ServeServer on a private event loop in a daemon thread."""

    def __init__(self, service: SimilarityService):
        self.service = service
        self.host: str = ""
        self.port: int = 0
        self._loop = None
        self._server = None
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
        self._server = ServeServer(self.service, port=0)
        self.host, self.port = await self._server.start()
        self._ready.set()
        await self._server.serve_until_stopped()


class TestClientRetriesEndToEnd:
    def trip_breaker(self, client: ServeClient, corpus_id: str) -> None:
        with pytest.raises(ServeError) as excinfo:
            client.query(corpus_id, "Morgn Stanley", op="top_k", k=3)
        assert excinfo.value.status == 500  # the injected batch failure

    def test_client_honors_retry_after_and_heals(self):
        service = make_service(
            faults=parse_fault_spec("serve.batch:nth=1"),
            breaker_threshold=1,
            breaker_reset=0.2,
        )
        with _ServerThread(service) as server:
            sleeps: list = []

            def sleeper(seconds: float) -> None:
                sleeps.append(seconds)
                time.sleep(seconds)

            client = ServeClient(
                server.host, server.port, timeout=10.0, retries=3, sleep=sleeper
            )
            corpus_id = client.register_corpus(ROWS)
            self.trip_breaker(client, corpus_id)
            # The breaker is open: the next query gets a retryable 503 with a
            # Retry-After hint; the client sleeps it out and the probe wins.
            envelope = client.query(corpus_id, "Morgn Stanley", op="top_k", k=3)
            assert envelope["status"] == 200
            assert sleeps and 0 < sleeps[0] <= 0.2
            client.close()

    def test_breaker_503_carries_retry_after_on_the_wire(self):
        import http.client
        import json

        service = make_service(
            faults=parse_fault_spec("serve.batch:nth=1"),
            breaker_threshold=1,
            breaker_reset=30.0,
        )
        with _ServerThread(service) as server:
            client = ServeClient(server.host, server.port)
            corpus_id = client.register_corpus(ROWS)
            self.trip_breaker(client, corpus_id)
            with pytest.raises(ServeError) as excinfo:
                client.query(corpus_id, "Morgn Stanley", op="top_k", k=3)
            assert excinfo.value.status == 503
            assert excinfo.value.error == "breaker_open"
            assert excinfo.value.retry_after is not None
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            connection.request(
                "POST",
                "/query",
                json.dumps(
                    {"corpus_id": corpus_id, "text": "x", "op": "top_k", "k": 3}
                ).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert int(response.getheader("Retry-After")) >= 1
            assert body["retry_after"] > 0
            connection.close()
            client.close()
