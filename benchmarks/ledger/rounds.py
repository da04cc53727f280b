"""The untraced pass of the perf ledger: set-up, warm-up, timed rounds.

Produces the end-to-end metrics of one workload.  Tracing is off; the only
instrumentation is one clock read before and after every call.

Shape of a run: the program is set up :data:`SETUP_REPEATS` times (each time
from strings in hand to the first answer of every target; ``setup_s`` is the
median), reference answers are built, the warm-up prefix of the round is
replayed, and then the fixed round is replayed until ``seconds`` of
measuring have passed (at least :data:`MIN_ROUNDS` rounds).  Every answer of
every round is checked after its round, outside the timed region.

Before every set-up and every round the machine's momentary speed is read
off a fixed kernel (:class:`measure.Calibrator`); workloads whose program
runs in the calling thread alone report their times at nominal speed.
"""

from __future__ import annotations

import gc
import threading
from functools import partial
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.engine import SimilarityEngine
from repro.obs import perf_clock

from check import References
from measure import (
    Calibrator,
    Round,
    cpu_seconds,
    median,
    peak_rss_mb,
    reset_peak_rss,
    summarize_rounds,
)
from programs import LibraryProgram, make_program
from workloads import WARMUP_CALLS, Call, Workload

__all__ = ["Tally", "EndToEnd", "Speed", "build_references", "run_round", "run"]

SETUP_REPEATS = 3
MIN_ROUNDS = 3


@dataclass
class Tally:
    """Calls attempted and calls that raised or answered wrongly."""

    attempted: int = 0
    failed: int = 0

    def record(self, failed: int) -> None:
        """One more call attempted; ``failed`` is 1 if it went wrong."""
        self.attempted += 1
        self.failed += failed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class EndToEnd:
    metrics: Dict[str, float]
    tally: Tally
    rounds: int
    reference_digest: str
    #: Median of the speed readings (chunk time over nominal; > 1 = slow).
    machine_slowdown: float


class Speed:
    """Reads the machine's speed; scales the times of calibrated workloads."""

    def __init__(self, workload: Workload):
        self._calibrator = Calibrator()
        self._calibrated = workload.calibrated
        self.slowdowns: List[float] = []

    def around(self, fn: Callable[[], object]):
        """Run ``fn()`` between two speed readings.

        Returns ``(result, factor)``: the factor takes a time measured inside
        ``fn`` to nominal speed (1.0 for workloads reported as measured).
        """
        before = self._calibrator.read()
        result = fn()
        slowdown = self._calibrator.slowdown(before, self._calibrator.read())
        self.slowdowns.append(slowdown)
        return result, (1.0 / slowdown if self._calibrated else 1.0)


def measure_setup(workload: Workload, repeats: int, speed: Speed):
    """Set the program up ``repeats`` times; keep the last one running.

    Returns ``(program, setup seconds per repeat, first answers)``.
    """
    seconds: List[float] = []
    program = None
    for _ in range(repeats):
        if program is not None:
            program.close()
            gc.collect()
        program = make_program(workload)
        try:
            (first, elapsed), factor = speed.around(partial(_timed_start, program))
        except BaseException:
            program.close()
            raise
        seconds.append(elapsed * factor)
    return program, seconds, first


def _timed_start(program):
    started = perf_clock()
    first = program.start()
    return first, perf_clock() - started


def build_references(workload: Workload, program) -> References:
    """Reference answers from the plain path (excluded from ``setup_s``).

    A library program whose targets are all direct already holds the plain
    fitted state (same engine cache key), so its engine is reused; anything
    else gets a fresh engine with direct fits.
    """
    if isinstance(program, LibraryProgram) and all(
        t.realization == "direct" and t.shards == 1
        for t in workload.targets.values()
    ):
        return References(workload, program.engine)
    engine = SimilarityEngine()
    try:
        return References(workload, engine)
    finally:
        engine.clear_cache()


def _run_lane(fns: Sequence[Callable], out: dict) -> None:
    latencies: List[float] = []
    raws: List[object] = []
    for fn in fns:
        started = perf_clock()
        try:
            raw = fn()
        except Exception as exc:  # a failed call is counted, not fatal
            raws.append(exc)
            latencies.append(float("nan"))
            continue
        latencies.append(perf_clock() - started)
        raws.append(raw)
    out["latencies"], out["raws"] = latencies, raws


def run_round(lanes: Sequence[Sequence[Callable]]) -> Tuple[float, List[dict]]:
    """Replay one round; one closed-loop thread per lane beyond the first.

    Returns the wall seconds from the common start to the last lane's end
    and, per lane, its call latencies and raw results (exceptions in place
    of the results of calls that raised).
    """
    outs: List[dict] = [{} for _ in lanes]
    if len(lanes) == 1:
        started = perf_clock()
        _run_lane(lanes[0], outs[0])
        return perf_clock() - started, outs
    barrier = threading.Barrier(len(lanes) + 1)

    def worker(index: int) -> None:
        barrier.wait()
        _run_lane(lanes[index], outs[index])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(lanes))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = perf_clock()
    for thread in threads:
        thread.join()
    return perf_clock() - started, outs


def lanes_for(workload: Workload, program, calls: Sequence[Call]):
    """Split ``calls`` round-robin over the workload's client threads."""
    if workload.clients == 1:
        return [list(calls)], [[program.compile(call) for call in calls]]
    clients = [program.client() for _ in range(workload.clients)]
    call_lanes = [list(calls[i::workload.clients]) for i in range(workload.clients)]
    fn_lanes = [
        [program.compile(call, client) for call in lane]
        for lane, client in zip(call_lanes, clients)
    ]
    return call_lanes, fn_lanes


def check_round(
    workload: Workload, program, references: References,
    call_lanes, outs, tally: Tally,
) -> List[float]:
    """Count failures of one round; returns latencies of the good calls."""
    good: List[float] = []
    for calls, out in zip(call_lanes, outs):
        for call, latency, raw in zip(calls, out["latencies"], out["raws"]):
            if isinstance(raw, Exception):
                tally.record(1)
                continue
            failed = references.failures(workload, call, program.answers(call, raw))
            tally.record(failed)
            if not failed:
                good.append(latency)
    return good


def run(workload: Workload, seconds: float, setup_repeats: int = SETUP_REPEATS) -> EndToEnd:
    """Measure the end-to-end metrics of one workload."""
    reset_peak_rss()
    speed = Speed(workload)
    program, setup_seconds, first = measure_setup(workload, setup_repeats, speed)
    try:
        references = build_references(workload, program)
        tally = Tally()
        for call, answers in first:
            tally.record(references.failures(workload, call, answers))

        call_lanes, fn_lanes = lanes_for(workload, program, workload.round_calls)
        warm = max(1, WARMUP_CALLS // workload.clients)
        _, outs = run_round([lane[:warm] for lane in fn_lanes])
        check_round(
            workload, program, references,
            [lane[:warm] for lane in call_lanes], outs, tally,
        )

        rounds: List[Round] = []
        rounds_run = 0
        pids = program.pids()  # after the warm-up, so pool workers exist
        cpu_used = measured = 0.0

        def round_with_cpu():
            # CPU of the round alone: speed readings and checking stay out.
            cpu_before = cpu_seconds(pids)
            wall, outs = run_round(fn_lanes)
            return wall, outs, cpu_seconds(pids) - cpu_before

        while measured < seconds or rounds_run < MIN_ROUNDS:
            (wall, outs, cpu), factor = speed.around(round_with_cpu)
            cpu_used += cpu * factor
            measured += wall
            rounds_run += 1
            good = check_round(workload, program, references, call_lanes, outs, tally)
            if good:
                rounds.append(
                    Round(wall * factor, [t * factor for t in good],
                          workload.queries_per_round)
                )
        rss = peak_rss_mb(program.pids())
    finally:
        program.close()

    metrics = summarize_rounds(rounds) if rounds else {}
    queries = workload.queries_per_round * rounds_run
    metrics["setup_s"] = median(setup_seconds)
    metrics["cpu_ms_per_query"] = cpu_used * 1e3 / queries
    metrics["peak_rss_mb"] = rss
    return EndToEnd(
        metrics, tally, len(rounds), references.digest(), median(speed.slowdowns)
    )
