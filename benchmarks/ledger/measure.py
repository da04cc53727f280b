"""Measurement primitives of the perf ledger.

Four small groups, all free of any knowledge of the program under test:

* order statistics (:func:`percentile`, :func:`median`) and
  the per-round reduction (:func:`summarize_rounds`: every latency metric is
  computed per round, then the median over rounds is reported);
* the span log and the self-time reducer -- benchmark-owned spans wrapped
  around calls into each layer's public functions, kept in memory and
  written at exit; a layer's self time is its span minus the span one depth
  further in *for the same input* (the inner span comes from a replay of
  the same call, not from the same execution);
* process-tree accounting from ``/proc`` (CPU seconds, peak RSS);
* :class:`Calibrator`, a fixed kernel that says how fast the machine is
  right now (this box's speed drifts by 15-25 % over tens of seconds).

All timing goes through :func:`repro.obs.perf_clock`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import perf_clock

__all__ = [
    "percentile",
    "median",
    "Round",
    "summarize_rounds",
    "SpanLog",
    "self_times",
    "ladder_summary",
    "process_tree",
    "cpu_seconds",
    "peak_rss_mb",
    "reset_peak_rss",
    "Calibrator",
]


# -- order statistics ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be within (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Round:
    """What one timed round produced."""

    wall_seconds: float
    #: Latency of every successful call, seconds.
    latencies: List[float]
    queries: int


def summarize_rounds(rounds: Sequence[Round]) -> Dict[str, float]:
    """Per-round p50/p95/throughput, then the median over rounds; p99 pools
    every call of every round (a diagnostic, too noisy per round)."""
    pooled = [value for r in rounds for value in r.latencies]
    return {
        "call_p50_ms": median([percentile(r.latencies, 0.50) for r in rounds]) * 1e3,
        "call_p95_ms": median([percentile(r.latencies, 0.95) for r in rounds]) * 1e3,
        "call_p99_ms": percentile(pooled, 0.99) * 1e3,
        "throughput_qps": median([r.queries / r.wall_seconds for r in rounds]),
    }


# -- spans ---------------------------------------------------------------------


class SpanLog:
    """Benchmark-owned spans: ``(name, start, end, parent, call_id)``.

    ``parent`` is the name of the span one depth further out -- the span
    that would have caused this one had both come from one execution.  Spans
    stay in memory until :meth:`write`.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, Optional[str], int]] = []

    def timed(self, name: str, parent: Optional[str], call_id: int, fn: Callable):
        """Run ``fn()`` inside a span; returns ``(result, seconds)``."""
        start = perf_clock()
        result = fn()
        end = perf_clock()
        self.records.append((name, start, end, parent, call_id))
        return result, end - start

    def add(
        self, name: str, parent: Optional[str], call_id: int, start: float, end: float
    ) -> None:
        self.records.append((name, start, end, parent, call_id))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, call_id in self.records:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "call_id": call_id,
                        }
                    )
                )
                handle.write("\n")


def self_times(ladder: Sequence[Sequence[float]]) -> List[List[float]]:
    """Paired self times of a ladder of span durations, outermost first.

    ``ladder[d][i]`` is the duration of call ``i`` measured at depth ``d``.
    Depth ``d``'s self time for call ``i`` is ``ladder[d][i] -
    ladder[d + 1][i]``; the innermost depth keeps its whole duration.  Per
    call the self times sum to the outermost span exactly.
    """
    if not ladder:
        return []
    width = len(ladder[0])
    if any(len(depth) != width for depth in ladder):
        raise ValueError("every ladder depth must time the same calls")
    result = [
        [outer - inner for outer, inner in zip(ladder[d], ladder[d + 1])]
        for d in range(len(ladder) - 1)
    ]
    result.append(list(ladder[-1]))
    return result


def ladder_summary(
    names: Sequence[str], ladder: Sequence[Sequence[float]]
) -> Dict[str, object]:
    """Median self time per depth, the top span's median, and how far the
    self-time medians are from summing to it (as a share of the top)."""
    selfs = self_times(ladder)
    medians = {name: median(values) for name, values in zip(names, selfs)}
    top = median(ladder[0])
    residual = abs(sum(medians.values()) - top) / top if top else 0.0
    return {"self": medians, "top": top, "residual_share": residual}


# -- process tree (/proc) ------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` column."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in children.get(pid, [])]
        tree.extend(frontier)
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU consumed so far by the given live processes."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of the given live processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM``, so that a workload's peak is its own
    when several run in one process (needs Linux >= 4.0; else a no-op)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


# -- machine speed -------------------------------------------------------------


class Calibrator:
    """How slow is the machine right now, against a nominal speed?

    On the shared 2-core box this ledger was sized on, the same code runs
    15-25 % faster or slower from one half-minute to the next (neighbours on
    the host), which is more than any bound worth having.  Where the program
    runs in the calling thread alone, all of a round's time is that thread's
    CPU time and scales with this drift; timing a fixed kernel right before
    and right after the round and dividing it out removes most of the
    run-to-run spread (measured over 6 s windows in a rough half-hour:
    0.17-0.19 -> 0.04-0.06 on ``sql-declarative``, 0.10 -> 0.03 on
    ``lib-topk``; one reading before the round alone does half as well, and
    a reading of a few ms adds more noise than it removes).  Where the
    program also *waits* -- a batch window, a pipe, another process -- no
    single factor applies, and such workloads are reported as measured.

    The kernel is independent of the repository (numpy scatter-add, sort and
    bincount over fixed arrays, plus a dict loop; the dict loop alone without
    numpy), so a change to the program cannot move it.
    """

    #: Seconds one chunk takes on the reference box in its usual state; only
    #: fixes the scale of calibrated times (they read as raw times there).
    NOMINAL_SECONDS = 0.0028
    #: Chunks per reading (~70 ms), after two that are thrown away.
    _CHUNKS = 24
    _DISCARD = 2

    def __init__(self) -> None:
        try:
            import numpy
        except ImportError:
            numpy = None
        self._np = numpy
        if numpy is not None:
            rng = numpy.random.default_rng(20070611)
            self._idx = rng.integers(0, 10_000, 200_000)
            self._val = rng.random(200_000)

    def _chunk(self) -> float:
        started = perf_clock()
        np = self._np
        if np is not None:
            for _ in range(4):
                acc = np.zeros(10_000)
                np.add.at(acc, self._idx[:40_000], self._val[:40_000])
                np.argsort(acc)
                np.flatnonzero(
                    np.bincount(self._idx, weights=self._val, minlength=10_000) > 10.0
                )
        table: Dict[int, float] = {}
        for i in range(3_000):
            key = (i * 7919) % 503
            table[key] = table.get(key, 0.0) + i * 0.5
        return perf_clock() - started

    def read(self) -> List[float]:
        """One reading: the seconds each of ``_CHUNKS`` chunks took just now."""
        return [self._chunk() for _ in range(self._DISCARD + self._CHUNKS)][self._DISCARD:]

    def slowdown(self, *readings: List[float]) -> float:
        """Median chunk time of the readings over the nominal one (> 1 =
        slower machine); takes one reading now if given none."""
        chunks = [t for reading in readings for t in reading] or self.read()
        return median(chunks) / self.NOMINAL_SECONDS
