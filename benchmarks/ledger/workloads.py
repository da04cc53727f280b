"""Workload generator of the perf ledger: seed in, strings and call lists out.

Everything a workload feeds the program is made here from ``--seed`` and
nothing else: the base relations (``make_dataset("CU1", size=N,
num_clean=N // 10, seed=seed)``), the query strings (the dirty duplicates at
``sample_query_tids(1000, seed + 1)``, as in the paper) and one fixed,
evenly interleaved *round* of calls.  The program under test never sees the
seed -- only the generated strings and the call list.

A *call* is one user-visible API call or HTTP request; a *query* is one
query string answered, so a ``run_many`` of 32 strings is 1 call / 32
queries.  A :class:`Target` names one configuration of the program (corpus,
predicate, realization, backend, shards, executor, blocker); a :class:`Call`
is one operation against one target.

Why the mixes look the way they do: every round is built so that the median
call and the 95th-percentile call each sit *inside* one cluster of equally
expensive calls, never on the boundary between two -- a percentile on a
boundary flips between clusters from run to run and reads as noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datagen import make_dataset

__all__ = ["Call", "Target", "Workload", "WORKLOADS", "WHY", "WARMUP_CALLS", "build"]

#: Workload name -> the one-line reason it exists (mirrored in BENCHMARK.json).
WHY: Dict[str, str] = {
    "lib-topk": (
        "direct unsharded Query.top_k over five predicates: core (max-score "
        "top-k + kernels) does the work, serve/shard/SQL none"
    ),
    "lib-scan": (
        "same corpus, full accumulation: rank(limit=100), select, blocked "
        "select and run_many; a top-k-only trick that taxes scans shows here"
    ),
    "sql-declarative": (
        "declarative realization on sqlite (majority) and the in-memory "
        "dbengine (minority): the pure-SQL path, kernels do nothing"
    ),
    "sharded-topk": (
        "2 shards on thread and process executors: partition, dispatch, "
        "pickling and merge are most of the non-scoring time"
    ),
    "served-topk": (
        "repro.cli serve with default flags, 2 closed-loop keep-alive "
        "clients: bytes-in to bytes-out, serve is most of the latency"
    ),
}

WORKLOADS: Tuple[str, ...] = tuple(WHY)

#: Calls replayed before the first timed round (caches fill, pools fork).
WARMUP_CALLS = 50


@dataclass(frozen=True)
class Target:
    """One configuration of the program a call can be sent to."""

    name: str
    corpus: str
    predicate: str
    realization: str = "direct"
    backend: Optional[str] = None
    shards: int = 1
    executor: Optional[str] = None
    blocker: Optional[str] = None

    @property
    def exact(self) -> bool:
        """Whether answers must be bit-identical to the reference (every
        direct path); declarative answers are compared up to score ties."""
        return self.realization == "direct"


@dataclass(frozen=True)
class Call:
    """One operation against one target.

    ``op`` is ``top_k`` / ``rank`` / ``select`` / ``run_many``; for
    ``run_many`` the per-query operation is ``batch_op`` and ``texts`` holds
    the whole batch, otherwise ``texts`` is one query string.
    """

    target: str
    op: str
    texts: Tuple[str, ...]
    k: Optional[int] = None
    threshold: Optional[float] = None
    limit: Optional[int] = None
    batch_op: Optional[str] = None

    @property
    def query_op(self) -> str:
        return self.batch_op if self.op == "run_many" else self.op

    @property
    def num_queries(self) -> int:
        return len(self.texts)


@dataclass
class Workload:
    """Generated inputs of one workload (see :data:`WHY` for its purpose)."""

    name: str
    seed: int
    #: Client threads of the closed loop (1 = the calling thread itself).
    clients: int
    corpora: Dict[str, List[str]]
    targets: Dict[str, Target]
    #: The fixed call list of one round; every round replays it.
    round_calls: List[Call] = field(default_factory=list)
    #: Whether the program runs in the calling thread alone, so that its
    #: times scale with the machine's momentary speed and are reported at
    #: nominal speed (see ``measure.Calibrator``).  False where the program
    #: also waits on other processes, pools or timers.
    calibrated: bool = True

    @property
    def queries_per_round(self) -> int:
        return sum(call.num_queries for call in self.round_calls)


def _corpus(size: int, seed: int) -> Tuple[List[str], List[str]]:
    """``(base strings, query strings)`` of one generated relation."""
    dataset = make_dataset("CU1", size=size, num_clean=max(1, size // 10), seed=seed)
    strings = dataset.strings
    queries = [strings[tid] for tid in dataset.sample_query_tids(1000, seed + 1)]
    return strings, queries


class _Mix:
    """Builds one evenly interleaved round from ``(spec, count)`` entries.

    Each entry's calls are spread uniformly over the round (entry ``j`` of
    ``count`` sits at position ``(j + 0.5) / count``), so any prefix of the
    round -- the warm-up, the traced replay -- has the same mix as the whole.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._slots: List[Tuple[float, int, Call]] = []

    def add(self, count: int, queries: Sequence[str], batch: int = 1, **call) -> None:
        order = list(queries)
        self._rng.shuffle(order)
        entry = len(self._slots)
        for j in range(count):
            texts = tuple(order[(j * batch + i) % len(order)] for i in range(batch))
            self._slots.append(((j + 0.5) / count, entry, Call(texts=texts, **call)))

    def calls(self) -> List[Call]:
        return [call for _, _, call in sorted(self._slots, key=lambda s: (s[0], s[1]))]


def _scaled(count: int, smoke: bool) -> int:
    return max(2, count // 8) if smoke else count


def _lib_topk(seed: int, smoke: bool) -> Workload:
    strings, queries = _corpus(600 if smoke else 10_000, seed)
    predicates = ("bm25", "cosine", "weighted_match", "lm", "jaccard")
    targets = {p: Target(name=p, corpus="base", predicate=p) for p in predicates}
    mix = _Mix(seed)
    for predicate in predicates:
        mix.add(_scaled(70, smoke), queries, target=predicate, op="top_k", k=10)
    return Workload("lib-topk", seed, 1, {"base": strings}, targets, mix.calls())


def _lib_scan(seed: int, smoke: bool) -> Workload:
    strings, queries = _corpus(600 if smoke else 10_000, seed)
    targets = {
        "bm25": Target("bm25", "base", "bm25"),
        "cosine": Target("cosine", "base", "cosine"),
        "weighted_jaccard": Target("weighted_jaccard", "base", "weighted_jaccard"),
        "jaccard+blocker": Target(
            "jaccard+blocker", "base", "jaccard", blocker="length+prefix"
        ),
    }
    mix = _Mix(seed)
    mix.add(_scaled(100, smoke), queries, target="bm25", op="rank", limit=100)
    mix.add(_scaled(100, smoke), queries, target="cosine", op="select", threshold=0.2)
    mix.add(
        _scaled(200, smoke), queries, target="weighted_jaccard", op="select", threshold=0.4
    )
    mix.add(
        _scaled(100, smoke), queries, target="jaccard+blocker", op="select", threshold=0.6
    )
    mix.add(
        _scaled(4, smoke), queries, batch=32,
        target="cosine", op="run_many", batch_op="select", threshold=0.3,
    )
    return Workload("lib-scan", seed, 1, {"base": strings}, targets, mix.calls())


def _sql_declarative(seed: int, smoke: bool) -> Workload:
    big, big_queries = _corpus(300 if smoke else 3_000, seed)
    small, small_queries = _corpus(100 if smoke else 500, seed + 2)
    targets = {
        f"sqlite:{p}": Target(
            f"sqlite:{p}", "big", p, realization="declarative", backend="sqlite"
        )
        for p in ("bm25", "cosine", "jaccard")
    }
    targets["memory:bm25"] = Target(
        "memory:bm25", "small", "bm25", realization="declarative", backend="memory"
    )
    mix = _Mix(seed)
    for predicate in ("bm25", "cosine", "jaccard"):
        mix.add(
            _scaled(40, smoke), big_queries, target=f"sqlite:{predicate}", op="top_k", k=10
        )
    mix.add(
        2, big_queries, batch=16,
        target="sqlite:bm25", op="run_many", batch_op="top_k", k=10,
    )
    mix.add(_scaled(30, smoke), small_queries, target="memory:bm25", op="top_k", k=10)
    return Workload(
        "sql-declarative", seed, 1, {"big": big, "small": small}, targets, mix.calls()
    )


def _sharded_topk(seed: int, smoke: bool) -> Workload:
    strings, queries = _corpus(600 if smoke else 4_000, seed)
    targets = {
        f"{executor}:{p}": Target(
            f"{executor}:{p}", "base", p, shards=2, executor=executor
        )
        for executor in ("thread", "process")
        for p in ("bm25", "weighted_match")
    }
    mix = _Mix(seed)
    for predicate in ("bm25", "weighted_match"):
        mix.add(
            _scaled(100, smoke), queries, target=f"thread:{predicate}", op="top_k", k=10
        )
        mix.add(
            _scaled(50, smoke), queries, target=f"process:{predicate}", op="top_k", k=10
        )
    mix.add(
        _scaled(3, smoke), queries, batch=32,
        target="process:bm25", op="run_many", batch_op="top_k", k=10,
    )
    mix.add(
        _scaled(2, smoke), queries, batch=32,
        target="process:weighted_match", op="run_many", batch_op="top_k", k=10,
    )
    return Workload(
        "sharded-topk", seed, 1, {"base": strings}, targets, mix.calls(), calibrated=False
    )


def _served_topk(seed: int, smoke: bool) -> Workload:
    strings, queries = _corpus(600 if smoke else 10_000, seed)
    targets = {
        "bm25": Target("bm25", "base", "bm25"),
        "jaccard": Target("jaccard", "base", "jaccard"),
    }
    mix = _Mix(seed)
    # One batch key for 80 % of the traffic, so coalescing is possible; a
    # second key for the rest, so it is not guaranteed.
    mix.add(_scaled(128, smoke), queries, target="bm25", op="top_k", k=10)
    mix.add(_scaled(32, smoke), queries, target="jaccard", op="select", threshold=0.6)
    return Workload(
        "served-topk", seed, 2, {"base": strings}, targets, mix.calls(), calibrated=False
    )


_BUILDERS = {
    "lib-topk": _lib_topk,
    "lib-scan": _lib_scan,
    "sql-declarative": _sql_declarative,
    "sharded-topk": _sharded_topk,
    "served-topk": _served_topk,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate the named workload from ``seed`` (same seed, same inputs)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}") from None
    return builder(seed, smoke)
