"""Timing harness for the performance experiments (paper section 5.5).

The paper splits *preprocessing* into a tokenization phase and a weight
calculation phase (Figure 5.2) and reports *query time* as the average over a
query workload (Figure 5.3), plus its growth with base-table size
(Figure 5.4).  :func:`time_preprocessing` and :func:`time_queries` produce
exactly those measurements for any predicate that follows the
``tokenize_phase`` / ``weight_phase`` / ``rank`` protocol -- including the
declarative realizations: predicate names are resolved through the merged
engine registry, so ``realization="declarative"`` (with an optional
``backend``) times the SQL realization of the same predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.core.predicates.base import Predicate
from repro.declarative.base import DeclarativePredicate
from repro.engine.protocol import pair_host
from repro.obs.clock import perf_clock

__all__ = [
    "PreprocessingTiming",
    "QueryTiming",
    "time_preprocessing",
    "time_queries",
]


@dataclass(frozen=True)
class PreprocessingTiming:
    """Preprocessing time split into the two phases of Figure 5.2 (seconds)."""

    predicate_name: str
    num_tuples: int
    tokenization_seconds: float
    weights_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.tokenization_seconds + self.weights_seconds

    def to_record(self) -> dict:
        """Plain-dict form matching the benchmark JSON schema's result rows."""
        return {
            "predicate": self.predicate_name,
            "num_tuples": self.num_tuples,
            "tokenization_seconds": self.tokenization_seconds,
            "weights_seconds": self.weights_seconds,
            "total_seconds": self.total_seconds,
        }


@dataclass(frozen=True)
class QueryTiming:
    """Query-time statistics over a workload (seconds)."""

    predicate_name: str
    num_tuples: int
    num_queries: int
    total_seconds: float

    @property
    def average_seconds(self) -> float:
        return self.total_seconds / self.num_queries if self.num_queries else 0.0

    @property
    def average_milliseconds(self) -> float:
        return self.average_seconds * 1000.0

    def to_record(self) -> dict:
        """Plain-dict form matching the benchmark JSON schema's result rows."""
        return {
            "predicate": self.predicate_name,
            "num_tuples": self.num_tuples,
            "num_queries": self.num_queries,
            "total_seconds": self.total_seconds,
            "average_milliseconds": self.average_milliseconds,
        }


def _resolve(
    predicate: Union[Predicate, DeclarativePredicate, str],
    realization: str = "direct",
    backend: object = None,
    num_shards: int = 1,
    executor: object = "serial",
    **kwargs,
) -> Union[Predicate, DeclarativePredicate]:
    if isinstance(predicate, str):
        from repro.engine.registry import make

        if num_shards > 1 and realization == "direct":
            from repro.shard import ShardedPredicate

            name, frozen = predicate, dict(kwargs)
            return ShardedPredicate(
                factory=lambda: make(name, realization="direct", **frozen),
                num_shards=num_shards,
                executor=executor,
            )
        return make(predicate, realization=realization, backend=backend, **kwargs)
    if num_shards > 1:
        raise ValueError(
            "sharded timing requires a predicate name (instances own their state)"
        )
    return predicate


def time_preprocessing(
    predicate: Union[Predicate, DeclarativePredicate, str],
    strings: Sequence[str],
    realization: str = "direct",
    backend: object = None,
    **predicate_kwargs,
) -> PreprocessingTiming:
    """Measure the tokenization and weight phases of preprocessing.

    The predicate is driven standalone, phase by phase.  A direct predicate
    is bound to the relation with no corpus core, so its tokenization phase
    builds a private one (token lists, term counts, inverted index) and its
    weight phase pays the collection statistics plus its own weights -- the
    whole cost of fitting that predicate alone, which is what Figure 5.2
    reports.  (An engine fitting several predicates on one relation shares
    one core between them and pays phase one once.)
    """
    predicate = _resolve(predicate, realization, backend, **predicate_kwargs)
    declarative = isinstance(predicate, DeclarativePredicate)
    # For declarative predicates the tokenization phase acquires the shared
    # core (BASE_TABLE + BASE_TOKENS + the common statistics tables); on an
    # already-prepared backend it measures as near-zero, which is exactly the
    # amortization the shared-core design buys.
    if declarative:
        predicate._strings = list(strings)
    else:
        predicate._bind(strings)
    started = perf_clock()
    predicate.tokenize_phase()
    tokenized = perf_clock()
    predicate.weight_phase()
    finished = perf_clock()
    if declarative:
        predicate._preprocessed = True
    else:
        predicate._fitted = True

    return PreprocessingTiming(
        predicate_name=getattr(predicate, "name", type(predicate).__name__),
        num_tuples=len(strings),
        tokenization_seconds=tokenized - started,
        weights_seconds=finished - tokenized,
    )


def time_queries(
    predicate: Union[Predicate, DeclarativePredicate, str],
    strings: Sequence[str],
    queries: Sequence[str],
    realization: str = "direct",
    backend: object = None,
    num_shards: int = 1,
    executor: object = "serial",
    **predicate_kwargs,
) -> QueryTiming:
    """Measure average query (ranking) time over a workload.

    Each query is one full ranking read as the ordered ``(tid, score)``
    pairs the engine reads (:func:`~repro.engine.protocol.pair_host`), so
    the figure is the cost of scoring, not of building result objects.
    The predicate is fit first (not included in the measurement) unless it is
    already fitted on the given relation.  With ``num_shards > 1`` (direct
    realization, predicate given by name) the workload is timed over sharded
    execution with the given executor (see :mod:`repro.shard`) -- results are
    exact, so this measures the scheduling overhead/speedup in isolation.
    """
    predicate = _resolve(
        predicate,
        realization,
        backend,
        num_shards=num_shards,
        executor=executor,
        **predicate_kwargs,
    )
    fitted = getattr(predicate, "is_fitted", False)
    base = getattr(predicate, "base_strings", None)
    if not fitted or (base is not None and base != list(strings)):
        predicate.fit(strings)

    host = pair_host(predicate)
    started = perf_clock()
    for query in queries:
        host.rank_pairs(query)
    elapsed = perf_clock() - started
    return QueryTiming(
        predicate_name=getattr(predicate, "name", type(predicate).__name__),
        num_tuples=len(strings),
        num_queries=len(queries),
        total_seconds=elapsed,
    )
