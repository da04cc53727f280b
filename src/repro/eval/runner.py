"""Experiment runner: accuracy of a predicate over a generated dataset.

Mirrors the paper's accuracy methodology (section 5.2): for each query tuple
drawn from the dataset, the full unpruned ranking produced by the predicate
is compared against the query's ground-truth cluster; MAP and mean maximum F1
are reported over the query workload.

Experiments execute through :class:`repro.engine.SimilarityEngine`, so any
predicate can be evaluated in either realization (``realization="direct"`` /
``"declarative"``) on either SQL backend, and the whole query workload runs
as one :meth:`~repro.engine.query.Query.run_many` batch that pays
preprocessing once.  The runner reads that batch's rankings as the host's
ordered ``(tid, score)`` pairs -- no result object is built -- and scores
each from the ranks of its hits (:func:`~repro.eval.metrics.hit_ranks`).
On the declarative realization the batch additionally
executes through the per-family batched SQL (one grouped statement per
workload instead of one per query) over the engine's shared token/weight
cores, so evaluating several declarative predicates back to back re-uses
both the tokenization and the common weight tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.predicates.base import Predicate
from repro.datagen.generator import GeneratedDataset
from repro.declarative.base import DeclarativePredicate
from repro.engine import Query, SimilarityEngine
from repro.eval.metrics import average_precision_at_hits, hit_ranks, max_f1_at_hits

__all__ = ["QueryOutcome", "AccuracyResult", "ExperimentRunner"]


@dataclass(frozen=True)
class QueryOutcome:
    """Accuracy of a single query."""

    query_tid: int
    query_text: str
    average_precision: float
    max_f1: float
    num_relevant: int
    num_retrieved: int


@dataclass(frozen=True)
class AccuracyResult:
    """Aggregated accuracy of one predicate over one dataset."""

    predicate_name: str
    dataset_name: str
    mean_average_precision: float
    mean_max_f1: float
    num_queries: int
    outcomes: Sequence[QueryOutcome] = field(repr=False, default=())

    def summary_row(self) -> Dict[str, object]:
        """A flat dict suitable for report tables."""
        return {
            "predicate": self.predicate_name,
            "dataset": self.dataset_name,
            "MAP": round(self.mean_average_precision, 4),
            "maxF1": round(self.mean_max_f1, 4),
            "queries": self.num_queries,
        }


class ExperimentRunner:
    """Runs accuracy experiments for predicates over generated datasets.

    ``engine`` may be shared across runners/experiments so fitted predicate
    state is reused; a private engine is created otherwise.
    """

    def __init__(
        self,
        dataset: GeneratedDataset,
        dataset_name: str = "dataset",
        engine: Optional[SimilarityEngine] = None,
    ):
        self.dataset = dataset
        self.dataset_name = dataset_name
        self.engine = engine if engine is not None else SimilarityEngine()
        self._base_query: Optional[Query] = None

    def query_workload(self, num_queries: int, seed: int = 0) -> List[int]:
        """Sample the query tuple ids (clean and erroneous tuples mixed)."""
        return self.dataset.sample_query_tids(num_queries, seed=seed)

    def _query_for(
        self,
        predicate: Union[Predicate, DeclarativePredicate, str],
        realization: str,
        backend: str,
        **predicate_kwargs,
    ) -> Query:
        if self._base_query is None:
            self._base_query = self.engine.from_strings(self.dataset.strings)
        query = self._base_query.predicate(predicate, **predicate_kwargs)
        if isinstance(predicate, str):
            query = query.realization(realization).backend(backend)
        return query

    def evaluate(
        self,
        predicate: Union[Predicate, DeclarativePredicate, str],
        num_queries: int = 100,
        seed: int = 0,
        keep_outcomes: bool = False,
        realization: str = "direct",
        backend: str = "memory",
        **predicate_kwargs,
    ) -> AccuracyResult:
        """Fit ``predicate`` on the dataset and measure MAP / max F1.

        ``predicate`` may be a fitted or unfitted predicate instance (direct
        or declarative) or a registry name; names are resolved in the
        requested ``realization`` on the requested ``backend``.  Fitted
        predicate state is cached on the engine, so several experiments share
        one expensive preprocessing.
        """
        query = self._query_for(predicate, realization, backend, **predicate_kwargs)
        query_tids = self.query_workload(num_queries, seed=seed)
        texts = [self.dataset.records[tid].text for tid in query_tids]
        rankings = query._run_many_pairs(texts, op="rank")

        outcomes: List[QueryOutcome] = []
        ap_total = 0.0
        f1_total = 0.0
        for query_tid, text, ranking in zip(query_tids, texts, rankings):
            relevant = set(self.dataset.relevant_for(query_tid))
            hits = hit_ranks([tid for tid, _ in ranking], relevant)
            ap = average_precision_at_hits(hits, len(relevant))
            f1 = max_f1_at_hits(hits, len(relevant))
            ap_total += ap
            f1_total += f1
            if keep_outcomes:
                outcomes.append(
                    QueryOutcome(
                        query_tid=query_tid,
                        query_text=text,
                        average_precision=ap,
                        max_f1=f1,
                        num_relevant=len(relevant),
                        num_retrieved=len(ranking),
                    )
                )
        count = len(query_tids) or 1
        fitted = query.fitted_predicate()
        return AccuracyResult(
            predicate_name=getattr(fitted, "name", type(fitted).__name__),
            dataset_name=self.dataset_name,
            mean_average_precision=ap_total / count,
            mean_max_f1=f1_total / count,
            num_queries=len(query_tids),
            outcomes=tuple(outcomes),
        )

    def evaluate_many(
        self,
        predicates: Sequence[Union[Predicate, DeclarativePredicate, str]],
        num_queries: int = 100,
        seed: int = 0,
        realization: str = "direct",
        backend: str = "memory",
    ) -> List[AccuracyResult]:
        """Evaluate several predicates on the same query workload."""
        return [
            self.evaluate(
                predicate,
                num_queries=num_queries,
                seed=seed,
                realization=realization,
                backend=backend,
            )
            for predicate in predicates
        ]
