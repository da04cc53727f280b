"""Accuracy metrics from information retrieval (paper section 5.2).

Given a ranked list of tuple ids returned for a query and the set of tuple
ids that are *relevant* (the query's ground-truth cluster), we compute:

* :func:`average_precision` -- the mean of the precision values measured at
  the rank of each relevant record retrieved, divided by the total number of
  relevant records (equation 5.1);
* :func:`max_f1` -- the maximum F1 score over all prefixes of the ranking
  (equation 5.2);
* :func:`precision_at` / :func:`recall_at` / :func:`precision_recall_curve`
  -- the building blocks.

Both metrics depend only on the ranks at which relevant records appear
(:func:`hit_ranks`) and the number of relevant records:
:func:`average_precision_at_hits` and :func:`max_f1_at_hits` compute them
from those with the same arithmetic, so a caller holding a ranking as
``(tid, score)`` pairs needs no list of tids.

``mean_average_precision`` / ``mean_max_f1`` aggregate over a query workload.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

__all__ = [
    "precision_at",
    "recall_at",
    "hit_ranks",
    "average_precision",
    "average_precision_at_hits",
    "max_f1",
    "max_f1_at_hits",
    "precision_recall_curve",
    "mean_average_precision",
    "mean_max_f1",
]


def _as_set(relevant: Iterable[int]) -> Set[int]:
    relevant_set = set(relevant)
    return relevant_set


def precision_at(ranking: Sequence[int], relevant: Iterable[int], rank: int) -> float:
    """Precision among the first ``rank`` results (1-based rank)."""
    if rank <= 0:
        raise ValueError("rank must be positive")
    relevant_set = _as_set(relevant)
    top = ranking[:rank]
    if not top:
        return 0.0
    hits = sum(1 for tid in top if tid in relevant_set)
    return hits / len(top)


def recall_at(ranking: Sequence[int], relevant: Iterable[int], rank: int) -> float:
    """Recall among the first ``rank`` results (1-based rank)."""
    if rank <= 0:
        raise ValueError("rank must be positive")
    relevant_set = _as_set(relevant)
    if not relevant_set:
        return 0.0
    top = ranking[:rank]
    hits = sum(1 for tid in top if tid in relevant_set)
    return hits / len(relevant_set)


def hit_ranks(ranking: Iterable[int], relevant: Set[int]) -> List[int]:
    """The 1-based ranks at which ``ranking`` holds a relevant tid."""
    return [rank for rank, tid in enumerate(ranking, start=1) if tid in relevant]


def average_precision(ranking: Sequence[int], relevant: Iterable[int]) -> float:
    """Average precision of a ranking (equation 5.1).

    The denominator is the *total* number of relevant records, so relevant
    records that are never retrieved count against the score.
    """
    relevant_set = _as_set(relevant)
    return average_precision_at_hits(hit_ranks(ranking, relevant_set), len(relevant_set))


def average_precision_at_hits(ranks: Sequence[int], num_relevant: int) -> float:
    """:func:`average_precision` from the hit ranks (:func:`hit_ranks`)."""
    if not num_relevant:
        return 0.0
    precision_sum = 0.0
    for hits, rank in enumerate(ranks, start=1):
        precision_sum += hits / rank
    return precision_sum / num_relevant


def precision_recall_curve(
    ranking: Sequence[int], relevant: Iterable[int]
) -> List[Tuple[float, float]]:
    """``(precision, recall)`` after each rank position."""
    relevant_set = _as_set(relevant)
    curve: List[Tuple[float, float]] = []
    hits = 0
    for rank, tid in enumerate(ranking, start=1):
        if tid in relevant_set:
            hits += 1
        precision = hits / rank
        recall = hits / len(relevant_set) if relevant_set else 0.0
        curve.append((precision, recall))
    return curve


def max_f1(ranking: Sequence[int], relevant: Iterable[int]) -> float:
    """Maximum F1 over all prefixes of the ranking (equation 5.2)."""
    relevant_set = _as_set(relevant)
    return max_f1_at_hits(hit_ranks(ranking, relevant_set), len(relevant_set))


def max_f1_at_hits(ranks: Sequence[int], num_relevant: int) -> float:
    """:func:`max_f1` from the hit ranks (:func:`hit_ranks`).

    Only prefixes ending at a hit are evaluated: past a hit, recall stays
    and precision falls until the next one, so F1 only falls.  Each is the
    ``2pr / (p + r)`` of :func:`precision_recall_curve`'s point there.
    """
    if not num_relevant:
        return 0.0
    best = 0.0
    for hits, rank in enumerate(ranks, start=1):
        precision = hits / rank
        recall = hits / num_relevant
        f1 = 2.0 * precision * recall / (precision + recall)
        if f1 > best:
            best = f1
    return best


def mean_average_precision(
    rankings: Sequence[Sequence[int]], relevants: Sequence[Iterable[int]]
) -> float:
    """MAP over a query workload."""
    if len(rankings) != len(relevants):
        raise ValueError("rankings and relevants must have the same length")
    if not rankings:
        return 0.0
    return sum(
        average_precision(ranking, relevant)
        for ranking, relevant in zip(rankings, relevants)
    ) / len(rankings)


def mean_max_f1(
    rankings: Sequence[Sequence[int]], relevants: Sequence[Iterable[int]]
) -> float:
    """Mean maximum F1 over a query workload."""
    if len(rankings) != len(relevants):
        raise ValueError("rankings and relevants must have the same length")
    if not rankings:
        return 0.0
    return sum(
        max_f1(ranking, relevant) for ranking, relevant in zip(rankings, relevants)
    ) / len(rankings)
