"""Core library: the similarity predicates and the operations over them.

The preferred public entry point is :class:`repro.engine.SimilarityEngine`;
this package provides the direct (in-memory Python) predicate realizations
(:mod:`repro.core.predicates`) and the approximate join and deduplication
operators.
"""

from repro.core.predicates import (
    Match,
    Predicate,
    available_predicates,
    make_predicate,
)
from repro.core.join import ApproximateJoiner, JoinMatch, SelfJoinStats
from repro.core.dedup import Deduplicator, DuplicateCluster, ClusteringQuality

__all__ = [
    "Match",
    "ApproximateJoiner",
    "JoinMatch",
    "SelfJoinStats",
    "Deduplicator",
    "DuplicateCluster",
    "ClusteringQuality",
    "Predicate",
    "make_predicate",
    "available_predicates",
]
