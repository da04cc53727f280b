"""Declarative (pure SQL) realizations of the similarity predicates.

This package mirrors chapter 4 and Appendices A/B of the paper: every
predicate is expressed as a *preprocessing* script that materializes token
and weight tables plus a *query-time* SQL statement that ranks the tuples of
the base relation, executed on a pluggable :class:`repro.backends.SQLBackend`
(the from-scratch in-memory engine or SQLite).

The declarative classes share the interface of the direct predicates
(:meth:`preprocess` ~ ``fit``, :meth:`rank`, :meth:`select`), and the
integration tests verify that both realizations produce the same rankings.
"""

from repro.declarative.base import DeclarativePredicate, SQLStats
from repro.declarative.shared import SharedTables, clear_shared_state
from repro.declarative.overlap import (
    DeclarativeIntersectSize,
    DeclarativeJaccard,
    DeclarativeWeightedJaccard,
    DeclarativeWeightedMatch,
)
from repro.declarative.aggregate import DeclarativeBM25, DeclarativeCosine
from repro.declarative.language_model import DeclarativeLanguageModeling
from repro.declarative.hmm import DeclarativeHMM
from repro.declarative.edit import DeclarativeEditDistance
from repro.declarative.combination import (
    DeclarativeGES,
    DeclarativeGESApx,
    DeclarativeGESJaccard,
    DeclarativeSoftTFIDF,
)
from repro.declarative.registry import (
    DECLARATIVE_CLASSES,
    available_declarative_predicates,
    make_declarative_predicate,
)

__all__ = [
    "DeclarativePredicate",
    "SQLStats",
    "SharedTables",
    "clear_shared_state",
    "DeclarativeIntersectSize",
    "DeclarativeJaccard",
    "DeclarativeWeightedMatch",
    "DeclarativeWeightedJaccard",
    "DeclarativeCosine",
    "DeclarativeBM25",
    "DeclarativeLanguageModeling",
    "DeclarativeHMM",
    "DeclarativeEditDistance",
    "DeclarativeGES",
    "DeclarativeGESJaccard",
    "DeclarativeGESApx",
    "DeclarativeSoftTFIDF",
    "DECLARATIVE_CLASSES",
    "make_declarative_predicate",
    "available_declarative_predicates",
]
