"""Declarative (pure SQL) realizations of the similarity predicates.

This package mirrors chapter 4 and Appendices A/B of the paper: every
predicate is expressed as a *preprocessing* script that materializes token
and weight tables plus a *query-time* SQL statement that ranks the tuples of
the base relation, executed on a pluggable :class:`repro.backends.SQLBackend`
(the from-scratch in-memory engine or SQLite).

The declarative classes share the interface of the direct predicates
(:meth:`preprocess` ~ ``fit``, :meth:`rank`, :meth:`select`), and the
integration tests verify that both realizations produce the same rankings.
Names resolve in the one registry, :mod:`repro.engine.registry`;
``DECLARATIVE_CLASSES`` is its declarative column.
"""

from typing import List

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


def make_declarative_predicate(name: str, **kwargs) -> DeclarativePredicate:
    """Construct a declarative predicate by name or alias.

    The names and aliases match :func:`repro.core.predicates.make_predicate`
    exactly (plain ``ges`` runs its exact scoring through a registered UDF,
    as in the original study); keyword arguments are forwarded to the
    constructor, e.g. ``make_declarative_predicate("bm25", backend="sqlite")``.
    """
    from repro.engine.registry import make

    return make(name, realization="declarative", **kwargs)


def available_declarative_predicates() -> List[str]:
    """Canonical names of every declarative predicate realization."""
    from repro.engine.registry import available_predicates

    return available_predicates("declarative")


def __getattr__(name: str):
    # Read from the registry on access: the engine imports this package.
    if name == "DECLARATIVE_CLASSES":
        from repro.engine.registry import classes

        return classes("declarative")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
