"""The predicate registry: one table naming every predicate once.

Every paper predicate has one row in :data:`SPECS` -- a canonical name, its
aliases and its two realizations ("direct" and "declarative").  Every entry
point resolves names here: :func:`make`, the engine, and the
per-realization factories ``repro.core.predicates.make_predicate`` /
``repro.declarative.make_declarative_predicate``, whose class tables
(``PREDICATE_CLASSES`` / ``DECLARATIVE_CLASSES``) are :func:`classes` of
this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from repro import declarative as sql
from repro.backends.base import SQLBackend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core import predicates as direct
from repro.core.predicates import Predicate
from repro.declarative import DeclarativePredicate

__all__ = [
    "REALIZATIONS",
    "BACKENDS",
    "ALIASES",
    "PredicateSpec",
    "SPECS",
    "canonical_name",
    "spec_for",
    "classes",
    "available_predicates",
    "available_realizations",
    "aliases_for",
    "make",
    "make_backend",
]

#: The two ways the paper realizes every predicate.
REALIZATIONS: Tuple[str, ...] = ("direct", "declarative")

#: Named SQL backends for the declarative realization.
BACKENDS: Dict[str, Type[SQLBackend]] = {
    "memory": MemoryBackend,
    "sqlite": SQLiteBackend,
}

#: Aliases accepted everywhere (case-insensitive; spaces/hyphens fold to
#: underscores before lookup).  Values are canonical names.
ALIASES: Dict[str, str] = {
    "intersectsize": "intersect",
    "xect": "intersect",
    "jac": "jaccard",
    "wm": "weighted_match",
    "weightedmatch": "weighted_match",
    "wj": "weighted_jaccard",
    "weightedjaccard": "weighted_jaccard",
    "tfidf": "cosine",
    "tf_idf": "cosine",
    "cosine_tfidf": "cosine",
    "okapi": "bm25",
    "language_modeling": "lm",
    "languagemodel": "lm",
    "ed": "edit_distance",
    "edit": "edit_distance",
    "editdistance": "edit_distance",
    "gesjaccard": "ges_jaccard",
    "gesapx": "ges_apx",
    "softtfidf": "soft_tfidf",
    "stfidf": "soft_tfidf",
}


@dataclass(frozen=True)
class PredicateSpec:
    """One paper predicate: canonical name, aliases, realization classes."""

    name: str
    direct: Optional[Type[Predicate]]
    declarative: Optional[Type[DeclarativePredicate]]
    aliases: Tuple[str, ...]

    @property
    def family(self) -> str:
        cls = self.direct or self.declarative
        return getattr(cls, "family", "unspecified")

    @property
    def realizations(self) -> Tuple[str, ...]:
        names = []
        if self.direct is not None:
            names.append("direct")
        if self.declarative is not None:
            names.append("declarative")
        return tuple(names)


#: Canonical name -> spec for every registered predicate: one row per paper
#: predicate, its aliases gathered from :data:`ALIASES`.
SPECS: Dict[str, PredicateSpec] = {
    name: PredicateSpec(
        name,
        direct_cls,
        declarative_cls,
        tuple(sorted(alias for alias, target in ALIASES.items() if target == name)),
    )
    for name, direct_cls, declarative_cls in (
        ("intersect", direct.IntersectSize, sql.DeclarativeIntersectSize),
        ("jaccard", direct.Jaccard, sql.DeclarativeJaccard),
        ("weighted_match", direct.WeightedMatch, sql.DeclarativeWeightedMatch),
        ("weighted_jaccard", direct.WeightedJaccard, sql.DeclarativeWeightedJaccard),
        ("cosine", direct.CosineTfIdf, sql.DeclarativeCosine),
        ("bm25", direct.BM25, sql.DeclarativeBM25),
        ("lm", direct.LanguageModeling, sql.DeclarativeLanguageModeling),
        ("hmm", direct.HMM, sql.DeclarativeHMM),
        ("edit_distance", direct.EditDistance, sql.DeclarativeEditDistance),
        ("ges", direct.GES, sql.DeclarativeGES),
        ("ges_jaccard", direct.GESJaccard, sql.DeclarativeGESJaccard),
        ("ges_apx", direct.GESApx, sql.DeclarativeGESApx),
        ("soft_tfidf", direct.SoftTFIDF, sql.DeclarativeSoftTFIDF),
    )
}


def canonical_name(name: str) -> str:
    """Resolve a (case-insensitive) name or alias to its canonical name."""
    key = name.strip().lower().replace(" ", "_").replace("-", "_")
    key = ALIASES.get(key, key)
    if key not in SPECS:
        raise ValueError(
            f"unknown predicate {name!r}; available: {available_predicates()}"
        )
    return key


def spec_for(name: str) -> PredicateSpec:
    """The :class:`PredicateSpec` of a predicate name or alias."""
    return SPECS[canonical_name(name)]


def available_predicates(realization: Optional[str] = None) -> List[str]:
    """Canonical names of every registered predicate.

    With ``realization`` given, only predicates offering that realization.
    """
    if realization is None:
        return sorted(SPECS)
    _check_realization(realization)
    return sorted(
        name for name, spec in SPECS.items() if realization in spec.realizations
    )


def classes(realization: str) -> Dict[str, type]:
    """Canonical name -> class of every predicate offering ``realization``."""
    _check_realization(realization)
    return {
        name: getattr(spec, realization)
        for name, spec in SPECS.items()
        if realization in spec.realizations
    }


def available_realizations(name: str) -> Tuple[str, ...]:
    """The realizations ("direct" / "declarative") a predicate offers."""
    return spec_for(name).realizations


def aliases_for(name: str) -> Tuple[str, ...]:
    """All accepted aliases of a predicate (canonical name excluded)."""
    return spec_for(name).aliases


def make_backend(backend: Union[str, SQLBackend, None]) -> SQLBackend:
    """Resolve a backend name ("memory" / "sqlite") or instance to an instance."""
    if backend is None:
        return MemoryBackend()
    if isinstance(backend, SQLBackend):
        return backend
    key = str(backend).strip().lower()
    try:
        return BACKENDS[key]()
    except KeyError as exc:
        raise ValueError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from exc


def make(
    name: str,
    realization: str = "direct",
    backend: Union[str, SQLBackend, None] = None,
    **kwargs,
) -> Union[Predicate, DeclarativePredicate]:
    """Construct a predicate by name in the requested realization.

    Keyword arguments are forwarded to the predicate constructor; ``backend``
    (a name or a :class:`~repro.backends.base.SQLBackend` instance) applies to
    the declarative realization only.
    """
    _check_realization(realization)
    spec = spec_for(name)
    if realization == "declarative":
        if spec.declarative is None:
            raise ValueError(
                f"predicate {spec.name!r} has no declarative realization; "
                f"declarative predicates: {available_predicates('declarative')}"
            )
        if backend is not None:
            kwargs["backend"] = make_backend(backend)
        return spec.declarative(**kwargs)
    if spec.direct is None:
        raise ValueError(
            f"predicate {spec.name!r} has no direct realization; "
            f"direct predicates: {available_predicates('direct')}"
        )
    if backend is not None:
        raise ValueError(
            "the 'backend' argument applies to the declarative realization only"
        )
    return spec.direct(**kwargs)


def _check_realization(realization: str) -> None:
    if realization not in REALIZATIONS:
        raise ValueError(
            f"unknown realization {realization!r}; expected one of {REALIZATIONS}"
        )
