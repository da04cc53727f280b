"""Similarity predicates for approximate selection.

The predicates are grouped into the paper's five classes:

* overlap predicates (:mod:`repro.core.predicates.overlap`):
  ``IntersectSize``, ``Jaccard``, ``WeightedMatch``, ``WeightedJaccard``;
* aggregate weighted predicates (:mod:`repro.core.predicates.aggregate`):
  ``CosineTfIdf``, ``BM25``;
* language modeling predicates (:mod:`repro.core.predicates.language_model`
  and :mod:`repro.core.predicates.hmm`): ``LanguageModeling``, ``HMM``;
* edit-based predicates (:mod:`repro.core.predicates.edit`): ``EditDistance``;
* combination predicates (:mod:`repro.core.predicates.combination`):
  ``GES``, ``GESJaccard``, ``GESApx``, ``SoftTFIDF``.

Use :func:`make_predicate` to construct a predicate by name with the paper's
default parameters, or instantiate the classes directly.  Names resolve in
the one registry, :mod:`repro.engine.registry`; ``PREDICATE_CLASSES`` is its
direct column.
"""

from typing import List

from repro.core.predicates.base import Match, Predicate
from repro.core.predicates.overlap import (
    IntersectSize,
    Jaccard,
    WeightedJaccard,
    WeightedMatch,
)
from repro.core.predicates.aggregate import BM25, CosineTfIdf
from repro.core.predicates.language_model import LanguageModeling
from repro.core.predicates.hmm import HMM
from repro.core.predicates.edit import EditDistance
from repro.core.predicates.combination import GES, GESApx, GESJaccard, SoftTFIDF

__all__ = [
    "Predicate",
    "Match",
    "IntersectSize",
    "Jaccard",
    "WeightedMatch",
    "WeightedJaccard",
    "CosineTfIdf",
    "BM25",
    "LanguageModeling",
    "HMM",
    "EditDistance",
    "GES",
    "GESJaccard",
    "GESApx",
    "SoftTFIDF",
    "make_predicate",
    "available_predicates",
    "PREDICATE_CLASSES",
]


def make_predicate(name: str, **kwargs) -> Predicate:
    """Construct a direct predicate by (case-insensitive) name or alias.

    Keyword arguments are forwarded to the predicate constructor, e.g.
    ``make_predicate("bm25")`` or ``make_predicate("ges_jaccard", threshold=0.7)``.
    """
    from repro.engine.registry import make

    return make(name, realization="direct", **kwargs)


def available_predicates() -> List[str]:
    """Canonical names of every registered predicate."""
    from repro.engine.registry import available_predicates

    return available_predicates("direct")


def __getattr__(name: str):
    # Read from the registry on access: the engine imports this package.
    if name == "PREDICATE_CLASSES":
        from repro.engine.registry import classes

        return classes("direct")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
