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
default parameters, or instantiate the classes directly.
"""

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
from repro.core.predicates.registry import (
    PREDICATE_CLASSES,
    available_predicates,
    make_predicate,
)

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
