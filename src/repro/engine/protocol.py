"""The protocol every similarity-predicate realization satisfies.

The paper's central claim is that one set of predicates admits two
realizations -- direct (in-memory Python) and declarative (SQL over a
backend).  Both :class:`repro.core.predicates.base.Predicate` and
:class:`repro.declarative.base.DeclarativePredicate` structurally satisfy
:class:`SimilarityPredicateProtocol`, which is all the engine, the
approximate join and deduplication rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, List, Optional, Protocol, Sequence, Set, runtime_checkable

from repro.core.predicates.base import Match

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

__all__ = ["SimilarityPredicateProtocol"]


@runtime_checkable
class SimilarityPredicateProtocol(Protocol):
    """Structural interface of a fitted-or-fittable similarity predicate.

    ``fit`` preprocesses a base relation (for declarative predicates it is an
    alias of ``preprocess``); ``rank`` returns every candidate ordered by
    decreasing score; ``select`` applies a similarity threshold.  The blocking
    hooks let the engine and the self-join prune candidates through
    :mod:`repro.blocking` regardless of realization; every realization
    inherits them from :class:`repro.blocking.host.BlockingHost`.

    ``score`` sees the candidates ``rank`` sees: under a blocker or a
    candidate restriction, ``score(q, t) == dict(rank(q)).get(t, 0.0)``.
    """

    #: Human-readable predicate name used in reports and plans.
    name: str
    #: The paper's predicate class (overlap / aggregate-weighted / ...).
    family: str
    #: Number of candidates scored by the most recent query (after blocking).
    last_num_candidates: Optional[int]

    def fit(self, strings: Sequence[str]) -> "SimilarityPredicateProtocol":
        """Preprocess the base relation (tokenization + weights)."""
        ...

    def rank(self, query: str, limit: Optional[int] = None) -> List[Match]:
        """Candidates ordered by decreasing similarity, ties broken by tid."""
        ...

    def select(self, query: str, threshold: float) -> List[Match]:
        """The approximate selection ``{t | sim(query, t) >= threshold}``."""
        ...

    def score(self, query: str, tid: int) -> float:
        """Similarity between ``query`` and one tuple (0.0 if ``rank`` would
        leave it out)."""
        ...

    def set_blocker(self, blocker: Optional["Blocker"]) -> "SimilarityPredicateProtocol":
        """Attach (or detach) a candidate blocker."""
        ...

    def restrict_candidates(self, allowed: Optional[Set[int]]) -> ContextManager[None]:
        """Scope queries to the given tuple ids (blocked self-joins)."""
        ...
