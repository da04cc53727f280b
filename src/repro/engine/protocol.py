"""The protocol every similarity-predicate realization satisfies.

The paper's central claim is that one set of predicates admits two
realizations -- direct (in-memory Python) and declarative (SQL over a
backend).  Both :class:`repro.core.predicates.base.Predicate` and
:class:`repro.declarative.base.DeclarativePredicate` structurally satisfy
:class:`SimilarityPredicateProtocol`, which is all the approximate join and
deduplication rely on.

The engine reads one layer lower.  Below it, every host -- direct, sharded
(:class:`repro.shard.predicate.ShardedPredicate`) and declarative -- hands
up ordered ``(tid, score)`` pairs
(:class:`~repro.core.predicates.base.PairHost`'s ``*_pairs`` methods), and
the engine attaches each row's string once, building one
:class:`~repro.core.predicates.base.Match` per returned row.  An object that
only satisfies the protocol (a caller's own predicate passed to
``Query.predicate``), or a host subclass that overrides a public operation,
is read through its ``Match`` lists instead (:func:`pair_host`):
``tid, score = match`` unpacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, List, Optional, Protocol, Sequence, Set, runtime_checkable

from repro.core.predicates.base import Match, Pair, PairHost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

__all__ = ["MatchListHost", "SimilarityPredicateProtocol", "pair_host"]


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


#: The public operations a host subclass may override; one that does is read
#: through its ``Match`` lists, so the override answers.
_PUBLIC_OPS = ("rank", "top_k", "select")


def pair_host(predicate: object) -> PairHost:
    """What the engine reads ``predicate``'s ordered pairs from: the host
    itself, or a :class:`MatchListHost` around an object that implements
    no pair methods (or overrides a public operation)."""
    cls = type(predicate)
    if isinstance(predicate, PairHost) and all(
        getattr(cls, op) is getattr(PairHost, op) for op in _PUBLIC_OPS
    ):
        return predicate
    return MatchListHost(predicate)


class MatchListHost(PairHost):
    """A predicate read through its public ``Match`` lists (each ``Match``
    unpacks as a ``(tid, score)`` pair); ``top_k`` is ``rank(limit=k)``
    unless the predicate implements a ``top_k`` of its own."""

    def __init__(self, predicate: object) -> None:
        self.predicate = predicate

    @property
    def last_num_candidates(self) -> Optional[int]:
        return getattr(self.predicate, "last_num_candidates", None)

    @last_num_candidates.setter
    def last_num_candidates(self, value: Optional[int]) -> None:
        if hasattr(self.predicate, "last_num_candidates"):
            self.predicate.last_num_candidates = value

    def rank_pairs(self, query: str, limit: Optional[int] = None) -> List[Pair]:
        return self.predicate.rank(query, limit=limit)

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        return self.predicate.select(query, threshold)

    def top_k_pairs(self, query: str, k: int) -> List[Pair]:
        top_k = getattr(type(self.predicate), "top_k", PairHost.top_k)
        if top_k is PairHost.top_k:
            if k < 0:
                raise ValueError("k must be non-negative")
            return self.predicate.rank(query, limit=k)
        return self.predicate.top_k(query, k)
