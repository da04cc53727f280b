"""The host side of blocking: one contract for every predicate realization.

A *host* is whatever a blocker is attached to -- a direct
:class:`~repro.core.predicates.base.Predicate`, a
:class:`~repro.declarative.base.DeclarativePredicate` or a
:class:`~repro.shard.predicate.ShardedPredicate`.  :class:`BlockingHost`
implements, once for all of them, attaching a blocker (with the
Jaccard-semantics warning and the fit from the host's relation), the
candidate restriction of blocked self-joins, the refusal of selections below
an exact blocker's threshold, and the post-scoring allowance: the scored
tids, narrowed by the restriction, then pruned by the blocker.  Scoring
paths that prune before scoring (the overlap and edit families, the numpy
mask path) read :attr:`BlockingHost._blocker` / ``_restriction`` directly.

Whatever a host answers -- ``rank``, ``select``, ``top_k`` or ``score`` --
sees the candidates this contract allows, so ``score(q, t)`` under a blocker
or a restriction is ``dict(rank(q)).get(t, 0.0)`` on every host.

A host supplies only these hooks:

* :attr:`name`, :attr:`similarity_kind`, :attr:`is_fitted` and ``_strings``
  (the base relation);
* :meth:`BlockingHost._blocker_core` -- the core a blocker is fitted from
  (default: the relation under the blocker's own tokenizer, kept until the
  next fit drops ``_blocker_tokens``);
* :meth:`BlockingHost._blocker_query_tokens` -- the tokens a query probes
  the blocker with (default: the blocker's tokenization of the query);
* :meth:`BlockingHost._query_state_changed` -- drop cached query state when
  the blocker or the restriction changes (default: none cached).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Set

from repro.core.corpus import CorpusCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

__all__ = ["BlockingHost"]


class BlockingHost:
    """Attach, fit, restrict, threshold check and post-scoring prune."""

    name: str
    similarity_kind: str

    def __init__(self) -> None:
        self._blocker: Optional["Blocker"] = None
        #: The relation's core under an attached blocker's tokenizer, for
        #: hosts that share no core of their own (see :meth:`_blocker_core`);
        #: every fit drops it.
        self._blocker_tokens: Optional[CorpusCore] = None
        self._restriction: Optional[Set[int]] = None

    @property
    def blocker(self) -> Optional["Blocker"]:
        """The candidate blocker attached to this predicate (``None`` = off)."""
        return self._blocker

    def set_blocker(self, blocker: Optional["Blocker"]):
        """Attach a :class:`repro.blocking.Blocker` for candidate pruning.

        The blocker is fitted on this predicate's base relation -- from the
        predicate's own corpus core where it shares one -- so that blocker
        and predicate agree on tokenization; a blocker already fitted from
        that core is attached as it is.  Pass ``None`` to detach.

        Attaching a Jaccard-derived exact filter (length/prefix) to a
        predicate with different score semantics (e.g. BM25) demotes it to a
        heuristic: candidates whose *score* clears the threshold may still be
        pruned.  A :class:`UserWarning` is emitted in that case.

        A blocker narrows *every* subsequent query: ``select`` stays exact at
        (or above) the blocker's threshold and refuses lower ones, while
        ``rank`` / ``top_k`` / ``score`` only see candidates that survive
        blocking -- ranked retrieval under a threshold-derived blocker is
        deliberately restricted to threshold-reachable candidates.  Detach
        the blocker for full unpruned rankings.
        """
        if (
            blocker is not None
            and getattr(blocker, "semantics", "any") == "jaccard"
            and self.similarity_kind != "jaccard"
        ):
            warnings.warn(
                f"{type(blocker).__name__} derives its bounds from Jaccard "
                f"semantics; with the {self.name} predicate it is a heuristic "
                "and may drop candidates whose score reaches the threshold",
                UserWarning,
                stacklevel=2,
            )
        self._blocker = blocker
        self._query_state_changed()
        if self.is_fitted:
            self._fit_blocker()
        return self

    def _fit_blocker(self) -> None:
        """Fit the attached blocker (if any) from :meth:`_blocker_core`; a
        fit calls this last so a blocker follows the relation it hosts."""
        if self._blocker is not None:
            self._blocker.fit_core(self._blocker_core(self._blocker))

    def _blocker_core(self, blocker: "Blocker") -> CorpusCore:
        """The corpus core the blocker is fitted from.

        Token-based predicates override this to share their own core (same
        tokenizer, same token lists); the default is a core of the base
        strings under the blocker's tokenizer, built once per fit.
        """
        tokens = self._blocker_tokens
        if tokens is None or tokens.tokenizer != blocker.tokenizer:
            self._blocker_tokens = tokens = CorpusCore(self._strings, blocker.tokenizer)
        return tokens

    def _blocker_query_tokens(self, query: str, blocker: "Blocker") -> Set[str]:
        """Query-side tokens handed to the blocker (same source as the corpus)."""
        return set(blocker.tokenizer.tokenize(query))

    def _query_state_changed(self) -> None:
        """Drop query state cached under the previous blocker or restriction."""

    @contextmanager
    def restrict_candidates(self, allowed: Optional[Set[int]]) -> Iterator[None]:
        """Scope queries to the given tuple ids (used by blocked self-joins)."""
        previous = self._restriction
        self._restriction = allowed
        self._query_state_changed()
        try:
            yield
        finally:
            self._restriction = previous
            self._query_state_changed()

    def _check_blocker_threshold(self, threshold: float) -> None:
        """Refuse selections below the threshold an exact blocker was built for.

        An exact blocker prunes everything that cannot reach *its* configured
        threshold; selecting at a lower one would silently lose true matches.
        """
        if self._blocker is not None and not self._blocker.supports_threshold(threshold):
            raise ValueError(
                f"selection threshold {threshold} is below the threshold the "
                f"attached {self._blocker.name!r} blocker was built for; "
                "rebuild the blocker with the lower threshold"
            )

    def _allowed_after_scoring(self, query: str, tids: Iterable[int]) -> Optional[Set[int]]:
        """The scored ``tids`` a post-scoring host may answer with: those in
        the restriction, pruned by the blocker (``None`` = all of them, on a
        plain call; ``tids`` is then never read)."""
        blocker, restriction = self._blocker, self._restriction
        if blocker is None and restriction is None:
            return None
        allowed = set(tids)
        if restriction is not None:
            allowed.intersection_update(restriction)
        if blocker is not None:
            allowed = blocker.prune(self._blocker_query_tokens(query, blocker), allowed)
        return allowed
