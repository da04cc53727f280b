"""Approximate join: the generalization of approximate selection.

The paper studies approximate *selections* and notes (chapter 1) that they
are special cases of the approximate *join* (record linkage / similarity
join) operation.  This module provides that generalization on top of the same
predicate classes:

* :class:`ApproximateJoiner` joins two relations of strings: every tuple of
  the probe relation is used as a query against an indexed base relation and
  pairs scoring at or above a threshold are emitted.
* ``self_join`` performs the similarity self-join used by duplicate
  detection (each string matched against the rest of its own relation).

The join reuses the predicates' candidate generation, so its cost per probe
tuple is the same as one approximate selection -- exactly the "index the base
relation once, stream the probe relation" strategy of the declarative
framework.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.core.predicates.base import Predicate
from repro.core.predicates import make_predicate
from repro.obs.metrics import CounterRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.blocking.base import Blocker

__all__ = ["JoinMatch", "SelfJoinStats", "ApproximateJoiner"]


@dataclass(frozen=True)
class JoinMatch:
    """One matched pair produced by an approximate join."""

    left_id: int
    right_id: int
    left_text: str
    right_text: str
    score: float


@dataclass
class SelfJoinStats(CounterRecord):
    """Work counters of one :meth:`ApproximateJoiner.self_join` run.

    ``pairs_examined`` counts (probe, candidate) pairs actually scored --
    the quantity blocking exists to reduce.  Note the blocked path also
    excludes identity pairs and already-reported orientations *before*
    scoring, so each unordered pair is examined at most once there, while
    the unblocked baseline scores both orientations; up to 2x of a reported
    reduction therefore comes from orientation pruning rather than blocking
    proper.  ``probes_skipped`` counts tuples never probed at all because
    their block left no admissible partner (singleton blocks, or blocks
    whose other members were already probed from the smaller-id side).
    None of them is published as a metric.
    """

    describe_format = (
        "{0.pairs_examined} candidate pairs examined over {0.probes} probes "
        "({0.probes_skipped} probes skipped with no block partners)"
    )

    probes: int = 0
    probes_skipped: int = 0
    pairs_examined: int = 0
    pairs_emitted: int = 0


class ApproximateJoiner:
    """Approximate (similarity) join between two relations of strings.

    Parameters
    ----------
    base:
        The relation that is indexed (the "build" side).
    predicate:
        A predicate instance or registry name; the paper's accuracy findings
        for selections carry over directly since the join is a sequence of
        selections.
    threshold:
        Default similarity threshold for emitted pairs.
    blocker:
        Optional :class:`repro.blocking.Blocker` for candidate pruning.  It is
        attached to the predicate (pruning every probe) and additionally
        drives the blocked :meth:`self_join`, which only probes within blocks
        and skips singleton blocks entirely.

    Example
    -------
    >>> joiner = ApproximateJoiner(["AT&T Inc.", "IBM Corp."], predicate="jaccard")
    >>> [match.right_id for match in joiner.join(["AT&T Incorporated"], threshold=0.3)]
    [0]
    """

    def __init__(
        self,
        base: Sequence[str],
        predicate: Union[Predicate, str] = "bm25",
        threshold: float = 0.5,
        blocker: Optional["Blocker"] = None,
        **predicate_kwargs,
    ):
        if not 0.0 <= threshold:
            raise ValueError("threshold must be non-negative")
        self._base = list(base)
        if isinstance(predicate, str):
            predicate = make_predicate(predicate, **predicate_kwargs)
        elif predicate_kwargs:
            raise ValueError("predicate_kwargs are only valid with a predicate name")
        self.predicate = predicate
        self.threshold = threshold
        if blocker is not None:
            self.predicate.set_blocker(blocker)
        #: Statistics of the most recent :meth:`self_join` run.
        self.last_self_join_stats: Optional[SelfJoinStats] = None
        # Predicates already fitted on this very relation (e.g. handed over by
        # the engine's fitted-state cache) are reused without re-preprocessing.
        already_fitted = (
            getattr(predicate, "is_fitted", False)
            and getattr(predicate, "base_strings", None) == self._base
        )
        if not already_fitted:
            self.predicate.fit(self._base)

    @property
    def blocker(self) -> Optional["Blocker"]:
        """The blocker attached to the underlying predicate (``None`` = off)."""
        return self.predicate.blocker

    # -- joins -------------------------------------------------------------------

    def matches_for(
        self, probe_id: int, probe_text: str, threshold: Optional[float] = None
    ) -> List[JoinMatch]:
        """All base tuples matching one probe string."""
        limit = self.threshold if threshold is None else threshold
        results = []
        for scored in self.predicate.select(probe_text, limit):
            results.append(
                JoinMatch(
                    left_id=probe_id,
                    right_id=scored.tid,
                    left_text=probe_text,
                    right_text=self._base[scored.tid],
                    score=scored.score,
                )
            )
        return results

    def join(
        self,
        probe: Iterable[str],
        threshold: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> List[JoinMatch]:
        """Join a probe relation against the indexed base relation.

        ``top_k`` optionally restricts each probe tuple to its best ``k``
        matches (after thresholding), which is the common record-linkage
        configuration ("best match per record").  Probes then go through the
        predicate's
        :meth:`~repro.core.predicates.base.Predicate.top_k` instead of a full
        thresholded selection: the k best of the thresholded matches equal
        the thresholded k best overall, so results are identical while each
        probe pays for ``k`` results instead of a full candidate sort.
        """
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be non-negative")
        limit = self.threshold if threshold is None else threshold
        # Only kernelised predicates route through top_k: their ranking cost
        # per probe is one postings scan and a top-k selection, while e.g.
        # EditDistance is faster through its own filtered select().
        use_fast_top_k = top_k is not None and getattr(
            self.predicate, "uses_kernels", False
        )
        if use_fast_top_k:
            # select() would refuse sub-blocker thresholds; so do we (once --
            # the threshold and blocker are invariant across probes).
            self.predicate._check_blocker_threshold(limit)
        output: List[JoinMatch] = []
        for probe_id, probe_text in enumerate(probe):
            if use_fast_top_k:
                matches = [
                    JoinMatch(
                        left_id=probe_id,
                        right_id=scored.tid,
                        left_text=probe_text,
                        right_text=self._base[scored.tid],
                        score=scored.score,
                    )
                    for scored in self.predicate.top_k(probe_text, top_k)
                    if scored.score >= limit
                ]
            else:
                matches = self.matches_for(probe_id, probe_text, threshold)
                if top_k is not None:
                    # Guarantee the k *highest-scoring* matches survive even if
                    # a custom predicate returns its selection unsorted.
                    matches = heapq.nlargest(
                        top_k, matches, key=lambda match: (match.score, -match.right_id)
                    )
            output.extend(matches)
        return output

    def iter_join(
        self, probe: Iterable[str], threshold: Optional[float] = None
    ) -> Iterator[JoinMatch]:
        """Streaming variant of :meth:`join` (one probe tuple at a time)."""
        for probe_id, probe_text in enumerate(probe):
            yield from self.matches_for(probe_id, probe_text, threshold)

    def self_join(
        self, threshold: Optional[float] = None, include_identity: bool = False
    ) -> List[JoinMatch]:
        """Similarity self-join of the base relation.

        Each unordered pair is reported once (``left_id < right_id``); the
        trivial identity pairs are excluded unless ``include_identity``.

        With a blocker attached, each tuple is only probed against its block
        partners with ids above its own (identity pairs and already-reported
        orientations are excluded *before* scoring), and tuples whose block
        leaves no admissible partner -- singleton blocks included -- are
        never probed at all.  Work counters are recorded in
        :attr:`last_self_join_stats`.

        Each probe is a :meth:`~repro.core.predicates.base.Predicate.select`,
        which filters candidates by the threshold *before* sorting, so blocked
        self-joins no longer pay a full candidate sort per probe.
        """
        limit = self.threshold if threshold is None else threshold
        blocker = self.blocker
        # Check once up front: probes skipped via singleton blocks would
        # otherwise bypass the predicate-level guard entirely.
        if blocker is not None and not blocker.supports_threshold(limit):
            raise ValueError(
                f"self-join threshold {limit} is below the threshold the "
                f"attached {blocker.name!r} blocker was built for; "
                "rebuild the blocker with the lower threshold"
            )
        stats = SelfJoinStats()
        self.last_self_join_stats = stats
        output: List[JoinMatch] = []
        for tid, text in enumerate(self._base):
            allowed: Optional[Set[int]] = None
            if blocker is not None:
                partners = blocker.partners(tid)
                if partners is not None:
                    allowed = {other for other in partners if other > tid}
                    if include_identity:
                        allowed.add(tid)
                    if not allowed:
                        stats.probes_skipped += 1
                        continue
            stats.probes += 1
            if allowed is not None:
                with self.predicate.restrict_candidates(allowed):
                    scored = self.predicate.select(text, limit)
            else:
                scored = self.predicate.select(text, limit)
            stats.pairs_examined += self.predicate.last_num_candidates or 0
            for result in scored:
                if result.tid == tid:
                    if include_identity:
                        output.append(JoinMatch(tid, tid, text, text, result.score))
                    continue
                if result.tid < tid:
                    continue  # reported when probing the smaller tid
                output.append(
                    JoinMatch(tid, result.tid, text, self._base[result.tid], result.score)
                )
        stats.pairs_emitted = len(output)
        return output

    @property
    def base(self) -> List[str]:
        return list(self._base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApproximateJoiner(n={len(self._base)}, predicate={self.predicate.name}, "
            f"threshold={self.threshold})"
        )
