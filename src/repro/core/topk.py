"""Exact top-k execution with max-score early termination.

The paper's query-time benchmarks are all about answering selections at
interactive speed; for ranked retrieval (``top_k``) the dominant cost of the
direct realization is opening *every* posting list a query token touches and
scoring thousands of candidates for a handful of results.  For predicates
whose score is a monotone sum of per-token contributions::

    sim(Q, D) = Σ_{t ∈ Q ∩ D} wq(t, Q) * c(t, D)

a classic max-score argument applies: if each token's maximum posting
contribution is known (precomputed at fit time by
:class:`repro.core.index.WeightedPostingIndex`), posting lists can be opened
in decreasing upper-bound order and the scan stopped once the combined upper
bound of the unopened lists cannot lift a *new* candidate into the current
top-k.  The tuples accumulated so far are then rescored exactly -- in the
same canonical token order the unpruned path uses, so scores are
float-identical -- and the best ``k`` returned.

Exactness guarantee
-------------------

:func:`maxscore_top_k` returns exactly the same ``(tid, score)`` list as the
unpruned ``rank(limit=k)`` path.  With ``P`` the combined positive upper
bound and ``N`` the combined negative lower bound of the *unopened* terms
(contributions can be negative: RS weights of very frequent tokens), every
tuple's final score lies within ``[partial + N, partial + P]`` of its
accumulated partial sum (0 for untouched tuples):

* At least ``k`` accumulated candidates score ``>= kth_partial + N``, so the
  final k-th score does too; the scan stops once ``P`` (the most an
  untouched tuple can reach) falls strictly below that, with a relative
  float-safety margin.  Untouched tuples then sit strictly below the final
  k-th score and cannot enter the result even on a tie.
* Candidates are then walked in decreasing partial-sum order while an
  exact top-k heap fills; once a candidate's upper bound ``partial + P``
  falls strictly below the heap's exact k-th score, no later candidate can
  enter the result and the walk stops -- typically after the top-k plus
  a handful of ties, not the whole accumulator.
* Exact scores come from the caller-supplied ``rescore`` callback, which
  replicates the unpruned accumulation order bit for bit, so the returned
  scores are float-identical to the naive path's.

Where it runs
-------------

This is a scalar algorithm: a dict of partial sums, a lazily popped heap and
one ``rescore`` call per consumed candidate.  What it saves is posting-loop
iterations, and only the interpreter-bound scalar scan pays per iteration:
against the numpy scan, skipping 55-80 % of the postings saves less C time
than the per-term Python bookkeeping costs, at every relation size measured
(10k / 50k / 200k rows, k = 10 and 100; the table is in ROADMAP.md).
:meth:`repro.core.predicates.base.Predicate.top_k` therefore calls
:func:`maxscore_top_k` only while :func:`repro.core.kernels.active_backend`
is the scalar one and answers with ``rank(limit=k)`` -- dense scan plus
partition -- otherwise.  The function itself never touches numpy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import kernels

__all__ = ["PruningStats", "Term", "maxscore_top_k"]

#: Relative float-safety margin of the cutoff test.  Accumulated partial sums
#: and the precomputed suffix bounds are float64; their relative error over a
#: realistic query (tens of tokens) is ~1e-14, so 1e-9 is a vast safety factor
#: that costs essentially no pruning opportunity.
_CUTOFF_MARGIN = 1e-9

#: Keep opening posting lists past the first legal cutoff until the remaining
#: bound P falls below this fraction of the floor.  At the first legal point
#: P sits just under the floor, leaving the rescore phase a near-useless stop
#: condition (almost every candidate still looks viable); a smaller P
#: collapses the rescore set at the cost of a few more opened lists.  0.65
#: sits on the empirical break-even plateau (0.6-0.75) of the three
#: monotone-sum predicates on the 10k-row benchmark relation.
_CONTINUE_FRACTION = 0.65


@dataclass
class PruningStats:
    """Work counters of one max-score :func:`maxscore_top_k` execution.

    ``postings_skipped`` is the number of postings never opened thanks to
    early termination -- the quantity the fast path exists to maximize.
    ``candidates_scored`` is the number of tuples accumulated, of which only
    ``candidates_rescored`` (the ones whose score interval can reach the
    top-k) are exactly rescored; the unpruned path scores every candidate
    instead.
    """

    tokens_total: int = 0
    tokens_opened: int = 0
    postings_total: int = 0
    postings_opened: int = 0
    postings_skipped: int = 0
    candidates_scored: int = 0
    candidates_rescored: int = 0
    pruned: bool = False

    def describe(self) -> str:
        return (
            f"{self.tokens_opened}/{self.tokens_total} posting lists opened, "
            f"{self.postings_opened} postings scored, "
            f"{self.postings_skipped} skipped, "
            f"{self.candidates_rescored}/{self.candidates_scored} "
            f"candidates rescored"
            + (" (early termination)" if self.pruned else "")
        )

    def publish(self, metrics) -> None:
        """Accumulate these counters into a :class:`~repro.obs.metrics.
        MetricsRegistry` (the long-lived view of per-call stats)."""
        metrics.inc("postings_opened", self.postings_opened)
        metrics.inc("postings_skipped", self.postings_skipped)
        metrics.inc("tokens_opened", self.tokens_opened)
        metrics.inc("candidates_scored", self.candidates_scored)
        metrics.inc("candidates_rescored", self.candidates_rescored)


@dataclass(frozen=True)
class Term:
    """One query token's posting list with its contribution bounds.

    ``postings`` carries ``(tid, contribution)`` pairs where ``contribution``
    is the precomputed document-side factor; a tuple's score gain from this
    term is ``query_weight * contribution``.
    """

    token: str
    query_weight: float
    postings: Sequence[Tuple[int, float]] = field(repr=False)
    max_contribution: float
    min_contribution: float

    @property
    def upper_bound(self) -> float:
        """Largest possible score gain of this term for any single tuple."""
        return max(
            self.query_weight * self.max_contribution,
            self.query_weight * self.min_contribution,
        )

    @property
    def lower_bound(self) -> float:
        """Smallest possible score gain (negative for e.g. RS weights)."""
        return min(
            self.query_weight * self.max_contribution,
            self.query_weight * self.min_contribution,
        )


def maxscore_top_k(
    k: int,
    terms: Sequence[Term],
    rescore: Callable[[Iterable[int]], Dict[int, float]],
    allowed: Optional[Set[int]] = None,
) -> Tuple[List[Tuple[int, float]], PruningStats]:
    """Exact top-k of a monotone-sum predicate with max-score pruning.

    Parameters
    ----------
    k:
        Number of results (``(tid, score)`` pairs, ordered by decreasing
        score with ties broken by tuple id).
    terms:
        One :class:`Term` per query token.  Zero-weight and empty-postings
        terms are ignored.
    rescore:
        Callback computing the *exact* final score of the given tuple ids in
        the predicate's canonical accumulation order; its values are what the
        result carries, so they match the unpruned path bit for bit.
    allowed:
        Optional candidate restriction (blocker / self-join scoping); tuples
        outside it are never accumulated.
    """
    # Scalar scoring work: counted with the kernel ops so the engine's
    # kernel_ops.<backend> attribution covers pruned top_k calls too.
    kernels.count_op("python")
    stats = PruningStats()
    live = [t for t in terms if t.query_weight != 0.0 and t.postings]
    stats.tokens_total = len(live)
    stats.postings_total = sum(len(t.postings) for t in live)
    if k <= 0:
        stats.postings_skipped = stats.postings_total
        return [], stats

    # Decreasing positive upper bound: the terms that can lift an unseen
    # tuple the most go first, so the remaining-bound suffix collapses as
    # fast as possible.  Negative-upper-bound terms (pure penalties, i.e.
    # the *longest* posting lists under RS weighting) contribute nothing to
    # an unseen tuple's reachable score and sort last -- exactly the lists
    # early termination exists to skip.  Token tie-break keeps runs
    # deterministic.
    bounded = sorted(
        ((max(0.0, t.upper_bound), min(0.0, t.lower_bound), t) for t in live),
        key=lambda entry: (-entry[0], entry[2].token),
    )
    order = [term for _, _, term in bounded]

    # suffix_pos[i]: the most a tuple absent from every opened list could
    # still gain from terms i.. ; suffix_neg[i]: the most an accumulated
    # tuple could still *lose* to them.
    count = len(order)
    suffix_pos = [0.0] * (count + 1)
    suffix_neg = [0.0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_pos[i] = suffix_pos[i + 1] + bounded[i][0]
        suffix_neg[i] = suffix_neg[i + 1] + bounded[i][1]

    accumulated: Dict[int, float] = {}
    # Running upper bound on the best partial sum, maintained inside the
    # accumulation loops.  Negative contributions can make it stale (an
    # overestimate), which only makes the necessity gate below conservative.
    best_partial = float("-inf")
    cut = count
    for i, term in enumerate(order):
        if len(accumulated) >= k and suffix_pos[i] < _CONTINUE_FRACTION * (
            # Cheap necessity gate: the k-th partial is at most the best one,
            # so until the remaining bound undercuts even that (scaled by
            # the continue fraction below), the O(n log k) k-th selection
            # cannot trigger a cut and is skipped.
            best_partial + suffix_neg[i]
        ):
            # At least k candidates end with >= kth + suffix_neg[i]; a tuple
            # in no opened list ends with <= suffix_pos[i].
            kth = heapq.nlargest(k, accumulated.values())[-1]
            floor = kth + suffix_neg[i]
            margin = _CUTOFF_MARGIN * (
                abs(kth) + suffix_pos[i] - suffix_neg[i]
            )
            # suffix_pos >= 0, so a passing test implies floor > 0 here.
            # Stopping at the first point where suffix_pos < floor would
            # already be exact; the extra _CONTINUE_FRACTION factor trades a
            # few more opened lists for a collapsed rescore set (see above).
            if (
                suffix_pos[i] < floor - margin
                and suffix_pos[i] <= _CONTINUE_FRACTION * floor
            ):
                cut = i
                stats.pruned = True
                break
        stats.tokens_opened += 1
        query_weight = term.query_weight
        postings = term.postings
        stats.postings_opened += len(postings)
        if allowed is None:
            for tid, contribution in postings:
                value = accumulated.get(tid, 0.0) + query_weight * contribution
                accumulated[tid] = value
                if value > best_partial:
                    best_partial = value
        else:
            for tid, contribution in postings:
                if tid in allowed:
                    value = accumulated.get(tid, 0.0) + query_weight * contribution
                    accumulated[tid] = value
                    if value > best_partial:
                        best_partial = value
    for term in order[cut:]:
        stats.postings_skipped += len(term.postings)
    stats.candidates_scored = len(accumulated)

    # Exact-rescore candidates in decreasing partial-sum order, keeping the
    # running exact top-k in a min-heap.  A candidate's final score is at
    # most partial + P; once that upper bound falls strictly below the
    # heap's exact k-th score, no remaining candidate (they have smaller
    # partials) can enter the result -- stop rescoring.  A lazily-popped
    # max-heap orders the candidates: only the handful actually rescored pay
    # for ordering, not the whole accumulator.
    remaining_pos = suffix_pos[cut]
    by_partial = [(-partial, tid) for tid, partial in accumulated.items()]
    heapq.heapify(by_partial)
    heap: List[Tuple[float, int]] = []  # (score, -tid) min-heap of the top k
    while by_partial:
        negated_partial, tid = heapq.heappop(by_partial)
        partial = -negated_partial
        if len(heap) == k:
            kth_exact = heap[0][0]
            margin = _CUTOFF_MARGIN * (
                abs(kth_exact) + abs(partial) + remaining_pos
            )
            if partial + remaining_pos < kth_exact - margin:
                break
        stats.candidates_rescored += 1
        entry = (rescore([tid])[tid], -tid)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)

    top = [(-negated_tid, score) for score, negated_tid in heap]
    top.sort(key=lambda item: (-item[1], item[0]))
    return top, stats
