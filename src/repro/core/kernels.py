"""The vectorized scoring kernels: two scans, one mask, selection.

Eight of the 13 predicates spend their query time in one of two inner loops
over precomputed postings, and this module runs both on numpy:

* the **weighted scan** (:func:`accumulate`) of the monotone-sum predicates
  (WeightedMatch, WeightedJaccard, Cosine, BM25, LM, HMM):
  ``score[tid] += query_weight * contribution`` over per-token
  ``int64`` tid / ``float64`` contribution arrays (what a fit derives and
  :class:`~repro.core.index.WeightedPostingIndex` stores);
* the **count scan** (:func:`count_overlap`) of the unweighted overlap
  predicates (IntersectSize, Jaccard): ``overlap[tid] += 1`` over the
  per-token ``int64`` tid arrays of the
  :class:`~repro.core.index.InvertedIndex` -- one ``np.bincount``.

Both return their candidates as :class:`Scores`: the ``(tid, score)``
relation of one query as two tid-ascending arrays, the one form every
predicate's ``_scores`` answers in (the edit and combination families build
theirs once from the scores they compute tuple by tuple,
:meth:`Scores.from_dict`).  The selection kernels (:func:`top_items` /
:func:`sorted_items` / :func:`select_items`) order the arrays, and
:func:`allowed_mask` narrows them to a restriction's (or a blocker's)
allowed set; :func:`posting_tids` is the count scan's checked read of the
tid arrays, which an exact blocker's probe mask shares.  That is the whole
module -- two scans, one mask, selection, and the language models' deferred
``exp`` finalizer (:class:`Scores` ``logs``, :func:`finalize_exp`).
``rank``, ``select``, ``score`` *and* ``top_k`` (which is ``rank(limit=k)``)
are answered by them, and selection reads the arrays only.

Exactness
---------

The weighted scan visits tokens in a canonical order (sorted query tokens,
or query first-occurrence order for HMM) and each posting array in
increasing tid order.  It concatenates the per-token ``qw * contribution``
arrays in that order and applies them with one ``np.add.at``, numpy's
*unbuffered* scatter-add, documented to perform the additions element by
element: a tuple hit by several tokens gets its float64 chain in token
order -- the chain the paper's formula, summed token by token, produces
(``tests/reference.py`` pins it).  (``qw * c`` is skipped when ``qw ==
1.0``; IEEE-754 guarantees ``1.0 * c == c`` bitwise.)

The count scan is exact by construction rather than by ordering: the
overlap predicates count *distinct* shared tokens, a tid occurs at most once
per posting array, so the overlap is an integer count and integer addition
is order-free.  Every operand a finalizer then divides is an integer far
below 2**53, exactly representable in float64, and numpy's ``int64 /
int64`` is the correctly rounded IEEE-754 quotient of the two exact values,
as CPython's ``int / int`` is.

In-step checks
--------------

An array that is short *in step* (or missing) would not fail a scan, it
would leave postings out.  So every scan checks the length it read against
the counts the fit stored -- :func:`accumulate` against
``index.posting_count``, :func:`posting_tids` against the inverted index's
document frequencies -- and raises :class:`ValueError` on a mismatch: a
corrupt index answers with an error, never with a partial answer.
:func:`ops_snapshot` exposes the kernel invocation counters the engine
publishes in its metrics registry.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "count_op",
    "ops_snapshot",
    "accumulate",
    "count_overlap",
    "posting_tids",
    "allowed_mask",
    "Scores",
    "finalize_exp",
    "top_items",
    "sorted_items",
    "select_items",
]

_ops_lock = threading.Lock()
#: ``numpy`` counts scans (the engine publishes it as ``kernel_ops.numpy``);
#: ``finalize_deferred`` / ``finalize_fallback`` count log-domain selections
#: that finalized only their superset, and those whose guard gave up and
#: finalized every candidate (see :class:`Scores`).
_ops: Dict[str, int] = {  # guarded-by: _ops_lock
    "numpy": 0,
    "finalize_deferred": 0,
    "finalize_fallback": 0,
}


def count_op(name: str) -> None:
    """Record one scoring-kernel event."""
    with _ops_lock:
        _ops[name] += 1


def ops_snapshot() -> Dict[str, int]:
    """Kernel event counts since process start.

    The engine snapshots this around each execution and publishes the delta
    as ``kernel_ops.<name>`` counters, so traces and metrics attribute the
    scoring work.
    """
    with _ops_lock:
        return dict(_ops)


# -- the two scans (rank / select / score / top_k paths) ----------------------


def accumulate(
    index,
    items: Sequence[Tuple[str, float]],
    size: int,
) -> "Scores":
    """``Σ qw * contribution`` per tid over the given ``(token, qw)`` items.

    ``items`` must already be in the predicate's canonical token order and
    free of zero query weights; ``index`` is a
    :class:`~repro.core.index.WeightedPostingIndex` (duck-typed: ``arrays``
    and ``posting_count`` accessors).  ``size`` is the relation size,
    bounding tids.

    Every tid touched by an opened posting is a candidate, *including* tids
    whose contributions cancel to exactly ``0.0`` (possible under negative
    RS weights) and tids with stored zero contributions (the language model
    keeps them on purpose).
    """
    count_op("numpy")
    tid_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    expected = 0
    for token, query_weight in items:
        pair = index.arrays(token)
        if pair is not None:
            tids, contributions = pair
            tid_parts.append(tids)
            value_parts.append(
                contributions if query_weight == 1.0 else query_weight * contributions
            )
        expected += index.posting_count(token)
    if not expected:
        return _empty_scores()
    if sum(tids.size for tids in tid_parts) != expected:
        raise ValueError("posting arrays are out of step with the posting counts")
    all_tids = tid_parts[0] if len(tid_parts) == 1 else np.concatenate(tid_parts)
    all_values = (
        value_parts[0] if len(value_parts) == 1 else np.concatenate(value_parts)
    )
    accumulator = np.zeros(size, dtype=np.float64)
    # Unbuffered scatter-add: additions apply in element order, so each
    # tuple's chain runs in token order.
    np.add.at(accumulator, all_tids, all_values)
    touched = np.zeros(size, dtype=bool)
    touched[all_tids] = True
    candidates = np.flatnonzero(touched)
    return Scores(candidates, accumulator[candidates])


def count_overlap(index, tokens: Iterable[str], size: int) -> "Scores":
    """The number of distinct tokens each tid shares with the query.

    ``index`` is an :class:`~repro.core.index.InvertedIndex`; ``size`` is the
    relation size, bounding tids.  The candidate tids and their counts come
    back as the int64 ``tids`` / ``values`` arrays of a :class:`Scores`:
    one ``np.bincount`` over the concatenated tid arrays of the query's
    distinct tokens.
    """
    count_op("numpy")
    all_tids = posting_tids(index, set(tokens))
    if all_tids is None:
        return _empty_scores(np.int64)
    counts = np.bincount(all_tids, minlength=size)
    if counts.size != size:
        raise ValueError("a tid array names a tuple beyond the relation")
    candidates = np.flatnonzero(counts)
    return Scores(candidates, counts[candidates])


def _empty_scores(dtype=np.float64) -> "Scores":
    return Scores(np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype))


@dataclass(frozen=True, eq=False)
class Scores:
    """One query's candidates and their scores, as two arrays.

    ``tids`` is int64 and tid-ascending; ``values[i]`` is the score of
    ``tids[i]`` (float64 -- or the count scan's int64 counts, until a
    finalizer turns them into scores).

    A language model's scan ends with the exact float64 log score of each
    candidate, and exponentiating all of them costs one scalar ``math.exp``
    per candidate where a top-``k`` answer needs ``k``.  So it passes
    ``logs`` instead of ``values``: the score of ``tids[i]`` is
    ``finalize_exp(logs[i])``, taken where it is read -- every candidate for
    :func:`sorted_items`, one for :meth:`score` -- while :func:`top_items`
    and :func:`select_items` select in the log domain and finalize a
    superset of the winners:

    1. the superset is every candidate whose log is ``>=`` the ``k``-th
       largest log (or ``log(threshold)``) less a margin ``δ(x) = 1e-9 *
       max(1, |x|)`` -- far wider than a ULP, so it holds every candidate
       whose finalized score could tie the boundary;
    2. ``math.exp`` runs on the superset only, and the exact
       ``(score desc, tid asc)`` selection runs on it;
    3. a guard -- ``exp(m + δ(m))`` strictly below the ``k``-th finalized
       score (or the threshold), ``m`` the largest log outside the superset
       -- proves no outsider could have entered the answer; when it fails
       (scores underflowed to ``0.0`` or overflowed to ``inf``, a threshold
       ``<= 0``, a NaN) every candidate is finalized and selected as before.

    Either way the answer is the full finalization's, bit for bit; the two
    outcomes are counted as ``finalize_deferred`` / ``finalize_fallback``.
    """

    tids: np.ndarray
    values: Optional[np.ndarray] = None
    logs: Optional[np.ndarray] = None

    @classmethod
    def from_dict(cls, scores: Mapping[int, float]) -> "Scores":
        """The arrays of a ``{tid: score}`` dict, sorted tid-ascending."""
        tids = np.fromiter(scores, dtype=np.int64, count=len(scores))
        values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
        order = tids.argsort()
        return cls(tids[order], values[order])

    def __len__(self) -> int:
        return int(self.tids.size)

    def finalized(self):
        """The float64 scores of ``tids``, every log finalized."""
        if self.logs is None:
            return self.values
        return np.array(_exp_list(self.logs.tolist()), dtype=np.float64)

    def narrow(self, keep) -> "Scores":
        """The candidates the boolean mask ``keep`` over ``tids`` marks."""
        return Scores(
            self.tids[keep],
            None if self.values is None else self.values[keep],
            None if self.logs is None else self.logs[keep],
        )

    def score(self, tid: int) -> float:
        """The score of ``tid`` (``0.0`` if it is not a candidate): one
        binary search on ``tids``, one finalized log."""
        at = int(np.searchsorted(self.tids, tid))
        if at == self.tids.size or self.tids[at] != tid:
            return 0.0
        if self.logs is not None:
            return finalize_exp(float(self.logs[at]))
        return float(self.values[at])


def finalize_exp(log_score: float) -> float:
    """``math.exp(log_score)``, with overflow read as ``inf``: the language
    models' finalizer (``np.exp`` is not guaranteed ULP-identical to libm,
    so every path takes this one).  Underflow to ``0.0`` is harmless for
    ranking because ``exp`` is monotone."""
    try:
        return math.exp(log_score)
    except OverflowError:
        return math.inf


def _exp_list(log_scores: List[float]) -> List[float]:
    """:func:`finalize_exp` of each value (the common no-overflow case as one
    comprehension)."""
    exp = math.exp
    try:
        return [exp(value) for value in log_scores]
    except OverflowError:
        return [finalize_exp(value) for value in log_scores]


def _margin(log_value: float) -> float:
    return 1e-9 * max(1.0, abs(log_value))


def _outside_below(logs, inside, bound: float) -> bool:
    """The guard: every log outside the superset finalizes strictly below
    ``bound`` -- checked on the largest one, raised by its margin so a
    ULP-level wobble of libm's ``exp`` cannot break the proof."""
    outside = logs[~inside]
    if not outside.size:
        return True
    largest = float(outside.max())  # NaN propagates and fails the guard
    return finalize_exp(largest + _margin(largest)) < bound


def _top_deferred(tids, logs, limit: int) -> Optional[List[Tuple[int, float]]]:
    """:func:`top_items` of log scores, finalizing the superset of the
    winners only (``limit < len(tids)``); ``None`` when the guard gives
    up."""
    kth_log = float(np.partition(logs, logs.size - limit)[logs.size - limit])
    if math.isfinite(kth_log):
        inside = logs >= kth_log - _margin(kth_log)
        values = np.array(_exp_list(logs[inside].tolist()), dtype=np.float64)
        top = _top_pairs(tids[inside], values, limit)
        if len(top) == limit and _outside_below(logs, inside, top[-1][1]):
            count_op("finalize_deferred")
            return top
    count_op("finalize_fallback")
    return None


def _select_deferred(tids, logs, threshold: float) -> Optional[List[Tuple[int, float]]]:
    """:func:`select_items` of log scores, finalizing the candidates that
    can reach ``threshold`` only; ``None`` when the guard gives up."""
    cut = math.log(threshold) if threshold > 0 else math.nan
    if math.isfinite(cut):
        inside = logs >= cut - _margin(cut)
        if _outside_below(logs, inside, threshold):
            count_op("finalize_deferred")
            values = np.array(_exp_list(logs[inside].tolist()), dtype=np.float64)
            keep = values >= threshold
            return _ordered_pairs(tids[inside][keep], values[keep])
    count_op("finalize_fallback")
    return None


def posting_tids(index, tokens: Iterable[str]):
    """The ``int64`` tid arrays of ``tokens``' postings in ``index`` (an
    :class:`~repro.core.index.InvertedIndex`), concatenated in token order;
    ``None`` when none of them has a posting.

    A short or missing tid array would not fail, it would drop tuples: the
    length check against the document frequencies (the dict the index
    counted at build time, never the arrays) turns that into a
    :class:`ValueError` for every reader -- the count scan, a blocker's
    probe mask (:meth:`~repro.core.index.InvertedIndex.candidate_mask`), the
    sharded pre-partition candidates.
    """
    parts: List["np.ndarray"] = []
    expected = 0
    for token in tokens:
        pair = index.arrays(token)
        if pair is not None:
            parts.append(pair[0])
        expected += index.document_frequency(token)
    if not expected:
        return None
    if sum(tids.size for tids in parts) != expected:
        raise ValueError("tid arrays are out of step with the document frequencies")
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def allowed_mask(tids, allowed: Collection[int], size: int):
    """Boolean mask over the scan result ``tids``: which are in ``allowed``.

    Built once per call from the blocker's / restriction's allowed set.
    Allowed tids outside ``[0, size)`` are ignored -- a negative one must not
    wrap around to the tail of the relation.
    """
    wanted = np.fromiter(allowed, dtype=np.int64, count=len(allowed))
    member = np.zeros(size, dtype=bool)
    member[wanted[(wanted >= 0) & (wanted < size)]] = True
    return member[tids]


# -- selection (ordering of scored candidates for rank / select) --------------
#
# Selection involves no float arithmetic -- only comparisons on the exact
# score values -- so it returns the scores bit for bit.  The ordering key is
# always (score desc, tid asc), which is unique per item, so any correct
# implementation yields one answer.


def _ordered_pairs(tids, values) -> List[Tuple[int, float]]:
    """``(tid, score)`` pairs sorted by (score desc, tid asc), exactly."""
    order = np.lexsort((tids, -values))
    return list(zip(tids[order].tolist(), values[order].tolist()))


def top_items(scores: Scores, limit: int) -> List[Tuple[int, float]]:
    """The ``limit`` largest ``(tid, score)`` items, score desc / tid asc.

    Equals the full sort cut to ``limit``, bit for bit: the selection
    partitions on the exact values, keeps everything strictly above the kth
    value, fills the remaining slots with the smallest tids among the
    boundary ties, and orders the winners with one lexsort.  Log scores are
    selected in the log domain first and finalize only the winners'
    superset.
    """
    if limit <= 0 or not len(scores):
        return []
    if scores.logs is not None and limit < len(scores):
        top = _top_deferred(scores.tids, scores.logs, limit)
        if top is not None:
            return top
    return _top_pairs(scores.tids, scores.finalized(), limit)


def _top_pairs(tids, values, limit: int) -> List[Tuple[int, float]]:
    """:func:`top_items` over finalized arrays (``limit >= 1``)."""
    if limit >= values.size:
        return _ordered_pairs(tids, values)
    keep = np.argpartition(-values, limit - 1)[:limit]
    kth = values[keep].min()
    above = np.flatnonzero(values > kth)
    ties = np.flatnonzero(values == kth)
    fill = np.argsort(tids[ties], kind="stable")[: limit - above.size]
    chosen = np.concatenate([above, ties[fill]])
    return _ordered_pairs(tids[chosen], values[chosen])


def sorted_items(scores: Scores) -> List[Tuple[int, float]]:
    """All ``(tid, score)`` items sorted by score desc, tid asc."""
    return _ordered_pairs(scores.tids, scores.finalized())


def select_items(scores: Scores, threshold: float) -> List[Tuple[int, float]]:
    """``(tid, score)`` items with ``score >= threshold``, score desc / tid asc.

    Log scores finalize only the candidates whose log can reach
    ``log(threshold)``.
    """
    if not len(scores):
        return []
    if scores.logs is not None:
        survivors = _select_deferred(scores.tids, scores.logs, threshold)
        if survivors is not None:
            return survivors
    values = scores.finalized()
    keep = values >= threshold
    return _ordered_pairs(scores.tids[keep], values[keep])
