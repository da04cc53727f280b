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

Both return their candidates as the arrays of a :class:`DenseScores`.  The
selection kernels (:func:`top_items` / :func:`sorted_items` /
:func:`select_items`) order a scan's result, and :func:`allowed_mask`
narrows it to a restriction's (or a set-path blocker's) allowed set;
:func:`posting_tids` is the count scan's checked read of the tid arrays,
which an exact blocker's probe mask shares.  That is the whole module --
two scans, one mask, selection, and the language models' deferred ``exp``
finalizer (:func:`exp_scores`, :func:`finalize_exp`).  ``rank``,
``select``, ``score`` *and* ``top_k`` (which is ``rank(limit=k)``) are
answered by them.

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

import heapq
import math
import threading
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "count_op",
    "ops_snapshot",
    "accumulate",
    "count_overlap",
    "posting_tids",
    "allowed_mask",
    "DenseScores",
    "exp_scores",
    "finalize_exp",
    "top_items",
    "sorted_items",
    "select_items",
]

_ops_lock = threading.Lock()
#: ``numpy`` counts scans (the engine publishes it as ``kernel_ops.numpy``);
#: ``finalize_deferred`` / ``finalize_fallback`` count log-domain selections
#: that finalized only their superset, and those whose guard gave up and
#: finalized every candidate (see :func:`exp_scores`).
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
) -> "DenseScores":
    """``{tid: Σ qw * contribution}`` over the given ``(token, qw)`` items.

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
    # Lazily-materialized dict: .tolist() round-trips to exact Python
    # ints/floats on first dict access, tid-ascending.
    return DenseScores(candidates, accumulator[candidates])


def count_overlap(index, tokens: Iterable[str], size: int) -> "DenseScores":
    """``{tid: number of distinct tokens shared with the query}``.

    ``index`` is an :class:`~repro.core.index.InvertedIndex`; ``size`` is the
    relation size, bounding tids.  The candidate tids and their counts come
    back as the int64 ``tids`` / ``vals`` arrays of a :class:`DenseScores`:
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
    return DenseScores(candidates, counts[candidates])


def _empty_scores(dtype=np.float64) -> "DenseScores":
    return DenseScores(np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype))


class DenseScores(dict):
    """Score dict backed by ``(tids, values)`` arrays, materialized lazily.

    A numpy scan produces its candidate set as an int64 tid array plus the
    matching float64 scores (int64 counts for the count scan, until a
    finalizer turns them into scores); building a 10k-entry Python dict out
    of them costs more than the accumulation itself, and the hot paths
    (``rank``/``select``/``top_k`` selection) only ever need the arrays.  So
    the dict starts empty and fills itself from the arrays on the first
    dict-API access -- every Python-level read (``len``, iteration, ``get``,
    ``items``, ``==`` ...) behaves exactly like a plain dict with the same
    keys and float values.

    ``tids`` is tid-ascending; ``vals[i]`` is the score of ``tids[i]``.
    Built by :func:`exp_scores`, the instance holds the *log* scores instead
    (``logs``) and ``vals`` is ``exp`` of them, taken with
    :func:`finalize_exp` per candidate on the first read -- which
    :func:`top_items` / :func:`select_items` avoid (see :func:`exp_scores`).
    Mutation is supported (materializes first) and marks the arrays stale so
    the selection kernels fall back to the dict.  Caveat: C-level fast paths
    that read dict storage directly without calling the overridden methods
    (``dict(d)``, ``{**d}``, ``other.update(d)``) see the unmaterialized
    dict -- call ``.materialize()`` first if you need those.
    """

    __slots__ = ("tids", "logs", "_vals", "_filled", "_stale")

    def __init__(self, tids, values=None, logs=None):
        super().__init__()
        self.tids = tids
        self.logs = logs
        self._vals = values
        self._filled = False
        self._stale = False

    @property
    def vals(self):
        """The float64 scores of ``tids`` (finalized here, once, if deferred)."""
        if self._vals is None:
            self._vals = np.array(_exp_list(self.logs.tolist()), dtype=np.float64)
        return self._vals

    def materialize(self) -> "DenseScores":
        """Fill the underlying dict from the arrays (idempotent)."""
        if not self._filled:
            self._filled = True
            super().update(zip(self.tids.tolist(), self.vals.tolist()))
        return self

    def _arrays(self):
        """``(tids, values)`` while they still reflect the content, else None."""
        if self._stale:
            return None
        return self.tids, self.vals

    def _touch(self) -> "DenseScores":
        self.materialize()
        self._stale = True
        return self

    # -- reads (materialize, then plain dict behavior) ------------------------

    def __len__(self):
        return super().__len__() if self._filled else int(self.tids.size)

    def __iter__(self):
        return super(DenseScores, self.materialize()).__iter__()

    def __reversed__(self):
        return super(DenseScores, self.materialize()).__reversed__()

    def __contains__(self, key):
        return super(DenseScores, self.materialize()).__contains__(key)

    def __getitem__(self, key):
        return super(DenseScores, self.materialize()).__getitem__(key)

    def get(self, key, default=None):
        return super(DenseScores, self.materialize()).get(key, default)

    def keys(self):
        return super(DenseScores, self.materialize()).keys()

    def values(self):  # noqa: A003 - dict API
        return super(DenseScores, self.materialize()).values()

    def items(self):
        return super(DenseScores, self.materialize()).items()

    def __eq__(self, other):
        if isinstance(other, DenseScores):
            other.materialize()
        return super(DenseScores, self.materialize()).__eq__(other)

    def __ne__(self, other):
        if isinstance(other, DenseScores):
            other.materialize()
        return super(DenseScores, self.materialize()).__ne__(other)

    __hash__ = None  # dicts are unhashable

    def __repr__(self):
        return super(DenseScores, self.materialize()).__repr__()

    def copy(self):
        return dict(self.materialize())

    def __or__(self, other):
        return dict(self.materialize()) | other

    def __ror__(self, other):
        return other | dict(self.materialize())

    def __reduce__(self):
        # Pickles as the plain dict it represents.
        return (dict, (dict(self.materialize()),))

    # -- mutation (materialize, mark arrays stale) ----------------------------

    def __setitem__(self, key, value):
        super(DenseScores, self._touch()).__setitem__(key, value)

    def __delitem__(self, key):
        super(DenseScores, self._touch()).__delitem__(key)

    def setdefault(self, key, default=None):
        return super(DenseScores, self._touch()).setdefault(key, default)

    def pop(self, *args):
        return super(DenseScores, self._touch()).pop(*args)

    def popitem(self):
        return super(DenseScores, self._touch()).popitem()

    def clear(self):
        super(DenseScores, self._touch()).clear()

    def update(self, *args, **kwargs):
        super(DenseScores, self._touch()).update(*args, **kwargs)

    def __ior__(self, other):
        self._touch().update(other)
        return self


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


def exp_scores(tids, log_values) -> "DenseScores":
    """Scores ``finalize_exp(log_values[i])`` of ``tids``, finalized lazily.

    A numpy scan of a language model ends with the exact float64 log score
    of each candidate; exponentiating all of them costs one scalar
    ``math.exp`` per candidate, where a top-``k`` answer needs ``k``.  So the
    returned :class:`DenseScores` keeps the logs and finalizes them only when
    read as a dict or as a whole (:func:`sorted_items`), while
    :func:`top_items` and :func:`select_items` select in the log domain and
    finalize a superset of the winners:

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
    return DenseScores(tids, logs=log_values)


def _margin(log_value: float) -> float:
    return 1e-9 * max(1.0, abs(log_value))


def _log_pair(scores) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
    """``(tids, logs)`` of an unmutated, not yet finalized :func:`exp_scores`
    result, else ``None``."""
    if (
        not isinstance(scores, DenseScores)
        or scores.logs is None
        or scores._vals is not None
        or scores._stale
    ):
        return None
    return scores.tids, scores.logs


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
    """:func:`top_items` of an :func:`exp_scores` result, finalizing the
    superset of the winners only (``limit < len(tids)``); ``None`` when the
    guard gives up."""
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
    """:func:`select_items` of an :func:`exp_scores` result, finalizing the
    candidates that can reach ``threshold`` only; ``None`` when the guard
    gives up."""
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
    length check against the document frequencies (the index's count over
    its ``Counter`` objects, never the arrays) turns that into a
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
# score values -- so the array variants are bit-identical to the dict ones
# by construction.  The ordering key is always (score desc, tid asc),
# which is unique per item, so any correct implementation yields one answer.

#: Below this many candidates the dict paths win (array conversion and
#: numpy call overhead dominate); the cutover only affects speed, never
#: results.
_SELECTION_MIN = 64


def _selection_arrays(scores: Dict[int, float]):
    """``(tids, values)`` arrays for a score dict, or ``None`` to fall back.

    Reuses the arrays a :class:`DenseScores` carries while it is unmutated;
    other dicts -- the edit and combination families' results,
    blocker-filtered dicts -- are converted via ``np.fromiter``.
    """
    if len(scores) < _SELECTION_MIN:
        return None
    if isinstance(scores, DenseScores):
        pair = scores._arrays()
        if pair is not None:
            return pair
    count = len(scores)
    tids = np.fromiter(scores.keys(), dtype=np.int64, count=count)
    values = np.fromiter(scores.values(), dtype=np.float64, count=count)
    return tids, values


def _ordered_pairs(tids, values) -> List[Tuple[int, float]]:
    """``(tid, score)`` pairs sorted by (score desc, tid asc), exactly."""
    order = np.lexsort((tids, -values))
    return list(zip(tids[order].tolist(), values[order].tolist()))


def top_items(scores: Dict[int, float], limit: int) -> List[Tuple[int, float]]:
    """The ``limit`` largest ``(tid, score)`` items, score desc / tid asc.

    Equals ``heapq.nlargest(limit, scores.items(), key=(score, -tid))``
    bit for bit: the vectorized path partitions on the exact values, keeps
    everything strictly above the kth value, fills the remaining slots with
    the smallest tids among the boundary ties, and orders the winners with
    one lexsort.  An :func:`exp_scores` result is selected in the log domain
    first and finalizes only the winners' superset.
    """
    if limit <= 0 or not scores:
        return []
    logs = _log_pair(scores)
    if logs is not None and limit < logs[0].size:
        top = _top_deferred(*logs, limit)
        if top is not None:
            return top
    # Reading the arrays or the dict finalizes every candidate.
    pair = _selection_arrays(scores)
    if pair is None:
        return heapq.nlargest(limit, scores.items(), key=lambda item: (item[1], -item[0]))
    return _top_pairs(*pair, limit)


def _top_pairs(tids, values, limit: int) -> List[Tuple[int, float]]:
    """The vectorized half of :func:`top_items` (``limit >= 1``)."""
    if limit >= values.size:
        return _ordered_pairs(tids, values)
    keep = np.argpartition(-values, limit - 1)[:limit]
    kth = values[keep].min()
    above = np.flatnonzero(values > kth)
    ties = np.flatnonzero(values == kth)
    fill = np.argsort(tids[ties], kind="stable")[: limit - above.size]
    chosen = np.concatenate([above, ties[fill]])
    return _ordered_pairs(tids[chosen], values[chosen])


def sorted_items(scores: Dict[int, float]) -> List[Tuple[int, float]]:
    """All ``(tid, score)`` items sorted by score desc, tid asc."""
    pair = _selection_arrays(scores)
    if pair is None:
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return _ordered_pairs(*pair)


def select_items(
    scores: Dict[int, float], threshold: float
) -> List[Tuple[int, float]]:
    """``(tid, score)`` items with ``score >= threshold``, score desc / tid asc.

    An :func:`exp_scores` result finalizes only the candidates whose log
    can reach ``log(threshold)``.
    """
    if not scores:
        return []
    logs = _log_pair(scores)
    if logs is not None:
        survivors = _select_deferred(*logs, threshold)
        if survivors is not None:
            return survivors
    pair = _selection_arrays(scores)
    if pair is None:
        survivors = [item for item in scores.items() if item[1] >= threshold]
        survivors.sort(key=lambda item: (-item[1], item[0]))
        return survivors
    tids, values = pair
    keep = values >= threshold
    return _ordered_pairs(tids[keep], values[keep])
