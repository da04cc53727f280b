"""Inverted index over tokenized tuples.

Every token-based predicate restricts score computation to tuples that share
at least one token with the query (this is exactly what the SQL join between
``BASE_TOKENS`` and ``QUERY_TOKENS`` does in the declarative realization).
The :class:`InvertedIndex` provides that candidate generation step; the
:class:`WeightedPostingIndex` is its per-predicate counterpart whose postings
carry precomputed score contributions.

The inverted index is built straight from the relation's token lists, which
are its source of truth, in one interned pass at construction: every token
occurrence gets an integer id (tokens numbered in vocabulary order, first
seen, tuples in tid order), one ``np.unique`` over ``tid * V + id`` finds
each tuple's distinct tokens and their term frequencies, and one
``np.bincount`` their document frequencies.  From those it holds

* the **tuple-major** arrays: per tuple its distinct token ids and term
  frequencies in first-occurrence order -- the key order of
  ``Counter(tokens)`` -- which the cosine norm is reduced over;
* the **posting arrays**: per token an ``int64`` tid array and an ``int64``
  term-frequency array, each a view into one buffer (one stable radix sort
  of the tuple-major arrays by token id), plus one ``int64`` distinct-token
  count per tuple;
* the **document frequencies**, a dict counted at build time, apart from
  both: what ``len`` of a posting, the vocabulary order and the scans'
  in-step checks read.

A weighted index is *derived* from the posting arrays token by token: its
``(int64 tids, float64 contributions)`` pairs, plus one stored posting count
per token, are all a fit computes (one element-wise expression per token,
or one call of the predicate's formula per distinct integer ``(token, tf,
|D|)``, gathered: :meth:`InvertedIndex.distinct_postings`).  A token that
drops no posting shares the inverted index's tid array by reference.

No per-tuple ``Counter`` is built: :meth:`InvertedIndex.term_frequencies`
counts one tuple's list when a single-tuple ``score()`` asks.  The Python
``(tid, tf)`` lists are read by the readers without arrays -- the edit
family, LSH's candidate set -- and are derived from the posting arrays
once, under a lock: inside the fit of a predicate whose scans read them,
else on the first read.  All lists and arrays are read-only after they are
built.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.obs.clock import perf_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (blocking uses text only)
    from repro.blocking.base import Blocker

__all__ = ["InvertedIndex", "WeightedPostingIndex"]

#: Postings :meth:`InvertedIndex.distinct_postings` groups per ``np.unique``.
_GROUP_POSTINGS = 1 << 15

class InvertedIndex:
    """Maps tokens to the tuples containing them (postings with tf).

    ``token_lists`` -- one token list per tuple, in tid order -- is held by
    reference (a :class:`~repro.core.corpus.CorpusCore` shares its own) and
    never mutated.  Construction is one interned pass over it (see the
    module docstring) that builds the vocabulary, the document frequencies,
    the tuple-major arrays and the posting arrays; nothing is built from a
    ``Counter``.  The posting **lists**, per token ``(tid, tf)`` tuples in
    tid order, are what the readers without arrays read (the edit family, a
    blocker without an array hook): derived from the posting arrays once,
    under a lock, assigned whole, by a fit whose scans read them
    (:meth:`build_posting_lists`) or by the first :meth:`postings` /
    :meth:`candidates` call.
    """

    def __init__(self, token_lists: Sequence[Sequence[str]]):
        self._token_lists = token_lists
        num_tuples = len(token_lists)
        #: token -> id, in vocabulary order (first seen, tuples in tid order).
        vocabulary = dict.fromkeys(chain.from_iterable(token_lists))
        size = len(vocabulary)
        token_id = dict(zip(vocabulary, range(size)))
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=num_tuples)
        # One key per occurrence, tid * V + id, built in place: the narrowest
        # unsigned type holds every id.
        keys = np.repeat(np.arange(num_tuples, dtype=np.int64) * size, lengths)
        keys += np.fromiter(
            map(token_id.__getitem__, chain.from_iterable(token_lists)),
            dtype=np.min_scalar_type(size),
            count=keys.size,
        )
        # np.unique's first index of each key is the token's first occurrence
        # in its tuple, so marking the firsts keeps each tuple's distinct
        # tokens in Counter key order.
        firsts, counts = np.unique(keys, return_index=True, return_counts=True)[1:]
        first = np.zeros(keys.size, dtype=bool)
        first[firsts] = True
        tf_at = np.zeros(keys.size, dtype=np.int64)
        tf_at[firsts] = counts
        tuple_tfs = tf_at[first]
        tuple_tids, tuple_ids = np.divmod(keys[first], max(size, 1))
        del keys, tf_at
        # Kept in the narrowest unsigned types (the cosine fit is their one
        # reader); up to 65,536 tokens numpy's stable sort by id is then a
        # radix sort.
        tuple_ids = tuple_ids.astype(np.min_scalar_type(size))
        set_sizes = np.bincount(tuple_tids, minlength=num_tuples)
        #: token -> number of tuples containing it, in vocabulary order:
        #: counted here, apart from the arrays the scans check against it.
        self._document_frequencies: Dict[str, int] = dict(
            zip(vocabulary, np.bincount(tuple_ids, minlength=size).tolist())
        )
        order = np.argsort(tuple_ids, kind="stable")
        tids, tfs = tuple_tids[order], tuple_tfs[order]
        bounds = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(self._document_frequencies.values(), dtype=np.int64, count=size),
            out=bounds[1:],
        )
        edges = bounds.tolist()
        #: token -> (int64 tids, int64 tfs), views into the buffers below.
        self._arrays = {
            token: (tids[start:stop], tfs[start:stop])
            for token, start, stop in zip(vocabulary, edges, edges[1:])
        }
        #: The one tid and one tf buffer the per-token arrays are views of
        #: (token-major, vocabulary order) and each token's start offset in
        #: them, plus the total.
        self._buffers = (tids, tfs, bounds)
        #: Per tuple its distinct token ids and tfs in first-occurrence order,
        #: tuple after tuple (``set_sizes`` long each).
        self._tuple_major = (
            tuple_ids,
            tuple_tfs.astype(np.min_scalar_type(int(tuple_tfs.max(initial=0)))),
        )
        self._set_sizes = set_sizes
        #: Bytes the arrays hold.
        self.array_bytes: int = sum(
            array.nbytes for array in (tids, tfs, set_sizes, *self._tuple_major)
        )
        #: Seconds deriving the posting lists took and what asked for them
        #: (``"fit"`` / ``"first read"``); ``None`` while they are unbuilt.
        self.lists_seconds: Optional[float] = None
        self.lists_cause: Optional[str] = None
        self._lists_lock = threading.Lock()
        #: token -> [(tid, tf)]; ``None`` while the list view is unbuilt.
        #: Assigned whole, never filled in place.
        self._postings: Optional[Dict[str, List[Tuple[int, int]]]] = None  # guarded-by: _lists_lock

    def arrays(self, token: str):
        """``postings(token)`` as ``(int64 tids, int64 tfs)`` arrays, or
        ``None`` (a token without postings)."""
        return self._arrays.get(token)

    @property
    def set_sizes(self):
        """``int64`` array of distinct tokens per tuple (``len`` of the
        tuple's token set)."""
        return self._set_sizes

    def tuple_major(self):
        """``(ids, tfs, bounds)``: per tuple its distinct token ids
        (positions in :meth:`tokens`) and their term frequencies, in
        first-occurrence order -- ``Counter(tokens)``'s key order -- tuple
        ``t``'s at ``bounds[t]:bounds[t + 1]``.  ``ids`` and ``tfs`` are of
        the narrowest unsigned types that hold them, ``bounds`` ``int64``."""
        bounds = np.zeros(self._set_sizes.size + 1, dtype=np.int64)
        np.cumsum(self._set_sizes, out=bounds[1:])
        return (*self._tuple_major, bounds)

    @property
    def num_tuples(self) -> int:
        return len(self._token_lists)

    # -- collection statistics read token-major --------------------------------

    @property
    def document_frequencies(self) -> Dict[str, int]:
        """token -> number of tuples containing it, in vocabulary order
        (shared, read-only)."""
        return self._document_frequencies

    def collection_frequencies(self) -> Dict[str, int]:
        """token -> total occurrences (``cf``), in vocabulary order: per
        token the ``int64`` sum of its tf array (exact integers, so the
        summation order is immaterial)."""
        tfs, bounds = self._buffers[1], self._buffers[2]
        return dict(
            zip(self._document_frequencies, np.add.reduceat(tfs, bounds[:-1]).tolist())
        )

    def tf_ratio_sums(self, divisors: Sequence[int]) -> Dict[str, float]:
        """token -> ``Σ tf / divisors[tid]`` over its postings, added one
        posting at a time in tid order (``np.add.accumulate``: sequential,
        never numpy's pairwise summation), in vocabulary order -- the float
        sums a tuple-major loop over the tuples' term frequencies produces,
        bit for bit (``int64 / int64`` is the correctly rounded quotient, as
        Python's ``int / int`` is).
        """
        tids, tfs, bounds = self._buffers
        ratios = tfs / np.asarray(divisors, dtype=np.int64)[tids]
        edges = bounds.tolist()
        accumulate = np.add.accumulate
        return {
            token: float(accumulate(ratios[start:stop])[-1])
            for token, start, stop in zip(self._document_frequencies, edges, edges[1:])
        }

    def distinct_postings(self, lengths):
        """The postings grouped by their integer ``(token, tf, lengths[tid])``.

        ``lengths`` is an ``int64`` array of tuple lengths, each at least
        every ``tf`` of its tuple.  Returns ``(triples, inverse)``: an
        iterator over the distinct triples as Python ``(token id, tf,
        length)`` ints, ascending, and for each posting of the token-major
        buffers (token ``i``'s at ``bounds[i]:bounds[i + 1]`` of
        :meth:`posting_buffers`) the position of its triple -- so a
        per-posting function of ``(token, tf, |D|)`` is called once per
        triple and gathered with ``inverse``, ``==`` to calling it per
        posting.

        Runs of consecutive tokens holding about ``_GROUP_POSTINGS``
        postings are grouped at a time (two ``np.unique`` each: the ``(tf,
        |D|)`` pairs numbered densely, then ``(token, pair)``), so the
        sort's scratch arrays stay a few hundred kilobytes whatever the
        relation's size, and no key can overflow.
        """
        tids, tfs, bounds = self._buffers
        # tf <= |D| < radix: one integer key per (tf, |D|) pair.
        radix = int(lengths.max(initial=0)) + 1
        inverse = np.empty(tids.size, dtype=np.intp)
        token_parts, pair_parts = [], []
        found = first = 0
        edges = bounds.tolist()
        while first < len(edges) - 1:
            # Tokens first..last-1: at most _GROUP_POSTINGS postings, or one token.
            last = max(first + 1, bisect_right(edges, edges[first] + _GROUP_POSTINGS) - 1)
            start, stop = edges[first], edges[last]
            pair_keys = tfs[start:stop] * radix
            pair_keys += lengths[tids[start:stop]]
            pair_values, keys = np.unique(pair_keys, return_inverse=True)
            keys += np.repeat(
                np.arange(last - first, dtype=np.int64) * pair_values.size,
                np.diff(bounds[first : last + 1]),
            )
            keys, inverse[start:stop] = np.unique(keys, return_inverse=True)
            inverse[start:stop] += found
            found += keys.size
            token_ids, pair_ids = np.divmod(keys, pair_values.size)
            token_parts.append((token_ids + first).tolist())
            pair_parts.append(pair_values[pair_ids])
            first = last
        tf_values, length_values = np.divmod(np.concatenate([tids[:0], *pair_parts]), radix)
        return (
            zip(chain.from_iterable(token_parts), tf_values.tolist(), length_values.tolist()),
            inverse,
        )

    def posting_buffers(self):
        """``(tids, tfs, bounds)``: the token-major ``int64`` buffers every
        :meth:`arrays` pair is a view of, token ``i`` (the ``i``-th of
        :meth:`tokens`) at ``bounds[i]:bounds[i + 1]``."""
        return self._buffers

    # -- the posting lists ---------------------------------------------------------

    def build_posting_lists(
        self, cause: str = "first read"
    ) -> Dict[str, List[Tuple[int, int]]]:
        """Derive the ``(tid, tf)`` lists from the posting buffers: once,
        under the lock, assigned whole.  A fit whose scans read them passes
        ``cause="fit"``."""
        with self._lists_lock:
            if self._postings is None:
                started = perf_clock()
                tids, tfs, bounds = self._buffers
                pairs = list(zip(tids.tolist(), tfs.tolist()))
                edges = bounds.tolist()
                postings = {
                    token: pairs[start:stop]
                    for token, start, stop in zip(
                        self._document_frequencies, edges, edges[1:]
                    )
                }
                self.lists_seconds, self.lists_cause = perf_clock() - started, cause
                self._postings = postings
            return self._postings

    def _posting_lists(self) -> Dict[str, List[Tuple[int, int]]]:
        postings = self._postings  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an attribute that is assigned whole, once; None falls through to the locked build
        if postings is None:
            postings = self.build_posting_lists()
        return postings

    @property
    def posting_lists_built(self) -> bool:
        """Whether the ``(tid, tf)`` lists exist."""
        return self._postings is not None  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an attribute that is assigned whole, once

    def describe_posting_lists(self) -> str:
        """``not built`` / ``built in X ms (N postings, cause: ...)``."""
        if not self.posting_lists_built:
            return "not built"
        return (
            f"built in {self.lists_seconds * 1e3:.1f} ms "
            f"({self._buffers[2][-1]} postings, "
            f"cause: {self.lists_cause})"
        )

    def postings(self, token: str) -> List[Tuple[int, int]]:
        """``(tid, tf)`` pairs for every tuple containing ``token`` (the
        posting lists: the first call derives them)."""
        return self._posting_lists().get(token, [])

    def document_frequency(self, token: str) -> int:
        """Tuples containing ``token``, counted at build time -- what the
        scans check their scanned lengths against, without touching
        either posting form."""
        return self._document_frequencies.get(token, 0)

    def term_frequencies(self, tid: int) -> Counter:
        """``tf(t, D)`` of tuple ``tid``: its token list counted per call
        (keys in first-occurrence order), for the single-tuple paths."""
        return Counter(self._token_lists[tid])

    def candidates(
        self, tokens: Iterable[str], blocker: Optional["Blocker"] = None
    ) -> Set[int]:
        """All tuple ids sharing at least one token with ``tokens``.

        With a :class:`~repro.blocking.base.Blocker`, only the blocker's probe
        tokens are looked up (prefix filtering touches just the rare postings)
        and the resulting set is pruned of candidates that cannot reach the
        blocker's threshold.

        This is the set path, kept where no arrays answer: blockers without
        an array hook (LSH) and the edit family.  An overlap scan under an
        exact blocker asks :meth:`candidate_mask`.
        """
        query_tokens = set(tokens)
        probe = query_tokens if blocker is None else blocker.probe_tokens(query_tokens)
        postings = self._posting_lists()
        result: Set[int] = set()
        for token in probe:
            for tid, _ in postings.get(token, ()):
                result.add(tid)
        if blocker is not None:
            result = blocker.prune(query_tokens, result)
        return result

    def candidate_mask(self, tokens: Iterable[str], blocker: "Blocker"):
        """:meth:`candidates` on the posting arrays, as a boolean mask over
        the relation (``True`` = an allowed candidate).

        For a blocker with :attr:`~repro.blocking.base.Blocker.prunes_arrays`:
        the probe tokens' tid arrays mark the probed candidates (checked in
        step with the document frequencies, as the count scan checks them),
        and :meth:`~repro.blocking.base.Blocker.prune_array` narrows them --
        the same candidates and the same blocker statistics as
        :meth:`candidates`, without a Python set.
        """
        query_tokens = set(tokens)
        member = np.zeros(self.num_tuples, dtype=bool)
        probed = kernels.posting_tids(self, blocker.probe_tokens(query_tokens))
        if probed is not None:
            member[probed] = True
        candidates = np.flatnonzero(member)
        survivors = blocker.prune_array(query_tokens, candidates, self)
        if survivors.size < candidates.size:
            member[:] = False
            member[survivors] = True
        return member

    def vocabulary_size(self) -> int:
        return len(self._document_frequencies)

    def tokens(self) -> Iterable[str]:
        """Every token, in vocabulary order (first seen, tuples in tid order)."""
        return self._document_frequencies.keys()

    def __getstate__(self):
        # A lock does not pickle (fitted shards travel to and from worker
        # processes); the copy gets its own.
        state = self.__dict__.copy()
        del state["_lists_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lists_lock = threading.Lock()


_TokenValues = Iterable[Tuple[str, Sequence[float]]]


class WeightedPostingIndex:
    """Per-token postings carrying precomputed score contributions.

    Weighted predicates score ``sim(Q, D) = Σ wq(t, Q) * c(t, D)`` where the
    document-side factor ``c(t, D)`` (normalized tf-idf product, BM25 term
    partial, RS weight, ...) depends only on the base relation.  Recomputing
    it per candidate per query is the direct realization's hot-path tax; this
    index stores it *in the posting itself* at fit time, so query-time
    accumulation is one scatter-add over precomputed floats
    (:func:`repro.core.kernels.accumulate`).

    Parameters
    ----------
    index:
        The relation's :class:`InvertedIndex`.  Its posting order is this
        index's posting order, and its arrays are what ``token_values`` are
        computed over.
    token_values:
        ``(token, values)`` pairs, at most one per token of ``index``, in
        whatever token order the deriving predicate needs: ``values`` holds
        one contribution per posting of ``index.arrays(token)``, aligned
        with it -- a ``float64`` array (the product of an element-wise
        expression over the token's arrays) or a sequence of floats.
        Consumed once, inside the fit.
    keep_zeros:
        Postings contributing exactly ``0.0`` are dropped -- they would add
        nothing -- unless candidate membership must include them (the
        language models: such a tuple still scores ``exp(sum_complement)``).
        A token left without postings is absent.

    A fit builds one ``(int64 tids, float64 contributions)`` pair per token
    plus one ``int`` posting count per token (:meth:`posting_count`: what
    ``in`` / ``len`` and the scan's in-step check read).
    """

    def __init__(
        self,
        index: InvertedIndex,
        token_values: _TokenValues,
        keep_zeros: bool = False,
    ):
        self._arrays: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: token -> number of postings stored (tokens left without are absent).
        self._counts: Dict[str, int] = {}
        #: Postings stored / postings left out for contributing exactly 0.0.
        self.num_postings = 0
        self.zero_dropped = 0
        for token, values in token_values:
            tid_array = index.arrays(token)[0]
            contributions = np.asarray(values, dtype=np.float64)
            if not keep_zeros:
                keep = contributions != 0.0
                if not keep.all():
                    tid_array, contributions = tid_array[keep], contributions[keep]
            count = int(contributions.size)
            self.zero_dropped += index.document_frequency(token) - count
            if count:
                self._arrays[token] = (tid_array, contributions)
                self._counts[token] = count
                self.num_postings += count

    def posting_count(self, token: str) -> int:
        """Postings stored for ``token``, from the count the fit stored."""
        return self._counts.get(token, 0)

    def arrays(self, token: str):
        """``(int64 tids, float64 contributions)`` arrays, or ``None`` (the
        token has no postings)."""
        return self._arrays.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._counts

    def __len__(self) -> int:
        return len(self._counts)
