"""Inverted index over tokenized tuples.

Every token-based predicate restricts score computation to tuples that share
at least one token with the query (this is exactly what the SQL join between
``BASE_TOKENS`` and ``QUERY_TOKENS`` does in the declarative realization).
The :class:`InvertedIndex` provides that candidate generation step and also
doubles as the per-tuple term-frequency store; the
:class:`WeightedPostingIndex` is its per-predicate counterpart whose postings
carry precomputed score contributions.

The inverted index is built over the relation's per-tuple ``Counter``
objects, which stay its source of truth: one pass over them counts every
token's document frequency (what ``len`` of a posting, the vocabulary order
and the numpy scans' in-step checks read).  When numpy is importable, the
first kernelised fit over a :class:`~repro.core.corpus.CorpusCore` has it
hold the postings as arrays **once** (:meth:`InvertedIndex.build_arrays`,
filled from the ``Counter`` objects and shared by every later fit): per
token an ``int64`` tid array and an ``int64`` term-frequency array, each a
view into one buffer, plus one ``int64`` distinct-token count per tuple.
A weighted index is *derived* from them token by token: its
``(int64 tids, float64 contributions)`` pairs, plus one stored posting count
per token, are all a numpy fit computes (one element-wise expression per
token, or one call of the predicate's formula per distinct integer
``(tf, |D|)`` of a token, gathered).  Both indexes' Python lists --
``(tid, tf)`` and ``(tid, contribution)``, what the scalar scans read and
the numpy scans heal on -- are then *scalar views*: built outside a fit
once, under a lock, by the first scalar read; the inverted index's from the
``Counter`` objects, a weighted index's from the predicate's own scalar
derivation over those lists -- never from the arrays.  A fit whose scans
read the lists (no numpy, the edit family) builds them inside the fit.  A
token that drops no posting shares the inverted index's tid array by
reference.  Like the ``Counter`` objects they mirror, all lists and arrays
are read-only after they are built.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from itertools import chain, compress
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core import kernels
from repro.obs.clock import perf_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (blocking uses text only)
    from repro.blocking.base import Blocker

__all__ = ["InvertedIndex", "WeightedPostingIndex", "distinct_pairs"]

_tid_of = itemgetter(0)


class InvertedIndex:
    """Maps tokens to the tuples containing them (postings with tf).

    ``term_frequencies`` is the per-tuple ``Counter`` list of ``token_lists``
    when the caller already holds it (a
    :class:`~repro.core.corpus.CorpusCore` counts a relation once and shares
    the list by reference); it is counted here otherwise.

    The ``Counter`` objects are the index's source of truth.  Construction
    makes one pass over them, ``Counter(chain.from_iterable(counters))``,
    which yields the document frequency of every token in vocabulary order
    (first seen, tuples in tid order): :meth:`tokens`,
    :meth:`document_frequency` and the numpy scans' in-step length checks
    read it.  Two forms of the postings are derived from the ``Counter``
    objects, each only when something reads it:

    * the **posting arrays** (:meth:`build_arrays`, run by a kernelised
      fit): per token an ``int64`` tid array and an ``int64`` term-frequency
      array -- what the count scan reads and every
      :class:`WeightedPostingIndex` is derived from;
    * the **posting lists**, per token ``(tid, tf)`` tuples in tid order --
      what the scalar loops read.  They are a view like a weighted index's
      scalar view: built once, under a lock, assigned whole, by the first
      :meth:`postings` / :meth:`candidates` / :meth:`candidate_overlap` call
      (a forced ``use_backend("python")`` scope, a numpy scan healing on
      them, a blocker without an array hook) or by a fit whose scans read
      them (:meth:`build_posting_lists`: the scalar legs, the edit family).
      They are derived from the ``Counter`` objects, never from the arrays,
      so a heal does not read what it is healing from.

    Without the arrays -- no numpy, or no kernelised fit asked --
    :meth:`arrays` and :attr:`set_sizes` answer ``None``.
    """

    def __init__(
        self,
        token_lists: Sequence[Sequence[str]],
        term_frequencies: Optional[List[Counter]] = None,
    ):
        if term_frequencies is None:
            term_frequencies = [Counter(tokens) for tokens in token_lists]
        self._term_frequencies: List[Counter] = term_frequencies
        #: token -> number of tuples containing it, in vocabulary order.
        self._document_frequencies: Dict[str, int] = dict(
            Counter(chain.from_iterable(term_frequencies))
        )
        #: token -> (int64 tids, int64 tfs) / int64 distinct-token count per
        #: tuple; ``None`` until :meth:`build_arrays` ran.
        self._arrays = None
        self._set_sizes = None
        #: The one tid and one tf buffer the per-token arrays are views of
        #: (token-major, vocabulary order) and each token's start offset in
        #: them, plus the total; ``None`` until :meth:`build_arrays` ran.
        self._buffers = None
        #: Bytes the posting arrays hold (``None`` while they are not built).
        self.array_bytes: Optional[int] = None
        #: Seconds deriving the posting lists took and what asked for them
        #: (``"fit"`` / ``"forced backend"`` / ``"heal"``); ``None`` while
        #: they are unbuilt.
        self.lists_seconds: Optional[float] = None
        self.lists_cause: Optional[str] = None
        self._lists_lock = threading.Lock()
        #: token -> [(tid, tf)]; ``None`` while the list view is unbuilt.
        #: Assigned whole, never filled in place.
        self._postings: Optional[Dict[str, List[Tuple[int, int]]]] = None  # guarded-by: _lists_lock

    def build_arrays(self) -> None:
        """Materialize the postings as integer arrays (idempotent).

        Filled from the ``Counter`` objects: one ``np.fromiter`` of every
        tuple's token ids and one of its term frequencies, tuples in tid
        order, then one stable sort by token id -- so each token's postings
        come out in tid order, as contiguous views into one tid and one tf
        buffer -- and the per-tuple number of distinct tokens.  Called from
        inside a fit -- never lazily by a query, so concurrent first queries
        find them built -- and a no-op when they exist or numpy is
        unavailable.  They are built even while ``use_backend("python")`` is
        forced: forcing is dispatch-only, so a fit performed under one
        backend serves queries under the other.
        """
        np = kernels.np
        if np is None or self._arrays is not None:
            return
        counters = self._term_frequencies
        vocabulary = self._document_frequencies
        set_sizes = np.fromiter(map(len, counters), dtype=np.int64, count=len(counters))
        # Every tuple posts each of its distinct tokens once.
        total = int(set_sizes.sum())
        token_id = {token: position for position, token in enumerate(vocabulary)}
        # The narrowest unsigned type that holds every id: up to 65,536
        # tokens numpy's stable sort is then a radix sort.
        token_ids = np.fromiter(
            map(token_id.__getitem__, chain.from_iterable(counters)),
            dtype=np.min_scalar_type(len(vocabulary)),
            count=total,
        )
        tf_values = np.fromiter(
            chain.from_iterable(map(Counter.values, counters)),
            dtype=np.int64,
            count=total,
        )
        order = np.argsort(token_ids, kind="stable")
        tids = np.repeat(np.arange(len(counters), dtype=np.int64), set_sizes)[order]
        tfs = tf_values[order]
        bounds = np.zeros(len(vocabulary) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(vocabulary.values(), dtype=np.int64, count=len(vocabulary)),
            out=bounds[1:],
        )
        edges = bounds.tolist()
        self._arrays = {
            token: (tids[start:stop], tfs[start:stop])
            for token, start, stop in zip(vocabulary, edges, edges[1:])
        }
        self._buffers = (tids, tfs, bounds)
        self._set_sizes = set_sizes
        self.array_bytes = tids.nbytes + tfs.nbytes + set_sizes.nbytes

    def arrays(self, token: str):
        """``postings(token)`` as ``(int64 tids, int64 tfs)`` arrays, or
        ``None`` (token without postings, or arrays not built)."""
        if self._arrays is None:
            return None
        return self._arrays.get(token)

    @property
    def set_sizes(self):
        """``int64`` array of distinct tokens per tuple (``len`` of the
        tuple's token set), or ``None`` when the arrays are not built."""
        return self._set_sizes

    @property
    def num_tuples(self) -> int:
        return len(self._term_frequencies)

    # -- collection statistics read token-major --------------------------------

    @property
    def document_frequencies(self) -> Dict[str, int]:
        """token -> number of tuples containing it, in vocabulary order
        (shared, read-only)."""
        return self._document_frequencies

    def collection_frequencies(self) -> Dict[str, int]:
        """token -> total occurrences (``cf``), in vocabulary order: per
        token the ``int64`` sum of its tf array when the arrays are built
        (exact integers, so the summation order is immaterial), else summed
        over the ``Counter`` objects."""
        vocabulary = self._document_frequencies
        if self._buffers is None:
            sums = dict.fromkeys(vocabulary, 0)
            for counts in self._term_frequencies:
                for token, tf in counts.items():
                    sums[token] += tf
            return sums
        tfs, bounds = self._buffers[1], self._buffers[2]
        return dict(zip(vocabulary, kernels.np.add.reduceat(tfs, bounds[:-1]).tolist()))

    def tf_ratio_sums(self, divisors: Sequence[int]) -> Optional[Dict[str, float]]:
        """token -> ``Σ tf / divisors[tid]`` over its postings, added one
        posting at a time in tid order (``np.add.accumulate``: sequential,
        never numpy's pairwise summation), in vocabulary order -- the float
        sums a tuple-major loop over the ``Counter`` objects produces, bit
        for bit (``int64 / int64`` is the correctly rounded quotient, as
        Python's ``int / int`` is).  ``None`` while the arrays are unbuilt.
        """
        if self._buffers is None:
            return None
        np = kernels.np
        tids, tfs, bounds = self._buffers
        ratios = tfs / np.asarray(divisors, dtype=np.int64)[tids]
        edges = bounds.tolist()
        accumulate = np.add.accumulate
        return {
            token: float(accumulate(ratios[start:stop])[-1])
            for token, start, stop in zip(self._document_frequencies, edges, edges[1:])
        }

    # -- the posting lists (scalar view) -----------------------------------------

    def build_posting_lists(
        self, cause: Optional[str] = None
    ) -> Dict[str, List[Tuple[int, int]]]:
        """Derive the ``(tid, tf)`` lists from the ``Counter`` objects: once,
        under the lock, assigned whole.  A fit whose scans read them passes
        ``cause="fit"``; a first scalar read is a forced scalar scope or --
        the numpy backend being active -- a heal."""
        with self._lists_lock:
            if self._postings is None:
                if cause is None:
                    cause = "forced backend" if kernels.active_backend() == "python" else "heal"
                started = perf_clock()
                postings: Dict[str, List[Tuple[int, int]]] = {
                    token: [] for token in self._document_frequencies
                }
                for tid, counts in enumerate(self._term_frequencies):
                    for token, tf in counts.items():
                        postings[token].append((tid, tf))
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
            f"({sum(map(len, self._term_frequencies))} postings, "
            f"cause: {self.lists_cause})"
        )

    def postings(self, token: str) -> List[Tuple[int, int]]:
        """``(tid, tf)`` pairs for every tuple containing ``token`` (the
        posting lists: the first call derives them)."""
        return self._posting_lists().get(token, [])

    def document_frequency(self, token: str) -> int:
        """Tuples containing ``token``, from the ``Counter`` pass -- what the
        numpy scans check their scanned lengths against, without touching
        either posting form."""
        return self._document_frequencies.get(token, 0)

    def term_frequencies(self, tid: int) -> Counter:
        return self._term_frequencies[tid]

    def candidates(
        self, tokens: Iterable[str], blocker: Optional["Blocker"] = None
    ) -> Set[int]:
        """All tuple ids sharing at least one token with ``tokens``.

        With a :class:`~repro.blocking.base.Blocker`, only the blocker's probe
        tokens are looked up (prefix filtering touches just the rare postings)
        and the resulting set is pruned of candidates that cannot reach the
        blocker's threshold.

        This is the set path, kept where no arrays answer: the scalar
        backend, a healed numpy call, blockers without an array hook (LSH)
        and the edit family.  A numpy overlap scan under an exact blocker
        asks :meth:`candidate_mask`.
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
        :meth:`candidates`, without a Python set.  Needs :meth:`build_arrays`.
        """
        np = kernels.np
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

    def candidate_overlap(self, tokens: Iterable[str]) -> Dict[int, int]:
        """Number of *distinct* shared tokens per candidate tuple."""
        postings = self._posting_lists()
        overlap: Dict[int, int] = defaultdict(int)
        for token in set(tokens):
            for tid, _ in postings.get(token, ()):
                overlap[tid] += 1
        return dict(overlap)

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


def distinct_pairs(tids, tfs, lengths):
    """A token's postings grouped by their integer ``(tf, lengths[tid])``.

    ``tids`` / ``tfs`` are one token's posting arrays and ``lengths`` an
    ``int64`` array of tuple lengths, each at least every ``tf`` of its
    tuple.  Returns ``(pairs, inverse)``: the distinct pairs as Python
    ``(tf, length)`` ints, ascending, and for each posting the position of
    its pair -- so a per-posting function of ``(tf, |D|)`` is called once per
    pair and gathered with ``inverse``, ``==`` to calling it per posting.
    """
    np = kernels.np
    token_lengths = lengths[tids]
    # tf <= |D| < radix: one integer key per pair, decoded by divmod.
    radix = int(token_lengths.max()) + 1
    keys, inverse = np.unique(tfs * radix + token_lengths, return_inverse=True)
    return [divmod(key, radix) for key in keys.tolist()], inverse


_EMPTY_POSTINGS: List[Tuple[int, float]] = []

_TokenValues = Iterable[Tuple[str, Sequence[float]]]


class WeightedPostingIndex:
    """Per-token postings carrying precomputed score contributions.

    Weighted predicates score ``sim(Q, D) = Σ wq(t, Q) * c(t, D)`` where the
    document-side factor ``c(t, D)`` (normalized tf-idf product, BM25 term
    partial, RS weight, ...) depends only on the base relation.  Recomputing
    it per candidate per query is the direct realization's hot-path tax; this
    index stores it *in the posting itself* at fit time, so query-time
    accumulation is one flat loop over precomputed floats.

    Parameters
    ----------
    index:
        The relation's :class:`InvertedIndex`.  Its posting order is this
        index's posting order, and its arrays (built here if no fit has yet)
        are what ``token_values`` are computed over.
    token_values:
        ``(token, values)`` pairs, at most one per token of ``index``, in
        whatever token order the deriving predicate needs: ``values`` holds
        one contribution per posting of ``index.postings(token)``, aligned
        with it -- a ``float64`` array (the product of an element-wise
        expression over ``index.arrays(token)``) or a sequence of floats.
        Consumed once, inside the fit.
    scalar_values:
        The predicate's own scalar derivation as a bound method: called with
        no argument it yields the same ``(token, values)`` pairs with
        ``values`` a sequence of Python floats, and has no side effect.  It
        is what :meth:`postings` is derived from after a numpy fit (see
        below) and is never called without numpy, where ``token_values``
        already are those pairs.
    keep_zeros:
        Postings contributing exactly ``0.0`` are dropped -- the accumulation
        loops would skip them -- unless candidate membership must include
        them (the language models: such a tuple still scores
        ``exp(sum_complement)``).  A token left without postings is absent.

    A fit builds only what its scans read.  With numpy (the ``fast`` extra)
    that is one ``(int64 tids, float64 contributions)`` pair per token, which
    the vectorized kernels (:mod:`repro.core.kernels`) accumulate at C speed,
    plus one ``int`` posting count per token (:meth:`posting_count`: what
    ``in`` / ``len`` and the numpy scan's in-step check read).  The
    ``(tid, contribution)`` lists the scalar loops read are then a **scalar
    view**: derived once, under a lock, by the first :meth:`postings` call --
    a forced ``use_backend("python")`` scope or the numpy -> scalar ladder
    healing a failed scan -- by re-running ``scalar_values`` over the
    inverted index's posting lists, never by copying the arrays, so a heal
    does not read what it is healing from.  Without numpy :meth:`arrays`
    returns ``None`` and the lists are what the fit itself computes.
    """

    def __init__(
        self,
        index: InvertedIndex,
        token_values: _TokenValues,
        scalar_values: Callable[[], _TokenValues],
        keep_zeros: bool = False,
    ):
        np = kernels.np
        index.build_arrays()  # a no-op after a kernelised tokenize phase
        self._index = index
        self._scalar_values = scalar_values
        self._keep_zeros = keep_zeros
        self._arrays = None if np is None else {}
        #: token -> number of postings stored (tokens left without are absent).
        self._counts: Dict[str, int] = {}
        #: Seconds deriving the scalar view took and what asked for it
        #: (``"forced backend"`` / ``"heal"``); ``None`` while it is unbuilt
        #: and after a fit without numpy, whose lists are the fit's product.
        self.view_seconds: Optional[float] = None
        self.view_cause: Optional[str] = None
        #: Postings stored / postings left out for contributing exactly 0.0.
        self.num_postings = 0
        self.zero_dropped = 0
        postings: Optional[Dict[str, List[Tuple[int, float]]]] = (
            {} if np is None else None
        )
        for token, values in token_values:
            if postings is not None:
                plist = self._posting_list(token, values)
                count = len(plist)
                if count:
                    postings[token] = plist
            else:
                tid_array = index.arrays(token)[0]
                contributions = np.asarray(values, dtype=np.float64)
                if not keep_zeros:
                    keep = contributions != 0.0
                    if not keep.all():
                        tid_array, contributions = tid_array[keep], contributions[keep]
                count = int(contributions.size)
                if count:
                    self._arrays[token] = (tid_array, contributions)
            self.zero_dropped += index.document_frequency(token) - count
            if count:
                self._counts[token] = count
                self.num_postings += count
        self._view_lock = threading.Lock()
        #: token -> [(tid, contribution)]; ``None`` while the scalar view is
        #: unbuilt.  Assigned whole, never filled in place.
        self._view = postings  # guarded-by: _view_lock

    def _posting_list(
        self, token: str, values: Sequence[float]
    ) -> List[Tuple[int, float]]:
        """``token``'s ``(tid, contribution)`` list from its scalar values,
        zipping the inverted index's own tid objects."""
        tids = map(_tid_of, self._index.postings(token))
        if not self._keep_zeros:
            keep = [value != 0.0 for value in values]
            if not all(keep):
                tids, values = compress(tids, keep), compress(values, keep)
        return list(zip(tids, values))

    def _build_scalar_view(self) -> Dict[str, List[Tuple[int, float]]]:
        """Derive the posting lists from the predicate's scalar derivation:
        once, under the lock, assigned whole."""
        with self._view_lock:
            if self._view is None:
                # Who is asking: a forced scalar scope, or -- the numpy
                # backend being active -- the ladder healing a failed scan.
                cause = "forced backend" if kernels.active_backend() == "python" else "heal"
                started = perf_clock()
                view = {}
                for token, values in self._scalar_values():
                    plist = self._posting_list(token, values)
                    if plist:
                        view[token] = plist
                self.view_seconds, self.view_cause = perf_clock() - started, cause
                self._view = view
                kernels.count_op("scalar_view_build")
            return self._view

    @property
    def scalar_view_built(self) -> bool:
        """Whether the ``(tid, contribution)`` lists exist (always, without
        numpy; after the first :meth:`postings` call otherwise)."""
        return self._view is not None  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an attribute that is assigned whole, once

    def describe_scalar_view(self) -> str:
        """``not built`` / ``built in X ms (N postings, cause: ...)``."""
        if not self.scalar_view_built:
            return "not built"
        if self.view_seconds is None:
            return "the fit's own postings (no numpy)"
        return (
            f"built in {self.view_seconds * 1e3:.1f} ms "
            f"({self.num_postings} postings, cause: {self.view_cause})"
        )

    def postings(self, token: str) -> List[Tuple[int, float]]:
        """``(tid, contribution)`` pairs for every tuple ``token`` scores on
        (the scalar view: the first call after a numpy fit derives it)."""
        view = self._view  # repro-analysis: disable=RPL004 reason=GIL-atomic read of an attribute that is assigned whole, once; None falls through to the locked build
        if view is None:
            view = self._build_scalar_view()
        return view.get(token, _EMPTY_POSTINGS)

    def posting_count(self, token: str) -> int:
        """``len(postings(token))`` from the count the fit stored -- without
        touching the scalar view."""
        return self._counts.get(token, 0)

    def arrays(self, token: str):
        """``(int64 tids, float64 contributions)`` arrays, or ``None``.

        ``None`` either because numpy is unavailable or because the token has
        no postings.
        """
        if self._arrays is None:
            return None
        return self._arrays.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __getstate__(self):
        # A lock does not pickle (fitted shards travel to and from worker
        # processes); the copy gets its own.
        state = self.__dict__.copy()
        del state["_view_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._view_lock = threading.Lock()
