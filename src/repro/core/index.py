"""Inverted index over tokenized tuples.

Every token-based predicate restricts score computation to tuples that share
at least one token with the query (this is exactly what the SQL join between
``BASE_TOKENS`` and ``QUERY_TOKENS`` does in the declarative realization).
The :class:`InvertedIndex` provides that candidate generation step and also
doubles as the per-tuple term-frequency store; the
:class:`WeightedPostingIndex` is its per-predicate counterpart whose postings
carry precomputed score contributions.

Both keep, when numpy is importable, a contiguous array backing beside their
posting lists for the scans of :mod:`repro.core.kernels`.  The inverted index
holds the relation's postings as arrays **once**
(:meth:`InvertedIndex.build_arrays`, run by the first kernelised fit over a
:class:`~repro.core.corpus.CorpusCore` and shared by every later one): per
token an ``int64`` tid array and an ``int64`` term-frequency array, each a
view into one buffer, plus one ``int64`` distinct-token count per tuple.
A weighted index is *derived* from them token by token: its
``(int64 tids, float64 contributions)`` pairs, plus one stored posting count
per token, are all a numpy fit computes (one element-wise expression per
token).  Its Python ``(tid, contribution)`` lists -- what the scalar scans
read and the numpy scans heal on -- are a *scalar view*: the one thing built
outside a fit, once, under a lock, by the first scalar read, from the
predicate's own scalar derivation over the inverted index's posting lists
(never from the arrays).  Without numpy the lists are what the fit computes
and there is nothing to derive later.  A token that drops no posting shares
the inverted index's tid array by reference.  Like the posting lists they
mirror, all arrays are read-only after they are built.
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

__all__ = ["InvertedIndex", "WeightedPostingIndex"]

_tid_of = itemgetter(0)


class InvertedIndex:
    """Maps tokens to the tuples containing them (postings with tf).

    ``term_frequencies`` is the per-tuple ``Counter`` list of ``token_lists``
    when the caller already holds it (a
    :class:`~repro.core.corpus.CorpusCore` counts a relation once and shares
    the list by reference); it is counted here otherwise.

    :meth:`build_arrays` adds the array form of the postings -- what the
    count scan (:func:`repro.core.kernels.count_overlap`) reads and what every
    :class:`WeightedPostingIndex` is derived from.  Without it -- no numpy, or
    no kernelised fit asked -- :meth:`arrays` and :attr:`set_sizes` answer
    ``None``.
    """

    def __init__(
        self,
        token_lists: Sequence[Sequence[str]],
        term_frequencies: Optional[List[Counter]] = None,
    ):
        if term_frequencies is None:
            term_frequencies = [Counter(tokens) for tokens in token_lists]
        self._term_frequencies: List[Counter] = term_frequencies
        postings: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        for tid, counts in enumerate(term_frequencies):
            for token, tf in counts.items():
                postings[token].append((tid, tf))
        self._postings: Dict[str, List[Tuple[int, int]]] = dict(postings)
        #: token -> (int64 tids, int64 tfs) / int64 distinct-token count per
        #: tuple; ``None`` until :meth:`build_arrays` ran.
        self._arrays = None
        self._set_sizes = None
        #: Bytes the posting arrays hold (``None`` while they are not built).
        self.array_bytes: Optional[int] = None

    def build_arrays(self) -> None:
        """Materialize the postings as integer arrays (idempotent).

        Per token one ``int64`` tid array and one ``int64`` term-frequency
        array -- contiguous views into one buffer each, filled in a single
        pass over the posting lists -- and the per-tuple number of distinct
        tokens.  Called from inside a fit -- never lazily by a query, so
        concurrent first queries find them built -- and a no-op when they
        exist or numpy is unavailable.  They are built even while
        ``use_backend("python")`` is forced: forcing is dispatch-only, so a
        fit performed under one backend serves queries under the other.
        """
        np = kernels.np
        if np is None or self._arrays is not None:
            return
        self._set_sizes = np.fromiter(
            map(len, self._term_frequencies),
            dtype=np.int64,
            count=len(self._term_frequencies),
        )
        # Every tuple posts each of its distinct tokens once.
        total = int(self._set_sizes.sum())
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(self._postings.values())),
            dtype=np.int64,
            count=2 * total,
        ).reshape(total, 2)
        tids = np.ascontiguousarray(pairs[:, 0])
        tfs = np.ascontiguousarray(pairs[:, 1])
        arrays = {}
        start = 0
        for token, plist in self._postings.items():
            stop = start + len(plist)
            arrays[token] = (tids[start:stop], tfs[start:stop])
            start = stop
        self._arrays = arrays
        self.array_bytes = tids.nbytes + tfs.nbytes + self._set_sizes.nbytes

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

    def postings(self, token: str) -> List[Tuple[int, int]]:
        """``(tid, tf)`` pairs for every tuple containing ``token``."""
        return self._postings.get(token, [])

    def document_frequency(self, token: str) -> int:
        return len(self._postings.get(token, ()))

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
        backend, a healed numpy call, blockers without an array hook (LSH),
        the edit family and the sharded pre-partition prune.  A numpy
        overlap scan under an exact blocker asks :meth:`candidate_mask`.
        """
        query_tokens = set(tokens)
        probe = query_tokens if blocker is None else blocker.probe_tokens(query_tokens)
        result: Set[int] = set()
        for token in probe:
            for tid, _ in self._postings.get(token, ()):
                result.add(tid)
        if blocker is not None:
            result = blocker.prune(query_tokens, result)
        return result

    def candidate_mask(self, tokens: Iterable[str], blocker: "Blocker"):
        """:meth:`candidates` on the posting arrays, as a boolean mask over
        the relation (``True`` = an allowed candidate).

        For a blocker with :attr:`~repro.blocking.base.Blocker.prunes_arrays`:
        the probe tokens' tid arrays mark the probed candidates (checked in
        step with the posting lists, as the count scan checks them), and
        :meth:`~repro.blocking.base.Blocker.prune_array` narrows them --
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
        overlap: Dict[int, int] = defaultdict(int)
        for token in set(tokens):
            for tid, _ in self._postings.get(token, ()):
                overlap[tid] += 1
        return dict(overlap)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def tokens(self) -> Iterable[str]:
        return self._postings.keys()


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
