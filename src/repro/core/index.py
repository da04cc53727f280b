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
``(int64 tids, float64 contributions)`` pairs are what a fit computes (one
element-wise expression per token), and its Python posting lists are copied
from those arrays inside the same fit -- the independent copy the scalar
scans read and the numpy scans heal from.  A token that drops no posting
shares the inverted index's tid array by reference.  Like the posting lists
they mirror, all arrays are read-only after they are built.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import kernels

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


class WeightedPostingIndex:
    """Per-token posting lists carrying precomputed score contributions.

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
        are what ``values`` are computed over.
    token_values:
        ``(token, values)`` pairs, at most one per token of ``index``, in
        whatever token order the deriving predicate needs: ``values`` holds
        one contribution per posting of ``index.postings(token)``, aligned
        with it -- a ``float64`` array (the product of an element-wise
        expression over ``index.arrays(token)``) or a sequence of floats.
        Consumed once, inside the fit.
    keep_zeros:
        Postings contributing exactly ``0.0`` are dropped -- the accumulation
        loops would skip them -- unless candidate membership must include
        them (the language models: such a tuple still scores
        ``exp(sum_complement)``).  A token left without postings is absent.

    When numpy is available (the ``fast`` extra) the contributions live as
    one contiguous ``(int64 tids, float64 contributions)`` pair per token,
    which the vectorized kernels (:mod:`repro.core.kernels`) accumulate at C
    speed, and the ``(tid, contribution)`` lists are copied from those arrays
    here (``tolist()`` round-trips float64 exactly; the tid objects are the
    inverted index's own, not a fresh ``int`` per posting per predicate).
    Without numpy ``arrays()`` returns ``None`` and every scoring path reads
    the lists.
    """

    def __init__(
        self,
        index: InvertedIndex,
        token_values: Iterable[Tuple[str, Sequence[float]]],
        keep_zeros: bool = False,
    ):
        np = kernels.np
        index.build_arrays()  # a no-op after a kernelised tokenize phase
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._arrays = None if np is None else {}
        #: Postings stored / postings left out for contributing exactly 0.0.
        self.num_postings = 0
        self.zero_dropped = 0
        for token, values in token_values:
            # The index's own tid objects, as a list: zipping two lists is
            # measurably cheaper than zipping a lazy map with one.
            tids = list(map(_tid_of, index.postings(token)))
            if np is not None:
                tid_array = index.arrays(token)[0]
                contributions = np.asarray(values, dtype=np.float64)
                if not keep_zeros:
                    keep = contributions != 0.0
                    if not keep.all():
                        tids = compress(tids, keep.tolist())
                        tid_array, contributions = tid_array[keep], contributions[keep]
                values = contributions.tolist()
                if values:
                    self._arrays[token] = (tid_array, contributions)
            elif not keep_zeros:
                keep = [value != 0.0 for value in values]
                tids, values = compress(tids, keep), list(compress(values, keep))
            self.zero_dropped += index.document_frequency(token) - len(values)
            if not values:
                continue
            self.num_postings += len(values)
            self._postings[token] = list(zip(tids, values))

    def postings(self, token: str) -> List[Tuple[int, float]]:
        """``(tid, contribution)`` pairs for every tuple ``token`` scores on."""
        return self._postings.get(token, _EMPTY_POSTINGS)

    def arrays(self, token: str):
        """``(int64 tids, float64 contributions)`` arrays, or ``None``.

        ``None`` either because numpy is unavailable or because the token has
        no postings.
        """
        if self._arrays is None:
            return None
        return self._arrays.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._postings

    def __len__(self) -> int:
        return len(self._postings)
