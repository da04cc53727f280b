"""Inverted index over tokenized tuples.

Every token-based predicate restricts score computation to tuples that share
at least one token with the query (this is exactly what the SQL join between
``BASE_TOKENS`` and ``QUERY_TOKENS`` does in the declarative realization).
The :class:`InvertedIndex` provides that candidate generation step and also
doubles as the per-tuple term-frequency store; the
:class:`WeightedPostingIndex` is its per-predicate counterpart whose postings
carry precomputed score contributions.

Both keep, when numpy is importable, a contiguous array backing beside their
posting lists for the scans of :mod:`repro.core.kernels`: the weighted index
``(int64 tids, float64 contributions)`` per token (built by its constructor,
one per predicate), the inverted index one ``int64`` tid array per token and
one ``int64`` distinct-token count per tuple
(:meth:`InvertedIndex.build_arrays`, built once per index by the first fit
that asks and shared by every predicate fitted over the same
:class:`~repro.core.corpus.CorpusCore`).  Like the posting lists they mirror,
the arrays are read-only after they are built.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (blocking uses text only)
    from repro.blocking.base import Blocker

__all__ = ["InvertedIndex", "WeightedPostingIndex"]


class InvertedIndex:
    """Maps tokens to the tuples containing them (postings with tf).

    ``term_frequencies`` is the per-tuple ``Counter`` list of ``token_lists``
    when the caller already holds it (a
    :class:`~repro.core.corpus.CorpusCore` counts a relation once and shares
    the list by reference); it is counted here otherwise.

    :meth:`build_arrays` adds the array backing of the count scan
    (:func:`repro.core.kernels.count_overlap`): without it -- no numpy, or no
    fit asked -- :meth:`tid_array` and :attr:`set_sizes` answer ``None``.
    """

    #: token -> int64 tid array / int64 distinct-token count per tuple;
    #: ``None`` until :meth:`build_arrays` ran (class-level, so :meth:`slice`,
    #: which bypasses ``__init__``, starts without them too).
    _tid_arrays = None
    _set_sizes = None

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

    def build_arrays(self) -> None:
        """Materialize the count scan's integer arrays (idempotent).

        One contiguous ``int64`` tid array per token and the per-tuple number
        of distinct tokens.  Called from inside a fit -- never lazily by a
        query, so concurrent first queries find them built -- and a no-op
        when they exist or numpy is unavailable.  Like
        :func:`repro.core.kernels.build_arrays`, they are built even while
        ``use_backend("python")`` is forced: forcing is dispatch-only.
        """
        np = kernels.np
        if np is None or self._tid_arrays is not None:
            return
        self._set_sizes = np.fromiter(
            map(len, self._term_frequencies),
            dtype=np.int64,
            count=len(self._term_frequencies),
        )
        tid_of = itemgetter(0)
        self._tid_arrays = {
            token: np.fromiter(map(tid_of, plist), dtype=np.int64, count=len(plist))
            for token, plist in self._postings.items()
        }

    def tid_array(self, token: str):
        """The tids of ``postings(token)`` as an ``int64`` array, or ``None``
        (token without postings, or arrays not built)."""
        if self._tid_arrays is None:
            return None
        return self._tid_arrays.get(token)

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

    def slice(self, start: int, stop: int) -> "InvertedIndex":
        """The sub-index over tuples ``start <= tid < stop``, tids rebased to 0.

        Posting lists are stored in increasing tid order, so slicing them by
        the contiguous range yields exactly the index that would have been
        built from ``token_lists[start:stop]`` -- the invariant sharded
        execution relies on (a shard-local fit equals a slice of the global
        fit).  A slice of an index with arrays has arrays.
        """
        sliced = InvertedIndex.__new__(InvertedIndex)
        sliced._term_frequencies = self._term_frequencies[start:stop]
        sliced._postings = {}
        for token, plist in self._postings.items():
            local = [
                (tid - start, tf) for tid, tf in plist if start <= tid < stop
            ]
            if local:
                sliced._postings[token] = local
        if self._tid_arrays is not None:
            sliced.build_arrays()
        return sliced


_EMPTY_POSTINGS: List[Tuple[int, float]] = []


class WeightedPostingIndex:
    """Per-token posting lists carrying precomputed score contributions.

    Weighted predicates score ``sim(Q, D) = Σ wq(t, Q) * c(t, D)`` where the
    document-side factor ``c(t, D)`` (normalized tf-idf product, BM25 term
    partial, RS weight, ...) depends only on the base relation.  Recomputing
    it per candidate per query is the direct realization's hot-path tax; this
    index stores it *in the posting itself* at fit time, so query-time
    accumulation is one flat loop over precomputed floats.

    Each token also records its maximum and minimum stored contribution,
    which is exactly what max-score pruning (:mod:`repro.core.topk`) needs to
    bound unopened posting lists.

    When numpy is available (the ``fast`` extra), each posting list is also
    materialized once as a contiguous ``(int64 tids, float64 contributions)``
    array pair so the vectorized kernels (:mod:`repro.core.kernels`) can
    accumulate at C speed; without numpy ``arrays()`` returns ``None`` and
    every scoring path falls back to the list-of-tuples postings.
    """

    def __init__(self, postings: Dict[str, List[Tuple[int, float]]]):
        self._postings = postings
        self._max: Dict[str, float] = {}
        self._min: Dict[str, float] = {}
        for token, plist in postings.items():
            contributions = [contribution for _, contribution in plist]
            self._max[token] = max(contributions)
            self._min[token] = min(contributions)
        self._arrays = kernels.build_arrays(postings)

    @classmethod
    def from_doc_weights(
        cls,
        index: InvertedIndex,
        doc_weights: Sequence[Dict[str, float]],
    ) -> "WeightedPostingIndex":
        """Build from per-tuple ``token -> weight`` maps (aggregate family).

        Zero contributions are omitted, matching the accumulation loops that
        skip ``doc_weight == 0`` candidates.  Predicates whose candidate
        membership must include zero-contribution postings (the language
        model keeps them: such tuples still score ``exp(sum_complement)``)
        build their posting dict themselves and use the constructor.
        """
        postings: Dict[str, List[Tuple[int, float]]] = {}
        for token in index.tokens():
            plist = []
            for tid, _ in index.postings(token):
                contribution = doc_weights[tid].get(token, 0.0)
                if contribution == 0.0:
                    continue
                plist.append((tid, contribution))
            if plist:
                postings[token] = plist
        return cls(postings)

    @classmethod
    def from_token_weights(
        cls, index: InvertedIndex, weights: Dict[str, float]
    ) -> "WeightedPostingIndex":
        """Build from a global ``token -> weight`` table (overlap family).

        Every posting of a token carries the same contribution (the token's
        weight); zero-weight tokens are dropped entirely, matching the
        accumulation loops that skip them.
        """
        postings: Dict[str, List[Tuple[int, float]]] = {}
        for token in index.tokens():
            weight = weights.get(token, 0.0)
            if weight == 0.0:
                continue
            postings[token] = [(tid, weight) for tid, _ in index.postings(token)]
        return cls(postings)

    def postings(self, token: str) -> List[Tuple[int, float]]:
        """``(tid, contribution)`` pairs for every tuple ``token`` scores on."""
        return self._postings.get(token, _EMPTY_POSTINGS)

    def arrays(self, token: str):
        """``(int64 tids, float64 contributions)`` arrays, or ``None``.

        ``None`` either because numpy is unavailable or because the token has
        no postings; callers fall back to :meth:`postings` in both cases.
        """
        if self._arrays is None:
            return None
        return self._arrays.get(token)

    def slice(self, start: int, stop: int) -> "WeightedPostingIndex":
        """The sub-index over tuples ``start <= tid < stop``, tids rebased to 0.

        Contributions are carried over unchanged (they were computed against
        collection-level statistics, which do not change with the slice), and
        the per-token max/min bounds are recomputed over the surviving
        postings -- tightening them to the slice is what makes per-shard
        max-score bounds useful for short-circuiting whole shards.  Going
        through the constructor also rebuilds the kernel array backing, so a
        sliced index carries exactly the arrays a shard-local fit would have
        built (the shard==slice invariant extends to the vectorized path).
        """
        postings: Dict[str, List[Tuple[int, float]]] = {}
        for token, plist in self._postings.items():
            local = [
                (tid - start, contribution)
                for tid, contribution in plist
                if start <= tid < stop
            ]
            if local:
                postings[token] = local
        return WeightedPostingIndex(postings)

    def max_contribution(self, token: str) -> float:
        return self._max.get(token, 0.0)

    def min_contribution(self, token: str) -> float:
        return self._min.get(token, 0.0)

    def __contains__(self, token: str) -> bool:
        return token in self._postings

    def __len__(self) -> int:
        return len(self._postings)
