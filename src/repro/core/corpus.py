"""The fitted corpus core: one relation tokenized, counted and indexed once.

The paper's preprocessing has two phases (Figure 5.2, section 5.5.1):
tokenize the base relation into ``BASE_TOKENS`` once, then let each
predicate compute its own weight tables from it.  :class:`CorpusCore` is
phase one for the direct realization -- the in-memory counterpart of the
shared per-(backend, relation, tokenizer) "cores" of
:mod:`repro.declarative.shared`.  Everything it holds depends only on the
relation and the tokenizer, never on a predicate:

* the token lists (built eagerly -- every predicate needs them),
* the per-tuple term-frequency ``Counter`` objects -- the source every
  other part is derived from,
* the :class:`~repro.core.index.InvertedIndex` (its document frequencies,
  one counting pass over the ``Counter`` objects) and, once a kernelised
  predicate is fitted, its posting arrays -- per token the tids and term
  frequencies as ``int64`` arrays filled from the ``Counter`` objects, the
  relation's postings held as arrays once: the count scan reads them and
  every weighted predicate derives its own ``(tids, contributions)`` from
  them token by token.  The index's Python ``(tid, tf)`` lists are not part
  of a kernelised fit: they are derived from the ``Counter`` objects by a
  fit whose scans read them (the edit and combination families) or by the
  first read (an LSH blocker's candidate set) -- :meth:`describe` says
  which.  The scans' in-step ``df`` check reads the ``Counter`` objects'
  counts, never the arrays,
* the per-tuple token sets (the blockers read them; no predicate fit
  builds them),
* the document frequency of each token (what the prefix blocker orders by),
  the index's count when a fit has built one, else counted over the token
  sets,
* the :class:`~repro.text.weights.CollectionStatistics` -- its ``df`` is the
  index's and its ``cf`` / ``p̂_avg`` sums are read off the posting arrays
  token-major when a fit has already built them, counted over the
  ``Counter`` objects otherwise (same integers and floats, same vocabulary
  order).

The last five are built on first use and then kept, so a corpus that only
ever serves word-level combination predicates never pays for a posting
index, and one that only serves Jaccard never counts collection frequencies.

A core is **read-only after it is built**: predicates fitted over one core
(all predicates an engine fits on one ``(corpus, tokenizer)``, or all shards
of a sharded fit) share its parts by reference -- a weighted posting index
hands the core's tid arrays to the scans as they are -- and nothing in
``core/``, ``blocking/`` or ``shard/`` mutates a token list, ``Counter``,
posting list or posting array in place (so the sizes ``summary()`` reports
are computed once and kept).  Because every part is built by the same code
from the same lists in the same order -- vocabulary and ``Counter`` insertion
order included -- a predicate fitted over a shared core scores bit-identically
to one fitted alone.  Building is not synchronized: hand one
core to concurrent fits only under a lock (the engine holds its own).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, TypeVar

from repro.core.index import InvertedIndex
from repro.obs.clock import perf_clock
from repro.text.tokenize import Tokenizer
from repro.text.weights import CollectionStatistics

__all__ = ["CorpusCore"]

_Part = TypeVar("_Part")


class CorpusCore:
    """Predicate-independent fitted state of one ``(relation, tokenizer)``.

    Parameters
    ----------
    strings:
        The base relation, in tuple-id order.
    tokenizer:
        The tokenizer every predicate fitted over this core must use.
    token_lists:
        ``strings`` already tokenized with ``tokenizer`` (one list per
        tuple).  Trusted, not verified -- only the length is checked -- and
        copied, so later mutation by the caller cannot reach fitted state.
    """

    def __init__(
        self,
        strings: Sequence[str],
        tokenizer: Tokenizer,
        token_lists: Optional[Sequence[Sequence[str]]] = None,
    ):
        started = perf_clock()
        if token_lists is None:
            lists = [tokenizer.tokenize(text) for text in strings]
        elif len(token_lists) != len(strings):
            raise ValueError(
                f"token_lists covers {len(token_lists)} tuples but the "
                f"relation has {len(strings)}"
            )
        else:
            lists = [list(tokens) for tokens in token_lists]
        self._bind(tokenizer, lists, perf_clock() - started)

    @classmethod
    def of_token_lists(
        cls, token_lists: Sequence[Sequence[str]], tokenizer: Tokenizer
    ) -> "CorpusCore":
        """A core over lists already tokenized with ``tokenizer``, when no
        strings are at hand (a blocker fitted on bare token lists); trusted
        and copied, as ``token_lists=`` is."""
        core = cls.__new__(cls)
        core._bind(tokenizer, [list(tokens) for tokens in token_lists])
        return core

    def _bind(
        self,
        tokenizer: Tokenizer,
        token_lists: List[List[str]],
        build_seconds: float = 0.0,
    ) -> None:
        self.tokenizer = tokenizer
        #: One token list per tuple, duplicates preserved.
        self.token_lists = token_lists
        #: Seconds spent building the parts built so far (tokenization
        #: included) -- the shared share of preprocessing time.
        self.build_seconds = build_seconds
        self._term_frequencies: Optional[List[Counter]] = None
        self._index: Optional[InvertedIndex] = None
        self._token_sets: Optional[List[Set[str]]] = None
        self._document_frequencies: Optional[Dict[str, int]] = None
        self._stats: Optional[CollectionStatistics] = None
        self._num_postings: Optional[int] = None
        self._vocabulary_size: Optional[int] = None

    def _timed(self, build: Callable[[], _Part]) -> _Part:
        started = perf_clock()
        part = build()
        self.build_seconds += perf_clock() - started
        return part

    def __len__(self) -> int:
        return len(self.token_lists)

    def check_covers(self, strings: Sequence[str], tokenizer: Tokenizer) -> None:
        """Refuse to stand in for tokenizing ``strings`` with ``tokenizer``
        unless the row count and the tokenizer match -- the O(1) checks that
        make handing a shared core to a predicate safe."""
        if len(self) != len(strings):
            raise ValueError(
                f"core covers {len(self)} tuples but the relation has "
                f"{len(strings)}"
            )
        if self.tokenizer != tokenizer:
            raise ValueError(
                f"core was tokenized with {self.tokenizer!r}, not the "
                f"predicate's {tokenizer!r}"
            )

    # -- parts built on first use ---------------------------------------------

    @property
    def term_frequencies(self) -> List[Counter]:
        """``tf(t, D)`` per tuple; shared by the index and the statistics."""
        if self._term_frequencies is None:
            self._term_frequencies = self._timed(
                lambda: [Counter(tokens) for tokens in self.token_lists]
            )
        return self._term_frequencies

    @property
    def index(self) -> InvertedIndex:
        if self._index is None:
            counts = self.term_frequencies
            self._index = self._timed(
                lambda: InvertedIndex(self.token_lists, term_frequencies=counts)
            )
        return self._index

    def build_index_arrays(self) -> None:
        """Have the index materialize its posting arrays
        (:meth:`InvertedIndex.build_arrays`: once per index, then a no-op),
        timed like every other part."""
        self._timed(self.index.build_arrays)

    def build_posting_lists(self) -> None:
        """Have the index derive its ``(tid, tf)`` lists inside a fit whose
        scans read them (:meth:`InvertedIndex.build_posting_lists`: once per
        index, then a no-op), timed like every other part."""
        self._timed(lambda: self.index.build_posting_lists(cause="fit"))

    @property
    def token_sets(self) -> List[Set[str]]:
        if self._token_sets is None:
            self._token_sets = self._timed(
                lambda: [set(tokens) for tokens in self.token_lists]
            )
        return self._token_sets

    @property
    def document_frequencies(self) -> Dict[str, int]:
        """Tuples containing each token: the index's count when a fit has
        built one (shared, read-only), counted over the token sets otherwise
        (a blocker's private core is not made to build an index for it)."""
        if self._document_frequencies is None:
            index = self._index
            if index is not None:
                self._document_frequencies = index.document_frequencies
            else:
                token_sets = self.token_sets
                self._document_frequencies = self._timed(
                    lambda: dict(Counter(chain.from_iterable(token_sets)))
                )
        return self._document_frequencies

    @property
    def stats(self) -> CollectionStatistics:
        if self._stats is None:
            counts = self.term_frequencies
            # An index some fit already built answers df / cf token-major; a
            # core without one (word-level predicates) is not made to build it.
            self._stats = self._timed(
                lambda: CollectionStatistics(
                    self.token_lists, term_frequencies=counts, index=self._index
                )
            )
        return self._stats

    # -- sharding ---------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "CorpusCore":
        """The shard-local core over tuples ``start <= tid < stop``.

        Tuple ids are rebased to 0.  Token lists and ``Counter`` objects are
        shared with this core; ``stats`` is the
        :class:`~repro.shard.stats.ShardStatisticsView` answering every
        collection-level question from *this* core's statistics, so a
        predicate fitted over the slice weighs each tuple exactly as one
        fitted over the whole relation.  The slice keeps no reference to
        this core beyond that statistics object, and builds its own index
        and token sets from its own lists when a fit asks for them.
        """
        # Local import: repro.shard imports the predicate base, which imports
        # this module.
        from repro.shard.stats import ShardStatisticsView

        part = CorpusCore.__new__(CorpusCore)
        part._bind(self.tokenizer, self.token_lists[start:stop])
        part._term_frequencies = self.term_frequencies[start:stop]
        part._stats = ShardStatisticsView(
            part.token_lists, self.stats, term_frequencies=part._term_frequencies
        )
        return part

    # -- introspection ----------------------------------------------------------

    @property
    def num_postings(self) -> int:
        """Number of ``(token, tuple)`` postings (distinct tokens per tuple):
        one array sum when the posting arrays exist, else one walk over the
        ``Counter`` objects -- kept, the core being read-only."""
        if self._num_postings is None:
            sizes = None if self._index is None else self._index.set_sizes
            if sizes is not None:
                self._num_postings = int(sizes.sum())
            else:
                self._num_postings = sum(map(len, self.term_frequencies))
        return self._num_postings

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens: read off the index when it exists, else
        counted once and kept."""
        if self._index is not None:
            return self._index.vocabulary_size()
        if self._vocabulary_size is None:
            self._vocabulary_size = len(set().union(*self.term_frequencies))
        return self._vocabulary_size

    def summary(self) -> Dict[str, object]:
        """Tokenizer, size, whether the posting arrays are built (their
        bytes, else ``None``) and what building the parts has cost so far --
        the attributes of the engine's ``core.build`` span."""
        return {
            "tokenizer": getattr(
                self.tokenizer, "name", type(self.tokenizer).__name__
            ),
            "rows": len(self),
            "vocabulary": self.vocabulary_size,
            "postings": self.num_postings,
            "array_bytes": None if self._index is None else self._index.array_bytes,
            "seconds": self.build_seconds,
        }

    def describe(self) -> str:
        """:meth:`summary` as one line (``explain()`` prints it), with
        whether the index's posting lists are built
        (:meth:`~repro.core.index.InvertedIndex.describe_posting_lists`)."""
        summary = self.summary()
        size = summary["array_bytes"]
        summary["arrays"] = (
            "no posting arrays" if size is None
            else f"posting arrays {size / 1e6:.1f} MB"
        )
        summary["lists"] = (
            "no index" if self._index is None
            else self._index.describe_posting_lists()
        )
        return (
            "{tokenizer}: {rows} rows, {vocabulary} tokens, {postings} "
            "postings, built in {seconds:.2f} s, posting lists: {lists}, "
            "{arrays}".format(**summary)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusCore({self.describe()})"
