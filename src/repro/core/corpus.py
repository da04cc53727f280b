"""The fitted corpus core: one relation tokenized, counted and indexed once.

The paper's preprocessing has two phases (Figure 5.2, section 5.5.1):
tokenize the base relation into ``BASE_TOKENS`` once, then let each
predicate compute its own weight tables from it.  :class:`CorpusCore` is
phase one for the direct realization -- the in-memory counterpart of the
shared per-(backend, relation, tokenizer) "cores" of
:mod:`repro.declarative.shared`.  Everything it holds depends only on the
relation and the tokenizer, never on a predicate:

* the token lists (built eagerly -- every predicate needs them) -- the
  source every other part is derived from,
* the :class:`~repro.core.index.InvertedIndex`, built from the token lists
  in one interned pass: its document frequencies (a dict counted at build
  time), the tuple-major arrays (each tuple's distinct token ids and term
  frequencies, what the cosine norm reduces over) and the posting arrays --
  per token the tids and term frequencies as ``int64`` arrays, the
  relation's postings held as arrays once: the count scan reads them and
  every weighted predicate derives its own ``(tids, contributions)`` from
  them token by token.  The index's Python ``(tid, tf)`` lists are not part
  of a kernelised fit: they are derived from the posting arrays by a fit
  whose scans read them (the edit family) or by the first read (an LSH
  blocker's candidate set) -- :meth:`describe` says which.  The scans'
  in-step ``df`` check reads the build-time dict, never the arrays,
* the per-tuple term-frequency ``Counter`` objects -- not a source of
  anything any more, built only for the statistics of a core without an
  index (the word-level combination family); :meth:`describe` says whether
  they are,
* the per-tuple token sets (the blockers read them; no predicate fit
  builds them),
* the document frequency of each token (what the prefix blocker orders by),
  the index's count when a fit has built one, else counted over the token
  sets,
* the :class:`~repro.text.weights.CollectionStatistics` -- its ``df`` is the
  index's and its ``cf`` / ``p̂_avg`` sums are read off the posting arrays
  token-major when a fit has already built the index, counted over the
  ``Counter`` objects otherwise (same integers and floats, same vocabulary
  order),
* the shard-local cores cut from it (:meth:`CorpusCore.slice`), one per
  ``(start, stop)`` range, so every sharded fit over one range shares one
  slice -- its token lists, index and statistics view.

All but the token lists are built on first use and then kept, so a corpus
that only ever serves word-level combination predicates never pays for a
posting index, and one that only serves Jaccard never counts collection
frequencies.

A core is **read-only after it is built**: predicates fitted over one core
(all predicates an engine fits on one ``(corpus, tokenizer)``, or all shards
of a sharded fit) share its parts by reference -- a weighted posting index
hands the core's tid arrays to the scans as they are -- and nothing in
``core/``, ``blocking/`` or ``shard/`` mutates a token list, ``Counter``,
posting list or posting array in place (so the sizes ``summary()`` reports
are computed once and kept).  Because every part is built by the same code
from the same lists in the same order -- vocabulary and first-occurrence
order included -- a predicate fitted over a shared core scores
bit-identically to one fitted alone.  Building is not synchronized -- slices
included: hand one core to concurrent fits only under a lock (the engine
fits under its own).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

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
        #: Seconds counting the ``Counter`` objects took and what asked for
        #: them; ``None`` while they are unbuilt.
        self._counts_seconds: Optional[float] = None
        self._counts_cause: Optional[str] = None
        self._index: Optional[InvertedIndex] = None
        self._token_sets: Optional[List[Set[str]]] = None
        self._document_frequencies: Optional[Dict[str, int]] = None
        self._stats: Optional[CollectionStatistics] = None
        self._num_postings: Optional[int] = None
        self._vocabulary_size: Optional[int] = None
        #: The shard-local cores cut from this one, one per ``(start, stop)``
        #: range (:meth:`slice`); never pickled.
        self._slices: Dict[Tuple[int, int], CorpusCore] = {}

    def __getstate__(self) -> dict:
        """A pickled core carries no slices; a copy cuts its own on its
        first sharded fit."""
        state = self.__dict__.copy()
        state["_slices"] = {}
        return state

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

    def count_terms(self, cause: str = "first read") -> List[Counter]:
        """``tf(t, D)`` per tuple as ``Counter`` objects, counted once from
        the token lists when a reader first asks (``cause`` names it:
        ``"fit"`` for a weight phase that reads them); no index, array or
        kernelised fit needs them."""
        if self._term_frequencies is None:
            started = perf_clock()
            self._term_frequencies = [Counter(tokens) for tokens in self.token_lists]
            self._counts_seconds = perf_clock() - started
            self._counts_cause = cause
            self.build_seconds += self._counts_seconds
        return self._term_frequencies

    @property
    def term_frequencies(self) -> List[Counter]:
        """:meth:`count_terms` read outside a fit."""
        return self.count_terms()

    @property
    def index(self) -> InvertedIndex:
        if self._index is None:
            self._index = self._timed(lambda: InvertedIndex(self.token_lists))
        return self._index

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
            # An index some fit already built answers df / cf token-major; a
            # core without one (word-level predicates) is not made to build
            # it: its Counter objects are counted instead.
            index = self._index
            counts = None if index is not None else self.count_terms(cause="fit")
            self._stats = self._timed(
                lambda: CollectionStatistics(
                    self.token_lists, term_frequencies=counts, index=index
                )
            )
        return self._stats

    # -- sharding ---------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "CorpusCore":
        """The shard-local core over tuples ``start <= tid < stop``: built on
        the first call for that range, the same object on every later one.

        Tuple ids are rebased to 0.  Token lists are shared with this core;
        ``stats`` is the
        :class:`~repro.shard.stats.ShardStatisticsView` answering every
        collection-level question from *this* core's statistics, so a
        predicate fitted over the slice weighs each tuple exactly as one
        fitted over the whole relation.  The slice builds its own index and
        token sets from its own lists when a fit asks for them; a later fit
        over the same range (another predicate, another executor) reads
        those as they are, like any other core part.  The slice keeps no
        reference to this core beyond that statistics object; this core
        keeps its slices (:meth:`describe` counts them).
        """
        part = self._slices.get((start, stop))
        if part is None:
            # Local import: repro.shard imports the predicate base, which
            # imports this module.
            from repro.shard.stats import ShardStatisticsView

            part = CorpusCore.__new__(CorpusCore)
            part._bind(self.tokenizer, self.token_lists[start:stop])
            part._stats = ShardStatisticsView(part.token_lists, self.stats)
            self._slices[start, stop] = part
        return part

    # -- introspection ----------------------------------------------------------

    @property
    def num_postings(self) -> int:
        """Number of ``(token, tuple)`` postings (distinct tokens per tuple):
        one array sum when the index exists, else one walk over the
        ``Counter`` objects (which the statistics of a core without an index
        count anyway) -- kept, the core being read-only."""
        if self._num_postings is None:
            if self._index is not None:
                self._num_postings = int(self._index.set_sizes.sum())
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

    def describe_term_counts(self) -> str:
        """``not built`` / ``built in X ms (cause: ...)``: whether a reader
        had the per-tuple ``Counter`` objects counted."""
        if self._term_frequencies is None:
            return "not built"
        return f"built in {self._counts_seconds * 1e3:.1f} ms (cause: {self._counts_cause})"

    def describe(self) -> str:
        """:meth:`summary` as one line (``explain()`` prints it), with
        whether the per-tuple ``Counter`` objects
        (:meth:`describe_term_counts`) and the index's posting lists
        (:meth:`~repro.core.index.InvertedIndex.describe_posting_lists`) are
        built, ending with the number of shard slices cut from it, if any."""
        summary = self.summary()
        summary["counts"] = self.describe_term_counts()
        size = summary["array_bytes"]
        summary["arrays"] = (
            "no posting arrays" if size is None
            else f"posting arrays {size / 1e6:.1f} MB"
        )
        summary["lists"] = (
            "no index" if self._index is None
            else self._index.describe_posting_lists()
        )
        line = (
            "{tokenizer}: {rows} rows, {vocabulary} tokens, {postings} "
            "postings, built in {seconds:.2f} s, term counts: {counts}, "
            "posting lists: {lists}, {arrays}".format(**summary)
        )
        if self._slices:
            line += f", shard slices: {len(self._slices)}"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusCore({self.describe()})"
