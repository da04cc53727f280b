"""Token weighting schemes and collection statistics.

Every weighted predicate in the paper is driven by statistics gathered over
the *base relation* during preprocessing:

* document frequency ``n_t`` (number of tuples containing a token),
* term frequency ``tf(t, D)`` within each tuple,
* tuple length in tokens and the average tuple length,
* collection frequency ``cf_t`` and total collection size ``cs``.

:class:`CollectionStatistics` computes all of these once from the tokenized
relation.  On top of it we provide the weighting schemes used by the paper:

* ``idf(t) = log(N) - log(n_t)`` -- plain inverse document frequency,
* ``rs(t) = log(N - n_t + 0.5) - log(n_t + 0.5)`` -- the Robertson-Sparck
  Jones weight (equation 3.5), used by WeightedMatch / WeightedJaccard and as
  the idf part of BM25,
* length-normalized tf-idf weights (section 3.2.1),
* BM25 document-side weights (section 3.2.2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "CollectionStatistics",
    "idf_weights",
    "rs_weights",
    "l2_norm",
    "tfidf_norm",
    "tfidf_weights",
    "bm25_document_weights",
    "bm25_query_weights",
    "BM25Parameters",
]


@dataclass(frozen=True)
class BM25Parameters:
    """Independent parameters of the BM25 weighting scheme.

    Defaults follow section 5.3.2 of the paper (``k1=1.5``, ``k3=8``,
    ``b=0.675``), themselves taken from the TREC-4 Okapi experiments.
    """

    k1: float = 1.5
    k3: float = 8.0
    b: float = 0.675

    def __post_init__(self) -> None:
        if self.k1 < 0 or self.k3 < 0:
            raise ValueError("k1 and k3 must be non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be within [0, 1]")


class CollectionStatistics:
    """Corpus-level statistics over a tokenized relation.

    Parameters
    ----------
    token_lists:
        One token list per tuple of the base relation, in tuple-id order.
    term_frequencies:
        The per-tuple ``Counter`` list of ``token_lists`` when the caller
        already holds it -- a :class:`~repro.core.corpus.CorpusCore` without
        an index counts a relation once.  Both lists are then shared by
        reference (the caller guarantees they are never mutated).
    index:
        The :class:`~repro.core.index.InvertedIndex` of the same relation
        when the caller has already built one (duck-typed:
        ``document_frequencies``, ``collection_frequencies()`` and
        ``tf_ratio_sums(divisors)``).  ``df`` is then the index's own count,
        ``cf`` is read off it token-major -- exact integers -- and
        :meth:`pavg_table` sums from its posting arrays; the token lists are
        shared by reference and no ``Counter`` list is needed
        (:meth:`term_frequencies` counts one tuple per call).  The
        vocabulary order is the same either way (first seen, tuples in tid
        order).

    Given neither, the token lists are copied and counted here.

    The object is immutable after construction; the raw statistics are
    computed eagerly because every weighting scheme needs most of them, and
    the derived per-token tables (idf, RS, ``p̂_avg``) on first use.
    """

    def __init__(
        self,
        token_lists: Sequence[Sequence[str]],
        term_frequencies: Optional[List[Counter]] = None,
        index=None,
    ):
        if term_frequencies is None and index is None:
            token_lists = [list(tokens) for tokens in token_lists]
            term_frequencies = [Counter(tokens) for tokens in token_lists]
        self._token_lists: Sequence[Sequence[str]] = token_lists
        self._num_tuples = len(self._token_lists)
        self._term_frequencies: Optional[List[Counter]] = term_frequencies
        self._lengths: List[int] = [len(tokens) for tokens in self._token_lists]

        self._document_frequency: Dict[str, int]
        self._collection_frequency: Dict[str, int]
        if index is None:
            # A token's first occurrence in the token lists is its first
            # appearance as a Counter key: both counts keep one vocabulary
            # order (first seen, tuples in tid order).
            self._document_frequency = dict(
                Counter(chain.from_iterable(term_frequencies))
            )
            self._collection_frequency = dict(
                Counter(chain.from_iterable(self._token_lists))
            )
        else:
            self._document_frequency = index.document_frequencies
            self._collection_frequency = index.collection_frequencies()
        self._index = index
        self._collection_size = sum(self._lengths)
        self._average_length = (
            self._collection_size / self._num_tuples if self._num_tuples else 0.0
        )
        self._idf_table: Optional[Dict[str, float]] = None
        self._rs_table: Optional[Dict[str, float]] = None
        self._pavg_table: Optional[Dict[str, float]] = None

    # -- raw statistics -----------------------------------------------------

    @property
    def num_tuples(self) -> int:
        """``N``: number of tuples in the base relation."""
        return self._num_tuples

    @property
    def vocabulary(self) -> Iterable[str]:
        """All distinct tokens appearing in the relation."""
        return self._document_frequency.keys()

    @property
    def collection_size(self) -> int:
        """``cs``: total number of token occurrences in the relation."""
        return self._collection_size

    @property
    def average_length(self) -> float:
        """``avgdl``: average number of tokens per tuple."""
        return self._average_length

    def length(self, tid: int) -> int:
        """``|D|``: number of tokens of tuple ``tid``."""
        return self._lengths[tid]

    def lengths(self) -> List[int]:
        return list(self._lengths)

    def term_frequency(self, tid: int, token: str) -> int:
        """``tf(t, D)`` for tuple ``tid``."""
        return self.term_frequencies(tid).get(token, 0)

    def term_frequencies(self, tid: int) -> Counter:
        """The full term-frequency Counter of tuple ``tid`` (the held one,
        else its token list counted for this call)."""
        if self._term_frequencies is None:
            return Counter(self._token_lists[tid])
        return self._term_frequencies[tid]

    def document_frequency(self, token: str) -> int:
        """``n_t`` / ``df_t``: number of tuples containing ``token``."""
        return self._document_frequency.get(token, 0)

    def collection_frequency(self, token: str) -> int:
        """``cf_t``: total number of occurrences of ``token`` in the relation."""
        return self._collection_frequency.get(token, 0)

    def tokens(self, tid: int) -> List[str]:
        """The raw token list of tuple ``tid`` (duplicates preserved)."""
        return list(self._token_lists[tid])

    def __len__(self) -> int:
        return self._num_tuples

    # -- weighting schemes ---------------------------------------------------

    def idf(self, token: str) -> float:
        """``log(N) - log(n_t)``; unseen tokens get the average idf."""
        df = self.document_frequency(token)
        if df == 0:
            return self.average_idf()
        return math.log(self._num_tuples) - math.log(df)

    def average_idf(self) -> float:
        """Mean idf over the vocabulary, used for unseen query tokens."""
        if not self._document_frequency:
            return 0.0
        total = sum(
            math.log(self._num_tuples) - math.log(df)
            for df in self._document_frequency.values()
        )
        return total / len(self._document_frequency)

    def rs_weight(self, token: str) -> float:
        """Robertson-Sparck Jones weight ``w^(1)`` (equation 3.5)."""
        df = self.document_frequency(token)
        return math.log(self._num_tuples - df + 0.5) - math.log(df + 0.5)

    def idf_table(self) -> Dict[str, float]:
        """idf weight for every token in the vocabulary.

        Computed on first use and cached, like :meth:`pavg_table`; the dict
        is shared by every caller, so treat it as read-only.
        """
        if self._idf_table is None:
            self._idf_table = {
                token: self.idf(token) for token in self._document_frequency
            }
        return self._idf_table

    def rs_table(self) -> Dict[str, float]:
        """RS weight for every token in the vocabulary (cached, read-only)."""
        if self._rs_table is None:
            self._rs_table = {
                token: self.rs_weight(token) for token in self._document_frequency
            }
        return self._rs_table

    def pavg_table(self) -> Dict[str, float]:
        """``p̂_avg(t)``: mean maximum-likelihood probability of ``t`` over the
        tuples containing it (Ponte-Croft language model, section 3.3.1).

        Computed lazily (only the LM predicate needs it) and cached, so the
        common weighting schemes do not pay the extra pass.  Exposing it here
        makes it part of the predicate-independent collection statistics a
        shard-local view answers from the whole relation.
        """
        if self._pavg_table is None:
            divisors = [length or 1 for length in self._lengths]
            if self._index is not None:
                # Token-major from the index's posting arrays: each token's
                # sum adds its postings in tid order, as the tuple-major
                # loop below does.
                pml_sums = self._index.tf_ratio_sums(divisors)
            else:
                pml_sums = {}
                for tid in range(self._num_tuples):
                    length = divisors[tid]
                    for token, tf in self._term_frequencies[tid].items():
                        pml_sums[token] = pml_sums.get(token, 0.0) + tf / length
            self._pavg_table = {
                token: total / self._document_frequency[token]
                for token, total in pml_sums.items()
            }
        return self._pavg_table


def idf_weights(stats: CollectionStatistics, tokens: Iterable[str]) -> Dict[str, float]:
    """idf weight for each distinct token in ``tokens`` (unseen -> average idf)."""
    return {token: stats.idf(token) for token in set(tokens)}


def rs_weights(stats: CollectionStatistics, tokens: Iterable[str]) -> Dict[str, float]:
    """RS weight for each distinct token in ``tokens``.

    Tokens absent from the collection get ``log(N + 0.5) - log(0.5)``, the
    natural limit of equation 3.5 for ``n_t = 0``.
    """
    return {token: stats.rs_weight(token) for token in set(tokens)}


def l2_norm(squares: Sequence[float]) -> float:
    """``sqrt`` of a ``sum()`` of squares, summed in the order given.

    The one statement of this reduction: :func:`tfidf_norm` and the cosine
    predicate's fit (over its tuple-major arrays) both call it, so every
    path rounds the sum the same way on every interpreter (``sum`` over
    floats is compensated from Python 3.12 on, a hand-written ``+=`` loop
    is not).
    """
    return math.sqrt(sum(squares))


def tfidf_norm(raw_weights: Iterable[float]) -> float:
    """L2 norm of one string's raw ``tf * idf`` weights, in the order given:
    :func:`l2_norm` of their squares."""
    return l2_norm([value * value for value in raw_weights])


def tfidf_weights(
    token_frequency: Mapping[str, int],
    idf: Mapping[str, float],
    default_idf: float = 0.0,
) -> Dict[str, float]:
    """Length-normalized tf-idf weights for one string (section 3.2.1).

    ``w'(t, S) = tf(t, S) * idf(t)`` and the result is divided by the L2 norm
    of the ``w'`` vector so that cosine similarity reduces to a dot product.
    """
    raw = {
        token: tf * idf.get(token, default_idf)
        for token, tf in token_frequency.items()
    }
    norm = tfidf_norm(raw.values())
    if norm == 0.0:
        return {token: 0.0 for token in raw}
    return {token: value / norm for token, value in raw.items()}


def bm25_document_weights(
    stats: CollectionStatistics,
    tid: int,
    params: BM25Parameters | None = None,
) -> Dict[str, float]:
    """BM25 document-side weights ``wd(t, D)`` for tuple ``tid`` (section 3.2.2)."""
    params = params or BM25Parameters()
    length = stats.length(tid)
    avgdl = stats.average_length or 1.0
    k_d = params.k1 * ((1.0 - params.b) + params.b * length / avgdl)
    # One table lookup per posting: the two logs behind an RS weight are
    # paid once per vocabulary entry, not once per (tuple, token).
    rs = stats.rs_table()
    weights: Dict[str, float] = {}
    for token, tf in stats.term_frequencies(tid).items():
        weights[token] = rs[token] * (params.k1 + 1.0) * tf / (k_d + tf)
    return weights


def bm25_query_weights(
    query_frequency: Mapping[str, int],
    params: BM25Parameters | None = None,
) -> Dict[str, float]:
    """BM25 query-side weights ``wq(t, Q)`` (section 3.2.2)."""
    params = params or BM25Parameters()
    return {
        token: (params.k3 + 1.0) * tf / (params.k3 + tf)
        for token, tf in query_frequency.items()
    }
