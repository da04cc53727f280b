"""Combination predicates (paper sections 3.5 and 4.5).

These predicates combine word-level weighting with a character-level
similarity between individual words:

* :class:`GES` -- generalized edit similarity: a weighted edit distance over
  the *sequence* of word tokens where replacing word ``t1`` by ``t2`` costs
  ``(1 - sim_edit(t1, t2)) * w(t1)``, inserting word ``t`` costs
  ``c_ins * w(t)`` and deleting word ``t`` costs ``w(t)`` (equation 3.14).
* :class:`GESJaccard` -- GES with a filtering step that over-estimates the
  score using the q-gram Jaccard similarity between words (equation 4.7);
  only candidates whose filter score reaches the threshold are verified with
  exact GES.
* :class:`GESApx` -- like GESJaccard but the word-level Jaccard is replaced
  by a min-hash estimate (equation 4.8), trading accuracy for speed.
* :class:`SoftTFIDF` -- Cohen et al.'s soft tf-idf where word tokens match
  softly through a secondary similarity (Jaro-Winkler here, the paper's best
  choice) above a threshold θ (equation 3.15).

All four predicates perform two-level tokenization (words, then q-grams of
each word) during preprocessing and keep an inverted index over word q-grams
for candidate generation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Set

from repro.core import kernels
from repro.core.predicates.base import Predicate
from repro.text.minhash import MinHasher, MinHashSignature, minhash_similarity
from repro.text.strings import edit_similarity, jaro_winkler
from repro.text.tokenize import TwoLevelTokenizer
from repro.text.weights import CollectionStatistics, tfidf_weights

__all__ = ["GES", "GESJaccard", "GESApx", "SoftTFIDF"]


class _CombinationBase(Predicate):
    """Shared two-level tokenization and word-qgram candidate index."""

    family = "combination"

    def __init__(self, q: int = 2):
        super().__init__()
        self.tokenizer = TwoLevelTokenizer(q=q)
        self.q = q
        #: word tokens per tuple (order preserved)
        self._word_lists: List[List[str]] = []
        #: q-gram set per distinct word (computed lazily, shared across tuples)
        self._word_qgrams: Dict[str, Set[str]] = {}
        #: inverted index word-qgram -> set of tids
        self._qgram_to_tids: Dict[str, Set[int]] = {}
        self._stats: CollectionStatistics | None = None
        self._idf: Dict[str, float] = {}
        self._average_idf: float = 0.0

    def tokenize_phase(self) -> None:
        # Words are this family's tokens; candidates come from the
        # word-q-gram index below, so the core's word-level inverted index
        # is never asked for (and never built).
        self._word_lists = self._bound_core().token_lists
        self._word_qgrams = {}
        qgram_to_tids: Dict[str, Set[int]] = defaultdict(set)
        for tid, words in enumerate(self._word_lists):
            for word in words:
                grams = self._grams(word)
                for gram in grams:
                    qgram_to_tids[gram].add(tid)
        self._qgram_to_tids = dict(qgram_to_tids)

    def weight_phase(self) -> None:
        self._stats = self._core.stats
        self._idf = self._stats.idf_table()
        self._average_idf = self._stats.average_idf()

    # -- helpers ----------------------------------------------------------------

    def _grams(self, word: str) -> Set[str]:
        grams = self._word_qgrams.get(word)
        if grams is None:
            grams = set(self.tokenizer.word_qgrams(word))
            self._word_qgrams[word] = grams
        return grams

    def _weight(self, word: str) -> float:
        return self._idf.get(word, self._average_idf)

    def _candidates(self, query_words: Sequence[str]) -> Set[int]:
        """Tuples sharing at least one word q-gram with the query."""
        tids: Set[int] = set()
        for word in set(query_words):
            for gram in self._grams(word):
                tids.update(self._qgram_to_tids.get(gram, ()))
        return tids

    def _is_candidate(self, query_words: Sequence[str], tid: int) -> bool:
        """Whether one tuple shares a word q-gram with the query (O(1) per gram)."""
        return any(
            tid in self._qgram_to_tids.get(gram, ())
            for word in set(query_words)
            for gram in self._grams(word)
        )

    def _query_words(self, query: str) -> List[str]:
        return self.tokenizer.tokenize(query)


class GES(_CombinationBase):
    """Generalized edit similarity with exact transformation cost."""

    name = "GES"

    def __init__(self, q: int = 2, cins: float = 0.5):
        super().__init__(q=q)
        if not 0.0 <= cins <= 1.0:
            raise ValueError("cins must be within [0, 1]")
        self.cins = cins

    def ges_score(self, query_words: Sequence[str], tuple_words: Sequence[str]) -> float:
        """Exact GES between two word sequences (equation 3.14)."""
        total_weight = sum(self._weight(word) for word in query_words)
        if total_weight == 0.0:
            return 1.0 if not tuple_words else 0.0
        cost = self._transformation_cost(query_words, tuple_words)
        return 1.0 - min(cost / total_weight, 1.0)

    def _transformation_cost(
        self, query_words: Sequence[str], tuple_words: Sequence[str]
    ) -> float:
        """Minimum-cost transformation of the query word sequence into the tuple's."""
        n, m = len(query_words), len(tuple_words)
        query_weights = [self._weight(word) for word in query_words]
        tuple_weights = [self._weight(word) for word in tuple_words]
        previous = [0.0] * (m + 1)
        for j in range(1, m + 1):
            previous[j] = previous[j - 1] + self.cins * tuple_weights[j - 1]
        for i in range(1, n + 1):
            current = [previous[0] + query_weights[i - 1]] + [0.0] * m
            for j in range(1, m + 1):
                replace = (
                    previous[j - 1]
                    + (1.0 - edit_similarity(query_words[i - 1], tuple_words[j - 1]))
                    * query_weights[i - 1]
                )
                delete = previous[j] + query_weights[i - 1]
                insert = current[j - 1] + self.cins * tuple_weights[j - 1]
                current[j] = min(replace, delete, insert)
            previous = current
        return previous[m]

    def _scores(self, query: str) -> kernels.Scores:
        query_words = self._query_words(query)
        scores: Dict[int, float] = {}
        for tid in self._candidates(query_words):
            scores[tid] = self.ges_score(query_words, self._word_lists[tid])
        return kernels.Scores.from_dict(scores)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._word_lists):
            return 0.0
        query_words = self._query_words(query)
        if not self._is_candidate(query_words, tid):
            return 0.0
        return self.ges_score(query_words, self._word_lists[tid])


class GESJaccard(GES):
    """GES with the q-gram Jaccard filter of equation 4.7."""

    name = "GESJaccard"

    def __init__(self, q: int = 2, cins: float = 0.5, threshold: float = 0.8):
        super().__init__(q=q, cins=cins)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold

    def _word_similarity(self, query_word: str, tuple_word: str) -> float:
        left, right = self._grams(query_word), self._grams(tuple_word)
        if not left or not right:
            return 0.0
        common = len(left & right)
        union = len(left | right)
        return common / union if union else 0.0

    def filter_score(self, query_words: Sequence[str], tuple_words: Sequence[str]) -> float:
        """Over-estimating filter score (equation 4.7).

        Both sums run over the query words in *sorted* order so the float
        value only depends on the word multiset, never on word order.  The
        min-hash variant (:class:`GESApx`) quantizes per-word similarities to
        a ``1/num_hashes`` lattice, so with near-equal weights the exact
        score lands on lattice points like 0.525; summation-order jitter of
        one ulp around such a point would otherwise flip candidates at
        thresholds placed exactly on the lattice.
        """
        ordered = sorted(query_words)
        total_weight = sum(self._weight(word) for word in ordered)
        if total_weight == 0.0:
            return 0.0
        adjustment = 1.0 - 1.0 / self.q
        score = 0.0
        for word in ordered:
            best = max(
                (self._word_similarity(word, other) for other in tuple_words),
                default=0.0,
            )
            score += self._weight(word) * ((2.0 / self.q) * best + adjustment)
        return score / total_weight

    def _scores(self, query: str) -> kernels.Scores:
        query_words = self._query_words(query)
        scores: Dict[int, float] = {}
        for tid in self._candidates(query_words):
            tuple_words = self._word_lists[tid]
            if self.filter_score(query_words, tuple_words) < self.threshold:
                continue
            scores[tid] = self.ges_score(query_words, tuple_words)
        return kernels.Scores.from_dict(scores)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._word_lists):
            return 0.0
        query_words = self._query_words(query)
        if not self._is_candidate(query_words, tid):
            return 0.0
        tuple_words = self._word_lists[tid]
        if self.filter_score(query_words, tuple_words) < self.threshold:
            return 0.0
        return self.ges_score(query_words, tuple_words)


class GESApx(GESJaccard):
    """GES with a min-hash approximation of the Jaccard filter (equation 4.8)."""

    name = "GESapx"

    def __init__(
        self,
        q: int = 2,
        cins: float = 0.5,
        threshold: float = 0.8,
        num_hashes: int = 5,
        seed: int = 20070411,
    ):
        super().__init__(q=q, cins=cins, threshold=threshold)
        self.hasher = MinHasher(num_hashes=num_hashes, seed=seed)
        self._signatures: Dict[str, MinHashSignature] = {}

    def weight_phase(self) -> None:
        super().weight_phase()
        # Precompute signatures for every distinct word in the base relation,
        # mirroring the stored BASE_MINHASHSIGNATURE table.
        self._signatures = {}
        for words in self._word_lists:
            for word in words:
                if word not in self._signatures:
                    self._signatures[word] = self.hasher.signature(self._grams(word))

    def _signature(self, word: str) -> MinHashSignature:
        signature = self._signatures.get(word)
        if signature is None:
            signature = self.hasher.signature(self._grams(word))
            self._signatures[word] = signature
        return signature

    def _word_similarity(self, query_word: str, tuple_word: str) -> float:
        return minhash_similarity(self._signature(query_word), self._signature(tuple_word))


class SoftTFIDF(_CombinationBase):
    """Soft tf-idf with Jaro-Winkler word matching (Cohen et al.)."""

    name = "SoftTFIDF"

    def __init__(self, q: int = 2, theta: float = 0.8):
        super().__init__(q=q)
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be within [0, 1]")
        self.theta = theta
        self._doc_weights: List[Dict[str, float]] = []

    def weight_phase(self) -> None:
        super().weight_phase()
        assert self._stats is not None
        self._doc_weights = [
            tfidf_weights(self._stats.term_frequencies(tid), self._idf)
            for tid in range(len(self._word_lists))
        ]

    def _soft_score(self, query_weights: Dict[str, float], tid: int) -> float:
        """Soft tf-idf of one tuple against precomputed query weights."""
        tuple_words = self._word_lists[tid]
        if not tuple_words:
            return 0.0
        score = 0.0
        # Sorted word order: the per-word contributions are floats, so the
        # sum must run in canonical order to stay bit-identical across dict
        # construction paths (RPL001).
        for word, query_weight in sorted(query_weights.items()):
            best_similarity = 0.0
            best_word = None
            for other in tuple_words:
                similarity = jaro_winkler(word, other)
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_word = other
            if best_word is None or best_similarity <= self.theta:
                continue
            score += (
                query_weight
                * self._doc_weights[tid].get(best_word, 0.0)
                * best_similarity
            )
        return score

    def _scores(self, query: str) -> kernels.Scores:
        query_words = self._query_words(query)
        if not query_words:
            return kernels.Scores.from_dict({})
        query_weights = tfidf_weights(
            Counter(query_words), self._idf, default_idf=self._average_idf
        )
        scores: Dict[int, float] = {}
        for tid in self._candidates(query_words):
            score = self._soft_score(query_weights, tid)
            if score > 0.0:
                scores[tid] = score
        return kernels.Scores.from_dict(scores)

    def _score_one(self, query: str, tid: int) -> Optional[float]:
        if not 0 <= tid < len(self._word_lists):
            return 0.0
        query_words = self._query_words(query)
        if not query_words or not self._is_candidate(query_words, tid):
            return 0.0
        query_weights = tfidf_weights(
            Counter(query_words), self._idf, default_idf=self._average_idf
        )
        score = self._soft_score(query_weights, tid)
        return score if score > 0.0 else 0.0
