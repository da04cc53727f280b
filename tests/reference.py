"""The reference scorer: the paper's 13 predicates written from their formulas.

Every execution path of the library is checked against it
(``tests/test_reference.py``).  It scores one tuple at a time with no index,
no cache, no blocker and no numpy, and of the library imports only the
tokenizers and the min-hash family GESApx is parameterized by; Levenshtein,
Jaro-Winkler, the df / idf / RS weights, BM25, tf-idf cosine, the language
model (eq. 4.4), the HMM (eq. 4.6), GES (eq. 3.14) and the GES filter
(eq. 4.7) are written out here.

**Candidates.**  A tuple that shares no token with the query has no score;
for the GES family and SoftTFIDF the token is a word q-gram.  Every SQL
realization in the paper is a join on token, so all of them follow this
rule.  A weight of exactly 0.0 (idf 0 in every tuple, RS weight 0 at
``df = N/2``) is no posting, so sharing only such tokens makes no candidate;
the language models keep zero weights.  SoftTFIDF keeps positive scores,
GESJaccard and GESApx the tuples whose filter score reaches the threshold.

**Float order.**  Sums run in the library's canonical order (sorted tokens
unless a comment says otherwise), with the library's reduction: a scan's
per-tuple sum is a left fold from 0.0 (:func:`chain`), a ``sum()`` in the
library is a ``sum()`` here -- from Python 3.12 on ``sum()`` of floats is
compensated and the two differ.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from repro.text.minhash import MinHasher, minhash_similarity
from repro.text.tokenize import QgramTokenizer, Tokenizer, WordTokenizer, normalize_string

PREDICATES = (
    "intersect", "jaccard", "weighted_match", "weighted_jaccard", "cosine", "bm25", "lm",
    "hmm", "edit_distance", "ges", "ges_jaccard", "ges_apx", "soft_tfidf",
)

#: The families scored from per-(tuple, token) weight tables (eq. 3.5-4.6).
WEIGHTED = ("weighted_match", "weighted_jaccard", "cosine", "bm25", "lm", "hmm")

_COMBINATION = ("ges", "ges_jaccard", "ges_apx", "soft_tfidf")

#: The language model clamps ``p̂(t|M_D)`` below 1 so ``log(1 - p̂)`` is finite.
_MAX_PROBABILITY = 1.0 - 1e-12


def chain(values) -> float:
    """``((0.0 + v1) + v2) + ...``: the per-tuple accumulation of a scan."""
    return reduce(add, values, 0.0)


def _exp(value: float) -> float:
    """``exp`` with overflow read as ``inf`` (the language models' finalizer)."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


# -- character-level similarities (section 3.4, Cohen et al.) ------------------


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, the full dynamic-programming matrix."""
    rows = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            diagonal = rows[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            rows[i][j] = min(rows[i - 1][j] + 1, rows[i][j - 1] + 1, diagonal)
    return rows[len(a)][len(b)]


def edit_similarity(a: str, b: str) -> float:
    """Equation 3.13: ``1 - ed(a, b) / max(|a|, |b|)``; two empty strings: 1."""
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest if longest else 1.0


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity plus the common-prefix bonus (scale 0.1, prefix <= 4)."""
    if a == b or not a or not b:
        return float(a == b)
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    taken = [False] * len(b)
    matched_a = []
    for i, char in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not taken[j] and b[j] == char:
                taken[j] = True
                matched_a.append(char)
                break
    m = len(matched_a)
    if not m:
        return 0.0
    matched_b = [char for j, char in enumerate(b) if taken[j]]
    half_transpositions = sum(x != y for x, y in zip(matched_a, matched_b)) // 2
    jaro = (m / len(a) + m / len(b) + (m - half_transpositions) / m) / 3.0
    prefix = 0
    while prefix < min(4, len(a), len(b)) and a[prefix] == b[prefix]:
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


# -- collection statistics (section 3.2) ----------------------------------------


class _Statistics:
    """``N``, ``tf``, ``df``, ``cf``, ``|D|`` and ``cs`` of a tokenized relation.

    The vocabulary is kept in first-seen order (tuples in tid order, tokens in
    first-occurrence order): the average idf is a ``sum()`` over it.
    """

    def __init__(self, token_lists: Sequence[Sequence[str]]):
        self.n, self.lengths = len(token_lists), [len(tokens) for tokens in token_lists]
        self.tf = [Counter(tokens) for tokens in token_lists]
        self.df: Dict[str, int] = {}
        self.cf: Dict[str, int] = {}
        for counts in self.tf:
            for token, count in counts.items():
                self.df[token] = self.df.get(token, 0) + 1
                self.cf[token] = self.cf.get(token, 0) + count
        self.cs = sum(self.lengths)

    def idf(self, token: str) -> float:
        """``log N - log n_t`` (section 3.2.1)."""
        return math.log(self.n) - math.log(self.df[token])

    def rs(self, token: str) -> float:
        """Robertson-Sparck Jones weight, equation 3.5 (0.0 off the vocabulary)."""
        df = self.df.get(token)
        return 0.0 if df is None else math.log(self.n - df + 0.5) - math.log(df + 0.5)

    def average_idf(self) -> float:
        total = sum(math.log(self.n) - math.log(df) for df in self.df.values())
        return total / len(self.df) if self.df else 0.0


def _normalized_tfidf(counts: Counter, idf) -> Dict[str, float]:
    """``tf * idf / ||tf * idf||`` per token (section 3.2.1).  The norm sums in
    the string's first-occurrence order, as the library's ``tfidf_norm``
    does.  A vector of norm 0 has no weights at all (they would all be 0.0,
    and the SQL's division by the norm is NULL)."""
    raw = {token: tf * idf(token) for token, tf in counts.items()}
    norm = math.sqrt(sum(value * value for value in raw.values()))
    return {token: value / norm for token, value in raw.items()} if norm else {}


# -- the reference -------------------------------------------------------------


class Reference:
    """One predicate of the paper, fitted on ``strings``, scored naively.

    ``tokenizer`` replaces the q-gram tokenizer of the eight token-level
    families; ``params`` are the predicate's own, with the library's
    defaults.  Two flags model departures of the declarative realization
    from the formulas: ``zero_weight_candidates`` keeps tuples sharing only
    zero-weight tokens (scored 0.0), ``avgdl_skips_empty`` averages BM25's
    tuple length over the tuples with a token.
    """

    def __init__(
        self,
        name: str,
        strings: Sequence[str],
        tokenizer: Optional[Tokenizer] = None,
        zero_weight_candidates: bool = False,
        avgdl_skips_empty: bool = False,
        **params,
    ):
        assert name in PREDICATES, name
        self.name, self.strings, self.params = name, list(strings), params
        self.q = params.get("q", 2)
        self.zero_weight_candidates = zero_weight_candidates
        self.avgdl_skips_empty = avgdl_skips_empty
        if name in _COMBINATION:
            self.tokenizer = WordTokenizer()
        else:
            self.tokenizer = tokenizer or QgramTokenizer(q=self.q)
        self.token_lists = [self.tokenizer.tokenize(text) for text in self.strings]
        self.stats = _Statistics(self.token_lists)
        self.token_sets = [set(tokens) for tokens in self.token_lists]
        #: Per tuple, ``{token: weight}`` for the weighted families.
        self.tuple_weights: List[Dict[str, float]] = []
        #: Per tuple, ``Σ_{t ∈ D} log(1 - p̂(t|M_D))`` (the language model).
        self.complements: List[float] = []
        if name in WEIGHTED:
            getattr(self, "_fit_" + name.replace("weighted_", "w"))()
        if name in _COMBINATION:
            self._average_idf = self.stats.average_idf()
            self._gram_sets = [
                {gram for word in words for gram in self._grams(word)}
                for words in self.token_lists
            ]
        if name == "ges_apx":
            self._hasher = MinHasher(params.get("num_hashes", 5), params.get("seed", 20070411))

    # -- fitting: per-(tuple, token) weights ------------------------------------

    def _fit_wmatch(self) -> None:
        self.tuple_weights = [
            {token: self.stats.rs(token) for token in counts} for counts in self.stats.tf
        ]

    _fit_wjaccard = _fit_wmatch

    def _fit_cosine(self) -> None:
        self.tuple_weights = [
            _normalized_tfidf(counts, self.stats.idf) for counts in self.stats.tf
        ]

    def _fit_bm25(self) -> None:
        """``wd(t, D) = w(1) (k1 + 1) tf / (K + tf)``, ``K = k1((1 - b) + b |D| / avgdl)``."""
        k1, b = self.params.get("k1", 1.5), self.params.get("b", 0.675)
        stats = self.stats
        counted = sum(map(bool, stats.lengths)) if self.avgdl_skips_empty else stats.n
        avgdl = (stats.cs / counted if counted else 0.0) or 1.0
        self.tuple_weights = []
        for counts, length in zip(stats.tf, stats.lengths):
            norm = k1 * ((1.0 - b) + b * length / avgdl)
            self.tuple_weights.append(
                {t: stats.rs(t) * (k1 + 1.0) * tf / (norm + tf) for t, tf in counts.items()}
            )

    def _fit_lm(self) -> None:
        """Equation 4.4's per-(tuple, token) term and per-tuple complement.

        ``p̂_avg(t)`` folds ``tf / |D|`` over the tuples holding ``t`` in tid
        order, the order the collection statistics visit them.
        """
        stats = self.stats
        lengths = [length or 1 for length in stats.lengths]
        pavg = {
            t: chain(c[t] / n for c, n in zip(stats.tf, lengths) if t in c) / df
            for t, df in stats.df.items()
        }
        for counts, length in zip(stats.tf, lengths):
            weights, complements = {}, []
            for token in sorted(counts):
                tf, average = counts[token], pavg[token]
                pml = tf / length
                mean_tf = average * length
                risk = (1.0 / (1.0 + mean_tf)) * (mean_tf / (1.0 + mean_tf)) ** tf
                p = min((pml ** (1.0 - risk)) * (average ** risk), _MAX_PROBABILITY)
                log_complement = math.log(1.0 - p)
                log_general = math.log(stats.cf[token] / (stats.cs or 1))
                weights[token] = math.log(p) - log_complement - log_general
                complements.append(log_complement)
            self.tuple_weights.append(weights)
            self.complements.append(chain(complements))

    def _fit_hmm(self) -> None:
        """``log(1 + a1 P(t|D) / (a0 P(t|GE)))`` per posting (equation 4.6)."""
        a0, stats = self.params.get("a0", 0.2), self.stats
        self.tuple_weights = [
            {
                t: math.log(1.0 + ((1.0 - a0) * (tf / (n or 1))) / (a0 * (stats.cf[t] / (stats.cs or 1))))
                for t, tf in counts.items()
            }
            for counts, n in zip(stats.tf, stats.lengths)
        ]

    # -- scoring ----------------------------------------------------------------

    def scores(self, query: str) -> Dict[int, float]:
        """``{tid: score}`` of every candidate tuple."""
        score, state = getattr(self, "_score_" + self.name), self._query_state(query)
        pairs = ((tid, score(state, tid)) for tid in range(len(self.strings)))
        return {tid: value for tid, value in pairs if value is not None}

    def rank(self, query: str, limit: Optional[int] = None) -> List[Tuple[int, float]]:
        """Candidates ordered by ``(-score, tid)``, cut to ``limit``."""
        ranked = sorted(self.scores(query).items(), key=lambda item: (-item[1], item[0]))
        return ranked if limit is None else ranked[: max(limit, 0)]

    def select(self, query: str, threshold: float) -> List[Tuple[int, float]]:
        """Candidates scoring at least ``threshold``, in rank order."""
        return [item for item in self.rank(query) if item[1] >= threshold]

    def score(self, query: str, tid: int) -> float:
        return self.scores(query).get(tid, 0.0)

    def _query_state(self, query: str):
        """``(query token set, per-family query side)``; for the word-level
        families ``(query words, their q-grams)``."""
        tokens = self.tokenizer.tokenize(query)
        if self.name in _COMBINATION:
            return tokens, {gram for word in tokens for gram in self._grams(word)}
        counts, stats, k3 = Counter(tokens), self.stats, self.params.get("k3", 8.0)
        side = {
            "cosine": lambda: _normalized_tfidf(counts, lambda t: stats.idf(t) if t in stats.df else 0.0),
            "bm25": lambda: {t: (k3 + 1.0) * tf / (k3 + tf) for t, tf in counts.items()},
            "hmm": lambda: counts,
            "edit_distance": lambda: normalize_string(query),
        }.get(self.name, lambda: None)
        return set(tokens), side()

    def _score_intersect(self, state, tid):
        common = len(state[0] & self.token_sets[tid])
        return float(common) if common else None

    def _score_jaccard(self, state, tid):
        common = len(state[0] & self.token_sets[tid])
        return common / len(state[0] | self.token_sets[tid]) if common else None

    def _shared_weights(self, state, tid):
        weights, keep_zeros = self.tuple_weights[tid], self.zero_weight_candidates
        return [
            weights[t]
            for t in sorted(state[0] & self.token_sets[tid])
            if keep_zeros or weights[t] != 0.0
        ]

    def _score_weighted_match(self, state, tid):
        shared = self._shared_weights(state, tid)
        return chain(shared) if shared else None

    def _score_weighted_jaccard(self, state, tid):
        """Common weight over union weight (0.0 when that is not positive);
        the two weight totals are ``sum()``s."""
        shared = self._shared_weights(state, tid)
        if shared:
            common, rs = chain(shared), self.stats.rs
            union = (
                sum(rs(t) for t in sorted(state[0]))
                + sum(rs(t) for t in sorted(self.token_sets[tid]))
                - common
            )
            return common / union if union > 0 else 0.0

    def _score_cosine(self, state, tid):
        """``Σ wq(t, Q) wd(t, D)`` over the shared tokens of non-zero weight."""
        query_weights, weights = state[1], self.tuple_weights[tid]
        keep_zeros = self.zero_weight_candidates
        terms = [
            query_weights[t] * weights[t]
            for t in sorted(query_weights)
            if t in weights and (keep_zeros or (query_weights[t] != 0.0 and weights[t] != 0.0))
        ]
        return chain(terms) if terms else None

    _score_bm25 = _score_cosine

    def _score_lm(self, state, tid):
        shared = sorted(state[0] & self.token_sets[tid])
        if shared:
            weights = self.tuple_weights[tid]
            return _exp(chain(weights[t] for t in shared) + self.complements[tid])

    def _score_hmm(self, state, tid):
        """The log factors are added in query first-occurrence order (not
        sorted): the order the library documents as the HMM's canonical one."""
        weights = self.tuple_weights[tid]
        terms = [count * weights[t] for t, count in state[1].items() if t in weights]
        return _exp(chain(terms)) if terms else None

    def _score_edit_distance(self, state, tid):
        if state[0] & self.token_sets[tid]:
            return edit_similarity(state[1], normalize_string(self.strings[tid]))

    # -- the combination family (section 3.5) ------------------------------------

    def _grams(self, word: str) -> set:
        return set(QgramTokenizer(q=self.q).tokenize(word))

    def _word_weight(self, word: str) -> float:
        return self.stats.idf(word) if word in self.stats.df else self._average_idf

    def ges(self, query_words: Sequence[str], tuple_words: Sequence[str]) -> float:
        """Equation 3.14: the cheapest transformation of the query's words
        into the tuple's (replace ``a`` by ``b``: ``(1 - sim_edit(a, b))
        w(a)``, delete ``a``: ``w(a)``, insert ``b``: ``c_ins w(b)``) over the
        query's total weight, a ``sum()`` in query-word order as
        ``GES.ges_score`` adds it."""
        total = sum(self._word_weight(word) for word in query_words)
        if total == 0.0:
            return 0.0 if tuple_words else 1.0
        cins = self.params.get("cins", 0.5)
        wq = [self._word_weight(word) for word in query_words]
        wt = [self._word_weight(word) for word in tuple_words]
        n, m = len(query_words), len(tuple_words)
        cost = [[0.0] * (m + 1) for _ in range(n + 1)]
        for j in range(1, m + 1):
            cost[0][j] = cost[0][j - 1] + cins * wt[j - 1]
        for i in range(1, n + 1):
            cost[i][0] = cost[i - 1][0] + wq[i - 1]
            for j in range(1, m + 1):
                similarity = edit_similarity(query_words[i - 1], tuple_words[j - 1])
                cost[i][j] = min(
                    cost[i - 1][j - 1] + (1.0 - similarity) * wq[i - 1],
                    cost[i - 1][j] + wq[i - 1],
                    cost[i][j - 1] + cins * wt[j - 1],
                )
        return 1.0 - min(cost[n][m] / total, 1.0)

    def _word_similarity(self, a: str, b: str) -> float:
        """Equation 4.7's word similarity: q-gram Jaccard, or its min-hash
        estimate (equation 4.8) for GESApx."""
        if self.name == "ges_apx":
            signature = self._hasher.signature
            return minhash_similarity(signature(self._grams(a)), signature(self._grams(b)))
        left, right = self._grams(a), self._grams(b)
        return len(left & right) / len(left | right) if left and right else 0.0

    def filter_score(self, query_words: Sequence[str], tuple_words: Sequence[str]) -> float:
        """Equation 4.7's over-estimate of GES, over the query words in sorted
        order (the total is a ``sum()``, the weighted terms a fold)."""
        ordered = sorted(query_words)
        total = sum(self._word_weight(word) for word in ordered)
        if total == 0.0:
            return 0.0
        def best(word):
            return max((self._word_similarity(word, other) for other in tuple_words), default=0.0)

        adjustment = 1.0 - 1.0 / self.q
        terms = [self._word_weight(w) * ((2.0 / self.q) * best(w) + adjustment) for w in ordered]
        return chain(terms) / total

    def _score_ges(self, state, tid):
        if state[1] & self._gram_sets[tid]:
            return self.ges(state[0], self.token_lists[tid])

    def _score_ges_jaccard(self, state, tid):
        words, threshold = self.token_lists[tid], self.params.get("threshold", 0.8)
        if state[1] & self._gram_sets[tid] and self.filter_score(state[0], words) >= threshold:
            return self.ges(state[0], words)

    _score_ges_apx = _score_ges_jaccard

    def _score_soft_tfidf(self, state, tid):
        """Soft tf-idf (equation 3.15): each query word's tf-idf weight times
        the tuple's weight of its closest word by Jaro-Winkler, times that
        similarity, when it exceeds θ; query words in sorted order."""
        words = self.token_lists[tid]
        if not state[1] & self._gram_sets[tid] or not words:
            return None
        query_weights = _normalized_tfidf(Counter(state[0]), self._word_weight)
        tuple_weights = _normalized_tfidf(self.stats.tf[tid], self.stats.idf)
        theta = self.params.get("theta", 0.8)
        terms = []
        for word in sorted(query_weights):
            best, closest = 0.0, None
            for other in words:
                similarity = jaro_winkler(word, other)
                if similarity > best:
                    best, closest = similarity, other
            if closest is not None and best > theta:
                terms.append(query_weights[word] * tuple_weights.get(closest, 0.0) * best)
        score = chain(terms)
        return score if score > 0.0 else None
