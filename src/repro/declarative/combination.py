"""Declarative realizations of the combination predicates (Appendix B.4).

These predicates tokenize at two levels (words, then q-grams of each word).
The shared core therefore holds *word* tokens here (its own namespaced core,
independent of the q-gram cores of the other families); word-level q-grams,
idf weights and min-hash signatures are shared features on that core, so the
four combination predicates pay word preprocessing once.

* :class:`DeclarativeSoftTFIDF` follows Figure 4.7: Jaro-Winkler similarities
  between base and query words are computed with the ``JAROWINKLER`` UDF, the
  per-query-word maxima are materialized and the final score is a single
  aggregation.  The batched variant computes the word-similarity tables once
  over the *distinct words of the whole batch* -- words shared between
  queries are matched once -- before a per-``qid`` final aggregation.
* :class:`DeclarativeGESJaccard` and :class:`DeclarativeGESApx` implement the
  *filtering step* of Appendix B.4.1 / B.4.2 in SQL (q-gram Jaccard or
  min-hash similarity between words); candidates whose over-estimated score
  reaches the threshold are then verified with the exact GES computation,
  playing the role of the UDF in the original study.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.core.predicates.combination import GES
from repro.declarative.base import DeclarativePredicate
from repro.text.minhash import MinHasher
from repro.text.tokenize import Tokenizer, WordTokenizer, qgrams

__all__ = [
    "DeclarativeSoftTFIDF",
    "DeclarativeGES",
    "DeclarativeGESJaccard",
    "DeclarativeGESApx",
]


class _DeclarativeCombinationBase(DeclarativePredicate):
    """Shared word-level preprocessing for the combination predicates."""

    family = "combination"

    def __init__(
        self,
        backend: Optional[SQLBackend] = None,
        tokenizer: Optional[Tokenizer] = None,
        q: int = 2,
        **kwargs,
    ):
        super().__init__(backend=backend, tokenizer=tokenizer or WordTokenizer(), **kwargs)
        self.q = q

    # -- shared word-level features ----------------------------------------------

    def _require_idf_tables(self) -> None:
        """BASE_IDF / BASE_IDFAVG over word tokens (shared features)."""
        self.require("idf")
        self.require("idfavg")

    def _require_word_qgrams(self) -> None:
        """BASE_QGRAMS(tid, token, qgram) and BASE_TOKENSIZE(tid, token, len).

        Variant-named per ``q`` so instances with different q-gram sizes can
        share a backend without rebuilding each other's tables.
        """
        feature, suffix = self.core.variant("wordqgrams", self.q)
        self._qgrams_table = f"BASE_QGRAMS{suffix}"
        self._tokensize_table = f"BASE_TOKENSIZE{suffix}"
        qgrams_table, tokensize_table = self._qgrams_table, self._tokensize_table

        def _build(backend, core) -> None:
            rows = []
            seen = set()
            for tid, text in enumerate(self._strings):
                for word in set(self.tokenizer.tokenize(text)):
                    for gram in set(qgrams(word, self.q)):
                        key = (tid, word, gram)
                        if key not in seen:
                            seen.add(key)
                            rows.append(key)
            core.table(
                backend, qgrams_table, ["tid INTEGER", "token TEXT", "qgram TEXT"]
            )
            backend.insert_rows(core.name(qgrams_table), rows)
            core.index(backend, qgrams_table, "qgram")
            core.table(
                backend, tokensize_table, ["tid INTEGER", "token TEXT", "len INTEGER"]
            )
            backend.execute(
                f"INSERT INTO {core.name(tokensize_table)} (tid, token, len) "
                f"SELECT tid, token, COUNT(*) FROM {core.name(qgrams_table)} "
                "GROUP BY tid, token"
            )

        self.require(feature, sig=self.q, builder=_build)

    # -- query-side tables -------------------------------------------------------

    def _load_query_word_tables(self, query: str) -> List[str]:
        """QUERY_TOKENS(token, tf) -- the distinct words and how often each
        occurs in the query -- and QUERY_QGRAMS(token, qgram)."""
        backend = self.backend
        counts = Counter(self.tokenizer.tokenize(query))
        words = list(counts)
        backend.recreate_table("QUERY_TOKENS", ["token TEXT", "tf INTEGER"])
        backend.insert_rows("QUERY_TOKENS", [(word, counts[word]) for word in words])
        backend.recreate_table("QUERY_QGRAMS", ["token TEXT", "qgram TEXT"])
        rows = []
        for word in words:
            for gram in set(qgrams(word, self.q)):
                rows.append((word, gram))
        backend.insert_rows("QUERY_QGRAMS", rows)
        return words

    def _load_batch_word_tables(self, queries: Sequence[str]) -> List[List[str]]:
        """The batched schema: distinct words (with their query frequency) and
        word q-grams per ``qid``."""
        backend = self.backend
        counts_by_qid = [Counter(self.tokenizer.tokenize(query)) for query in queries]
        words_by_qid = [list(counts) for counts in counts_by_qid]
        backend.recreate_table("QUERY_TOKENS", ["qid INTEGER", "token TEXT", "tf INTEGER"])
        backend.insert_rows(
            "QUERY_TOKENS",
            [
                (qid, word, counts[word])
                for qid, counts in enumerate(counts_by_qid)
                for word in counts
            ],
        )
        backend.recreate_table(
            "QUERY_QGRAMS", ["qid INTEGER", "token TEXT", "qgram TEXT"]
        )
        rows = []
        for qid, words in enumerate(words_by_qid):
            for word in words:
                for gram in set(qgrams(word, self.q)):
                    rows.append((qid, word, gram))
        backend.insert_rows("QUERY_QGRAMS", rows)
        return words_by_qid

    def _load_query_idf(self) -> None:
        """QUERY_IDF with the average-idf fallback for unseen tokens
        (Appendix B.4), plus SUM_IDF.

        A word's ``idf`` here is its idf times its frequency in the query:
        the query is a bag of words, so a repeated word weighs in the GES
        filter's sums and in SoftTFIDF's tf-idf vector once per occurrence,
        as it does in the direct realization.
        """
        backend = self.backend
        idf, avg = self.tbl("BASE_IDF"), self.tbl("BASE_IDFAVG")
        backend.recreate_table("QUERY_IDF", ["token TEXT", "idf REAL"])
        backend.execute(
            "INSERT INTO QUERY_IDF (token, idf) "
            f"SELECT S.token, S.tf * R.idf FROM QUERY_TOKENS S, {idf} R "
            "WHERE S.token = R.token "
            "UNION "
            f"SELECT S.token, S.tf * A.idfavg FROM QUERY_TOKENS S, {avg} A "
            f"WHERE S.token NOT IN (SELECT I.token FROM {idf} I)"
        )
        backend.recreate_table("SUM_IDF", ["sumidf REAL"])
        backend.execute("INSERT INTO SUM_IDF (sumidf) SELECT SUM(idf) FROM QUERY_IDF")

    def _load_batch_idf(self) -> None:
        """Per-``qid`` QUERY_IDF / SUM_IDF over the batched word tables (idf
        times query frequency, as in :meth:`_load_query_idf`)."""
        backend = self.backend
        idf, avg = self.tbl("BASE_IDF"), self.tbl("BASE_IDFAVG")
        backend.recreate_table("QUERY_IDF", ["qid INTEGER", "token TEXT", "idf REAL"])
        backend.execute(
            "INSERT INTO QUERY_IDF (qid, token, idf) "
            f"SELECT S.qid, S.token, S.tf * R.idf FROM QUERY_TOKENS S, {idf} R "
            "WHERE S.token = R.token "
            "UNION "
            f"SELECT S.qid, S.token, S.tf * A.idfavg FROM QUERY_TOKENS S, {avg} A "
            f"WHERE S.token NOT IN (SELECT I.token FROM {idf} I)"
        )
        backend.recreate_table("SUM_IDF", ["qid INTEGER", "sumidf REAL"])
        backend.execute(
            "INSERT INTO SUM_IDF (qid, sumidf) "
            "SELECT qid, SUM(idf) FROM QUERY_IDF GROUP BY qid"
        )


#: SoftTFIDF ranks the tuples with a positive score only, as the direct
#: realization does: matching only words of idf 0 scores 0.0.
_SOFT_SCORE_POSITIVE = "SUM(WQ.weight * WB.weight * TM.maxsim) > 0"


class DeclarativeSoftTFIDF(_DeclarativeCombinationBase):
    """SoftTFIDF with Jaro-Winkler word matching (Figure 4.7)."""

    name = "SoftTFIDF"

    def __init__(self, *args, theta: float = 0.8, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be within [0, 1]")
        self.theta = theta

    def weight_phase(self) -> None:
        self._require_idf_tables()
        # Document-side normalized tf-idf over words: the shared cosweights
        # feature (identical formulas to Cosine, applied to word tokens).
        self.require("cosweights")

    def _materialize_word_matches(self, word_source: str) -> None:
        """CLOSE_SIM_SCORES -> MAXSIM -> MAXTOKEN over the given word set.

        ``word_source`` is a subquery producing the distinct query words to
        match; batching passes the union over all queries so every distinct
        word is Jaro-Winkler-matched exactly once per batch.
        """
        backend = self.backend
        backend.recreate_table(
            "CLOSE_SIM_SCORES",
            ["tid INTEGER", "token1 TEXT", "token2 TEXT", "sim REAL"],
        )
        backend.execute(
            "INSERT INTO CLOSE_SIM_SCORES (tid, token1, token2, sim) "
            "SELECT R1.tid, R1.token, R2.token, JAROWINKLER(R1.token, R2.token) "
            f"FROM {self.tbl('BASE_TOKENS_DIST')} R1, {word_source} R2 "
            f"WHERE JAROWINKLER(R1.token, R2.token) > {self.theta}"
        )
        backend.recreate_table(
            "MAXSIM", ["tid INTEGER", "token2 TEXT", "maxsim REAL"]
        )
        backend.execute(
            "INSERT INTO MAXSIM (tid, token2, maxsim) "
            "SELECT tid, token2, MAX(sim) FROM CLOSE_SIM_SCORES GROUP BY tid, token2"
        )
        backend.recreate_table(
            "MAXTOKEN",
            ["tid INTEGER", "token1 TEXT", "token2 TEXT", "maxsim REAL"],
        )
        backend.execute(
            "INSERT INTO MAXTOKEN (tid, token1, token2, maxsim) "
            "SELECT CS.tid, CS.token1, CS.token2, MS.maxsim "
            "FROM MAXSIM MS, CLOSE_SIM_SCORES CS "
            "WHERE CS.tid = MS.tid AND CS.token2 = MS.token2 AND MS.maxsim = CS.sim"
        )

    def prepare_query(self, query: str) -> None:
        self._load_query_word_tables(query)
        self._load_query_idf()
        # Normalized tf-idf weights of the query words.
        backend = self.backend
        backend.recreate_table("QUERY_WEIGHTS", ["token TEXT", "weight REAL"])
        backend.execute(
            "INSERT INTO QUERY_WEIGHTS (token, weight) "
            "SELECT I.token, I.idf / L.length "
            "FROM QUERY_IDF I, "
            "(SELECT SQRT(SUM(Q.idf * Q.idf)) AS length FROM QUERY_IDF Q) L"
        )
        self._materialize_word_matches("QUERY_TOKENS")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT TM.tid, SUM(WQ.weight * WB.weight * TM.maxsim) AS score "
            f"FROM MAXTOKEN TM, QUERY_WEIGHTS WQ, {self.tbl('BASE_COSW')} WB "
            "WHERE TM.token2 = WQ.token AND TM.tid = WB.tid AND TM.token1 = WB.token "
            "GROUP BY TM.tid "
            f"HAVING {_SOFT_SCORE_POSITIVE}",
            (),
        )

    def prepare_batch(self, queries: Sequence[str]) -> None:
        self._load_batch_word_tables(queries)
        self._load_batch_idf()
        backend = self.backend
        backend.recreate_table(
            "QUERY_WEIGHTS", ["qid INTEGER", "token TEXT", "weight REAL"]
        )
        backend.execute(
            "INSERT INTO QUERY_WEIGHTS (qid, token, weight) "
            "SELECT I.qid, I.token, I.idf / L.length "
            "FROM QUERY_IDF I, "
            "(SELECT qid, SQRT(SUM(idf * idf)) AS length FROM QUERY_IDF GROUP BY qid) L "
            "WHERE I.qid = L.qid"
        )
        # Word matching runs once over the distinct words of the whole batch.
        self._materialize_word_matches("(SELECT DISTINCT token FROM QUERY_TOKENS)")

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT WQ.qid, TM.tid, SUM(WQ.weight * WB.weight * TM.maxsim) AS score "
            f"FROM MAXTOKEN TM, QUERY_WEIGHTS WQ, {self.tbl('BASE_COSW')} WB "
            "WHERE TM.token2 = WQ.token AND TM.tid = WB.tid AND TM.token1 = WB.token "
            "GROUP BY WQ.qid, TM.tid "
            f"HAVING {_SOFT_SCORE_POSITIVE}",
            (),
        )


class DeclarativeGES(_DeclarativeCombinationBase):
    """Plain GES computed with a registered UDF (paper section 4.5).

    The paper computes the exact generalized edit similarity with a UDF
    installed in the database server rather than with pure SQL; this
    realization does the same: candidate generation (tuples sharing at least
    one word q-gram with the query) runs in SQL over ``BASE_QGRAMS`` /
    ``QUERY_QGRAMS`` and a ``GESSCORE`` UDF -- registered on either backend --
    scores each candidate tuple with equation 3.14.
    """

    name = "GES"

    def __init__(self, *args, cins: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= cins <= 1.0:
            raise ValueError("cins must be within [0, 1]")
        self.cins = cins
        #: exact GES scorer backing the UDF.
        self._verifier: Optional[GES] = None
        #: word tokens of the query currently being scored (set per query so
        #: the UDF does not re-tokenize the query for every candidate row).
        self._query_words: List[str] = []
        self._batch_words: List[List[str]] = []

    def weight_phase(self) -> None:
        self._require_idf_tables()
        self._require_word_qgrams()
        self._verifier = GES(q=self.q, cins=self.cins).fit(self._strings)

    def _ges_udf(self, tid: object) -> float:
        assert self._verifier is not None
        return self._verifier.ges_score(
            self._query_words, self._verifier._word_lists[int(tid)]
        )

    def _ges_batch_udf(self, qid: object, tid: object) -> float:
        assert self._verifier is not None
        return self._verifier.ges_score(
            self._batch_words[int(qid)], self._verifier._word_lists[int(tid)]
        )

    def prepare_query(self, query: str) -> None:
        self._load_query_word_tables(query)
        self._query_words = self.tokenizer.tokenize(query)
        # (Re)bound per query: several GES instances may share one backend,
        # so the UDF must resolve against *this* predicate's verifier.
        self.backend.register_function("GESSCORE", 1, self._ges_udf)

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT C.tid, GESSCORE(C.tid) AS score "
            "FROM (SELECT DISTINCT BQ.tid AS tid "
            f"      FROM {self.tbl(self._qgrams_table)} BQ, QUERY_QGRAMS Q "
            "      WHERE BQ.qgram = Q.qgram) C",
            (),
        )

    def prepare_batch(self, queries: Sequence[str]) -> None:
        self._load_batch_word_tables(queries)
        self._batch_words = [self.tokenizer.tokenize(query) for query in queries]
        self.backend.register_function("GESSCOREQ", 2, self._ges_batch_udf)

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT C.qid, C.tid, GESSCOREQ(C.qid, C.tid) AS score "
            "FROM (SELECT DISTINCT Q.qid AS qid, BQ.tid AS tid "
            f"      FROM {self.tbl(self._qgrams_table)} BQ, QUERY_QGRAMS Q "
            "      WHERE BQ.qgram = Q.qgram) C",
            (),
        )


class DeclarativeGESJaccard(_DeclarativeCombinationBase):
    """GES with the q-gram Jaccard filtering step of Appendix B.4.1."""

    name = "GESJaccard"
    #: SQL filters, Python verifies -- scoring is not one SELECT statement.
    single_statement = False

    def __init__(self, *args, threshold: float = 0.8, cins: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold
        self.cins = cins
        #: exact GES scorer used for the post-filter verification (the role
        #: played by a UDF in the original study).
        self._verifier: Optional[GES] = None

    def weight_phase(self) -> None:
        self._require_idf_tables()
        self._require_word_qgrams()
        self._verifier = GES(q=self.q, cins=self.cins).fit(self._strings)

    def _filter_sql(self) -> str:
        """The filtering-step SELECT: over-estimated GES score per tuple."""
        q = self.q
        return (
            "SELECT MAXSIM.tid AS tid, "
            f"(1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) AS score "
            "FROM (SELECT JS.tid, JS.token2, MAX(JS.sim) AS maxsim "
            "      FROM (SELECT BSIZE.tid AS tid, BSIZE.token AS token1, Q.token AS token2, "
            "                   COUNT(*) * 1.0 / (BSIZE.len + QSIZE.len - COUNT(*)) AS sim "
            f"            FROM {self.tbl(self._qgrams_table)} BQ, "
            f"                 {self.tbl(self._tokensize_table)} BSIZE, QUERY_QGRAMS Q, "
            "                 (SELECT token, COUNT(*) AS len FROM QUERY_QGRAMS GROUP BY token) QSIZE "
            "            WHERE BQ.qgram = Q.qgram AND BQ.tid = BSIZE.tid AND BQ.token = BSIZE.token "
            "                  AND Q.token = QSIZE.token "
            "            GROUP BY BSIZE.tid, BSIZE.token, Q.token, BSIZE.len, QSIZE.len) JS "
            "      GROUP BY JS.tid, JS.token2) MAXSIM, "
            "     QUERY_IDF I, SUM_IDF SI "
            "WHERE MAXSIM.token2 = I.token "
            "GROUP BY MAXSIM.tid, SI.sumidf "
            f"HAVING (1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) >= {self.threshold}"
        )

    def _batch_filter_sql(self) -> str:
        """The filtering-step SELECT grouped by ``qid`` (one per batch)."""
        q = self.q
        return (
            "SELECT MAXSIM.qid AS qid, MAXSIM.tid AS tid, "
            f"(1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) AS score "
            "FROM (SELECT JS.qid, JS.tid, JS.token2, MAX(JS.sim) AS maxsim "
            "      FROM (SELECT Q.qid AS qid, BSIZE.tid AS tid, BSIZE.token AS token1, "
            "                   Q.token AS token2, "
            "                   COUNT(*) * 1.0 / (BSIZE.len + QSIZE.len - COUNT(*)) AS sim "
            f"            FROM {self.tbl(self._qgrams_table)} BQ, "
            f"                 {self.tbl(self._tokensize_table)} BSIZE, QUERY_QGRAMS Q, "
            "                 (SELECT qid, token, COUNT(*) AS len FROM QUERY_QGRAMS "
            "                  GROUP BY qid, token) QSIZE "
            "            WHERE BQ.qgram = Q.qgram AND BQ.tid = BSIZE.tid AND BQ.token = BSIZE.token "
            "                  AND Q.qid = QSIZE.qid AND Q.token = QSIZE.token "
            "            GROUP BY Q.qid, BSIZE.tid, BSIZE.token, Q.token, BSIZE.len, QSIZE.len) JS "
            "      GROUP BY JS.qid, JS.tid, JS.token2) MAXSIM, "
            "     QUERY_IDF I, SUM_IDF SI "
            "WHERE MAXSIM.token2 = I.token AND MAXSIM.qid = I.qid AND MAXSIM.qid = SI.qid "
            "GROUP BY MAXSIM.qid, MAXSIM.tid, SI.sumidf "
            f"HAVING (1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) >= {self.threshold}"
        )

    def _verify(self, query_words: List[str], tid: int) -> float:
        assert self._verifier is not None
        return self._verifier.ges_score(query_words, self._verifier._word_lists[tid])

    def prepare_query(self, query: str) -> None:
        self._load_query_word_tables(query)
        self._load_query_idf()

    def query_scores(self, query: str) -> List[tuple]:
        assert self._verifier is not None
        self.prepare_query(query)
        candidates = self.backend.query(self._filter_sql())
        query_words = self.tokenizer.tokenize(query)
        return [
            (int(tid), self._verify(query_words, int(tid)))
            for tid, _filter_score in candidates
        ]

    def prepare_batch(self, queries: Sequence[str]) -> None:
        self._load_batch_word_tables(queries)
        self._load_batch_idf()

    def query_scores_batch(self, queries: Sequence[str]) -> List[List[tuple]]:
        """One filtering statement for the whole batch, then exact verification."""
        queries = list(queries)
        self._last_batch_sql = False
        if not queries:
            return []
        assert self._verifier is not None
        self.prepare_batch(queries)
        candidates = self.backend.query(self._batch_filter_sql())
        self._last_batch_sql = True
        words_by_qid = [self.tokenizer.tokenize(query) for query in queries]
        buckets: List[List[tuple]] = [[] for _ in queries]
        for qid, tid, _filter_score in candidates:
            qid, tid = int(qid), int(tid)
            buckets[qid].append((tid, self._verify(words_by_qid[qid], tid)))
        return buckets


class DeclarativeGESApx(DeclarativeGESJaccard):
    """GES with the min-hash filtering step of Appendix B.4.2."""

    name = "GESapx"

    def __init__(self, *args, num_hashes: int = 5, seed: int = 20070411, **kwargs):
        super().__init__(*args, **kwargs)
        self.hasher = MinHasher(num_hashes=num_hashes, seed=seed)

    def weight_phase(self) -> None:
        super().weight_phase()
        sig = (self.q, self.hasher.num_hashes, self.hasher.seed)
        feature, suffix = self.core.variant("minhash", sig)
        self._minhash_table = f"BASE_MINHASH{suffix}"
        table = self._minhash_table

        # BASE_MINHASH(token, fid, value): min-hash signature per distinct word.
        def _build(backend, core) -> None:
            rows = []
            seen = set()
            for text in self._strings:
                for word in self.tokenizer.tokenize(text):
                    if word in seen:
                        continue
                    seen.add(word)
                    signature = self.hasher.signature(qgrams(word, self.q))
                    for fid, value in enumerate(signature):
                        rows.append((word, fid, value))
            core.table(backend, table, ["token TEXT", "fid INTEGER", "value INTEGER"])
            backend.insert_rows(core.name(table), rows)
            core.index(backend, table, "token")

        self.require(feature, sig=sig, builder=_build)

    def _load_query_minhash(self, keyed_words: List[tuple], batched: bool) -> None:
        """``QUERY_MINHASH`` rows; ``keyed_words`` holds ``(qid, word)`` pairs
        (``qid`` is dropped again for the single-query schema)."""
        backend = self.backend
        columns = ["token TEXT", "fid INTEGER", "value INTEGER"]
        if batched:
            columns.insert(0, "qid INTEGER")
        backend.recreate_table("QUERY_MINHASH", columns)
        rows = []
        for qid, word in keyed_words:
            signature = self.hasher.signature(qgrams(word, self.q))
            for fid, value in enumerate(signature):
                row = (word, fid, value)
                rows.append((qid,) + row if batched else row)
        backend.insert_rows("QUERY_MINHASH", rows)

    def _filter_sql(self) -> str:
        q = self.q
        num_hashes = self.hasher.num_hashes
        return (
            "SELECT MAXSIM.tid AS tid, "
            f"(1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) AS score "
            "FROM (SELECT MH.tid, MH.token2, MAX(MH.sim) AS maxsim "
            "      FROM (SELECT D.tid AS tid, D.token AS token1, QS.token AS token2, "
            f"                  COUNT(*) * 1.0 / {num_hashes} AS sim "
            f"            FROM {self.tbl('BASE_TOKENS_DIST')} D, "
            f"                 {self.tbl(self._minhash_table)} BS, QUERY_MINHASH QS "
            "            WHERE D.token = BS.token AND BS.fid = QS.fid AND BS.value = QS.value "
            "            GROUP BY D.tid, D.token, QS.token) MH "
            "      GROUP BY MH.tid, MH.token2) MAXSIM, "
            "     QUERY_IDF I, SUM_IDF SI "
            "WHERE MAXSIM.token2 = I.token "
            "GROUP BY MAXSIM.tid, SI.sumidf "
            f"HAVING (1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) >= {self.threshold}"
        )

    def _batch_filter_sql(self) -> str:
        q = self.q
        num_hashes = self.hasher.num_hashes
        return (
            "SELECT MAXSIM.qid AS qid, MAXSIM.tid AS tid, "
            f"(1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) AS score "
            "FROM (SELECT MH.qid, MH.tid, MH.token2, MAX(MH.sim) AS maxsim "
            "      FROM (SELECT QS.qid AS qid, D.tid AS tid, D.token AS token1, "
            "                   QS.token AS token2, "
            f"                  COUNT(*) * 1.0 / {num_hashes} AS sim "
            f"            FROM {self.tbl('BASE_TOKENS_DIST')} D, "
            f"                 {self.tbl(self._minhash_table)} BS, QUERY_MINHASH QS "
            "            WHERE D.token = BS.token AND BS.fid = QS.fid AND BS.value = QS.value "
            "            GROUP BY QS.qid, D.tid, D.token, QS.token) MH "
            "      GROUP BY MH.qid, MH.tid, MH.token2) MAXSIM, "
            "     QUERY_IDF I, SUM_IDF SI "
            "WHERE MAXSIM.token2 = I.token AND MAXSIM.qid = I.qid AND MAXSIM.qid = SI.qid "
            "GROUP BY MAXSIM.qid, MAXSIM.tid, SI.sumidf "
            f"HAVING (1.0 - 1.0 / {q}) + (1.0 / SI.sumidf) * "
            f"SUM(I.idf * (2.0 / {q}) * MAXSIM.maxsim) >= {self.threshold}"
        )

    def prepare_query(self, query: str) -> None:
        words = self._load_query_word_tables(query)
        self._load_query_idf()
        self._load_query_minhash([(0, word) for word in words], batched=False)

    def prepare_batch(self, queries: Sequence[str]) -> None:
        words_by_qid = self._load_batch_word_tables(queries)
        self._load_batch_idf()
        self._load_query_minhash(
            [(qid, word) for qid, words in enumerate(words_by_qid) for word in words],
            batched=True,
        )
