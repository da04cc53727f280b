"""Declarative realizations of the aggregate weighted predicates (Appendix B.2).

Both predicates read their document-side weights from shared-core feature
tables (normalized tf-idf for Cosine; for BM25 the shared RS/``midf`` table
combined with the parameter-dependent modified tf, namespaced by the
``(k1, b)`` signature), each indexed covering ``(token, tid, weight)`` so
the scoring join reads the index alone.  Query-time scoring is the
single-join statement of Figure 4.3: BM25 derives the query-side ``mtf``
in a subquery, Cosine joins a ``QUERY_WEIGHTS(token, weight)`` table that
:meth:`DeclarativeCosine.prepare_query` materializes once per query (the
query length is then computed once, not per scoring statement).

The batched variants group the same joins by ``qid``; Cosine materializes
the per-query normalized weights (``QUERY_WEIGHTS(qid, token, weight)``)
with a constant number of statements per batch before the final join.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.declarative.base import DeclarativePredicate
from repro.text.weights import BM25Parameters

__all__ = ["DeclarativeCosine", "DeclarativeBM25"]


class _DeclarativeAggregateBase(DeclarativePredicate):
    family = "aggregate-weighted"


class DeclarativeCosine(_DeclarativeAggregateBase):
    """tf-idf cosine similarity (Appendix B.2.1)."""

    name = "Cosine"

    def weight_phase(self) -> None:
        self.require("cosweights")

    def prepare_query(self, query: str) -> None:
        """``QUERY_TOKENS`` plus the query's normalized tf-idf weights.

        ``QUERY_WEIGHTS(token, weight)`` is materialized once per query, so
        the scoring statement is a two-table join and the query length is
        computed once.  The query tf counts tokens with multiplicity (a
        repeated q-gram weighs more); query tokens absent from ``BASE_IDF``
        are dropped by the inner join.
        """
        super().prepare_query(query)
        idf = self.tbl("BASE_IDF")
        qtf = "(SELECT T.token, COUNT(*) AS tf FROM QUERY_TOKENS T GROUP BY T.token)"
        self.backend.recreate_table("QUERY_WEIGHTS", ["token TEXT", "weight REAL"])
        self.backend.execute(
            "INSERT INTO QUERY_WEIGHTS (token, weight) "
            "SELECT QTF.token, R.idf * QTF.tf / QLEN.length "
            f"FROM {qtf} QTF, {idf} R, "
            "     (SELECT SQRT(SUM(QI.idf * QI.idf * QT.tf * QT.tf)) AS length "
            f"      FROM {qtf} QT, {idf} QI WHERE QT.token = QI.token) QLEN "
            "WHERE QTF.token = R.token"
        )

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT R1W.tid, SUM(R1W.weight * R2W.weight) AS score "
            f"FROM {self.tbl('BASE_COSW')} R1W, QUERY_WEIGHTS R2W "
            "WHERE R1W.token = R2W.token "
            "GROUP BY R1W.tid",
            (),
        )

    def prepare_batch(self, queries: Sequence[str]) -> None:
        """Batch schema plus the per-query normalized weights table."""
        super().prepare_batch(queries)
        backend = self.backend
        idf = self.tbl("BASE_IDF")
        backend.recreate_table(
            "QUERY_IDF", ["qid INTEGER", "token TEXT", "idf REAL"]
        )
        backend.execute(
            "INSERT INTO QUERY_IDF (qid, token, idf) "
            "SELECT S.qid, S.token, R.idf "
            f"FROM (SELECT DISTINCT qid, token FROM QUERY_TOKENS) S, {idf} R "
            "WHERE S.token = R.token"
        )
        backend.recreate_table(
            "QUERY_TF", ["qid INTEGER", "token TEXT", "tf INTEGER"]
        )
        backend.execute(
            "INSERT INTO QUERY_TF (qid, token, tf) "
            "SELECT T.qid, T.token, COUNT(*) FROM QUERY_TOKENS T GROUP BY T.qid, T.token"
        )
        backend.recreate_table("QUERY_LENGTH", ["qid INTEGER", "length REAL"])
        backend.execute(
            "INSERT INTO QUERY_LENGTH (qid, length) "
            "SELECT QI.qid, SQRT(SUM(QI.idf * QI.idf * QT.tf * QT.tf)) "
            "FROM QUERY_IDF QI, QUERY_TF QT "
            "WHERE QI.qid = QT.qid AND QI.token = QT.token "
            "GROUP BY QI.qid"
        )
        backend.recreate_table(
            "QUERY_WEIGHTS", ["qid INTEGER", "token TEXT", "weight REAL"]
        )
        backend.execute(
            "INSERT INTO QUERY_WEIGHTS (qid, token, weight) "
            "SELECT QI.qid, QI.token, QI.idf * QT.tf / QL.length "
            "FROM QUERY_IDF QI, QUERY_TF QT, QUERY_LENGTH QL "
            "WHERE QI.qid = QT.qid AND QI.token = QT.token AND QI.qid = QL.qid"
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT R2W.qid, R1W.tid, SUM(R1W.weight * R2W.weight) AS score "
            f"FROM {self.tbl('BASE_COSW')} R1W, QUERY_WEIGHTS R2W "
            "WHERE R1W.token = R2W.token "
            "GROUP BY R2W.qid, R1W.tid",
            (),
        )


class DeclarativeBM25(_DeclarativeAggregateBase):
    """Okapi BM25 (Appendix B.2.2)."""

    name = "BM25"

    def __init__(self, *args, params: BM25Parameters | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = params or BM25Parameters()

    def weight_phase(self) -> None:
        k1, b = self.params.k1, self.params.b
        self.require("avgdl")
        self.require("rsw")  # BM25's midf is the RS weight formula
        feature, suffix = self.core.variant("bm25weights", (k1, b))
        self._weights_table = f"BASE_BM25W{suffix}"
        table = self._weights_table

        def _build(backend, core) -> None:
            core.table(backend, table, ["tid INTEGER", "token TEXT", "weight REAL"])
            backend.execute(
                f"INSERT INTO {core.name(table)} (tid, token, weight) "
                f"SELECT T.tid, T.token, ((T.tf * ({k1} + 1)) / "
                f"((((1 - {b}) + ({b} * L.dl / A.avgdl)) * {k1}) + T.tf)) * I.weight "
                f"FROM {core.name('BASE_DL')} L, {core.name('BASE_AVGDL')} A, "
                f"{core.name('BASE_TF')} T, {core.name('BASE_RSW')} I "
                "WHERE L.tid = T.tid AND T.token = I.token"
            )
            core.index(backend, table, "token", "tid", "weight")

        self.require(feature, sig=(k1, b), builder=_build)

    def _query_mtf_subquery(self) -> str:
        k3 = self.params.k3
        return (
            f"(SELECT token, (COUNT(*) * ({k3} + 1)) / ({k3} + COUNT(*)) AS mtf "
            " FROM QUERY_TOKENS T GROUP BY T.token)"
        )

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT B.tid, SUM(B.weight * S.mtf) AS score "
            f"FROM {self.tbl(self._weights_table)} B, {self._query_mtf_subquery()} S "
            "WHERE B.token = S.token "
            "GROUP BY B.tid",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        k3 = self.params.k3
        return (
            "SELECT S.qid, B.tid, SUM(B.weight * S.mtf) AS score "
            f"FROM {self.tbl(self._weights_table)} B, "
            f"(SELECT qid, token, (COUNT(*) * ({k3} + 1)) / ({k3} + COUNT(*)) AS mtf "
            " FROM QUERY_TOKENS T GROUP BY T.qid, T.token) S "
            "WHERE B.token = S.token "
            "GROUP BY S.qid, B.tid",
            (),
        )
