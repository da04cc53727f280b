"""Declarative realizations of the overlap predicates (Appendix B.1).

All four predicates operate on *distinct* (tid, token) pairs
(``BASE_TOKENS_DIST``, part of the shared core); the weighted variants
additionally use the shared Robertson-Sparck Jones weight tables (the
paper's preferred weighting for this class, section 5.3.1).

:class:`DeclarativeJaccard` additionally carries the in-SQL candidate-pruning
fast path for thresholded selections: the length-filter bounds of
:mod:`repro.blocking.length` become a ``BETWEEN`` predicate over the shared
per-tuple token counts, and the prefix-filter lemma of
:mod:`repro.blocking.prefix` becomes a semi-join against a materialized
rarest-tokens prefix table -- both exact for Jaccard, so the pruned
statement returns the same selection while scoring a fraction of the rows.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.blocking.prefix import PrefixFilter
from repro.core.predicates.base import Pair, rank_key
from repro.declarative.base import DeclarativePredicate, SQLStats

__all__ = [
    "DeclarativeIntersectSize",
    "DeclarativeJaccard",
    "DeclarativeWeightedMatch",
    "DeclarativeWeightedJaccard",
]

_DQT = "(SELECT DISTINCT token FROM QUERY_TOKENS)"
_BDQT = "(SELECT DISTINCT qid, token FROM QUERY_TOKENS)"

#: Float slack of the in-SQL length bounds, mirroring the blocker's
#: exactness-first policy (noise can only loosen the bounds).
_EPS = 1e-9


class _DeclarativeOverlapBase(DeclarativePredicate):
    family = "overlap"


class DeclarativeIntersectSize(_DeclarativeOverlapBase):
    """IntersectSize: number of common distinct tokens (Figure 4.1)."""

    name = "IntersectSize"

    def weight_phase(self) -> None:
        pass  # the shared core's BASE_TOKENS_DIST is all this predicate needs

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT R1.tid, COUNT(*) AS score "
            f"FROM {self.tbl('BASE_TOKENS_DIST')} R1, {_DQT} R2 "
            "WHERE R1.token = R2.token "
            "GROUP BY R1.tid",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT R2.qid, R1.tid, COUNT(*) AS score "
            f"FROM {self.tbl('BASE_TOKENS_DIST')} R1, {_BDQT} R2 "
            "WHERE R1.token = R2.token "
            "GROUP BY R2.qid, R1.tid",
            (),
        )


class DeclarativeJaccard(_DeclarativeOverlapBase):
    """Jaccard coefficient (Figure 4.2)."""

    name = "Jaccard"
    #: Length/prefix blockers stay exact for this score (see the direct twin).
    similarity_kind = "jaccard"

    def weight_phase(self) -> None:
        self.require("tokensddl")

    # The distinct query tokens and their count are materialized once per
    # query/batch (QUERY_DIST / QUERY_LEN) instead of re-deriving the DISTINCT
    # subquery at every mention inside the scoring statement.

    def prepare_query(self, query: str) -> None:
        super().prepare_query(query)
        backend = self.backend
        backend.recreate_table("QUERY_DIST", ["token TEXT"])
        backend.execute(
            "INSERT INTO QUERY_DIST (token) SELECT DISTINCT token FROM QUERY_TOKENS"
        )
        backend.recreate_table("QUERY_LEN", ["len INTEGER"])
        backend.execute("INSERT INTO QUERY_LEN (len) SELECT COUNT(*) FROM QUERY_DIST")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT S1.tid, COUNT(*) * 1.0 / (S1.len + S2.len - COUNT(*)) AS score "
            f"FROM {self.tbl('BASE_TOKENSDDL')} S1, QUERY_DIST R2, QUERY_LEN S2 "
            "WHERE S1.token = R2.token "
            "GROUP BY S1.tid, S1.len, S2.len",
            (),
        )

    def prepare_batch(self, queries) -> None:
        super().prepare_batch(queries)
        backend = self.backend
        backend.recreate_table("QUERY_DIST", ["qid INTEGER", "token TEXT"])
        backend.execute(
            "INSERT INTO QUERY_DIST (qid, token) "
            "SELECT DISTINCT qid, token FROM QUERY_TOKENS"
        )
        backend.recreate_table("QUERY_LEN", ["qid INTEGER", "len INTEGER"])
        backend.execute(
            "INSERT INTO QUERY_LEN (qid, len) "
            "SELECT qid, COUNT(*) FROM QUERY_DIST GROUP BY qid"
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT R2.qid, S1.tid, "
            "COUNT(*) * 1.0 / (S1.len + QL.len - COUNT(*)) AS score "
            f"FROM {self.tbl('BASE_TOKENSDDL')} S1, QUERY_DIST R2, QUERY_LEN QL "
            "WHERE S1.token = R2.token AND QL.qid = R2.qid "
            "GROUP BY R2.qid, S1.tid, S1.len, QL.len",
            (),
        )

    # -- in-SQL candidate pruning (threshold-aware select fast path) -------------

    def _prefix_filter_for(self, threshold: float) -> PrefixFilter:
        """The fitted prefix filter backing ``BASE_PREFIX`` (built at the
        lowest threshold seen; prefixes for a lower threshold are supersets,
        so reusing them at a higher threshold stays exact)."""
        core = self.core
        built: Optional[PrefixFilter] = core.meta.get("prefix_filter")
        if built is None or threshold < built.threshold:
            blocker = PrefixFilter(threshold, tokenizer=self.tokenizer)

            def _build(backend, core) -> None:
                blocker.fit(blocker.tokenizer.tokenize_many(self._strings))
                core.table(backend, "BASE_PREFIX", ["tid INTEGER", "token TEXT"])
                rows = [
                    (tid, token)
                    for tid, prefix in enumerate(blocker._prefixes)
                    for token in prefix
                ]
                backend.insert_rows(core.name("BASE_PREFIX"), rows)
                core.index(backend, "BASE_PREFIX", "token")
                core.meta["prefix_filter"] = blocker

            self.require("prefix", sig=("prefix", blocker.threshold), builder=_build)
            built = blocker
        else:
            # Record the feature dependency for staleness tracking.
            self._core_features["prefix"] = core.sigs.get("prefix")
        return built

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Thresholded selection with length/prefix bounds pushed into SQL.

        Exact for Jaccard (the same argument as the blocking filters): a
        candidate outside the token-count bounds, or sharing no rarest-prefix
        token with the query, cannot reach the threshold.  Falls back to the
        generic scored-then-filtered path when the threshold does not prune.
        """
        if not 0.0 < threshold <= 1.0:
            return super().select_pairs(query, threshold)
        self._check_blocker_threshold(threshold)
        self._require_preprocessed()
        prefix_filter = self._prefix_filter_for(threshold)
        self.prepare_query(query)
        query_tokens = set(self.tokenizer.tokenize(query))
        prefix_tokens = prefix_filter.prefix_of(query_tokens)
        low = math.ceil(threshold * len(query_tokens) - _EPS)
        high = math.floor(len(query_tokens) / threshold + _EPS)
        self.backend.recreate_table("QUERY_PREFIX", ["token TEXT"])
        self.backend.insert_rows("QUERY_PREFIX", [(token,) for token in prefix_tokens])
        sql = (
            "SELECT S1.tid, COUNT(*) * 1.0 / (S1.len + S2.len - COUNT(*)) AS score "
            f"FROM {self.tbl('BASE_TOKENSDDL')} S1, QUERY_DIST R2, QUERY_LEN S2 "
            "WHERE S1.token = R2.token "
            f"AND S1.len BETWEEN {low} AND {high} "
            "AND S1.tid IN (SELECT DISTINCT P.tid "
            f"               FROM {self.tbl('BASE_PREFIX')} P, QUERY_PREFIX QP "
            "               WHERE P.token = QP.token) "
            "GROUP BY S1.tid, S1.len, S2.len"
        )
        rows = self._apply_candidate_filter(query, self.backend.query(sql))
        self.last_sql_stats = SQLStats(
            rows_scored=len(rows),
            base_size=len(self._strings),
            plan=("length-filter", "prefix-filter"),
        )
        results = [pair for pair in rows if pair[1] >= threshold]
        results.sort(key=rank_key)
        return results


class DeclarativeWeightedMatch(_DeclarativeOverlapBase):
    """WeightedMatch: total RS weight of the common tokens."""

    name = "WeightedMatch"

    def weight_phase(self) -> None:
        self.require("rsweights")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT W1.tid, SUM(W1.weight) AS score "
            f"FROM {self.tbl('BASE_RSWEIGHTS')} W1, {_DQT} T2 "
            "WHERE W1.token = T2.token "
            "GROUP BY W1.tid",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT T2.qid, W1.tid, SUM(W1.weight) AS score "
            f"FROM {self.tbl('BASE_RSWEIGHTS')} W1, {_BDQT} T2 "
            "WHERE W1.token = T2.token "
            "GROUP BY T2.qid, W1.tid",
            (),
        )


#: WeightedJaccard's two weights per (query, tuple): of the shared tokens
#: (``common``) and of the union (``tuple + query - common``).
_WJ_PARTS = (
    "SUM(S1.weight) AS common, S1.ddl + {query}.ddl - SUM(S1.weight) AS union_weight"
)

#: The score: common over union weight, 0.0 where the union weight is not
#: positive (RS weights go negative for tokens in more than half the tuples).
_WJ_SCORE = "CASE WHEN X.union_weight > 0 THEN X.common / X.union_weight ELSE 0.0 END"

#: A tuple is a candidate when it shares a token of non-zero weight (RS weight
#: 0 at ``df = N/2``), as in the direct realization, whose weighted postings
#: keep no zero.
_WJ_SHARES_WEIGHT = "MAX(ABS(S1.weight)) > 0"


class DeclarativeWeightedJaccard(_DeclarativeOverlapBase):
    """WeightedJaccard: RS weight of the intersection over the union."""

    name = "WeightedJaccard"

    def weight_phase(self) -> None:
        self.require("rstokensddl")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            f"SELECT X.tid, {_WJ_SCORE} AS score FROM ("
            f"SELECT S1.tid AS tid, {_WJ_PARTS.format(query='S2')} "
            f"FROM {self.tbl('BASE_RSTOKENSDDL')} S1, {_DQT} R2, "
            "(SELECT SUM(W.weight) AS ddl "
            f" FROM {self.tbl('BASE_RSW')} W, {_DQT} QT"
            " WHERE W.token = QT.token) S2 "
            "WHERE S1.token = R2.token "
            "GROUP BY S1.tid, S1.ddl, S2.ddl "
            f"HAVING {_WJ_SHARES_WEIGHT}) X",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            f"SELECT X.qid, X.tid, {_WJ_SCORE} AS score FROM ("
            f"SELECT R2.qid AS qid, S1.tid AS tid, {_WJ_PARTS.format(query='QS')} "
            f"FROM {self.tbl('BASE_RSTOKENSDDL')} S1, {_BDQT} R2, "
            "(SELECT QT.qid AS qid, SUM(W.weight) AS ddl "
            f" FROM {self.tbl('BASE_RSW')} W, {_BDQT} QT "
            " WHERE W.token = QT.token GROUP BY QT.qid) QS "
            "WHERE S1.token = R2.token AND QS.qid = R2.qid "
            "GROUP BY R2.qid, S1.tid, S1.ddl, QS.ddl "
            f"HAVING {_WJ_SHARES_WEIGHT}) X",
            (),
        )
