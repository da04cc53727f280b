"""Declarative realization of the edit-distance predicate (paper section 4.4).

Following Gravano et al., a candidate set is generated from q-gram overlap in
SQL and candidates are verified with an ``EDITSIM`` UDF (registered on both
backends), mirroring the UDF the original study installed in MySQL.

* :meth:`rank` (used for accuracy evaluation, no threshold) verifies every
  tuple sharing at least one q-gram with the query.
* :meth:`select` pushes the count and length filters for the requested
  threshold into the candidate-generation SQL (``HAVING COUNT(*) >= ...`` and
  a length predicate), so that far fewer UDF verifications run -- this is the
  filtering step that makes the edit-based predicate fast in the paper's
  performance experiments.

The query string reaches the SQL exclusively through ``?`` bind parameters
(never interpolated into the statement text), so quotes and other SQL
metacharacters in the data are a non-issue end to end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.predicates.base import Pair, rank_key
from repro.declarative.base import DeclarativePredicate, SQLStats
from repro.text.tokenize import normalize_string

__all__ = ["DeclarativeEditDistance"]


class DeclarativeEditDistance(DeclarativePredicate):
    """Normalized edit similarity with SQL candidate generation + UDF verify."""

    name = "EditDistance"
    family = "edit-based"

    def weight_phase(self) -> None:
        # The candidate filter needs the number of q-grams per tuple and the
        # normalized string; the count is the shared core's BASE_DL, the
        # normalized strings are this family's BASE_NORM feature.
        self.require("dl")

        def _build(backend, core) -> None:
            core.table(backend, "BASE_NORM", ["tid INTEGER", "string TEXT"])
            backend.insert_rows(
                core.name("BASE_NORM"),
                [(tid, normalize_string(text)) for tid, text in enumerate(self._strings)],
            )
            core.index(backend, "BASE_NORM", "tid")

        self.require("norm", builder=_build)

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT C.tid, EDITSIM(B.string, ?) AS score "
            f"FROM (SELECT DISTINCT R1.tid FROM {self.tbl('BASE_TOKENS')} R1, "
            "      QUERY_TOKENS R2 "
            f"      WHERE R1.token = R2.token) C, {self.tbl('BASE_NORM')} B "
            "WHERE B.tid = C.tid",
            (self._query_literal,),
        )

    def prepare_query(self, query: str) -> None:
        super().prepare_query(query)
        self._query_literal = normalize_string(query)

    def prepare_batch(self, queries: Sequence[str]) -> None:
        super().prepare_batch(queries)
        self.backend.recreate_table("QUERY_NORM", ["qid INTEGER", "string TEXT"])
        self.backend.insert_rows(
            "QUERY_NORM",
            [(qid, normalize_string(query)) for qid, query in enumerate(queries)],
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT C.qid, C.tid, EDITSIM(B.string, Q.string) AS score "
            "FROM (SELECT DISTINCT R2.qid AS qid, R1.tid AS tid "
            f"      FROM {self.tbl('BASE_TOKENS')} R1, QUERY_TOKENS R2 "
            "      WHERE R1.token = R2.token) C, "
            f"{self.tbl('BASE_NORM')} B, QUERY_NORM Q "
            "WHERE B.tid = C.tid AND Q.qid = C.qid",
            (),
        )

    def select_pairs(self, query: str, threshold: float) -> List[Pair]:
        """Thresholded selection with the q-gram count filter pushed into SQL."""
        self._require_preprocessed()
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self._check_blocker_threshold(threshold)
        self.prepare_query(query)
        normalized = self._query_literal
        q = getattr(self.tokenizer, "q", 2)
        query_length = len(normalized)
        num_query_tokens = len(self.tokenizer.tokenize(query))
        # sim >= threshold implies ed <= (1 - threshold) * max(|Q|, |D|), which
        # yields the q-gram count filter and the length filter pushed into the
        # candidate-generation statement below.
        rows = self._select_rows(normalized, threshold, q, query_length, num_query_tokens)
        # Blocking/restriction applies to the scored candidates *before* the
        # threshold cut, so last_num_candidates counts candidates scored (as
        # in every other predicate), not final results.
        scored = self._apply_candidate_filter(query, rows)
        self.last_sql_stats = SQLStats(
            rows_scored=len(scored), base_size=len(self._strings)
        )
        results = [pair for pair in scored if pair[1] >= threshold]
        results.sort(key=rank_key)
        return results

    def _select_rows(
        self,
        literal: str,
        threshold: float,
        q: int,
        query_length: int,
        num_query_tokens: int,
    ) -> List[tuple]:
        """Candidate generation with count + length filters, then UDF verify.

        The correlated-subquery form of the filter is kept out of the main
        statement for portability: the length and count bounds are computed by
        joining the shared per-tuple token counts (``BASE_DL``) and the
        normalized strings (``BASE_NORM``) directly.
        """
        return self.backend.query(
            "SELECT F.tid, EDITSIM(F.string, ?) AS score "
            "FROM (SELECT R1.tid AS tid, N.string AS string, Q.dl AS cnt, "
            "             LENGTH(N.string) AS blen, COUNT(*) AS common "
            f"      FROM {self.tbl('BASE_TOKENS')} R1, QUERY_TOKENS R2, "
            f"           {self.tbl('BASE_DL')} Q, {self.tbl('BASE_NORM')} N "
            "      WHERE R1.token = R2.token AND Q.tid = R1.tid AND N.tid = R1.tid "
            "      GROUP BY R1.tid, Q.dl, N.string "
            "      HAVING COUNT(*) >= "
            f"        (CASE WHEN Q.dl > {num_query_tokens} THEN Q.dl ELSE {num_query_tokens} END) "
            f"        - ((1.0 - {threshold}) * "
            f"           (CASE WHEN LENGTH(N.string) > {query_length} "
            f"                 THEN LENGTH(N.string) ELSE {query_length} END) * {q}) "
            f"        AND ABS(LENGTH(N.string) - {query_length}) <= "
            f"            (1.0 - {threshold}) * "
            f"            (CASE WHEN LENGTH(N.string) > {query_length} "
            f"                  THEN LENGTH(N.string) ELSE {query_length} END)"
            "      ) F",
            [literal],
        )
