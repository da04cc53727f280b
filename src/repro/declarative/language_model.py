"""Declarative realization of the language modeling predicate (Appendix B.3.1).

Preprocessing materializes the chain of tables from the paper on top of the
shared core (``BASE_TF`` / ``BASE_DL`` / ``BASE_PML`` come from the core;
``BASE_PAVG`` -> ``BASE_FREQ`` -> ``BASE_RISK`` -> ``BASE_CFCS`` ->
``BASE_PM`` -> ``BASE_SUMCOMPM`` are this predicate's chain); the query
statement is the two-term formula of Figure 4.4 computed in log space, also
available grouped by ``qid`` for batched workloads.

The only deviation from the verbatim appendix SQL is a ``CASE`` clamp on
``p̂(t|M_D)`` so that ``LOG(1 - pm)`` stays finite for degenerate tuples
consisting of a single repeated token; the direct implementation applies the
same clamp.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.declarative.base import DeclarativePredicate

__all__ = ["DeclarativeLanguageModeling"]

_PM_CLAMP = "0.999999999999"


class DeclarativeLanguageModeling(DeclarativePredicate):
    """Ponte-Croft language modeling similarity in SQL."""

    name = "LM"
    family = "language-modeling"

    def weight_phase(self) -> None:
        self.require("pml")
        self.require("lm_chain", builder=self._build_chain)

    def _build_chain(self, backend, core) -> None:
        t = core.name
        core.table(backend, "BASE_PAVG", ["token TEXT", "pavg REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_PAVG')} (token, pavg) "
            f"SELECT P.token, AVG(P.pml) FROM {t('BASE_PML')} P GROUP BY P.token"
        )
        core.table(backend, "BASE_FREQ", ["tid INTEGER", "token TEXT", "freq REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_FREQ')} (tid, token, freq) "
            "SELECT T.tid, T.token, P.pavg * D.dl "
            f"FROM {t('BASE_TF')} T, {t('BASE_PAVG')} P, {t('BASE_DL')} D "
            "WHERE T.token = P.token AND T.tid = D.tid"
        )
        core.table(backend, "BASE_RISK", ["tid INTEGER", "token TEXT", "risk REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_RISK')} (tid, token, risk) "
            "SELECT T.tid, T.token, "
            "(1.0 / (1.0 + Q.freq)) * POWER(Q.freq / (1.0 + Q.freq), T.tf) "
            f"FROM {t('BASE_TF')} T, {t('BASE_FREQ')} Q "
            "WHERE T.tid = Q.tid AND T.token = Q.token"
        )
        core.table(backend, "BASE_TSIZE", ["size INTEGER"])
        backend.execute(
            f"INSERT INTO {t('BASE_TSIZE')} (size) SELECT COUNT(*) FROM {t('BASE_TOKENS')}"
        )
        core.table(backend, "BASE_CFCS", ["token TEXT", "cfcs REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_CFCS')} (token, cfcs) "
            "SELECT T.token, COUNT(*) * 1.0 / S.size "
            f"FROM {t('BASE_TOKENS')} T, {t('BASE_TSIZE')} S "
            "GROUP BY T.token, S.size"
        )
        core.table(
            backend, "BASE_PM", ["tid INTEGER", "token TEXT", "pm REAL", "cfcs REAL"]
        )
        backend.execute(
            f"INSERT INTO {t('BASE_PM')} (tid, token, pm, cfcs) "
            "SELECT T.tid, T.token, "
            f"CASE WHEN POWER(M.pml, 1.0 - R.risk) * POWER(A.pavg, R.risk) >= 1.0 "
            f"     THEN {_PM_CLAMP} "
            "      ELSE POWER(M.pml, 1.0 - R.risk) * POWER(A.pavg, R.risk) END, "
            "C.cfcs "
            f"FROM {t('BASE_TF')} T, {t('BASE_RISK')} R, {t('BASE_PML')} M, "
            f"{t('BASE_PAVG')} A, {t('BASE_CFCS')} C "
            "WHERE T.tid = R.tid AND T.token = R.token AND T.tid = M.tid "
            "AND T.token = M.token AND T.token = A.token AND T.token = C.token"
        )
        core.index(backend, "BASE_PM", "token", "tid", "pm", "cfcs")
        core.table(backend, "BASE_SUMCOMPM", ["tid INTEGER", "sumcompm REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_SUMCOMPM')} (tid, sumcompm) "
            f"SELECT P.tid, SUM(LOG(1.0 - P.pm)) FROM {t('BASE_PM')} P GROUP BY P.tid"
        )
        core.index(backend, "BASE_SUMCOMPM", "tid")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT B1.tid, EXP(B1.score + B2.sumcompm) AS score "
            "FROM (SELECT P1.tid AS tid, "
            "             SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score "
            f"      FROM {self.tbl('BASE_PM')} P1, "
            "           (SELECT DISTINCT token FROM QUERY_TOKENS) T2 "
            "      WHERE P1.token = T2.token "
            f"      GROUP BY P1.tid) B1, {self.tbl('BASE_SUMCOMPM')} B2 "
            "WHERE B1.tid = B2.tid",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT B1.qid, B1.tid, EXP(B1.score + B2.sumcompm) AS score "
            "FROM (SELECT T2.qid AS qid, P1.tid AS tid, "
            "             SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score "
            f"      FROM {self.tbl('BASE_PM')} P1, "
            "           (SELECT DISTINCT qid, token FROM QUERY_TOKENS) T2 "
            "      WHERE P1.token = T2.token "
            f"      GROUP BY T2.qid, P1.tid) B1, {self.tbl('BASE_SUMCOMPM')} B2 "
            "WHERE B1.tid = B2.tid",
            (),
        )
