"""Declarative realization of the HMM predicate (Appendix B.3.2).

Preprocessing stores ``LOG(1 + a1 * P(q|D) / (a0 * P(q|GE)))`` per
(tid, token) in ``BASE_WEIGHTS_HMM`` (namespaced by the ``a0`` signature on
the shared core); the query statement joins the query tokens (with
multiplicity) against that table and exponentiates the sum, exactly as in
Figure 4.5 -- batched, the same join groups by ``qid``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.declarative.base import DeclarativePredicate

__all__ = ["DeclarativeHMM"]


class DeclarativeHMM(DeclarativePredicate):
    """Two-state Hidden Markov Model similarity in SQL."""

    name = "HMM"
    family = "language-modeling"

    def __init__(self, *args, a0: float = 0.2, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < a0 < 1.0:
            raise ValueError("a0 must be strictly between 0 and 1")
        self.a0 = a0
        self.a1 = 1.0 - a0

    def weight_phase(self) -> None:
        self.require("pml")
        self.require("hmm_ptge", builder=self._build_ptge)
        feature, suffix = self.core.variant("hmm_weights", self.a0)
        self._weights_table = f"BASE_WEIGHTS_HMM{suffix}"
        self.require(feature, sig=self.a0, builder=self._build_weights)

    def _build_ptge(self, backend, core) -> None:
        t = core.name
        core.table(backend, "BASE_SUMDL", ["sdl INTEGER"])
        backend.execute(
            f"INSERT INTO {t('BASE_SUMDL')} (sdl) SELECT SUM(dl) FROM {t('BASE_DL')}"
        )
        core.table(backend, "BASE_PTGE", ["token TEXT", "ptge REAL"])
        backend.execute(
            f"INSERT INTO {t('BASE_PTGE')} (token, ptge) "
            "SELECT T.token, SUM(T.tf) * 1.0 / D.sdl "
            f"FROM {t('BASE_TF')} T, {t('BASE_SUMDL')} D "
            "GROUP BY T.token, D.sdl"
        )

    def _build_weights(self, backend, core) -> None:
        t = core.name
        table = self._weights_table
        core.table(backend, table, ["tid INTEGER", "token TEXT", "weight REAL"])
        backend.execute(
            f"INSERT INTO {t(table)} (tid, token, weight) "
            f"SELECT M.tid, M.token, LOG(1 + ({self.a1} * M.pml) / ({self.a0} * P.ptge)) "
            f"FROM {t('BASE_PTGE')} P, {t('BASE_PML')} M "
            "WHERE P.token = M.token"
        )
        core.index(backend, table, "token", "tid", "weight")

    def scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT W1.tid, EXP(SUM(W1.weight)) AS score "
            f"FROM {self.tbl(self._weights_table)} W1, QUERY_TOKENS T2 "
            "WHERE W1.token = T2.token "
            "GROUP BY W1.tid",
            (),
        )

    def batch_scores_sql(self) -> Optional[Tuple[str, Tuple]]:
        return (
            "SELECT T2.qid, W1.tid, EXP(SUM(W1.weight)) AS score "
            f"FROM {self.tbl(self._weights_table)} W1, QUERY_TOKENS T2 "
            "WHERE W1.token = T2.token "
            "GROUP BY T2.qid, W1.tid",
            (),
        )
