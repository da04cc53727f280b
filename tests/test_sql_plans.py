"""Plan-shape tests of the declarative SQL on SQLite (structural, no timing).

The declarative realization's speed on SQLite rests on how the planner runs
its statements, which no answer-level test can see:

* every scoring statement probes its weight table through a **covering**
  ``(token, tid, <scored columns>)`` index, so the join reads the index
  b-tree alone and never fetches table rows;
* no statement that bm25, cosine or jaccard run per query builds an
  ``AUTOMATIC`` index (a transient index SQLite builds, and throws away, on
  every execution when no declared index serves a join).

``EXPLAIN QUERY PLAN`` output belongs to the SQLite library Python links
against, so every assertion names ``sqlite3.sqlite_version``.
"""

from __future__ import annotations

import sqlite3
from typing import List, Tuple

import pytest

from repro.backends import SQLiteBackend
from repro.datagen import make_dataset
from repro.declarative import make_declarative_predicate

#: The weight table each family's scoring statement probes by token.
COVERED = {
    "bm25": "BASE_BM25W",
    "cosine": "BASE_COSW",
    "jaccard": "BASE_TOKENSDDL",
    "weighted_match": "BASE_RSWEIGHTS",
    "weighted_jaccard": "BASE_RSTOKENSDDL",
    "lm": "BASE_PM",
    "hmm": "BASE_WEIGHTS_HMM",
}

VERSION = f"SQLite {sqlite3.sqlite_version}"


class ExplainingBackend(SQLiteBackend):
    """A SQLite backend that records the query plan of every statement."""

    def __init__(self) -> None:
        super().__init__()
        self.plans: List[Tuple[str, List[str]]] = []

    def _explain(self, sql, params) -> None:
        if sql.lstrip().split(None, 1)[0].upper() in ("SELECT", "INSERT"):
            rows = self.connection.execute(
                "EXPLAIN QUERY PLAN " + sql, tuple(params) if params else ()
            ).fetchall()
            self.plans.append((sql, [row[-1] for row in rows]))

    def execute(self, sql, params=None):
        self._explain(sql, params)
        return super().execute(sql, params)

    def query(self, sql, params=None):
        self._explain(sql, params)
        return super().query(sql, params)


@pytest.fixture(scope="module")
def rows():
    return make_dataset("CU1", size=120, num_clean=20, seed=7).strings


def _fitted(name, rows):
    backend = ExplainingBackend()
    predicate = make_declarative_predicate(name, backend=backend).preprocess(rows)
    backend.plans.clear()
    return predicate, backend


@pytest.mark.parametrize("name", sorted(COVERED))
def test_scoring_statement_reads_a_covering_index(name, rows):
    predicate, backend = _fitted(name, rows)
    predicate.prepare_query(rows[5])
    sql, params = predicate.scores_sql()
    backend.query(sql, params)
    plan = backend.plans[-1][1]
    probe = f"USING COVERING INDEX IDX_{COVERED[name]}_token_tid_"
    assert any(probe in line for line in plan), (VERSION, name, plan)


@pytest.mark.parametrize("name", ["bm25", "cosine", "jaccard"])
def test_per_query_statements_build_no_automatic_index(name, rows):
    predicate, backend = _fitted(name, rows)
    text = rows[5]
    predicate.top_k(text, 5)
    predicate.rank(text)
    predicate.select(text, 0.3)
    predicate.score(rows[17], 0)
    predicate.run_many([text, rows[17]], op="top_k", k=5)
    assert len(backend.plans) >= 6, (VERSION, backend.plans)
    automatic = [
        (sql, line)
        for sql, plan in backend.plans
        for line in plan
        if "AUTOMATIC" in line
    ]
    assert automatic == [], (VERSION, name, automatic)
