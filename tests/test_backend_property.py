"""Property-based differential testing: memory engine vs. SQLite.

The declarative framework treats the two backends as interchangeable, and
the in-memory engine exists as an independent oracle for the SQL the
declarative layer emits.  These tests generate random token tables with
Hypothesis -- NULLs in every column, duplicate rows and empty tables
included, the bag/NULL edges two SQL engines are most likely to disagree
on -- and check that one template per production of the engine's grammar
(:mod:`repro.dbengine.parser`) returns the same rows on both backends.

Division is written with a float operand, as the emitted SQL always does:
SQLite divides two integers as integers, the engine always as floats.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import MemoryBackend, SQLiteBackend

tokens = st.sampled_from(["AB", "BC", "CD", "DE", "$A", "A$", None])
tids = st.one_of(st.integers(min_value=0, max_value=5), st.none())


def _with_duplicates(rows):
    return rows + rows[:3]


base_rows = st.lists(st.tuples(tids, tokens), max_size=20).map(_with_duplicates)
query_rows = st.lists(st.tuples(tids, tokens), max_size=6).map(_with_duplicates)

#: One statement per production; each is checked as a bag (sorted rows).
TEMPLATES = {
    "hash equi-join": "SELECT B.tid, Q.qid FROM base_tokens B, query_tokens Q "
    "WHERE B.token = Q.token",
    "cross join + residual comparison": "SELECT B.tid, Q.qid "
    "FROM base_tokens B, query_tokens Q WHERE B.tid > Q.qid AND Q.qid < 4",
    "subquery in FROM": "SELECT X.tid, X.n, Q.qid "
    "FROM (SELECT tid, token, COUNT(*) AS n FROM base_tokens GROUP BY tid, token) X, "
    "query_tokens Q WHERE X.token = Q.token",
    "distinct": "SELECT DISTINCT tid, token FROM base_tokens",
    "group by + count(*)": "SELECT tid, COUNT(*) FROM base_tokens GROUP BY tid",
    "sum / avg / max": "SELECT token, SUM(tid), AVG(tid), MAX(tid) "
    "FROM base_tokens GROUP BY token",
    "aggregates without group by": "SELECT COUNT(*), SUM(tid), MAX(tid) FROM base_tokens",
    "having": "SELECT tid, COUNT(*) FROM base_tokens GROUP BY tid HAVING COUNT(*) >= 2",
    "arithmetic over aggregates": "SELECT tid, COUNT(*) * 1.0 / (COUNT(*) + 1) + 1 "
    "FROM base_tokens GROUP BY tid",
    "arithmetic": "SELECT tid * 2 + 1, tid - 1, tid / (tid - 1.0) FROM base_tokens",
    "between": "SELECT tid FROM base_tokens WHERE tid BETWEEN 1 AND 3",
    "is null": "SELECT tid FROM base_tokens WHERE token IS NULL",
    "is not null": "SELECT tid FROM base_tokens WHERE token IS NOT NULL",
    "in subquery": "SELECT tid, token FROM base_tokens "
    "WHERE token IN (SELECT token FROM query_tokens)",
    "not in subquery": "SELECT tid, token FROM base_tokens "
    "WHERE token NOT IN (SELECT token FROM query_tokens)",
    "in subquery of tids": "SELECT tid FROM base_tokens "
    "WHERE tid IN (SELECT DISTINCT Q.qid FROM query_tokens Q)",
    "case": "SELECT tid, CASE WHEN tid > 2 THEN 1 WHEN tid = 0 THEN 2 ELSE 0 END "
    "FROM base_tokens",
    "union": "SELECT token FROM base_tokens UNION SELECT token FROM query_tokens",
    "functions": "SELECT LENGTH(token), ABS(tid - 3), LOG(tid + 1), SQRT(tid), "
    "EXP(tid), POWER(tid, 2) FROM base_tokens",
    "udfs": "SELECT JAROWINKLER(B.token, Q.token), EDITSIM(B.token, Q.token) "
    "FROM base_tokens B, query_tokens Q WHERE B.tid = Q.qid",
}

#: ORDER BY / LIMIT: compared in order (the keys order every distinct row).
ORDERED = "SELECT tid, token FROM base_tokens ORDER BY tid DESC, token LIMIT 5"


def _normalize(rows):
    """Round floats so both backends compare equal."""
    return [
        tuple(
            round(value, 9) if isinstance(value, float) and math.isfinite(value) else value
            for value in row
        )
        for row in rows
    ]


def _bag(rows):
    return sorted(_normalize(rows), key=repr)


def _load(backend, base, query):
    backend.create_table("base_tokens", ["tid INTEGER", "token TEXT"])
    backend.create_table("query_tokens", ["qid INTEGER", "token TEXT"])
    backend.insert_rows("base_tokens", base)
    backend.insert_rows("query_tokens", query)


def _both(base, query):
    memory, sqlite = MemoryBackend(), SQLiteBackend()
    _load(memory, base, query)
    _load(sqlite, base, query)
    return memory, sqlite


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", list(TEMPLATES))
    @given(base=base_rows, query=query_rows)
    @settings(max_examples=60, deadline=None)
    def test_production_agrees(self, name, base, query):
        memory, sqlite = _both(base, query)
        try:
            sql = TEMPLATES[name]
            assert _bag(memory.query(sql)) == _bag(sqlite.query(sql))
        finally:
            sqlite.close()

    @given(base_rows)
    @settings(max_examples=60, deadline=None)
    def test_order_by_limit_agrees(self, base):
        memory, sqlite = _both(base, [])
        try:
            assert _normalize(memory.query(ORDERED)) == _normalize(sqlite.query(ORDERED))
        finally:
            sqlite.close()

    @given(base_rows, query_rows)
    @settings(max_examples=30, deadline=None)
    def test_insert_select_agrees(self, base, query):
        memory, sqlite = _both(base, query)
        try:
            for backend in (memory, sqlite):
                backend.create_table("sink", ["tid INTEGER", "n INTEGER"])
                backend.execute(
                    "INSERT INTO sink (tid, n) "
                    "SELECT B.tid, COUNT(*) FROM base_tokens B, query_tokens Q "
                    "WHERE B.token = Q.token GROUP BY B.tid"
                )
            sql = "SELECT tid, n FROM sink"
            assert _bag(memory.query(sql)) == _bag(sqlite.query(sql))
        finally:
            sqlite.close()

    @given(base_rows, tokens, st.integers(min_value=-2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_bound_parameters_agree(self, base, token, number):
        """Typed binding: strings, NULL and negative numbers."""
        memory, sqlite = _both(base, [])
        try:
            for sql, params in (
                ("SELECT tid FROM base_tokens WHERE token = ?", [token]),
                ("SELECT tid FROM base_tokens WHERE tid > ?", [number]),
                ("SELECT tid, ?, ? FROM base_tokens", [token, number]),
            ):
                assert _bag(memory.query(sql, params)) == _bag(sqlite.query(sql, params)), sql
        finally:
            sqlite.close()

    @given(base_rows)
    @settings(max_examples=25, deadline=None)
    def test_weight_computation_agrees(self, base):
        """The RS-weight SQL (the trickiest arithmetic) matches across backends."""
        memory, sqlite = _both(base, [])
        try:
            sql = (
                "SELECT D.token, LOG(S.size - D.df + 0.5) - LOG(D.df + 0.5) "
                "FROM (SELECT T.token AS token, COUNT(*) AS df "
                "      FROM (SELECT DISTINCT tid, token FROM base_tokens) T "
                "      GROUP BY T.token) D, "
                "     (SELECT COUNT(*) + 6 AS size FROM base_tokens) S"
            )
            assert _bag(memory.query(sql)) == _bag(sqlite.query(sql))
        finally:
            sqlite.close()
