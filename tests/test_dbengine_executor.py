"""Unit tests for the SQL executor and Database catalog."""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend
from repro.dbengine import CatalogError, Database, ExecutionError


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table("tokens", ["tid", "token"])
    database.insert_rows(
        "tokens",
        [
            (1, "AB"), (1, "BC"), (1, "AB"),
            (2, "AB"), (2, "CD"),
            (3, "XY"),
        ],
    )
    database.create_table("query_tokens", ["token"])
    database.insert_rows("query_tokens", [("AB",), ("BC",)])
    database.create_table("one", ["x"])
    database.insert_rows("one", [(1,)])
    return database


class TestCatalog:
    def test_create_and_look_up_tables(self, db):
        assert db.table("QUERY_TOKENS").name == "query_tokens"
        assert db.table("tokens").column_names == ["tid", "token"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("tokens", ["x"])

    def test_create_if_not_exists(self, db):
        db.create_table("tokens", ["x"], if_not_exists=True)
        assert db.table("tokens").column_names == ["tid", "token"]

    def test_drop_table(self, db):
        db.drop_table("query_tokens")
        with pytest.raises(CatalogError):
            db.table("query_tokens")

    def test_drop_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.drop_table("nope")
        db.drop_table("nope", if_exists=True)

    def test_unknown_table_in_query(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT x FROM missing")

    def test_query_requires_select(self, db):
        with pytest.raises(ExecutionError):
            db.query("INSERT INTO query_tokens (token) SELECT token FROM tokens")

    def test_insert_select_and_count(self, db):
        count = db.execute(
            "INSERT INTO query_tokens (token) SELECT token FROM tokens WHERE tid = 2"
        )
        assert count == 2
        assert db.table("query_tokens").rows[-1] == ("CD",)

    def test_insert_wrong_arity(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO tokens (tid, token) SELECT tid FROM tokens")

    def test_bulk_insert_wrong_arity(self, db):
        with pytest.raises(ExecutionError):
            db.insert_rows("tokens", [(1,)])


class TestSelectBasics:
    def test_select_constant(self, db):
        assert db.query("SELECT 1 + 1 AS two FROM one").rows == [(2,)]

    def test_projection_and_alias(self, db):
        result = db.query("SELECT tid AS id, token FROM tokens WHERE tid = 3")
        assert result.columns == ["id", "token"]
        assert result.rows == [(3, "XY")]

    def test_where_filtering(self, db):
        result = db.query("SELECT token FROM tokens WHERE tid = 2")
        assert sorted(result.rows) == [("AB",), ("CD",)]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT tid FROM tokens")
        assert sorted(result.rows) == [(1,), (2,), (3,)]

    def test_order_by_and_limit(self, db):
        result = db.query("SELECT DISTINCT tid FROM tokens ORDER BY tid DESC LIMIT 2")
        assert result.rows == [(3,), (2,)]

    def test_between(self, db):
        result = db.query("SELECT DISTINCT tid FROM tokens WHERE tid BETWEEN 2 AND 3")
        assert sorted(result.rows) == [(2,), (3,)]

    def test_case_expression(self, db):
        result = db.query(
            "SELECT DISTINCT tid, CASE WHEN tid = 1 THEN ? ELSE ? END AS label "
            "FROM tokens ORDER BY tid",
            ["one", "other"],
        )
        assert result.rows[0] == (1, "one")
        assert result.rows[1] == (2, "other")

    def test_is_null(self, db):
        db.create_table("sparse", ["a", "b"])
        db.insert_rows("sparse", [(1, None), (2, "x")])
        assert db.query("SELECT a FROM sparse WHERE b IS NULL").rows == [(1,)]
        assert db.query("SELECT a FROM sparse WHERE b IS NOT NULL").rows == [(2,)]

    def test_division_by_zero_yields_null(self, db):
        assert db.query("SELECT 1 / 0 AS x FROM one").rows == [(None,)]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query(
                "SELECT token FROM tokens T1, query_tokens T2 WHERE T1.token = T2.token"
            )

    def test_unknown_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT nope FROM tokens")


class TestJoinsAndSubqueries:
    def test_comma_join_with_equi_condition(self, db):
        result = db.query(
            "SELECT T1.tid FROM tokens T1, query_tokens T2 WHERE T1.token = T2.token"
        )
        # tid 1 has AB twice and BC once; tid 2 has AB once.
        assert sorted(row[0] for row in result.rows) == [1, 1, 1, 2]

    def test_cross_join_with_residual_comparison(self, db):
        result = db.query(
            "SELECT T1.tid, T2.token FROM tokens T1, query_tokens T2 "
            "WHERE T1.token < T2.token"
        )
        # Only AB sorts below a query token (BC): tid 1 twice, tid 2 once.
        assert sorted(result.rows) == [(1, "BC"), (1, "BC"), (2, "BC")]

    def test_subquery_in_from(self, db):
        result = db.query(
            "SELECT S.tid, S.cnt FROM "
            "(SELECT tid, COUNT(*) AS cnt FROM tokens GROUP BY tid) S "
            "WHERE S.cnt >= 2 ORDER BY S.tid"
        )
        assert result.rows == [(1, 3), (2, 2)]

    def test_in_subquery(self, db):
        result = db.query(
            "SELECT DISTINCT tid FROM tokens "
            "WHERE token IN (SELECT token FROM query_tokens) ORDER BY tid"
        )
        assert result.rows == [(1,), (2,)]

    def test_not_in_subquery(self, db):
        result = db.query(
            "SELECT DISTINCT tid FROM tokens "
            "WHERE token NOT IN (SELECT token FROM query_tokens) ORDER BY tid"
        )
        assert result.rows == [(2,), (3,)]

    def test_three_way_join(self, db):
        db.create_table("names", ["tid", "name"])
        db.insert_rows("names", [(1, "one"), (2, "two"), (3, "three")])
        result = db.query(
            "SELECT N.name, COUNT(*) FROM tokens T, query_tokens Q, names N "
            "WHERE T.token = Q.token AND T.tid = N.tid "
            "GROUP BY N.name ORDER BY N.name"
        )
        assert result.rows == [("one", 3), ("two", 1)]


class TestNullSemantics:
    """NULL is unknown: SQLite and MySQL answer these the same way."""

    @pytest.fixture()
    def nulls(self) -> Database:
        database = Database()
        database.create_table("t", ["a"])
        database.insert_rows("t", [(1,), (None,), (3,)])
        database.create_table("u", ["b"])
        database.insert_rows("u", [(2,), (None,)])
        return database

    def test_hash_join_matches_no_null_key(self, nulls):
        assert nulls.query("SELECT a, b FROM t, u WHERE a = b").rows == []
        assert nulls.query(
            "SELECT X.a, Y.b FROM (SELECT a FROM t) X, (SELECT b FROM u) Y "
            "WHERE X.a = Y.b"
        ).rows == []

    def test_not_in_a_subquery_holding_null_is_never_true(self, nulls):
        assert nulls.query("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").rows == []

    def test_in_never_admits_a_null_operand(self, nulls):
        nulls.insert_rows("u", [(3,)])
        assert nulls.query("SELECT a FROM t WHERE a IN (SELECT b FROM u)").rows == [(3,)]

    def test_not_in_without_null_members(self, nulls):
        rows = nulls.query(
            "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE b IS NOT NULL)"
        ).rows
        assert rows == [(1,), (3,)]

    #: ``(sql, expected rows, ordered)`` over ``t(a) = {1, NULL, 3}`` and
    #: ``u(b) = {2, NULL}``; unordered results are compared as bags.
    EDGES = {
        "comparison filters null": ("SELECT a FROM t WHERE a > 1", [(3,)], False),
        "residual join filters null": (
            "SELECT a, b FROM t, u WHERE a < b", [(1, 2)], False,
        ),
        "between filters null": ("SELECT a FROM t WHERE a BETWEEN 0 AND 2", [(1,)], False),
        "arithmetic propagates null": (
            "SELECT a + 1, a * 2.0, a / 2.0 FROM t",
            [(2, 2.0, 0.5), (None, None, None), (4, 6.0, 1.5)],
            False,
        ),
        "case takes else on null": (
            "SELECT a, CASE WHEN a > 1 THEN 1 ELSE 0 END FROM t",
            [(1, 0), (None, 0), (3, 1)],
            False,
        ),
        "aggregates skip null": (
            "SELECT COUNT(*), SUM(a), AVG(a), MAX(a) FROM t", [(3, 4, 2.0, 3)], False,
        ),
        "aggregates of only null": (
            "SELECT COUNT(*), SUM(b), MAX(b) FROM u WHERE b IS NULL",
            [(1, None, None)],
            False,
        ),
        "group by makes one null group": (
            "SELECT a, COUNT(*) FROM t, u GROUP BY a",
            [(1, 2), (None, 2), (3, 2)],
            False,
        ),
        "distinct keeps one null": (
            "SELECT DISTINCT a FROM t, u", [(1,), (None,), (3,)], False,
        ),
        "union keeps one null": (
            "SELECT a FROM t UNION SELECT b FROM u",
            [(1,), (None,), (3,), (2,)],
            False,
        ),
        "order by puts null first": (
            "SELECT a FROM t, u ORDER BY a",
            [(None,), (None,), (1,), (1,), (3,), (3,)],
            True,
        ),
        "order by desc puts null last": (
            "SELECT a FROM t ORDER BY a DESC", [(3,), (1,), (None,)], True,
        ),
    }

    @pytest.mark.parametrize("name", list(EDGES))
    def test_null_edge_agrees_with_sqlite(self, nulls, name):
        sql, expected, ordered = self.EDGES[name]
        sqlite = SQLiteBackend()
        try:
            sqlite.create_table("t", ["a INTEGER"])
            sqlite.insert_rows("t", nulls.table("t").rows)
            sqlite.create_table("u", ["b INTEGER"])
            sqlite.insert_rows("u", nulls.table("u").rows)
            answers = {"memory": nulls.query(sql).rows, "sqlite": sqlite.query(sql)}
        finally:
            sqlite.close()
        for engine, rows in answers.items():
            if not ordered:
                rows, expected = sorted(rows, key=repr), sorted(expected, key=repr)
            assert rows == expected, engine


class TestAggregation:
    def test_count_star_group_by(self, db):
        result = db.query("SELECT tid, COUNT(*) FROM tokens GROUP BY tid ORDER BY tid")
        assert result.rows == [(1, 3), (2, 2), (3, 1)]

    def test_sum_avg_max(self, db):
        db.create_table("numbers", ["grp", "value"])
        db.insert_rows("numbers", [("a", 1.0), ("a", 3.0), ("b", 5.0)])
        result = db.query(
            "SELECT grp, SUM(value), AVG(value), MAX(value) "
            "FROM numbers GROUP BY grp ORDER BY grp"
        )
        assert result.rows == [("a", 4.0, 2.0, 3.0), ("b", 5.0, 5.0, 5.0)]

    def test_distinct_count_through_a_subquery(self, db):
        """Document frequencies are counted as COUNT(*) over SELECT DISTINCT."""
        result = db.query(
            "SELECT D.tid, COUNT(*) FROM (SELECT DISTINCT tid, token FROM tokens) D "
            "GROUP BY D.tid ORDER BY D.tid"
        )
        assert result.rows == [(1, 2), (2, 2), (3, 1)]

    def test_aggregate_without_group_by(self, db):
        assert db.query("SELECT COUNT(*) FROM tokens").rows == [(6,)]

    def test_aggregate_over_empty_input(self, db):
        assert db.query("SELECT COUNT(*) FROM tokens WHERE tid = 99").rows == [(0,)]
        assert db.query("SELECT SUM(tid) FROM tokens WHERE tid = 99").rows == [(None,)]

    def test_having(self, db):
        result = db.query(
            "SELECT tid, COUNT(*) FROM tokens GROUP BY tid HAVING COUNT(*) >= 2 ORDER BY tid"
        )
        assert result.rows == [(1, 3), (2, 2)]

    def test_having_with_expression(self, db):
        result = db.query(
            "SELECT tid FROM tokens GROUP BY tid HAVING COUNT(*) * 2 > 5"
        )
        assert result.rows == [(1,)]

    def test_expression_around_aggregate(self, db):
        result = db.query(
            "SELECT tid, COUNT(*) * 1.0 / 2 AS half FROM tokens GROUP BY tid ORDER BY tid"
        )
        assert result.rows[0] == (1, 1.5)

    def test_aggregate_of_expression(self, db):
        db.create_table("pairs", ["x", "y"])
        db.insert_rows("pairs", [(1, 2), (3, 4)])
        assert db.query("SELECT SUM(x * y) FROM pairs").rows == [(14,)]

    def test_aggregate_outside_group_context_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT tid FROM tokens WHERE COUNT(*) > 1")

    def test_scalar_functions_inside_aggregates(self, db):
        db.create_table("values_table", ["v"])
        db.insert_rows("values_table", [(1.0,), (2.718281828,)])
        result = db.query("SELECT SUM(LOG(v)) FROM values_table")
        assert result.rows[0][0] == pytest.approx(1.0, abs=1e-6)


class TestSetOperations:
    def test_union_removes_duplicates(self, db):
        result = db.query(
            "SELECT token FROM query_tokens UNION SELECT token FROM query_tokens"
        )
        assert len(result.rows) == 2

    def test_union_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT tid, token FROM tokens UNION SELECT token FROM query_tokens")

    def test_insert_from_union(self, db):
        db.create_table("all_tokens", ["token"])
        db.execute(
            "INSERT INTO all_tokens (token) "
            "SELECT token FROM tokens UNION SELECT token FROM query_tokens"
        )
        assert len(db.table("all_tokens").rows) == 4  # AB, BC, CD, XY


class TestFunctionsAndUdfs:
    def test_builtin_math(self, db):
        row = db.query(
            "SELECT LOG(EXP(1.0)), POWER(2, 10), SQRT(16), ABS(-3) FROM one"
        ).rows[0]
        assert row[0] == pytest.approx(1.0)
        assert row[1] == 1024
        assert row[2] == 4
        assert row[3] == 3

    def test_length(self, db):
        assert db.query("SELECT LENGTH(?) FROM one", ["abc"]).rows == [(3,)]

    def test_null_propagation(self, db):
        assert db.query("SELECT LOG(NULL) FROM one").rows == [(None,)]

    def test_unknown_function(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT NOSUCHFUNC(1) FROM one")

    def test_udf_registration(self, db):
        db.register_function("TRIPLE", lambda x: 3 * x)
        assert db.query(
            "SELECT TRIPLE(tid) FROM tokens WHERE token = ?", ["XY"]
        ).rows == [(9,)]
