"""Unit tests for the SQL backends (memory engine and SQLite)."""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, SQLiteBackend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, memory_backend, sqlite_backend):
    return memory_backend if request.param == "memory" else sqlite_backend


def _one_row(backend) -> str:
    """A one-row table to evaluate scalar expressions over (every SELECT
    the declarative layer emits has a FROM clause)."""
    backend.create_table("one", ["x INTEGER"])
    backend.insert_rows("one", [(1,)])
    return "one"


class TestBackendInterface:
    def test_create_insert_query(self, backend):
        backend.create_table("t", ["tid INTEGER", "token TEXT"])
        assert backend.has_table("t")
        inserted = backend.insert_rows("t", [(1, "A"), (2, "B")])
        assert inserted == 2
        rows = backend.query("SELECT tid FROM t WHERE token = ?", ["B"])
        assert rows == [(2,)]
        assert backend.row_count("t") == 2

    def test_recreate_table(self, backend):
        backend.create_table("t", ["a INTEGER"])
        backend.insert_rows("t", [(1,)])
        backend.recreate_table("t", ["a INTEGER", "b TEXT"])
        assert backend.row_count("t") == 0
        backend.insert_rows("t", [(1, "x")])
        assert backend.query("SELECT b FROM t") == [("x",)]

    def test_drop_missing_table_if_exists(self, backend):
        backend.drop_table("never_created", if_exists=True)
        assert not backend.has_table("never_created")

    def test_insert_select(self, backend):
        backend.create_table("src", ["x INTEGER"])
        backend.insert_rows("src", [(1,), (2,), (3,)])
        backend.create_table("dst", ["x INTEGER"])
        backend.execute("INSERT INTO dst (x) SELECT x FROM src WHERE x > 1")
        assert backend.row_count("dst") == 2

    def test_empty_bulk_insert(self, backend):
        backend.create_table("t", ["a INTEGER"])
        assert backend.insert_rows("t", []) == 0

    def test_group_by_aggregation(self, backend):
        backend.create_table("tok", ["tid INTEGER", "token TEXT"])
        backend.insert_rows("tok", [(1, "A"), (1, "B"), (2, "A")])
        rows = sorted(backend.query("SELECT tid, COUNT(*) FROM tok GROUP BY tid"))
        assert rows == [(1, 2), (2, 1)]

    def test_math_functions_consistent(self, backend):
        row = backend.query(
            f"SELECT LOG(10.0), EXP(1.0), POWER(2.0, 3.0), SQRT(9.0) FROM {_one_row(backend)}"
        )[0]
        assert row[0] == pytest.approx(2.302585, abs=1e-5)  # natural log
        assert row[1] == pytest.approx(2.718281, abs=1e-5)
        assert row[2] == pytest.approx(8.0)
        assert row[3] == pytest.approx(3.0)

    def test_default_udfs_registered(self, backend):
        row = backend.query(
            f"SELECT JAROWINKLER(?, ?), EDITSIM(?, ?) FROM {_one_row(backend)}",
            ["MARTHA", "MARHTA", "ABC", "ABD"],
        )[0]
        assert row[0] == pytest.approx(0.9611, abs=1e-3)
        assert row[1] == pytest.approx(2 / 3, abs=1e-9)

    def test_custom_udf(self, backend):
        backend.register_function("PLUS_ONE", 1, lambda x: x + 1)
        assert backend.query(f"SELECT PLUS_ONE(41) FROM {_one_row(backend)}")[0][0] == 42


class TestBackendParity:
    """The two backends must produce identical results for the SQL the
    declarative framework emits."""

    BASE_ROWS = [(1, "AB"), (1, "BC"), (1, "AB"), (2, "AB"), (2, "CD"), (3, "XY")]
    QUERY_ROWS = [("AB",), ("BC",)]

    QUERIES = [
        ("SELECT R1.tid, COUNT(*) FROM base_tokens R1, query_tokens R2 "
         "WHERE R1.token = R2.token GROUP BY R1.tid", []),
        ("SELECT token FROM base_tokens "
         "WHERE tid IN (SELECT tid FROM base_tokens WHERE token = ?)", ["CD"]),
        ("SELECT t.tid, COUNT(*) * 1.0 / 2 FROM base_tokens t "
         "GROUP BY t.tid HAVING COUNT(*) >= 2", []),
        ("SELECT DISTINCT tid FROM base_tokens "
         "WHERE token NOT IN (SELECT token FROM query_tokens)", []),
    ]

    def test_same_results(self, memory_backend, sqlite_backend):
        for backend in (memory_backend, sqlite_backend):
            backend.create_table("base_tokens", ["tid INTEGER", "token TEXT"])
            backend.create_table("query_tokens", ["token TEXT"])
            backend.insert_rows("base_tokens", self.BASE_ROWS)
            backend.insert_rows("query_tokens", self.QUERY_ROWS)
        for sql, params in self.QUERIES:
            memory_rows = sorted(memory_backend.query(sql, params))
            sqlite_rows = sorted(sqlite_backend.query(sql, params))
            assert memory_rows == sqlite_rows, sql


class TestSQLiteSpecifics:
    def test_file_and_memory_modes(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "test.db"))
        backend.create_table("t", ["a INTEGER"])
        backend.insert_rows("t", [(5,)])
        assert backend.query("SELECT a FROM t") == [(5,)]
        backend.close()

    def test_has_table_is_case_insensitive(self, sqlite_backend):
        sqlite_backend.create_table("MiXeD", ["a INTEGER"])
        assert sqlite_backend.has_table("mixed")

    def test_log_of_nonpositive_is_null(self, sqlite_backend):
        assert sqlite_backend.query("SELECT LOG(0)")[0][0] is None


class TestMemoryBackendSpecifics:
    def test_wraps_database(self, memory_backend):
        memory_backend.create_table("t", ["a INTEGER", "b TEXT"])
        table = memory_backend.database.table("t")
        assert table.column_names == ["a", "b"]

    def test_execute_returns_rows_for_select(self, memory_backend):
        memory_backend.create_table("t", ["a INTEGER"])
        memory_backend.insert_rows("t", [(1,)])
        assert memory_backend.execute("SELECT a FROM t") == [(1,)]
