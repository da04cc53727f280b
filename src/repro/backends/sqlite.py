"""Backend adapter for the Python standard-library ``sqlite3`` module.

SQLite stands in for the MySQL 5.0 server of the original study.  The same
UDFs as the memory backend are registered, plus natural-log ``LOG``, ``EXP``,
``POWER`` and ``SQRT`` so that weight formulas evaluate identically on both
backends (SQLite's optional built-in ``LOG`` is base-10, and older builds may
lack the math functions entirely).

Preprocessing-speed choices: token/weight tables are bulk-loaded with chunked
``executemany`` under one transaction per call, temporary b-trees live in
memory (``temp_store = MEMORY``) and :meth:`create_index` issues real
``CREATE INDEX`` statements so the per-query token joins are index lookups
instead of per-statement automatic indexes.  The declarative weight tables
are indexed *covering* -- ``(token, tid, <scored columns>)``, see
:mod:`repro.declarative.shared` -- so a scoring join reads the index alone
and never fetches table rows.

With ``supports_window_functions`` (SQLite 3.25+) the declarative
``run_many`` cuts each query's top-k in SQL: one ``ORDER BY ... LIMIT``
statement per query, which measured cheaper on SQLite than one batch statement
ranked by ``ROW_NUMBER()``.
"""

from __future__ import annotations

import math
import sqlite3
from itertools import islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend

__all__ = ["SQLiteBackend"]

#: Rows handed to one ``executemany`` call while bulk-loading.  Chunking keeps
#: peak memory flat for large token tables without measurably slowing small
#: loads.
_INSERT_CHUNK = 50_000


class SQLiteBackend(SQLBackend):
    """Runs declarative predicates on an (in-memory by default) SQLite database."""

    name = "sqlite"
    supports_window_functions = sqlite3.sqlite_version_info >= (3, 25, 0)

    def __init__(self, path: str = ":memory:") -> None:
        # The engine serializes all statements on a shared backend under its
        # own lock (see SimilarityEngine._lock), and the serving layer runs
        # engine calls on worker-pool threads -- so the connection must be
        # usable from threads other than the one that created it.
        self.connection = sqlite3.connect(path, check_same_thread=False)
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA temp_store = MEMORY")
        self._register_math_functions()
        super().__init__()

    # -- SQLBackend interface ----------------------------------------------------

    def execute(self, sql: str, params: Optional[Sequence[object]] = None) -> object:
        cursor = self.connection.execute(sql, tuple(params) if params else ())
        self.connection.commit()
        return cursor.rowcount

    def query(self, sql: str, params: Optional[Sequence[object]] = None) -> List[Tuple]:
        cursor = self.connection.execute(sql, tuple(params) if params else ())
        return [tuple(row) for row in cursor.fetchall()]

    def create_table(
        self, name: str, columns: Sequence[str], if_not_exists: bool = False
    ) -> None:
        clause = "IF NOT EXISTS " if if_not_exists else ""
        column_sql = ", ".join(columns)
        self.execute(f"CREATE TABLE {clause}{name} ({column_sql})")

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        iterator = iter(rows)
        first = next(iterator, None)
        if first is None:
            return 0
        first = tuple(first)
        placeholders = ", ".join("?" for _ in first)
        statement = f"INSERT INTO {name} VALUES ({placeholders})"
        cursor = self.connection.cursor()
        cursor.execute(statement, first)
        count = 1
        while True:
            chunk = [tuple(row) for row in islice(iterator, _INSERT_CHUNK)]
            if not chunk:
                break
            cursor.executemany(statement, chunk)
            count += len(chunk)
        self.connection.commit()
        return count

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        clause = "IF EXISTS " if if_exists else ""
        self.execute(f"DROP TABLE {clause}{name}")

    def has_table(self, name: str) -> bool:
        rows = self.query(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type = 'table' AND LOWER(name) = ?",
            [name.lower()],
        )
        return rows[0][0] > 0

    def register_function(self, name: str, num_args: int, func: Callable) -> None:
        self.connection.create_function(name, num_args, func)

    def create_index(self, name: str, table: str, columns: Sequence[str]) -> None:
        column_sql = ", ".join(columns)
        self.execute(f"CREATE INDEX IF NOT EXISTS {name} ON {table} ({column_sql})")

    # -- helpers -----------------------------------------------------------------

    def _register_math_functions(self) -> None:
        self.connection.create_function("LOG", 1, lambda x: math.log(x) if x and x > 0 else None)
        self.connection.create_function("EXP", 1, lambda x: math.exp(x) if x is not None else None)
        self.connection.create_function(
            "POWER", 2, lambda x, y: math.pow(x, y) if x is not None and y is not None else None
        )
        self.connection.create_function(
            "SQRT", 1, lambda x: math.sqrt(x) if x is not None and x >= 0 else None
        )

    def close(self) -> None:
        self.connection.close()
