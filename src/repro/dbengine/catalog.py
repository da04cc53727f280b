"""The :class:`Database` catalog: tables, functions and statement execution."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.dbengine.ast_nodes import Insert, Select
from repro.dbengine.errors import CatalogError, ExecutionError
from repro.dbengine.executor import ResultSet, SelectExecutor
from repro.dbengine.functions import FunctionRegistry
from repro.dbengine.parser import parse_statement
from repro.dbengine.table import Table

__all__ = ["Database"]


class Database:
    """An in-memory database: a set of named tables plus scalar functions.

    Tables are created, dropped and bulk-loaded through methods, never SQL
    text; :meth:`execute` runs the statements :mod:`repro.declarative`
    emits -- a ``SELECT`` returns a :class:`~repro.dbengine.executor.
    ResultSet`, ``INSERT ... SELECT`` the number of rows inserted.
    :meth:`register_function` adds a UDF usable from SQL (e.g. the
    ``JAROWINKLER`` and ``EDITSIM`` functions of the edit-based and
    combination predicates).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self.functions = FunctionRegistry()
        self._executor = SelectExecutor(self, self.functions)

    # -- catalog --------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"unknown table: {name}") from exc

    def create_table(
        self, name: str, column_names: Sequence[str], if_not_exists: bool = False
    ) -> Table:
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table already exists: {name}")
        table = Table(name, column_names)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"unknown table: {name}")
        del self._tables[key]

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows without SQL parsing."""
        return self.table(name).insert_many(rows)

    def register_function(self, name: str, func) -> None:
        self.functions.register(name, func)

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] | None = None) -> ResultSet | int:
        """Parse and execute a single SQL statement.

        ``params`` binds positional ``?`` placeholders at the token level
        (typed literals, not SQL text), mirroring DB-API parameter binding.
        """
        statement = parse_statement(sql, tuple(params) if params else None)
        if isinstance(statement, Select):
            return self._executor.execute(statement)
        return self._insert(statement)

    def query(self, sql: str, params: Sequence[object] | None = None) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params=params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def _insert(self, statement: Insert) -> int:
        table = self.table(statement.table)
        positions = [table.column_index(name) for name in statement.columns]
        width = len(table.column_names)
        rows: List[list] = []
        for values in self._executor.execute(statement.select).rows:
            if len(values) != len(positions):
                raise ExecutionError(
                    f"INSERT into {table.name!r} expects {len(positions)} values, "
                    f"got {len(values)}"
                )
            row: List[object] = [None] * width
            for position, value in zip(positions, values):
                row[position] = value
            rows.append(row)
        return table.insert_many(rows)
