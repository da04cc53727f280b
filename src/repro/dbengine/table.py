"""In-memory tables with named columns.

A :class:`Table` stores rows as plain tuples plus a list of column names;
values are dynamically typed, as in SQLite, so column types are not kept.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.dbengine.errors import ExecutionError

__all__ = ["Table"]

Row = Tuple[object, ...]


class Table:
    """A named, ordered collection of rows with a fixed column list."""

    def __init__(self, name: str, column_names: Sequence[str]):
        if not column_names:
            raise ExecutionError(f"table {name!r} must have at least one column")
        self._index: Dict[str, int] = {
            column.lower(): i for i, column in enumerate(column_names)
        }
        if len(self._index) != len(column_names):
            raise ExecutionError(f"table {name!r} has duplicate column names")
        self.name = name
        self.column_names: List[str] = list(column_names)
        self.rows: List[Row] = []

    def column_index(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError as exc:
            raise ExecutionError(
                f"table {self.name!r} has no column {name!r}"
            ) from exc

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Append rows (each must match the column count); returns the count."""
        width = len(self.column_names)
        count = 0
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"table {self.name!r} expects {width} values, got {len(row)}"
                )
            self.rows.append(tuple(row))
            count += 1
        return count
