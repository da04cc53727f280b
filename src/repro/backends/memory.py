"""Backend adapter for the from-scratch in-memory engine."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.dbengine import CatalogError, Database
from repro.dbengine.executor import ResultSet

__all__ = ["MemoryBackend"]


class MemoryBackend(SQLBackend):
    """Runs declarative predicates on :class:`repro.dbengine.Database`."""

    name = "memory"

    def __init__(self) -> None:
        self.database = Database()
        super().__init__()

    def execute(self, sql: str, params: Optional[Sequence[object]] = None) -> object:
        result = self.database.execute(sql, params=params)
        if isinstance(result, ResultSet):
            return result.rows
        return result

    def query(self, sql: str, params: Optional[Sequence[object]] = None) -> List[Tuple]:
        return list(self.database.query(sql, params=params).rows)

    def create_table(
        self, name: str, columns: Sequence[str], if_not_exists: bool = False
    ) -> None:
        # Columns come as "name TYPE"; the engine is dynamically typed.
        names = [column.split(None, 1)[0] for column in columns]
        self.database.create_table(name, names, if_not_exists=if_not_exists)

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        return self.database.insert_rows(name, rows)

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        self.database.drop_table(name, if_exists=if_exists)

    def has_table(self, name: str) -> bool:
        try:
            self.database.table(name)
        except CatalogError:
            return False
        return True

    def register_function(self, name: str, num_args: int, func: Callable) -> None:
        self.database.register_function(name, func)
