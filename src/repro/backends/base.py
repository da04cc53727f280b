"""Common interface of the SQL backends used by the declarative framework."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.text.strings import edit_similarity, jaro_winkler

__all__ = ["SQLBackend"]


class SQLBackend(ABC):
    """A minimal SQL execution surface shared by the memory and SQLite backends.

    The interface is intentionally tiny: the declarative predicates only need
    to create tables, bulk-load token/weight rows, run SQL (including
    ``INSERT ... SELECT``) and fetch query results.  UDF registration is used
    for the character-level similarity functions that SQL cannot express
    (Jaro-Winkler for SoftTFIDF, edit similarity for the edit-based
    predicate), exactly as the original study registered UDFs in MySQL.

    Statements accept positional ``?`` parameters (``params``), so query
    strings never have to be interpolated into SQL text; both backends bind
    them natively (SQLite's DB-API binding, the in-memory engine's
    token-level binding).
    """

    name: str = "backend"

    def __init__(self) -> None:
        self._register_default_udfs()

    # -- required primitives ----------------------------------------------------

    @abstractmethod
    def execute(self, sql: str, params: Optional[Sequence[object]] = None) -> object:
        """Execute one SQL statement; DML returns an affected-row count."""

    @abstractmethod
    def query(self, sql: str, params: Optional[Sequence[object]] = None) -> List[Tuple]:
        """Execute a SELECT and return all rows."""

    @abstractmethod
    def create_table(self, name: str, columns: Sequence[str], if_not_exists: bool = False) -> None:
        """Create a table whose columns are given as ``"name TYPE"`` strings."""

    @abstractmethod
    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows (the fast path used to load token tables)."""

    @abstractmethod
    def drop_table(self, name: str, if_exists: bool = True) -> None:
        """Drop a table."""

    @abstractmethod
    def has_table(self, name: str) -> bool:
        """Whether a table exists."""

    @abstractmethod
    def register_function(self, name: str, num_args: int, func: Callable) -> None:
        """Register a scalar UDF callable from SQL."""

    # -- optional primitives -----------------------------------------------------

    #: Whether the backend can evaluate window functions (``ROW_NUMBER() OVER
    #: (PARTITION BY ...)``).  The declarative ``run_many`` reads it as "cut
    #: top-k in SQL": such a backend runs one ``ORDER BY ... LIMIT``
    #: statement per query, the others one batch statement cut in Python.
    supports_window_functions: bool = False

    def create_index(self, name: str, table: str, columns: Sequence[str]) -> None:
        """Create an index over ``table(columns)`` where the backend supports it.

        The default is a no-op: the in-memory engine answers equi-joins with
        hash joins and has no use for persistent indexes.  SQLite overrides
        this with a real ``CREATE INDEX``.
        """

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release any resources the backend holds (connections, handles).

        The in-memory engine holds nothing and inherits this no-op; SQLite
        overrides it to close its connection.  Backends are context managers
        (``with SQLiteBackend() as backend: ...``) built on this method, and
        the engine closes the backends *it* created when its cache is
        cleared.
        """

    def __enter__(self) -> "SQLBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- conveniences ------------------------------------------------------------

    def recreate_table(self, name: str, columns: Sequence[str]) -> None:
        """Drop (if present) and re-create a table."""
        self.drop_table(name, if_exists=True)
        self.create_table(name, columns)

    def row_count(self, name: str) -> int:
        return int(self.query(f"SELECT COUNT(*) FROM {name}")[0][0])

    def _register_default_udfs(self) -> None:
        # NULL in, NULL out -- as the memory engine treats every function.
        self.register_function("JAROWINKLER", 2, _null_safe(jaro_winkler))
        self.register_function("EDITSIM", 2, _null_safe(edit_similarity))


def _null_safe(similarity: Callable[[str, str], float]) -> Callable:
    def udf(a: object, b: object) -> Optional[float]:
        if a is None or b is None:
            return None
        return similarity(str(a), str(b))

    return udf
