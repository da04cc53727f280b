"""A small in-memory relational engine for the SQL the declarative layer emits.

The paper expresses every similarity predicate as plain SQL over token and
weight tables stored in a relational database (MySQL in the original study).
This package runs that SQL without an external server and serves as an
independent differential oracle for it next to SQLite.  Its grammar is
exactly what :mod:`repro.declarative` emits -- measured by tracing the
statements of all 13 predicates -- and anything outside it is a
:class:`ParseError`:

* :mod:`repro.dbengine.table` -- in-memory tables with named columns.
* :mod:`repro.dbengine.catalog` -- a :class:`Database` holding tables and a
  scalar-function / UDF registry; tables are created, dropped and
  bulk-loaded through methods, never SQL text.
* :mod:`repro.dbengine.lexer` / :mod:`repro.dbengine.parser` -- the
  tokenizer and recursive-descent parser of that grammar: ``SELECT`` with
  comma joins, subqueries in ``FROM``, ``WHERE`` / ``GROUP BY`` / ``HAVING``,
  ``UNION``, ``ORDER BY`` and ``LIMIT``, and ``INSERT ... SELECT``.
* :mod:`repro.dbengine.executor` -- an AST-walking executor with hash
  equi-joins, grouped aggregation and SQL's NULL semantics.
"""

from repro.dbengine.catalog import Database
from repro.dbengine.errors import (
    CatalogError,
    EngineError,
    ExecutionError,
    ParseError,
)

__all__ = [
    "Database",
    "EngineError",
    "ParseError",
    "ExecutionError",
    "CatalogError",
]
