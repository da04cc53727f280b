"""Abstract syntax tree of the SQL :mod:`repro.declarative` emits.

Two families of nodes:

* *expressions* (:class:`Expression` subclasses) -- column references,
  literals, arithmetic / comparison / ``AND`` operators, function calls
  (scalar and aggregate), ``CASE ... ELSE ... END``, ``BETWEEN``,
  ``IS [NOT] NULL`` and ``[NOT] IN (SELECT ...)``.
* *statements* -- ``SELECT`` (comma joins, subqueries in ``FROM``, grouping,
  ``UNION``, ordering, ``LIMIT``) and ``INSERT INTO t (cols) SELECT ...``.

The nodes are plain dataclasses; evaluation lives in
:mod:`repro.dbengine.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "BinaryOp",
    "FunctionCall",
    "CaseExpression",
    "InSubquery",
    "Between",
    "IsNull",
    "SelectItem",
    "TableRef",
    "SubqueryRef",
    "OrderItem",
    "SelectCore",
    "Select",
    "Insert",
    "Statement",
    "AGGREGATE_FUNCTIONS",
]

#: ``COUNT`` takes only ``*``; the others one argument.
AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MAX"}


class Expression:
    """Base class for all expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    value: object


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # + - * /, = < > <= >=, AND
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    args: Tuple[Expression, ...]  # () for COUNT(*)

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class CaseExpression(Expression):
    """``CASE WHEN cond THEN value ... ELSE value END`` (searched form)."""

    whens: Tuple[Tuple[Expression, Expression], ...]
    default: Expression


@dataclass(frozen=True)
class InSubquery(Expression):
    operand: Expression
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


# -- FROM clause -------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRef:
    subquery: "Select"
    alias: str


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expression: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class SelectCore:
    """One SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ... block."""

    items: Tuple[SelectItem, ...]
    sources: Tuple[Union[TableRef, SubqueryRef], ...]
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass(frozen=True)
class Select:
    """A full select: one or more cores combined with ``UNION`` (distinct)."""

    cores: Tuple[SelectCore, ...]
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO table (columns) SELECT ...``."""

    table: str
    columns: Tuple[str, ...]
    select: Select


Statement = Union[Select, Insert]
