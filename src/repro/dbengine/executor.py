"""AST-walking executor for the SQL :mod:`repro.declarative` emits.

The executor works on :class:`Relation` objects: a list of tuples plus a
mapping from (possibly qualified) column keys to tuple positions.  The
comma-separated ``FROM`` sources are joined left to right, with a hash
equi-join whenever a ``WHERE`` conjunct equates a column of the relation
built so far with a column of the next source (a cross product otherwise);
the remaining conjuncts are applied as a residual filter.  Grouped
aggregation supports ``COUNT(*)``, ``SUM``, ``AVG`` and ``MAX``.

NULL follows SQL's three-valued logic where the emitted SQL can meet it:
comparisons, arithmetic and ``BETWEEN`` with a NULL operand are NULL, a NULL
join key matches nothing, and ``[NOT] IN (SELECT ...)`` over a non-empty
subquery is NULL for a NULL operand or for a miss against a subquery that
returned a NULL.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.dbengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InSubquery,
    IsNull,
    Literal,
    OrderItem,
    Select,
    SelectCore,
    SubqueryRef,
    TableRef,
)
from repro.dbengine.errors import ExecutionError
from repro.dbengine.functions import FunctionRegistry

__all__ = ["Relation", "ResultSet", "SelectExecutor"]

_AMBIGUOUS = object()

_COMPARISONS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


class Relation:
    """An intermediate relation: tuples plus a key -> position index."""

    def __init__(self, columns: Sequence[Tuple[str, str]], rows: List[tuple]):
        """``columns`` is a sequence of ``(source_alias, column_name)`` pairs."""
        self.columns: List[Tuple[str, str]] = list(columns)
        self.rows = rows
        self.key_index: Dict[str, object] = {}
        for position, (alias, name) in enumerate(self.columns):
            bare = name.lower()
            self.key_index[f"{alias.lower()}.{bare}"] = position
            if bare in self.key_index and self.key_index[bare] != position:
                self.key_index[bare] = _AMBIGUOUS
            elif bare not in self.key_index:
                self.key_index[bare] = position

    def resolve(self, name: str, table: Optional[str]) -> int:
        key = f"{table.lower()}.{name.lower()}" if table else name.lower()
        position = self.key_index.get(key)
        if position is _AMBIGUOUS:
            raise ExecutionError(f"ambiguous column reference {key!r}")
        if position is None:
            raise ExecutionError(f"unknown column reference {key!r}")
        return int(position)  # type: ignore[arg-type]

    def has(self, name: str, table: Optional[str]) -> bool:
        key = f"{table.lower()}.{name.lower()}" if table else name.lower()
        position = self.key_index.get(key)
        return position is not None and position is not _AMBIGUOUS


class ResultSet(NamedTuple):
    """The output of a SELECT: column names and rows."""

    columns: List[str]
    rows: List[tuple]


class SelectExecutor:
    """Executes :class:`Select` ASTs against a table catalog."""

    def __init__(self, catalog, functions: FunctionRegistry):
        # ``catalog`` is a Database; typed loosely to avoid a circular import.
        self._catalog = catalog
        self._functions = functions

    # -- public ---------------------------------------------------------------

    def execute(self, select: Select) -> ResultSet:
        combined = self._execute_core(select.cores[0])
        for core in select.cores[1:]:
            result = self._execute_core(core)
            if len(result.columns) != len(combined.columns):
                raise ExecutionError("UNION arms must have the same number of columns")
            combined = ResultSet(
                combined.columns, _distinct_rows(combined.rows + result.rows)
            )
        if select.order_by:
            combined = self._order(combined, select.order_by)
        if select.limit is not None:
            combined = ResultSet(combined.columns, combined.rows[: select.limit])
        return combined

    # -- core execution -------------------------------------------------------

    def _execute_core(self, core: SelectCore) -> ResultSet:
        conjuncts = _split_conjuncts(core.where)
        relation: Optional[Relation] = None
        for source in core.sources:
            right = self._materialize_source(source)
            relation = right if relation is None else self._join(relation, right, conjuncts)
        assert relation is not None
        if conjuncts:
            relation = self._filter(relation, _combine_conjuncts(conjuncts))

        has_aggregates = any(
            _contains_aggregate(item.expression) for item in core.items
        ) or (core.having is not None and _contains_aggregate(core.having))

        if core.group_by or has_aggregates:
            result = self._grouped_projection(core, relation)
        else:
            result = self._projection(core, relation)
        if core.distinct:
            result = ResultSet(result.columns, _distinct_rows(result.rows))
        return result

    # -- FROM clause ----------------------------------------------------------

    def _materialize_source(self, source: Union[TableRef, SubqueryRef]) -> Relation:
        if isinstance(source, TableRef):
            table = self._catalog.table(source.name)
            alias = source.alias or source.name
            columns = [(alias, name) for name in table.column_names]
            return Relation(columns=columns, rows=list(table.rows))
        result = self.execute(source.subquery)
        columns = [(source.alias, name) for name in result.columns]
        return Relation(columns=columns, rows=result.rows)

    def _join(
        self, left: Relation, right: Relation, conjuncts: List[Expression]
    ) -> Relation:
        """Join ``left`` and ``right`` on every applicable equality conjunct.

        Conjuncts of the form ``left_col = right_col`` drive a hash join and
        are removed from ``conjuncts``; everything else stays for residual
        filtering.  A key containing NULL matches nothing (``NULL = x`` is
        unknown), so such rows are never joined.
        """
        left_keys: List[int] = []
        right_keys: List[int] = []
        for conjunct in list(conjuncts):
            pair = _equi_join_columns(conjunct, left, right)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
                conjuncts.remove(conjunct)

        rows: List[tuple] = []
        if left_keys:
            index: Dict[tuple, List[tuple]] = {}
            for right_row in right.rows:
                key = tuple(right_row[position] for position in right_keys)
                if None not in key:
                    index.setdefault(key, []).append(right_row)
            for left_row in left.rows:
                key = tuple(left_row[position] for position in left_keys)
                for right_row in index.get(key, ()):
                    rows.append(left_row + right_row)
        else:
            for left_row in left.rows:
                for right_row in right.rows:
                    rows.append(left_row + right_row)
        return Relation(columns=left.columns + right.columns, rows=rows)

    def _filter(self, relation: Relation, condition: Expression) -> Relation:
        rows = [
            row for row in relation.rows if self._evaluate(condition, relation, row)
        ]
        return Relation(columns=relation.columns, rows=rows)

    # -- projection -----------------------------------------------------------

    def _output_names(self, core: SelectCore) -> List[str]:
        return [
            item.alias or _derive_name(item.expression, position)
            for position, item in enumerate(core.items)
        ]

    def _projection(self, core: SelectCore, relation: Relation) -> ResultSet:
        expressions = [item.expression for item in core.items]
        rows = [
            tuple(self._evaluate(expression, relation, row) for expression in expressions)
            for row in relation.rows
        ]
        return ResultSet(columns=self._output_names(core), rows=rows)

    def _grouped_projection(self, core: SelectCore, relation: Relation) -> ResultSet:
        groups: Dict[tuple, List[tuple]] = {}
        if core.group_by:
            for row in relation.rows:
                key = tuple(
                    self._evaluate(expression, relation, row)
                    for expression in core.group_by
                )
                groups.setdefault(key, []).append(row)
        else:
            # Aggregates over an empty input still produce one row
            # (e.g. COUNT(*) == 0), matching SQL semantics.
            groups[()] = relation.rows

        rows: List[tuple] = []
        for group_rows in groups.values():
            if core.having is not None and not self._evaluate_grouped(
                core.having, relation, group_rows
            ):
                continue
            rows.append(
                tuple(
                    self._evaluate_grouped(item.expression, relation, group_rows)
                    for item in core.items
                )
            )
        return ResultSet(columns=self._output_names(core), rows=rows)

    # -- ordering -------------------------------------------------------------

    def _order(self, result: ResultSet, order_by: Sequence[OrderItem]) -> ResultSet:
        # ORDER BY names output columns; a qualified reference (ORDER BY
        # X.tid) resolves against the output column of the same bare name.
        output_index = {name.lower(): position for position, name in enumerate(result.columns)}
        keys: List[Tuple[int, bool]] = []
        for item in order_by:
            position = output_index.get(item.expression.name.lower())
            if position is None:
                raise ExecutionError(
                    f"ORDER BY {item.expression.name!r} is not an output column"
                )
            keys.append((position, item.descending))

        def key_for(row: tuple) -> tuple:
            return tuple(_SortKey(row[position], descending) for position, descending in keys)

        return ResultSet(result.columns, sorted(result.rows, key=key_for))

    # -- expression evaluation ------------------------------------------------

    def _evaluate(self, expression: Expression, relation: Relation, row: tuple) -> object:
        if isinstance(expression, ColumnRef):
            return row[relation.resolve(expression.name, expression.table)]
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, BinaryOp):
            return self._binary(expression, relation, row)
        if isinstance(expression, FunctionCall):
            if expression.is_aggregate:
                raise ExecutionError(
                    f"aggregate {expression.name} used outside GROUP BY context"
                )
            args = [self._evaluate(arg, relation, row) for arg in expression.args]
            return self._functions.get(expression.name)(*args)
        if isinstance(expression, CaseExpression):
            for condition, value in expression.whens:
                if self._evaluate(condition, relation, row):
                    return self._evaluate(value, relation, row)
            return self._evaluate(expression.default, relation, row)
        if isinstance(expression, Between):
            value = self._evaluate(expression.operand, relation, row)
            low = self._evaluate(expression.low, relation, row)
            high = self._evaluate(expression.high, relation, row)
            if value is None or low is None or high is None:
                return None
            return low <= value <= high
        if isinstance(expression, IsNull):
            value = self._evaluate(expression.operand, relation, row)
            return (value is not None) if expression.negated else (value is None)
        if isinstance(expression, InSubquery):
            members = self._subquery_values(expression.subquery)
            if not members:  # x IN (empty) is false, NULL x included
                return expression.negated
            value = self._evaluate(expression.operand, relation, row)
            if value is not None and value in members:
                return not expression.negated
            if value is None or None in members:
                return None
            return expression.negated
        raise ExecutionError(f"unsupported expression {expression!r}")

    def _binary(self, expression: BinaryOp, relation: Relation, row: tuple) -> object:
        op = expression.op
        left = self._evaluate(expression.left, relation, row)
        if op == "AND":
            return bool(left) and bool(self._evaluate(expression.right, relation, row))
        right = self._evaluate(expression.right, relation, row)
        if left is None or right is None:
            return None
        if op in _COMPARISONS:
            return _COMPARISONS[op](left, right)
        if op == "/":
            return None if right == 0 else left / right
        return _ARITHMETIC[op](left, right)

    def _subquery_values(self, select: Select) -> set:
        result = self.execute(select)
        if len(result.columns) != 1:
            raise ExecutionError("IN subquery must return a single column")
        return {row[0] for row in result.rows}

    # -- grouped evaluation ---------------------------------------------------

    def _evaluate_grouped(
        self, expression: Expression, relation: Relation, group_rows: List[tuple]
    ) -> object:
        if isinstance(expression, FunctionCall):
            if expression.is_aggregate:
                return self._aggregate(expression, relation, group_rows)
            args = [
                self._evaluate_grouped(arg, relation, group_rows)
                for arg in expression.args
            ]
            return self._functions.get(expression.name)(*args)
        if isinstance(expression, BinaryOp):
            rewritten = BinaryOp(
                op=expression.op,
                left=Literal(self._evaluate_grouped(expression.left, relation, group_rows)),
                right=Literal(self._evaluate_grouped(expression.right, relation, group_rows)),
            )
            return self._binary(rewritten, relation, ())
        # Anything else is constant over a group: evaluate it on the group's
        # first row (on a row of NULLs for the one group of an empty input).
        row = group_rows[0] if group_rows else (None,) * len(relation.columns)
        return self._evaluate(expression, relation, row)

    def _aggregate(
        self, call: FunctionCall, relation: Relation, group_rows: List[tuple]
    ) -> object:
        if call.name == "COUNT":
            return len(group_rows)
        values = [
            value
            for value in (self._evaluate(call.args[0], relation, row) for row in group_rows)
            if value is not None
        ]
        if not values:
            return None
        if call.name == "SUM":
            return sum(values)
        if call.name == "AVG":
            return sum(values) / len(values)
        return max(values)


# -- helpers ------------------------------------------------------------------


class _SortKey:
    """Sort key wrapper that handles None and descending order."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            result = True
        elif b is None:
            result = False
        else:
            result = a < b
        return (not result and a != b) if self.descending else result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _derive_name(expression: Expression, position: int) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        return expression.name.lower()
    return f"col{position}"


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, FunctionCall):
        return expression.is_aggregate or any(
            _contains_aggregate(arg) for arg in expression.args
        )
    if isinstance(expression, BinaryOp):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    return False


def _split_conjuncts(expression: Optional[Expression]) -> List[Expression]:
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _combine_conjuncts(conjuncts: List[Expression]) -> Expression:
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp(op="AND", left=combined, right=conjunct)
    return combined


def _equi_join_columns(
    expression: Expression, left: Relation, right: Relation
) -> Optional[Tuple[int, int]]:
    """If ``expression`` equates a left column with a right column, return positions."""
    if not isinstance(expression, BinaryOp) or expression.op != "=":
        return None
    a, b = expression.left, expression.right
    if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
        return None
    if left.has(a.name, a.table) and right.has(b.name, b.table):
        return left.resolve(a.name, a.table), right.resolve(b.name, b.table)
    if left.has(b.name, b.table) and right.has(a.name, a.table):
        return left.resolve(b.name, b.table), right.resolve(a.name, a.table)
    return None


def _distinct_rows(rows: List[tuple]) -> List[tuple]:
    return list(dict.fromkeys(rows))
