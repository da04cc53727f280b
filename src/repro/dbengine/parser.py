"""Recursive-descent parser for the SQL :mod:`repro.declarative` emits.

The grammar is exactly what the 13 declarative predicates send the engine
(measured by tracing their statements), and anything outside it is a
:class:`~repro.dbengine.errors.ParseError`::

    statement  := select | INSERT INTO name '(' name {',' name} ')' select
    select     := core {UNION core} [ORDER BY column [DESC] {',' ...}]
                  [LIMIT number]
    core       := SELECT [DISTINCT] expr [AS name] {',' ...}
                  FROM source {',' source} [WHERE expr]
                  [GROUP BY expr {',' expr}] [HAVING expr]
    source     := name [alias] | '(' select ')' alias
    expr       := comparison {AND comparison}
    comparison := sum [op sum | [NOT] IN '(' select ')'
                       | BETWEEN sum AND sum | IS [NOT] NULL]
    sum        := product {('+' | '-') product}
    product    := unary {('*' | '/') unary}
    unary      := '-' number | primary
    primary    := number | NULL | TRUE | FALSE | '(' expr ')' | column
                  | CASE WHEN expr THEN expr {WHEN ...} ELSE expr END
                  | COUNT '(' '*' ')' | name '(' expr {',' expr} ')'

``op`` is one of ``= < > <= >=``.  String values reach a statement only
through ``?`` placeholders, bound by :func:`bind_params` as typed tokens.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.dbengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InSubquery,
    Insert,
    IsNull,
    Literal,
    OrderItem,
    Select,
    SelectCore,
    SelectItem,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.dbengine.errors import ParseError
from repro.dbengine.lexer import Token, tokenize

__all__ = ["parse_statement", "bind_params", "Parser"]

_COMPARISONS = ("=", "<", ">", "<=", ">=")


def bind_params(tokens: List[Token], params: Optional[Tuple]) -> List[Token]:
    """Replace ``?`` placeholder tokens with literal tokens for ``params``.

    Binding happens at the token level -- parameter values become typed
    literal tokens, never SQL text -- so quoting/escaping of the values is a
    non-issue by construction (the string never re-enters the lexer).
    """
    if params is None:
        params = ()
    placeholders = [token for token in tokens if token.kind == "PARAM"]
    if len(placeholders) != len(params):
        raise ParseError(
            f"statement has {len(placeholders)} parameter placeholder(s) "
            f"but {len(params)} value(s) were bound",
            placeholders[0].position if placeholders else 0,
        )
    values = iter(params)
    bound: List[Token] = []
    for token in tokens:
        if token.kind != "PARAM":
            bound.append(token)
            continue
        value = next(values)
        if value is None:
            bound.append(Token("KEYWORD", "NULL", token.position))
        elif isinstance(value, bool):
            bound.append(Token("KEYWORD", "TRUE" if value else "FALSE", token.position))
        elif isinstance(value, (int, float)):
            # Negative numbers lex as MINUS NUMBER; repr round-trips floats.
            if value < 0:
                bound.append(Token("MINUS", "-", token.position))
                bound.append(Token("NUMBER", repr(type(value)(abs(value))), token.position))
            else:
                bound.append(Token("NUMBER", repr(value), token.position))
        else:
            bound.append(Token("STRING", str(value), token.position))
    return bound


def _number(text: str) -> object:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse_statement(sql: str, params: Optional[Tuple] = None) -> Statement:
    """Parse one SQL statement, binding ``params`` to its ``?`` placeholders."""
    parser = Parser(bind_params(tokenize(sql), params))
    statement = parser.statement()
    parser._expect_kind("EOF")
    return statement


class Parser:
    """Token-stream parser; one instance per statement."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        return self._peek().matches_keyword(*keywords)

    def _accept_keyword(self, *keywords: str) -> bool:
        if self._check_keyword(*keywords):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if not token.matches_keyword(keyword):
            raise ParseError(f"expected {keyword}, found {token.value!r}", token.position)
        return self._advance()

    def _accept_kind(self, kind: str) -> bool:
        if self._peek().kind == kind:
            self._advance()
            return True
        return False

    def _expect_kind(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.value!r}", token.position)
        return self._advance()

    def _expect_identifier(self) -> str:
        return self._expect_kind("IDENT").value

    # -- statements -----------------------------------------------------------

    def statement(self) -> Statement:
        if self._accept_keyword("INSERT"):
            self._expect_keyword("INTO")
            table = self._expect_identifier()
            self._expect_kind("LPAREN")
            columns = [self._expect_identifier()]
            while self._accept_kind("COMMA"):
                columns.append(self._expect_identifier())
            self._expect_kind("RPAREN")
            return Insert(table=table, columns=tuple(columns), select=self._select())
        return self._select()

    def _select(self) -> Select:
        cores = [self._select_core()]
        while self._accept_keyword("UNION"):
            cores.append(self._select_core())
        order_by: List[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                column = self._column_ref(self._expect_identifier())
                descending = self._accept_keyword("DESC")
                order_by.append(OrderItem(expression=column, descending=descending))
                if not self._accept_kind("COMMA"):
                    break
        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            limit = int(self._expect_kind("NUMBER").value)
        return Select(cores=tuple(cores), order_by=tuple(order_by), limit=limit)

    def _select_core(self) -> SelectCore:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._select_item()]
        while self._accept_kind("COMMA"):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        sources = [self._table_source()]
        while self._accept_kind("COMMA"):
            sources.append(self._table_source())
        where = self._expression() if self._accept_keyword("WHERE") else None
        group_by: List[Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expression())
            while self._accept_kind("COMMA"):
                group_by.append(self._expression())
        having = self._expression() if self._accept_keyword("HAVING") else None
        return SelectCore(
            items=tuple(items),
            sources=tuple(sources),
            where=where,
            group_by=tuple(group_by),
            having=having,
            distinct=distinct,
        )

    def _table_source(self) -> Union[TableRef, SubqueryRef]:
        if self._accept_kind("LPAREN"):
            select = self._select()
            self._expect_kind("RPAREN")
            token = self._peek()
            if token.kind != "IDENT":
                raise ParseError("subquery in FROM requires an alias", token.position)
            return SubqueryRef(subquery=select, alias=self._advance().value)
        name = self._expect_identifier()
        alias = self._advance().value if self._peek().kind == "IDENT" else None
        return TableRef(name=name, alias=alias)

    def _select_item(self) -> SelectItem:
        expression = self._expression()
        alias = self._expect_identifier() if self._accept_keyword("AS") else None
        return SelectItem(expression=expression, alias=alias)

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> Expression:
        left = self._comparison()
        while self._accept_keyword("AND"):
            left = BinaryOp(op="AND", left=left, right=self._comparison())
        return left

    def _comparison(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.kind == "OP" and token.value in _COMPARISONS:
            op = self._advance().value
            return BinaryOp(op=op, left=left, right=self._additive())
        negated = self._accept_keyword("NOT")
        if negated or self._check_keyword("IN"):
            self._expect_keyword("IN")
            self._expect_kind("LPAREN")
            subquery = self._select()
            self._expect_kind("RPAREN")
            return InSubquery(operand=left, subquery=subquery, negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            return Between(operand=left, low=low, high=self._additive())
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(operand=left, negated=is_negated)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = self._advance().value
            left = BinaryOp(op=op, left=left, right=self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while self._peek().kind in ("STAR", "SLASH"):
            op = self._advance().value
            left = BinaryOp(op=op, left=left, right=self._unary())
        return left

    def _unary(self) -> Expression:
        # A leading minus is how bind_params spells a negative number.
        if self._accept_kind("MINUS"):
            return Literal(-_number(self._expect_kind("NUMBER").value))
        return self._primary()

    def _primary(self) -> Expression:
        token = self._advance()
        if token.kind == "NUMBER":
            return Literal(_number(token.value))
        if token.kind == "STRING":
            return Literal(token.value)
        if token.matches_keyword("NULL", "TRUE", "FALSE"):
            return Literal({"NULL": None, "TRUE": True, "FALSE": False}[token.value])
        if token.matches_keyword("CASE"):
            return self._case_expression()
        if token.kind == "LPAREN":
            expression = self._expression()
            self._expect_kind("RPAREN")
            return expression
        if token.kind == "IDENT":
            if self._peek().kind == "LPAREN":
                return self._function_call(token.value.upper())
            return self._column_ref(token.value)
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _column_ref(self, name: str) -> ColumnRef:
        if self._accept_kind("DOT"):
            return ColumnRef(name=self._expect_identifier(), table=name)
        return ColumnRef(name=name)

    def _function_call(self, name: str) -> FunctionCall:
        self._expect_kind("LPAREN")
        if name == "COUNT":
            self._expect_kind("STAR")
            self._expect_kind("RPAREN")
            return FunctionCall(name=name, args=())
        args = [self._expression()]
        while self._accept_kind("COMMA"):
            args.append(self._expression())
        self._expect_kind("RPAREN")
        return FunctionCall(name=name, args=tuple(args))

    def _case_expression(self) -> Expression:
        whens: List[Tuple[Expression, Expression]] = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            whens.append((condition, self._expression()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN clause", self._peek().position)
        self._expect_keyword("ELSE")
        default = self._expression()
        self._expect_keyword("END")
        return CaseExpression(whens=tuple(whens), default=default)
