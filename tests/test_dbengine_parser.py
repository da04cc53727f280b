"""Unit tests for the SQL parser."""

from __future__ import annotations

import pytest

from repro.dbengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    FunctionCall,
    InSubquery,
    Insert,
    IsNull,
    Literal,
    Select,
    SubqueryRef,
)
from repro.dbengine.errors import ParseError
from repro.dbengine.parser import parse_statement


def parse_expression(sql: str, params=None):
    """The first select item of ``SELECT <sql> FROM t``."""
    statement = parse_statement(f"SELECT {sql} FROM t", params)
    return statement.cores[0].items[0].expression


class TestExpressionParsing:
    def test_literals(self):
        assert parse_expression("42") == Literal(42)
        assert parse_expression("4.5") == Literal(4.5)
        assert parse_expression("NULL") == Literal(None)
        assert parse_expression("TRUE") == Literal(True)

    def test_bound_parameters_become_typed_literals(self):
        assert parse_expression("?", ("abc",)) == Literal("abc")
        assert parse_expression("?", (None,)) == Literal(None)
        assert parse_expression("?", (False,)) == Literal(False)
        assert parse_expression("?", (-3,)) == Literal(-3)
        assert parse_expression("?", (-0.25,)) == Literal(-0.25)

    def test_column_references(self):
        assert parse_expression("price") == ColumnRef("price")
        assert parse_expression("t.price") == ColumnRef("price", table="t")

    def test_arithmetic_precedence(self):
        expression = parse_expression("1 + 2 * 3")
        assert isinstance(expression, BinaryOp)
        assert expression.op == "+"
        assert isinstance(expression.right, BinaryOp)
        assert expression.right.op == "*"

    def test_parentheses_override_precedence(self):
        expression = parse_expression("(1 + 2) * 3")
        assert expression.op == "*"
        assert expression.left.op == "+"

    def test_negative_number(self):
        assert parse_expression("-3") == Literal(-3)
        assert parse_expression("1 - -2.5") == BinaryOp("-", Literal(1), Literal(-2.5))

    def test_comparison_and_boolean(self):
        expression = parse_expression("a = 1 AND b > 2 AND c <= 3")
        assert expression.op == "AND"
        assert expression.left.op == "AND"
        assert expression.right.op == "<="

    def test_function_call(self):
        expression = parse_expression("LOG(x)")
        assert isinstance(expression, FunctionCall)
        assert expression.name == "LOG"
        assert expression.args == (ColumnRef("x"),)

    def test_count_star(self):
        expression = parse_expression("COUNT(*)")
        assert isinstance(expression, FunctionCall)
        assert expression.args == ()

    def test_not_in_subquery(self):
        expression = parse_expression("x NOT IN (SELECT y FROM t)")
        assert isinstance(expression, InSubquery)
        assert expression.negated

    def test_between(self):
        expression = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expression, Between)

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        assert parse_expression("x IS NOT NULL").negated

    def test_case_expression(self):
        expression = parse_expression("CASE WHEN x > 1 THEN 2 ELSE 3 END")
        assert isinstance(expression, CaseExpression)
        assert len(expression.whens) == 1
        assert expression.default == Literal(3)

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("CASE ELSE 1 END")


class TestSelectParsing:
    def test_minimal_select(self):
        statement = parse_statement("SELECT 1 FROM t")
        assert isinstance(statement, Select)
        assert len(statement.cores[0].sources) == 1

    def test_aliases(self):
        statement = parse_statement("SELECT a AS x, b AS y FROM t")
        assert statement.cores[0].items[0].alias == "x"
        assert statement.cores[0].items[1].alias == "y"

    def test_table_aliases(self):
        statement = parse_statement("SELECT b1.a FROM base b1, other o2")
        first, second = statement.cores[0].sources
        assert first.alias == "b1"
        assert second.alias == "o2"

    def test_subquery_in_from_requires_alias(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT x FROM (SELECT x FROM t)")

    def test_subquery_in_from(self):
        statement = parse_statement("SELECT x FROM (SELECT 1 AS x FROM t) sub")
        assert isinstance(statement.cores[0].sources[0], SubqueryRef)

    def test_where_group_having(self):
        statement = parse_statement(
            "SELECT tid, COUNT(*) FROM tok WHERE token = ? "
            "GROUP BY tid HAVING COUNT(*) > 2",
            ("A",),
        )
        core = statement.cores[0]
        assert core.where is not None
        assert len(core.group_by) == 1
        assert core.having is not None

    def test_union(self):
        statement = parse_statement(
            "SELECT 1 FROM t UNION SELECT 2 FROM t UNION SELECT 3 FROM t"
        )
        assert len(statement.cores) == 3

    def test_order_by_and_limit(self):
        statement = parse_statement("SELECT a FROM t ORDER BY a DESC, X.b LIMIT 5")
        assert statement.order_by[0].descending is True
        assert statement.order_by[1].descending is False
        assert statement.order_by[1].expression == ColumnRef("b", table="X")
        assert statement.limit == 5

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").cores[0].distinct is True

    def test_garbage_after_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 FROM t SELECT 2")


class TestInsertSelect:
    def test_insert_select(self):
        statement = parse_statement(
            "INSERT INTO scores (tid, score) SELECT tid, COUNT(*) FROM t GROUP BY tid"
        )
        assert isinstance(statement, Insert)
        assert statement.columns == ("tid", "score")
        assert isinstance(statement.select, Select)

    def test_paper_figure_4_1_parses(self):
        """The IntersectSize query of Figure 4.1 must be accepted verbatim."""
        statement = parse_statement(
            "INSERT INTO INTERSECT_SCORES (tid, score) "
            "SELECT R1.tid, COUNT(*) "
            "FROM BASE_TOKENS R1, QUERY_TOKENS R2 "
            "WHERE R1.token = R2.token "
            "GROUP BY R1.tid"
        )
        assert isinstance(statement, Insert)

    def test_paper_figure_4_4_parses(self):
        """The language-modeling query of Figure 4.4 must be accepted."""
        statement = parse_statement(
            "SELECT B1.tid2, EXP(B1.score + B2.sumcompm) "
            "FROM (SELECT P1.tid AS tid1, T2.tid AS tid2, "
            "SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score "
            "FROM BASE_PM P1, QUERY_TOKENS T2 "
            "WHERE P1.token = T2.token "
            "GROUP BY P1.tid, T2.tid) B1, BASE_SUMCOMPMBASE B2 "
            "WHERE B1.tid1 = B2.tid"
        )
        assert isinstance(statement, Select)


class TestOutsideTheGrammar:
    """What the declarative layer never emits is refused at parse time."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT 1",
            "SELECT * FROM t",
            "SELECT t.* FROM t",
            "SELECT a b FROM t",
            "SELECT a FROM t AS x",
            "SELECT a FROM t INNER JOIN u ON t.a = u.a",
            "SELECT a FROM t LEFT JOIN u ON t.a = u.a",
            "SELECT a FROM t WHERE a = 1 OR a = 2",
            "SELECT a FROM t WHERE NOT a = 1",
            "SELECT a FROM t WHERE a <> 1",
            "SELECT a FROM t WHERE a != 1",
            "SELECT a FROM t WHERE a IN (1, 2)",
            "SELECT a FROM t WHERE a LIKE b",
            "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2",
            "SELECT a || b FROM t",
            "SELECT a % 2 FROM t",
            "SELECT -a FROM t",
            "SELECT (SELECT 1 FROM t) FROM t",
            "SELECT COUNT(a) FROM t",
            "SELECT COUNT(DISTINCT a) FROM t",
            "SELECT CASE WHEN a = 1 THEN 2 END FROM t",
            "SELECT 'text' FROM t",
            'SELECT "a" FROM t',
            "SELECT a FROM t -- comment",
            "SELECT a FROM t ORDER BY 1",
            "SELECT a FROM t ORDER BY a ASC",
            "SELECT 1 FROM t UNION ALL SELECT 2 FROM t",
            "SELECT 1 FROM t;",
            "INSERT INTO t (a) VALUES (1)",
            "INSERT INTO t SELECT a FROM u",
            "CREATE TABLE t (a INTEGER)",
            "DROP TABLE t",
            "DELETE FROM t",
            "UPDATE t SET a = 1",
        ],
    )
    def test_is_a_parse_error(self, sql):
        with pytest.raises(ParseError):
            parse_statement(sql)
