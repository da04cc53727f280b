"""Unit tests for the SQL tokenizer."""

from __future__ import annotations

import pytest

from repro.dbengine.errors import ParseError
from repro.dbengine.lexer import Token, tokenize


def kinds(sql: str) -> list[str]:
    return [token.kind for token in tokenize(sql)]


class TestTokenize:
    def test_simple_select(self):
        tokens = tokenize("SELECT a FROM t")
        assert [t.kind for t in tokens] == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "EOF"]

    def test_keywords_are_case_insensitive(self):
        assert tokenize("select")[0].value == "SELECT"

    def test_identifiers_preserve_case(self):
        assert tokenize("MyTable")[0].value == "MyTable"

    def test_integer_and_float_numbers(self):
        tokens = tokenize("SELECT 1, 2.5, 0.001, 1e3, 2.5E-2")
        numbers = [t.value for t in tokens if t.kind == "NUMBER"]
        assert numbers == ["1", "2.5", "0.001", "1e3", "2.5E-2"]

    def test_operators(self):
        tokens = tokenize("a <= b >= c < d > e = f")
        ops = [t.value for t in tokens if t.kind == "OP"]
        assert ops == ["<=", ">=", "<", ">", "="]

    def test_punctuation(self):
        assert kinds("( ) , . * + - / ?")[:-1] == [
            "LPAREN", "RPAREN", "COMMA", "DOT", "STAR", "PLUS", "MINUS",
            "SLASH", "PARAM",
        ]

    @pytest.mark.parametrize("sql", ["SELECT @var", "SELECT 'a'", 'SELECT "a"', "a || b", "a % b", "a;"])
    def test_unexpected_character(self, sql):
        with pytest.raises(ParseError):
            tokenize(sql)

    def test_position_tracking(self):
        tokens = tokenize("SELECT abc")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_matches_keyword_helper(self):
        token = Token("KEYWORD", "SELECT", 0)
        assert token.matches_keyword("SELECT", "INSERT")
        assert not token.matches_keyword("INSERT")

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind == "EOF"
