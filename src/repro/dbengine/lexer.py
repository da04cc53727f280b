"""SQL tokenizer for the statements :mod:`repro.declarative` emits.

The token set is what that SQL uses: keywords, identifiers, numbers
(integer, decimal, optional exponent -- weights interpolated into the
statement text), the comparison operators, ``( ) , . * + - /`` and the
positional ``?`` placeholder.  String values never appear in the statement
text -- they reach the engine through :func:`repro.dbengine.parser.
bind_params` -- so quotes, ``--`` comments, ``||`` and ``%`` are not tokens:
any character outside the set is a :class:`~repro.dbengine.errors.ParseError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dbengine.errors import ParseError

__all__ = ["Token", "tokenize"]

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "NOT", "IN", "IS", "NULL", "BETWEEN", "INSERT", "INTO",
    "DISTINCT", "UNION", "CASE", "WHEN", "THEN", "ELSE", "END", "DESC",
    "TRUE", "FALSE",
}

_PUNCTUATION = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str       # KEYWORD, IDENT, NUMBER, STRING, OP, PARAM, EOF or punctuation
    value: str
    position: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.kind == "KEYWORD" and self.value in keywords


def tokenize(sql: str) -> List[Token]:
    """Tokenize a SQL string into a list of :class:`Token`."""
    tokens: List[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        # numbers (integer or decimal, optional exponent)
        if ch.isdigit():
            j = i
            seen_dot = False
            seen_exp = False
            while j < length:
                cj = sql[j]
                if cj.isdigit():
                    j += 1
                elif cj == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif cj in "eE" and not seen_exp:
                    # exponent must be followed by digits or sign+digits
                    k = j + 1
                    if k < length and sql[k] in "+-":
                        k += 1
                    if k < length and sql[k].isdigit():
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            tokens.append(Token("NUMBER", sql[i:j], i))
            i = j
            continue
        # identifiers and keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        # comparison operators
        two = sql[i : i + 2]
        if two in ("<=", ">="):
            tokens.append(Token("OP", two, i))
            i += 2
            continue
        if ch in ("<", ">", "="):
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, i))
            i += 1
            continue
        # positional bind parameter (value substituted before parsing)
        if ch == "?":
            tokens.append(Token("PARAM", "?", i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", length))
    return tokens
