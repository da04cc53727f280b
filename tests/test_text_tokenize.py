"""Unit and property tests for tokenizers."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenize import (
    QgramTokenizer,
    TwoLevelTokenizer,
    WordTokenizer,
    normalize_string,
    pad_string,
    qgrams,
    token_counts,
    word_tokens,
)

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)


class TestNormalizeAndPad:
    def test_normalize_collapses_whitespace(self):
        assert normalize_string("  db   lab \t x ") == "DB LAB X"

    def test_normalize_without_uppercase(self):
        assert normalize_string("Db  Lab", uppercase=False) == "Db Lab"

    def test_pad_replaces_spaces(self):
        assert pad_string("db lab", 3) == "$$DB$$LAB$$"

    def test_pad_q1_has_no_padding(self):
        assert pad_string("db lab", 1) == "DBLAB"

    def test_pad_rejects_bad_q(self):
        with pytest.raises(ValueError):
            pad_string("x", 0)

    def test_pad_rejects_multichar_pad(self):
        with pytest.raises(ValueError):
            pad_string("x", 2, pad_char="$$")


#: Every whitespace character the regex form and ``str.split()`` must agree
#: on, weighted into the text so runs of mixed whitespace are common.
_WHITESPACE = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u3000")
unicode_text = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(_WHITESPACE)), max_size=40
)

_WHITESPACE_RE = re.compile(r"\s+")


def _regex_pad(text: str, q: int, pad_char: str = "$") -> str:
    """The padding scheme written with two ``\\s+`` substitutions."""
    pad = pad_char * (q - 1)
    normalized = _WHITESPACE_RE.sub(" ", text.strip()).upper()
    return f"{pad}{_WHITESPACE_RE.sub(pad, normalized)}{pad}"


class TestSplitEqualsRegexForm:
    """``normalize_string`` / ``pad_string`` split on ``str.split()``
    whitespace; the tokens must be the regex form's on any Unicode text."""

    @given(text=unicode_text, uppercase=st.booleans())
    def test_normalize(self, text, uppercase):
        collapsed = _WHITESPACE_RE.sub(" ", text.strip())
        assert normalize_string(text, uppercase) == (
            collapsed.upper() if uppercase else collapsed
        )

    @given(text=unicode_text, q=st.sampled_from([1, 2, 3]))
    def test_pad_and_qgrams(self, text, q):
        padded = _regex_pad(text, q)
        assert pad_string(text, q) == padded
        expected = (
            [padded[i : i + q] for i in range(len(padded) - q + 1)]
            if len(padded) >= q
            else ([padded] if padded else [])
        )
        assert qgrams(text, q) == expected


class TestQgrams:
    def test_simple_bigrams(self):
        assert qgrams("ab", 2) == ["$A", "AB", "B$"]

    def test_word_order_shares_qgrams(self):
        # The paper's padding makes different word orders share most q-grams.
        left = set(qgrams("Computer Science Department", 3))
        right = set(qgrams("Department of Computer Science", 3))
        overlap = len(left & right) / len(left)
        assert overlap > 0.8

    def test_trigram_padding(self):
        grams = qgrams("ab", 3)
        assert grams[0] == "$$A"
        assert grams[-1] == "B$$"

    def test_empty_string(self):
        grams = qgrams("", 2)
        assert grams == ["$$"]

    def test_number_of_qgrams(self):
        # For a string without spaces: len + q - 1 q-grams.
        text = "abcdef"
        for q in (2, 3, 4):
            assert len(qgrams(text, q)) == len(text) + q - 1

    @given(printable, st.integers(min_value=1, max_value=4))
    def test_all_grams_have_length_q(self, text, q):
        for gram in qgrams(text, q):
            assert len(gram) == q

    @given(printable)
    def test_duplicates_preserved(self, text):
        grams = qgrams(text, 2)
        # total number of grams is deterministic in the padded length
        padded = pad_string(text, 2)
        assert len(grams) == max(len(padded) - 1, 1 if padded else 0)


class TestWordTokens:
    def test_basic_split(self):
        assert word_tokens("Morgan Stanley  Group") == ["MORGAN", "STANLEY", "GROUP"]

    def test_case_preserved_when_requested(self):
        assert word_tokens("Morgan Stanley", uppercase=False) == ["Morgan", "Stanley"]

    def test_empty(self):
        assert word_tokens("   ") == []

    def test_token_counts(self):
        counts = token_counts(["A", "B", "A"])
        assert counts["A"] == 2
        assert counts["B"] == 1


class TestTokenizerClasses:
    def test_qgram_tokenizer_equivalence(self):
        tokenizer = QgramTokenizer(q=2)
        assert tokenizer.tokenize("db lab") == qgrams("db lab", 2)

    def test_qgram_tokenizer_name(self):
        assert QgramTokenizer(q=3).name == "qgram(q=3)"

    def test_qgram_tokenizer_validation(self):
        with pytest.raises(ValueError):
            QgramTokenizer(q=0)
        with pytest.raises(ValueError):
            QgramTokenizer(q=2, pad_char="##")

    def test_word_tokenizer(self):
        assert WordTokenizer().tokenize("a b") == ["A", "B"]
        assert WordTokenizer().name == "word"

    def test_tokenize_many(self):
        tokenizer = WordTokenizer()
        assert tokenizer.tokenize_many(["a b", "c"]) == [["A", "B"], ["C"]]

    def test_two_level_tokenizer(self):
        tokenizer = TwoLevelTokenizer(q=2)
        assert tokenizer.tokenize("db lab") == ["DB", "LAB"]
        assert tokenizer.word_qgrams("DB") == ["$D", "DB", "B$"]
        nested = tokenizer.tokenize_nested("db lab")
        assert nested[0][0] == "DB"
        assert nested[1][1] == ["$L", "LA", "AB", "B$"]

    def test_two_level_name(self):
        assert "two-level" in TwoLevelTokenizer(q=3).name

    def test_tokenizers_are_value_objects(self):
        assert QgramTokenizer(q=2) == QgramTokenizer(q=2)
        assert QgramTokenizer(q=2) != QgramTokenizer(q=3)
