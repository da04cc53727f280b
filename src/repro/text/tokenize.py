"""Tokenizers used by all similarity predicates.

The paper tokenizes strings either into *q-grams* (sequences of ``q``
consecutive characters) or into *word tokens*, and for combination predicates
into words first and then q-grams of each word ("two-level tokenization").

The q-gram scheme follows section 5.3.3 exactly: ``q - 1`` copies of a padding
symbol (``$`` by default) are substituted for every whitespace run and are also
prepended and appended to the string, and the string is upper-cased.  This way
"Department of Computer Science" and "Computer Science Department" share most
of their q-grams regardless of word order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "normalize_string",
    "pad_string",
    "qgrams",
    "word_tokens",
    "Tokenizer",
    "QgramTokenizer",
    "WordTokenizer",
    "TwoLevelTokenizer",
    "token_counts",
]


def normalize_string(text: str, uppercase: bool = True) -> str:
    """Collapse whitespace runs and optionally upper-case the string.

    Whitespace is what ``str.split()`` splits on -- the characters for which
    ``str.isspace()`` holds, the same set the regex ``\\s`` matches.
    """
    collapsed = " ".join(text.split())
    return collapsed.upper() if uppercase else collapsed


def pad_string(text: str, q: int, pad_char: str = "$") -> str:
    """Return ``text`` padded for q-gram extraction per paper section 5.3.3.

    ``q - 1`` pad characters are placed at the beginning and end of the string
    and substituted for each whitespace run.

    >>> pad_string("db lab", 3)
    '$$DB$$LAB$$'
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if len(pad_char) != 1:
        raise ValueError("pad_char must be a single character")
    pad = pad_char * (q - 1)
    # Upper-casing neither creates nor removes a whitespace character, so
    # splitting after it is splitting the normalized string.
    return f"{pad}{pad.join(text.upper().split())}{pad}"


def qgrams(text: str, q: int = 2, pad_char: str = "$") -> list[str]:
    """Extract q-grams from ``text`` using the paper's padding scheme.

    The result is a list (with duplicates preserved, because term frequencies
    matter for the weighted predicates).

    >>> qgrams("ab", 2)
    ['$A', 'AB', 'B$']
    """
    padded = pad_string(text, q, pad_char)
    if len(padded) < q:
        return [padded] if padded else []
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


def word_tokens(text: str, uppercase: bool = True) -> list[str]:
    """Split ``text`` into word tokens on whitespace.

    Punctuation is kept attached to words (matching the SQL word tokenizer in
    Appendix A.2, which splits purely on spaces).
    """
    normalized = normalize_string(text, uppercase=uppercase)
    if not normalized:
        return []
    return normalized.split(" ")


def token_counts(tokens: Iterable[str]) -> Counter:
    """Return a ``Counter`` of term frequencies for a token sequence."""
    return Counter(tokens)


@dataclass(frozen=True)
class Tokenizer:
    """Base class for tokenizers.

    Subclasses implement :meth:`tokenize`.  Tokenizers are small frozen value
    objects so they can be shared between predicates, stored in experiment
    configurations and compared for equality in tests.
    """

    def tokenize(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokenize_many(self, texts: Sequence[str]) -> list[list[str]]:
        """Tokenize every string in ``texts``; convenience for preprocessing."""
        return [self.tokenize(text) for text in texts]

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class QgramTokenizer(Tokenizer):
    """q-gram tokenizer with the paper's padding scheme (default ``q=2``)."""

    q: int = 2
    pad_char: str = "$"

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if len(self.pad_char) != 1:
            raise ValueError("pad_char must be a single character")

    def tokenize(self, text: str) -> list[str]:
        return qgrams(text, self.q, self.pad_char)

    @property
    def name(self) -> str:
        return f"qgram(q={self.q})"


@dataclass(frozen=True)
class WordTokenizer(Tokenizer):
    """Whitespace word tokenizer (upper-cases by default)."""

    uppercase: bool = True

    def tokenize(self, text: str) -> list[str]:
        return word_tokens(text, uppercase=self.uppercase)

    @property
    def name(self) -> str:
        return "word"


@dataclass(frozen=True)
class TwoLevelTokenizer(Tokenizer):
    """Two-level tokenization used by combination predicates.

    :meth:`tokenize` returns the *word* tokens (the outer level); use
    :meth:`word_qgrams` to obtain the q-grams of an individual word token
    (the inner level, Appendix A.3).
    """

    q: int = 2
    pad_char: str = "$"
    word_tokenizer: WordTokenizer = field(default_factory=WordTokenizer)

    def tokenize(self, text: str) -> list[str]:
        return self.word_tokenizer.tokenize(text)

    def word_qgrams(self, word: str) -> list[str]:
        return qgrams(word, self.q, self.pad_char)

    def tokenize_nested(self, text: str) -> list[tuple[str, list[str]]]:
        """Return ``(word, qgrams_of_word)`` pairs for every word in ``text``."""
        return [(word, self.word_qgrams(word)) for word in self.tokenize(text)]

    @property
    def name(self) -> str:
        return f"two-level(q={self.q})"
