"""Unit tests for the declarative token-table helpers (Appendix A)."""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.declarative.tokens import (
    load_base_table,
    load_base_tokens,
    load_query_batch,
    load_query_tokens,
)
from repro.text.tokenize import QgramTokenizer, WordTokenizer, qgrams


class TestBaseTables:
    def test_load_base_table(self):
        backend = MemoryBackend()
        load_base_table(backend, ["a", "b"])
        assert backend.query("SELECT tid, string FROM BASE_TABLE ORDER BY tid") == [
            (0, "a"),
            (1, "b"),
        ]

    def test_load_base_table_is_idempotent(self):
        backend = MemoryBackend()
        load_base_table(backend, ["a"])
        load_base_table(backend, ["x", "y"])
        assert backend.row_count("BASE_TABLE") == 2

    def test_python_tokenization_matches_tokenizer(self):
        backend = MemoryBackend()
        strings = ["db lab", "data cleaning"]
        load_base_table(backend, strings)
        load_base_tokens(backend, strings, QgramTokenizer(q=2))
        rows = backend.query("SELECT tid, token FROM BASE_TOKENS")
        expected = [
            (tid, token)
            for tid, text in enumerate(strings)
            for token in qgrams(text, 2)
        ]
        assert sorted(rows) == sorted(expected)

    def test_word_tokenization_supported(self):
        backend = MemoryBackend()
        strings = ["Morgan Stanley"]
        load_base_table(backend, strings)
        load_base_tokens(backend, strings, WordTokenizer())
        rows = backend.query("SELECT token FROM BASE_TOKENS")
        assert sorted(row[0] for row in rows) == ["MORGAN", "STANLEY"]

    def test_query_tokens(self):
        backend = MemoryBackend()
        load_query_tokens(backend, "db lab", QgramTokenizer(q=2))
        assert backend.row_count("QUERY_TOKENS") == len(qgrams("db lab", 2))


class TestBothBackends:
    """The bulk-loaded token tables read back the same on either backend."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_base_tokens_are_the_padded_qgrams(self, q):
        strings = ["db lab", "Data cleaning", "a", ""]
        expected = sorted(
            (tid, token) for tid, text in enumerate(strings) for token in qgrams(text, q)
        )
        for backend in (MemoryBackend(), SQLiteBackend()):
            load_base_table(backend, strings)
            load_base_tokens(backend, strings, QgramTokenizer(q=q))
            assert sorted(backend.query("SELECT tid, token FROM BASE_TOKENS")) == expected

    def test_query_batch_keeps_qids_and_multiplicity(self):
        queries = ["aaa", "db lab"]
        expected = sorted(
            (qid, token) for qid, text in enumerate(queries) for token in qgrams(text, 2)
        )
        for backend in (MemoryBackend(), SQLiteBackend()):
            load_query_batch(backend, queries, QgramTokenizer(q=2))
            assert sorted(backend.query("SELECT qid, token FROM QUERY_TOKENS")) == expected
            assert sorted(backend.query("SELECT qid, string FROM QUERY_BATCH")) == [
                (0, "aaa"),
                (1, "db lab"),
            ]

