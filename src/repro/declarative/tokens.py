"""Token-table preparation for the declarative framework (paper Appendix A).

The base relation is tokenized in Python with the predicate's tokenizer (the
padding rules of Appendix A.1) and the resulting ``BASE_TOKENS`` rows are
bulk-loaded -- the tables are exactly the ones the paper's query-time SQL
expects: ``BASE_TABLE(tid, string)``, ``BASE_TOKENS(tid, token)`` and, at
query time, ``QUERY_TOKENS(token)``.  Every loader accepts a table-name
``prefix`` so several shared cores (one per relation/tokenizer pair) can
coexist on one backend -- see :mod:`repro.declarative.shared`.

Batched execution adds the multi-query schema: ``QUERY_BATCH(qid, string)``
plus ``QUERY_TOKENS(qid, token)``, loaded once per batch by
:func:`load_query_batch` so one SQL statement can score a whole workload.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.backends.base import SQLBackend
from repro.text.tokenize import Tokenizer

__all__ = [
    "load_base_table",
    "load_base_tokens",
    "load_query_tokens",
    "load_query_batch",
]


def load_base_table(backend: SQLBackend, strings: Sequence[str], prefix: str = "") -> None:
    """(Re)create and populate ``BASE_TABLE(tid, string)``."""
    backend.recreate_table(f"{prefix}BASE_TABLE", ["tid INTEGER", "string TEXT"])
    backend.insert_rows(
        f"{prefix}BASE_TABLE", [(tid, text) for tid, text in enumerate(strings)]
    )


def load_base_tokens(
    backend: SQLBackend, strings: Sequence[str], tokenizer: Tokenizer, prefix: str = ""
) -> None:
    """(Re)create and populate ``BASE_TOKENS(tid, token)`` with ``tokenizer``."""
    backend.recreate_table(f"{prefix}BASE_TOKENS", ["tid INTEGER", "token TEXT"])
    rows: List[tuple] = []
    for tid, text in enumerate(strings):
        for token in tokenizer.tokenize(text):
            rows.append((tid, token))
    backend.insert_rows(f"{prefix}BASE_TOKENS", rows)


def load_query_tokens(backend: SQLBackend, query: str, tokenizer: Tokenizer) -> None:
    """(Re)create and populate ``QUERY_TOKENS(token)`` for one query string."""
    backend.recreate_table("QUERY_TOKENS", ["token TEXT"])
    backend.insert_rows("QUERY_TOKENS", [(token,) for token in tokenizer.tokenize(query)])


def load_query_batch(
    backend: SQLBackend, queries: Sequence[str], tokenizer: Tokenizer
) -> None:
    """Load the multi-query schema for one batch of query strings.

    ``QUERY_BATCH(qid, string)`` holds the raw query strings (0-based qid in
    batch order) and ``QUERY_TOKENS(qid, token)`` their tokens with
    multiplicity -- the per-family batch SQL joins and groups by ``qid`` to
    score every query of the batch in one statement.
    """
    backend.recreate_table("QUERY_BATCH", ["qid INTEGER", "string TEXT"])
    backend.insert_rows("QUERY_BATCH", list(enumerate(queries)))
    backend.recreate_table("QUERY_TOKENS", ["qid INTEGER", "token TEXT"])
    rows: List[tuple] = []
    for qid, query in enumerate(queries):
        for token in tokenizer.tokenize(query):
            rows.append((qid, token))
    backend.insert_rows("QUERY_TOKENS", rows)
