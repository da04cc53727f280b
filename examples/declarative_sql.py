"""The declarative path: similarity predicates as plain SQL.

Run with::

    python examples/declarative_sql.py

The paper's core idea is that approximate selections can be realized with
standard SQL over token/weight tables, so they integrate with any
application that already talks to a relational database.  This example runs
the BM25 and Language-Modeling predicates *declaratively*:

1. the base relation is loaded into ``BASE_TABLE`` and tokenized into
   ``BASE_TOKENS`` (Appendix A of the paper),
2. preprocessing SQL materializes the weight tables,
3. a single query-time SQL statement ranks the tuples,

once on the from-scratch in-memory engine and once on SQLite, and checks the
two backends agree with the direct in-memory implementation.
"""

from __future__ import annotations

from repro import SimilarityEngine
from repro.backends import MemoryBackend, SQLiteBackend
from repro.declarative import make_declarative_predicate

COMPANIES = [
    "Morgan Stanley Group Inc.",
    "Stanley Morgan Group Incorporated",
    "Goldman Sachs Group Inc.",
    "AT&T Incorporated",
    "AT&T Inc.",
    "IBM Incorporated",
    "Beijing Hotel",
    "Hotel Beijing",
    "Silicon Valley Group, Inc.",
]

QUERY = "Morgn Stanley Grop Inc."


def show_backend(name: str, backend) -> None:
    print(f"--- {name} backend ---")
    predicate = make_declarative_predicate("bm25", backend=backend)
    predicate.preprocess(COMPANIES)

    tables = [
        ("BASE_TABLE", "tid, string"),
        ("BASE_TOKENS", "tid, token (q-grams)"),
        ("BASE_BM25W", "tid, token, BM25 weight"),
    ]
    for table, description in tables:
        count = backend.row_count(table)
        print(f"  {table:14s} {count:5d} rows   ({description})")

    print(f"  query: {QUERY!r}")
    for scored in predicate.rank(QUERY, limit=3):
        print(f"    score={scored.score:8.3f}  {COMPANIES[scored.tid]}")
    print()


def main() -> None:
    show_backend("in-memory SQL engine", MemoryBackend())
    sqlite_backend = SQLiteBackend()
    show_backend("SQLite", sqlite_backend)
    sqlite_backend.close()

    print("--- cross-check against the direct implementation ---")
    direct = SimilarityEngine().from_strings(COMPANIES).predicate("bm25")
    declarative = make_declarative_predicate("bm25").preprocess(COMPANIES)
    direct_top = [r.tid for r in direct.top_k(QUERY, k=3)]
    declarative_top = [s.tid for s in declarative.rank(QUERY, limit=3)]
    print(f"  direct      top-3 tids: {direct_top}")
    print(f"  declarative top-3 tids: {declarative_top}")
    assert direct_top == declarative_top
    print("  rankings agree.")

    print("\n--- a second predicate, Language Modeling, on SQLite ---")
    backend = SQLiteBackend()
    lm = make_declarative_predicate("lm", backend=backend).preprocess(COMPANIES)
    for scored in lm.rank(QUERY, limit=3):
        print(f"    score={scored.score:10.3e}  {COMPANIES[scored.tid]}")
    backend.close()


if __name__ == "__main__":
    main()
