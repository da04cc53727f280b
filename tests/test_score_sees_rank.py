"""``score(q, t)`` sees the candidates ``rank(q)`` sees, on every host.

Under a blocker or a candidate restriction, a tuple that ``rank`` leaves out
scores 0.0 and a tuple it keeps scores what ``rank`` gave it -- on the
direct predicate, the declarative one (SQLite) and the sharded one alike,
for every registered predicate and for an approximate blocker (LSH), a
Jaccard-derived exact one demoted to a heuristic on score-based predicates
(``length+prefix``) and a plain restriction.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager, nullcontext

import pytest

from repro.blocking import make_blocker
from repro.core.predicates import available_predicates, make_predicate
from repro.declarative import make_declarative_predicate
from repro.engine import SimilarityEngine
from repro.shard import ShardedPredicate

QUERIES = ("Morgan Stanley", "AT&T Inc", "Beijing Hotel Group", "IBM Corp")
RESTRICTION = {0, 2, 4, 7, 8}


@contextmanager
def _host(kind, name, rows):
    if kind == "direct":
        yield make_predicate(name).fit(rows)
    elif kind == "declarative":
        predicate = make_declarative_predicate(name, backend="sqlite")
        try:
            yield predicate.fit(rows)
        finally:
            predicate.backend.close()
    else:
        sharded = ShardedPredicate(lambda: make_predicate(name), num_shards=2)
        try:
            yield sharded.fit(rows)
        finally:
            sharded.close()


def _attach(host, blocking):
    if blocking == "restriction":
        return host.restrict_candidates(RESTRICTION)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if blocking == "lsh":
            host.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        else:
            host.set_blocker(make_blocker("length+prefix", threshold=0.5))
    return nullcontext()


@pytest.mark.parametrize("blocking", ["lsh", "length+prefix", "restriction"])
@pytest.mark.parametrize("kind", ["direct", "declarative", "sharded"])
@pytest.mark.parametrize("name", available_predicates())
def test_score_equals_rank_membership_and_value(name, kind, blocking, company_strings):
    with _host(kind, name, company_strings) as host:
        unblocked = [dict(host.rank(query)) for query in QUERIES]
        with _attach(host, blocking):
            narrowed = 0
            for query, plain in zip(QUERIES, unblocked):
                ranked = dict(host.rank(query))
                narrowed += len(ranked) < len(plain)
                for tid in range(len(company_strings)):
                    expected = ranked.get(tid, 0.0)
                    if kind == "declarative":
                        expected = pytest.approx(expected, abs=1e-9)
                    assert host.score(query, tid) == expected, (query, tid)
            # The case is only a check when the blocking left something out.
            assert narrowed


@pytest.mark.parametrize("realization, shards", [("direct", 1), ("direct", 2), ("declarative", 1)])
def test_engine_score_under_a_blocker(realization, shards, company_strings):
    query = (
        SimilarityEngine()
        .from_strings(company_strings)
        .predicate("bm25")
        .realization(realization)
        .blocker("lsh", lsh_bands=4, lsh_rows=2)
    )
    if shards > 1:
        query = query.shards(shards)
    for text in QUERIES:
        ranked = {match.tid: match.score for match in query.rank(text)}
        for tid in range(len(company_strings)):
            assert query.score(text, tid) == pytest.approx(ranked.get(tid, 0.0), abs=1e-9)
