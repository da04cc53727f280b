"""Integration tests: declarative realizations vs. direct implementations.

The paper's central claim is that every predicate is expressible in plain
SQL; these tests check that the SQL realization reproduces the direct
in-memory implementation -- identical scores where the formulas are identical
and identical rankings where only query-constant factors differ.
"""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core.predicates import make_predicate
from repro.declarative import (
    available_declarative_predicates,
    make_declarative_predicate,
)

QUERIES = [
    "Morgan Stanley Group Inc.",
    "Morgn Stanley Grop Inc.",
    "AT&T Incorporated",
    "Hotel Beijing",
    "Granite Construction",
]

#: Predicates whose declarative and direct scores must match numerically.
SCORE_EXACT = [
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "hmm",
    "lm",
    "edit_distance",
    "ges",
]

#: Predicates where only the ranking (not the raw score) is compared, because
#: the SQL form keeps/drops different query-constant factors.
RANK_ONLY = ["soft_tfidf", "ges_jaccard", "ges_apx"]


def _direct(name: str):
    kwargs = {"threshold": 0.3} if name in ("ges_jaccard", "ges_apx") else {}
    return make_predicate(name, **kwargs)


def _declarative(name: str, backend):
    kwargs = {"threshold": 0.3} if name in ("ges_jaccard", "ges_apx") else {}
    return make_declarative_predicate(name, backend=backend, **kwargs)


class TestRegistryCoverage:
    def test_all_thirteen_declarative_predicates(self):
        """All 13 paper predicates, including UDF-backed plain GES."""
        assert len(available_declarative_predicates()) == 13

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_declarative_predicate("soundex")

    def test_rank_requires_preprocess(self):
        predicate = make_declarative_predicate("jaccard")
        with pytest.raises(RuntimeError):
            predicate.rank("query")


@pytest.mark.parametrize("name", SCORE_EXACT)
class TestScoreParity:
    def test_scores_match_direct_implementation(self, name, company_strings):
        direct = _direct(name).fit(company_strings)
        declarative = _declarative(name, MemoryBackend()).preprocess(company_strings)
        for query in QUERIES:
            # Tuples whose only shared tokens carry weight exactly 0 (RS weight
            # at df = N/2) score 0 in SQL and are skipped by the direct
            # implementation; ignore those borderline candidates on both sides.
            direct_scores = {
                s.tid: s.score for s in direct.rank(query) if abs(s.score) > 1e-12
            }
            declarative_scores = {
                s.tid: s.score for s in declarative.rank(query) if abs(s.score) > 1e-12
            }
            assert set(declarative_scores) == set(direct_scores), (name, query)
            for tid, score in direct_scores.items():
                assert declarative_scores[tid] == pytest.approx(score, rel=1e-6, abs=1e-9), (
                    name,
                    query,
                    tid,
                )


@pytest.mark.parametrize("name", RANK_ONLY)
class TestRankParity:
    def test_top_result_matches_direct_implementation(self, name, company_strings):
        direct = _direct(name).fit(company_strings)
        declarative = _declarative(name, MemoryBackend()).preprocess(company_strings)
        for query in QUERIES:
            direct_top = direct.rank(query, limit=1)
            declarative_top = declarative.rank(query, limit=1)
            if not direct_top:
                assert not declarative_top
                continue
            assert declarative_top, (name, query)
            assert declarative_top[0].tid == direct_top[0].tid, (name, query)


class TestScoreCaching:
    def test_score_matches_rank_and_runs_sql_once_per_query(self, company_strings):
        predicate = make_declarative_predicate("jaccard").preprocess(company_strings)
        expected = {s.tid: s.score for s in predicate.rank("Beijing Hotel")}

        calls = {"count": 0}
        original = predicate.query_scores

        def counting(query):
            calls["count"] += 1
            return original(query)

        predicate.query_scores = counting
        for tid in range(len(company_strings)):
            assert predicate.score("Beijing Hotel", tid) == pytest.approx(
                expected.get(tid, 0.0)
            )
        assert calls["count"] == 1  # one SQL execution for the whole loop

    def test_score_respects_restriction_like_rank(self, company_strings):
        # score() must see the same candidates as rank() -- the cache cannot
        # survive a restriction (or blocker) change.
        predicate = make_declarative_predicate("jaccard").preprocess(company_strings)
        full = predicate.score("Beijing Hotel", 5)
        assert full > 0.0
        with predicate.restrict_candidates({0}):
            assert predicate.score("Beijing Hotel", 5) == 0.0
        assert predicate.score("Beijing Hotel", 5) == pytest.approx(full)

    def test_score_cache_invalidated_per_query_and_on_preprocess(self, company_strings):
        predicate = make_declarative_predicate("jaccard").preprocess(company_strings)
        beijing = predicate.score("Beijing Hotel", 5)
        assert predicate.score("AT&T Incorporated", 5) != beijing
        assert predicate.score("Beijing Hotel", 5) == pytest.approx(beijing)
        predicate.preprocess(["Beijing Hotel"])
        assert predicate.score("Beijing Hotel", 5) == 0.0
        assert predicate.score("Beijing Hotel", 0) == pytest.approx(1.0)


class TestSelectAndThresholds:
    def test_declarative_select_applies_threshold(self, company_strings):
        predicate = make_declarative_predicate("jaccard").preprocess(company_strings)
        results = predicate.select("Beijing Hotel", threshold=0.9)
        assert {scored.tid for scored in results} == {5, 7}

    def test_edit_distance_filtered_select(self, company_strings):
        predicate = make_declarative_predicate("edit_distance").preprocess(company_strings)
        unfiltered = {
            scored.tid: scored.score
            for scored in predicate.rank("Morgan Stanley Group Inc")
            if scored.score >= 0.8
        }
        filtered = {
            scored.tid: scored.score
            for scored in predicate.select("Morgan Stanley Group Inc", threshold=0.8)
        }
        assert filtered.keys() == unfiltered.keys()
        for tid, score in filtered.items():
            assert score == pytest.approx(unfiltered[tid])

    def test_ges_threshold_prunes(self, company_strings):
        loose = make_declarative_predicate("ges_jaccard", threshold=0.3).preprocess(company_strings)
        strict = make_declarative_predicate("ges_jaccard", threshold=0.95).preprocess(company_strings)
        query = "Morgan Stanley Grup Inc."
        assert len(strict.rank(query)) <= len(loose.rank(query))


class TestSqliteBackendEndToEnd:
    """A representative subset re-run on SQLite to keep runtime reasonable."""

    @pytest.mark.parametrize("name", ["jaccard", "bm25", "hmm", "lm", "cosine"])
    def test_sqlite_matches_memory(self, name, company_strings):
        sqlite_backend = SQLiteBackend()
        memory = _declarative(name, MemoryBackend()).preprocess(company_strings)
        sqlite = _declarative(name, sqlite_backend).preprocess(company_strings)
        try:
            for query in QUERIES[:3]:
                memory_scores = {s.tid: s.score for s in memory.rank(query)}
                sqlite_scores = {s.tid: s.score for s in sqlite.rank(query)}
                assert set(memory_scores) == set(sqlite_scores)
                for tid, score in memory_scores.items():
                    assert sqlite_scores[tid] == pytest.approx(score, rel=1e-6, abs=1e-9)
        finally:
            sqlite_backend.close()

