"""Unit tests for the aggregate weighted predicates (Cosine, BM25)."""

from __future__ import annotations

import math

import pytest

from repro.core.predicates import BM25, CosineTfIdf
from repro.text.tokenize import WordTokenizer
from repro.text.weights import BM25Parameters


class TestCosineTfIdf:
    def test_identity_scores_close_to_one(self, company_strings):
        predicate = CosineTfIdf().fit(company_strings)
        for tid in (0, 3, 5):
            assert predicate.score(company_strings[tid], tid) == pytest.approx(1.0, abs=1e-9)

    def test_scores_bounded_by_one(self, company_strings):
        predicate = CosineTfIdf().fit(company_strings)
        for scored in predicate.rank("Morgan Stanly Group Inc."):
            assert scored.score <= 1.0 + 1e-9

    def test_cosine_is_symmetric_between_tuples(self, company_strings):
        predicate = CosineTfIdf().fit(company_strings)
        a, b = company_strings[5], company_strings[7]
        assert predicate.score(a, 7) == pytest.approx(predicate.score(b, 5), rel=1e-6)

    def test_abbreviation_robustness(self, company_strings):
        predicate = CosineTfIdf(tokenizer=WordTokenizer()).fit(company_strings)
        scores = dict(predicate.rank("AT&T Incorporated"))
        assert scores[4] > scores[3]

    def test_manual_two_document_cosine(self):
        strings = ["A B", "A C"]
        predicate = CosineTfIdf(tokenizer=WordTokenizer()).fit(strings)
        idf_a = 0.0  # appears in both documents -> log(2) - log(2)
        idf_b = math.log(2)
        # For the query "A B" only document 0 shares a weighted token (B).
        scores = dict(predicate.rank("A B"))
        assert scores[0] == pytest.approx(1.0)
        assert scores.get(1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert idf_a == 0.0 and idf_b > 0

    def test_unseen_query_tokens_do_not_crash(self, company_strings):
        predicate = CosineTfIdf(tokenizer=WordTokenizer()).fit(company_strings)
        assert predicate.rank("zzz qqq www") == []


class TestBM25:
    def test_default_parameters(self):
        predicate = BM25()
        assert predicate.params == BM25Parameters(k1=1.5, k3=8.0, b=0.675)

    def test_identity_query_scores_maximally(self, company_strings):
        # "Beijing Hotel" and "Hotel Beijing" have identical padded q-gram
        # multisets, so exact ties are legitimate; the identity tuple must
        # always reach the maximum score.
        predicate = BM25().fit(company_strings)
        for tid in range(len(company_strings)):
            ranked = predicate.rank(company_strings[tid])
            assert predicate.score(company_strings[tid], tid) == pytest.approx(ranked[0].score)

    def test_rare_token_dominates(self, company_strings):
        predicate = BM25(tokenizer=WordTokenizer()).fit(company_strings)
        scores = dict(predicate.rank("AT&T Incorporated"))
        assert scores[4] > scores[3]

    def test_score_additivity_over_matching_tokens(self, company_strings):
        predicate = BM25(tokenizer=WordTokenizer()).fit(company_strings)
        single = dict(predicate.rank("Beijing"))[6]
        both = dict(predicate.rank("Beijing Labs"))[6]
        assert both > single

    def test_length_normalization_prefers_shorter_tuple(self):
        # Filler tuples keep ALPHA/BETA rare so their RS weights are positive.
        strings = [
            "ALPHA BETA",
            "ALPHA BETA GAMMA DELTA EPSILON ZETA ETA THETA",
            "ONE TWO", "THREE FOUR", "FIVE SIX", "SEVEN EIGHT", "NINE TEN",
        ]
        predicate = BM25(tokenizer=WordTokenizer()).fit(strings)
        scores = dict(predicate.rank("ALPHA BETA"))
        assert scores[0] > scores[1]

    def test_b_zero_disables_length_normalization(self):
        strings = [
            "ALPHA BETA",
            "ALPHA BETA GAMMA DELTA EPSILON ZETA",
            "ONE TWO", "THREE FOUR", "FIVE SIX",
        ]
        predicate = BM25(
            tokenizer=WordTokenizer(), params=BM25Parameters(k1=1.5, k3=8, b=0.0)
        ).fit(strings)
        scores = dict(predicate.rank("ALPHA"))
        assert scores[0] == pytest.approx(scores[1])

    def test_query_term_frequency_saturation(self, company_strings):
        predicate = BM25(tokenizer=WordTokenizer()).fit(company_strings)
        once = dict(predicate.rank("Beijing"))[5]
        many = dict(predicate.rank("Beijing Beijing Beijing Beijing"))[5]
        assert many > once
        assert many < 9 * once  # saturation well below the tf multiplier

class TestRankingContract:
    def test_rank_sorted_descending(self, company_strings):
        for predicate in (CosineTfIdf().fit(company_strings), BM25().fit(company_strings)):
            ranked = predicate.rank("Morgan Stanley")
            scores = [scored.score for scored in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_rank_limit(self, company_strings):
        predicate = BM25().fit(company_strings)
        assert len(predicate.rank("Morgan Stanley", limit=3)) == 3

    def test_select_consistent_with_rank(self, company_strings):
        predicate = BM25().fit(company_strings)
        ranked = predicate.rank("Morgan Stanley Group")
        threshold = ranked[1].score
        selected = predicate.select("Morgan Stanley Group", threshold)
        assert all(scored.score >= threshold for scored in selected)
        assert len(selected) >= 2
