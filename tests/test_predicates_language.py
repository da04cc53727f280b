"""Unit tests for the language modeling and HMM predicates."""

from __future__ import annotations

import math

import pytest

from repro.core.predicates import HMM, LanguageModeling
from repro.text.tokenize import WordTokenizer


class TestLanguageModeling:
    def test_family(self):
        assert LanguageModeling.family == "language-modeling"

    def test_identity_query_ranks_itself_first(self, company_strings):
        predicate = LanguageModeling().fit(company_strings)
        for tid in (0, 2, 5, 9):
            assert predicate.rank(company_strings[tid])[0].tid == tid

    def test_scores_are_positive(self, company_strings):
        predicate = LanguageModeling().fit(company_strings)
        for scored in predicate.rank("Morgan Stanley Grp"):
            assert scored.score > 0.0

    def test_only_candidates_scored(self, company_strings):
        predicate = LanguageModeling(tokenizer=WordTokenizer()).fit(company_strings)
        ranked = predicate.rank("Beijing")
        assert {scored.tid for scored in ranked} == {5, 6, 7}

    def test_degenerate_single_token_tuple(self):
        """A tuple whose only token repeats must not blow up (pm clamp)."""
        strings = ["AAA AAA AAA", "AAA BBB"]
        predicate = LanguageModeling(tokenizer=WordTokenizer()).fit(strings)
        ranked = predicate.rank("AAA AAA")
        assert len(ranked) == 2
        assert all(math.isfinite(scored.score) for scored in ranked)

    def test_risk_interpolates_between_pml_and_pavg(self, company_strings):
        predicate = LanguageModeling().fit(company_strings)
        stats = predicate._stats
        for tid in range(len(company_strings)):
            for token, tf in stats.term_frequencies(tid).items():
                _, log_complement = predicate._posting_terms(
                    predicate._pavg[token], 0.0, tf, stats.length(tid)
                )
                # 0 < p̂(t|M_D) < 1
                assert -math.inf < log_complement < 0.0

    def test_sum_complement_is_negative(self, company_strings):
        predicate = LanguageModeling().fit(company_strings)
        assert all(value < 0 for value in predicate._sum_complement)

    def test_abbreviation_robustness(self, company_strings):
        predicate = LanguageModeling().fit(company_strings)
        scores = dict(predicate.rank("AT&T Incorporated"))
        assert scores[4] > scores[3]


class TestHMM:
    def test_a0_validation(self):
        with pytest.raises(ValueError):
            HMM(a0=0.0)
        with pytest.raises(ValueError):
            HMM(a0=1.0)

    def test_default_a0_matches_paper(self):
        predicate = HMM()
        assert predicate.a0 == 0.2
        assert predicate.a1 == 0.8

    def test_identity_query_scores_maximally(self, company_strings):
        # "Beijing Hotel" / "Hotel Beijing" share identical padded q-gram
        # multisets, so ties are possible; the identity tuple must reach the
        # maximum score for its own string.
        predicate = HMM().fit(company_strings)
        for tid in range(len(company_strings)):
            ranked = predicate.rank(company_strings[tid])
            assert predicate.score(company_strings[tid], tid) == pytest.approx(ranked[0].score)

    def test_scores_at_least_one(self, company_strings):
        """Every factor is (1 + something positive), so scores are >= 1."""
        predicate = HMM().fit(company_strings)
        for scored in predicate.rank("Morgan Stanley"):
            assert scored.score >= 1.0

    def test_manual_two_tuple_example(self):
        strings = ["A B", "A C"]
        predicate = HMM(tokenizer=WordTokenizer(), a0=0.2).fit(strings)
        # P(B|GE) = 1/4, P(B|D0) = 1/2 -> factor 1 + 0.8*0.5 / (0.2*0.25) = 9
        # P(A|GE) = 2/4, P(A|D0) = 1/2 -> factor 1 + 0.8*0.5 / (0.2*0.5) = 5
        scores = dict(predicate.rank("A B"))
        assert scores[0] == pytest.approx(45.0)
        assert scores[1] == pytest.approx(5.0)

    def test_query_token_multiplicity_matters(self, company_strings):
        predicate = HMM(tokenizer=WordTokenizer()).fit(company_strings)
        once = dict(predicate.rank("Beijing"))[5]
        twice = dict(predicate.rank("Beijing Beijing"))[5]
        assert twice == pytest.approx(once * once)

    def test_a0_extremes_change_scores_not_too_much(self, company_strings):
        """Accuracy should not be very sensitive to a0 (paper 5.3.2)."""
        low = HMM(a0=0.1).fit(company_strings)
        high = HMM(a0=0.5).fit(company_strings)
        query = "Morgan Stanly Group Inc."
        top_low = [scored.tid for scored in low.rank(query, limit=3)]
        top_high = [scored.tid for scored in high.rank(query, limit=3)]
        assert top_low[0] == top_high[0]

    def test_abbreviation_robustness_with_word_tokens(self, company_strings):
        # At the word level the rare token AT&T outweighs the frequent token
        # Incorporated, so "AT&T Inc." beats "IBM Incorporated".
        predicate = HMM(tokenizer=WordTokenizer()).fit(company_strings)
        scores = dict(predicate.rank("AT&T Incorporated"))
        assert scores[4] > scores[3]
