"""Unit tests for the predicate registry and the selection API."""

from __future__ import annotations

import pytest

from repro.core import Match, available_predicates, make_predicate
from repro.core.predicates import (
    BM25,
    GES,
    HMM,
    CosineTfIdf,
    EditDistance,
    GESApx,
    GESJaccard,
    IntersectSize,
    Jaccard,
    LanguageModeling,
    Predicate,
    SoftTFIDF,
    WeightedJaccard,
    WeightedMatch,
)
from repro.engine import SimilarityEngine


class TestRegistry:
    def test_all_thirteen_predicates_registered(self):
        assert len(available_predicates()) == 13

    def test_make_each_predicate(self):
        expected = {
            "intersect": IntersectSize,
            "jaccard": Jaccard,
            "weighted_match": WeightedMatch,
            "weighted_jaccard": WeightedJaccard,
            "cosine": CosineTfIdf,
            "bm25": BM25,
            "lm": LanguageModeling,
            "hmm": HMM,
            "edit_distance": EditDistance,
            "ges": GES,
            "ges_jaccard": GESJaccard,
            "ges_apx": GESApx,
            "soft_tfidf": SoftTFIDF,
        }
        for name, cls in expected.items():
            assert isinstance(make_predicate(name), cls)

    def test_aliases(self):
        assert isinstance(make_predicate("tf-idf"), CosineTfIdf)
        assert isinstance(make_predicate("ED"), EditDistance)
        assert isinstance(make_predicate("WeightedJaccard"), WeightedJaccard)
        assert isinstance(make_predicate("SoftTFIDF"), SoftTFIDF)

    def test_kwargs_forwarded(self):
        predicate = make_predicate("ges_jaccard", threshold=0.6)
        assert predicate.threshold == 0.6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_predicate("soundex")

    def test_every_predicate_declares_its_family(self):
        families = {
            make_predicate(name).family for name in available_predicates()
        }
        assert families == {
            "overlap",
            "aggregate-weighted",
            "language-modeling",
            "edit-based",
            "combination",
        }


class TestMergedRegistryCoincidence:
    """The merged engine registry is the single source of truth: the direct
    and declarative factories must accept exactly the same names."""

    def test_name_sets_coincide(self):
        from repro.declarative import available_declarative_predicates

        assert set(available_predicates()) == set(available_declarative_predicates())

    def test_realization_views_coincide(self):
        from repro.engine import registry

        assert registry.available_predicates("direct") == registry.available_predicates(
            "declarative"
        )
        assert registry.available_predicates() == available_predicates()

    def test_every_alias_resolves_in_both_factories(self):
        from repro.declarative import make_declarative_predicate
        from repro.engine import registry

        for alias, canonical in registry.ALIASES.items():
            assert make_predicate(alias).name == make_predicate(canonical).name
            assert (
                make_declarative_predicate(alias).name
                == make_declarative_predicate(canonical).name
            )

    def test_canonical_names_construct_in_both_realizations(self):
        from repro.declarative import make_declarative_predicate

        for name in available_predicates():
            assert make_predicate(name) is not None
            assert make_declarative_predicate(name) is not None


def _query(strings, predicate, **kwargs):
    return SimilarityEngine().from_strings(strings).predicate(predicate, **kwargs)


class TestEngineSelection:
    def test_query_with_name(self, company_strings):
        results = _query(company_strings, "bm25").top_k("Morgn Stanley Inc", k=1)
        assert results[0].tid == 0
        assert isinstance(results[0], Match)
        assert results[0].string == company_strings[0]

    def test_query_with_instance(self, company_strings):
        query = _query(company_strings, Jaccard())
        assert query.fitted_predicate().name == "Jaccard"

    def test_kwargs_only_with_name(self, company_strings):
        with pytest.raises(ValueError):
            _query(company_strings, Jaccard(), q=3)

    def test_select_threshold(self, company_strings):
        results = _query(company_strings, "jaccard").select("Beijing Hotel", threshold=0.5)
        assert {r.tid for r in results} >= {5}
        assert all(r.score >= 0.5 for r in results)

    def test_rank_returns_texts(self, company_strings):
        for result in _query(company_strings, "cosine").rank("AT&T Inc."):
            assert result.string == company_strings[result.tid]

    def test_top_k_negative(self, company_strings):
        with pytest.raises(ValueError):
            _query(company_strings, "jaccard").top_k("x", k=-1)

    def test_score(self, company_strings):
        query = _query(company_strings, "jaccard")
        assert query.score(company_strings[2], 2) == pytest.approx(1.0)

    def test_len_and_strings(self, company_strings):
        query = _query(company_strings, "intersect")
        assert len(query) == len(company_strings)
        assert query.strings == list(company_strings)

    def test_unfitted_predicate_rejected_at_query(self):
        predicate = Jaccard()
        with pytest.raises(RuntimeError):
            predicate.rank("x")

    def test_every_registered_predicate_finds_exact_duplicate(self, company_strings):
        """End-to-end sanity: each predicate ranks an exact copy first."""
        for name in available_predicates():
            top = _query(company_strings, name).top_k(company_strings[0], k=1)
            assert top and top[0].tid == 0, name
