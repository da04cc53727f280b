"""Edge-case and robustness tests across every predicate.

These tests exercise the corners the main unit tests do not: degenerate base
relations (single tuple, duplicated tuples, empty strings), unusual query
strings (empty, whitespace, punctuation-only, unicode), and very long
strings.  Every registered predicate must handle all of them without raising
and while respecting the basic ranking contract.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import available_predicates, make_predicate
from repro.engine import SimilarityEngine

ALL_PREDICATES = available_predicates()

ODD_QUERIES = [
    "",
    "   ",
    "a",
    "&&&***",
    "Ünïcödé Strîng GmbH",
    "word " * 50,
]


@pytest.mark.parametrize("name", ALL_PREDICATES)
class TestDegenerateRelations:
    def test_single_tuple_relation(self, name):
        # With a single tuple every idf/RS weight is zero, so the weighted
        # predicates may legitimately return no scored candidate; what must
        # hold is that querying never raises and never invents tuple ids.
        predicate = make_predicate(name).fit(["Morgan Stanley Group Inc."])
        ranked = predicate.rank("Morgan Stanley Group Inc.")
        assert all(scored.tid == 0 for scored in ranked)

    def test_relation_with_duplicate_tuples(self, name):
        strings = ["AT&T Inc.", "AT&T Inc.", "IBM Corp."]
        predicate = make_predicate(name).fit(strings)
        scores = {scored.tid: scored.score for scored in predicate.rank("AT&T Inc.")}
        assert scores.get(0) == pytest.approx(scores.get(1))

    def test_relation_containing_empty_string(self, name):
        strings = ["", "Morgan Stanley", "Goldman Sachs"]
        predicate = make_predicate(name).fit(strings)
        ranked = predicate.rank("Morgan Stanley")
        assert ranked and ranked[0].tid == 1

    def test_odd_queries_never_raise(self, name, company_strings):
        predicate = make_predicate(name).fit(company_strings)
        for query in ODD_QUERIES:
            ranked = predicate.rank(query)
            scores = [scored.score for scored in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_unicode_relation(self, name):
        # Filler tuples keep the collection large enough for the RS-weighted
        # predicates to assign positive weights to the accented tokens.
        strings = [
            "Café Müller GmbH",
            "Cafe Muller GmbH",
            "Žižkov Brewery s.r.o.",
            "Nordwind Logistik AG",
            "Österreich Versicherung",
            "Crème Brûlée Catering",
            "Smørrebrød Kitchen ApS",
            "Alpha Beta Gamma Ltd.",
        ]
        predicate = make_predicate(name).fit(strings)
        ranked = predicate.rank("Café Müller GmbH")
        assert ranked and ranked[0].tid == 0


def _query(strings, predicate):
    return SimilarityEngine().from_strings(strings).predicate(predicate)


class TestQueryEdgeCases:
    def test_query_over_single_string(self):
        query = _query(["only one"], "bm25")
        assert query.top_k("only one", k=5)[0].tid == 0

    def test_top_k_zero(self, company_strings):
        query = _query(company_strings, "jaccard")
        assert query.top_k("Morgan", k=0) == []

    def test_threshold_above_all_scores(self, company_strings):
        query = _query(company_strings, "jaccard")
        assert query.select("Morgan Stanley", threshold=1.1) == []

    def test_very_long_query(self, company_strings):
        query = _query(company_strings, "cosine")
        long_query = " ".join(company_strings) * 3
        results = query.rank(long_query)
        assert len(results) == len(company_strings)

    @given(st.text(max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_query_text_property(self, text):
        query = _query(
            ["Morgan Stanley Group Inc.", "Goldman Sachs", "AT&T Inc."],
            "jaccard",
        )
        results = query.rank(text)
        for result in results:
            assert 0.0 <= result.score <= 1.0
            assert 0 <= result.tid < 3
