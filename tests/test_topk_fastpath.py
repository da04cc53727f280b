"""Tests for the top-k / threshold-aware query fast paths.

Three families of guarantees:

* **Exactness** -- property-based equivalence: for the monotone-sum
  predicates (WeightedMatch, Cosine, BM25), the count scan's Jaccard and the
  language models' deferred finalizer (LM, HMM), ``top_k`` returns
  *exactly* the same ``(tid, score)`` lists as ``rank(limit=k)`` and as the
  full ranking cut to ``k``, across random corpora, k values, with/without
  blockers and candidate restrictions: the partition selection over the
  scan's arrays (or the heap over a small dict) against the full sort.
* **Satellite fixes** -- ``select`` filters before sorting but returns the
  same results; ``score(query, tid)`` single-tuple paths agree with the
  whole-corpus ``_scores`` for every direct predicate.
* **Surfacing** -- ``engine.explain`` / ``plan`` name the path that runs.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core.predicates import make_predicate
from repro.engine import SimilarityEngine

MONOTONE = ["weighted_match", "cosine", "bm25"]
#: Every selection ``top_k`` can run: the monotone sums', the count scan's
#: finalized quotients and the language models' deferred ``exp``.
SELECTIONS = MONOTONE + ["jaccard", "lm", "hmm"]

ALL_DIRECT = [
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "lm",
    "hmm",
    "edit_distance",
    "ges",
    "ges_jaccard",
    "ges_apx",
    "soft_tfidf",
]

CORPUS = [
    "AT&T Corporation",
    "ATT Corp",
    "A T and T Corporation",
    "International Business Machines",
    "Intl Business Machines Corp",
    "IBM Corporation",
    "Morgan Stanley Inc",
    "Morgn Stanley Incorporated",
    "Goldman Sachs Group",
    "Goldmann Sachs Grp",
    "Deutsche Bank AG",
    "Deutsch Bank",
]

_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "corp", "inc", "intl", "ab", "ba", "aa"]
)
_strings = st.lists(_words, min_size=1, max_size=4).map(" ".join)
_corpora = st.lists(_strings, min_size=2, max_size=24)


def _pairs(scored):
    return [(st_.tid, st_.score) for st_ in scored]


def _assert_topk_is_the_ranking_cut(predicate, query, k):
    top = _pairs(predicate.top_k(query, k))
    assert top == _pairs(predicate.rank(query, limit=k))
    assert top == _pairs(predicate.rank(query))[:k]


class TestTopKEqualsRank:
    """Property: top_k == rank(limit=k) == the full ranking cut to k, bit
    for bit, whichever selection runs."""

    @pytest.mark.parametrize("name", SELECTIONS)
    @given(corpus=_corpora, query=_strings, k=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_topk_equals_rank(self, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        _assert_topk_is_the_ranking_cut(predicate, query, k)

    @pytest.mark.parametrize("name", SELECTIONS)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_topk_equals_rank_under_restriction(self, name, corpus, query, k, data):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        with predicate.restrict_candidates(allowed):
            _assert_topk_is_the_ranking_cut(predicate, query, k)

    @pytest.mark.parametrize("name", SELECTIONS)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_topk_equals_rank_under_blocker(self, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        _assert_topk_is_the_ranking_cut(predicate, query, k)

    @pytest.mark.parametrize("name", SELECTIONS)
    def test_topk_exact_on_company_corpus(self, name):
        predicate = make_predicate(name).fit(CORPUS * 20)
        for query in ("Morgn Stanley", "IBM Corp", "Goldman", "zzz"):
            for k in (1, 3, 10, 100, 1000):
                _assert_topk_is_the_ranking_cut(predicate, query, k)


class TestSelectFilterFirst:
    """select() must filter before sorting yet return identical results."""

    @pytest.mark.parametrize(
        "name", ["jaccard", "weighted_match", "cosine", "bm25", "lm", "hmm"]
    )
    @given(corpus=_corpora, query=_strings, threshold=st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_select_equals_filtered_rank(self, name, corpus, query, threshold):
        predicate = make_predicate(name).fit(corpus)
        expected = [
            scored for scored in predicate.rank(query) if scored.score >= threshold
        ]
        assert _pairs(predicate.select(query, threshold)) == _pairs(expected)

    def test_select_counts_all_candidates(self):
        predicate = make_predicate("bm25").fit(CORPUS)
        predicate.select("Morgan Stanley", 1000.0)
        ranked = predicate.rank("Morgan Stanley")
        assert predicate.last_num_candidates == len(ranked)


class TestSingleTupleScore:
    """score(query, tid) answers from one tuple's state, identically."""

    @pytest.mark.parametrize("name", ALL_DIRECT)
    def test_score_matches_full_scores(self, name):
        predicate = make_predicate(name).fit(CORPUS)
        for query in ("Morgan Staney Inc", "IBM", "AT&T Corp", ""):
            scores = predicate._scores(query)
            for tid in range(len(CORPUS)):
                assert predicate.score(query, tid) == scores.get(tid, 0.0), (
                    name,
                    query,
                    tid,
                )

    @pytest.mark.parametrize("name", ALL_DIRECT)
    def test_score_out_of_range_is_zero(self, name):
        predicate = make_predicate(name).fit(CORPUS)
        assert predicate.score("Morgan", -1) == 0.0
        assert predicate.score("Morgan", len(CORPUS) + 5) == 0.0

    def test_score_respects_restriction_fallback(self):
        predicate = make_predicate("bm25").fit(CORPUS)
        unrestricted = predicate.score("Morgan Stanley", 6)
        assert unrestricted > 0.0
        with predicate.restrict_candidates({0, 6}):
            # score() sees the candidates rank() sees: the single-tuple fast
            # path must not bypass the restriction.
            ranked = dict(predicate.rank("Morgan Stanley"))
            assert predicate.score("Morgan Stanley", 6) == ranked[6] == unrestricted
            assert predicate.score("Morgan Stanley", 1) == 0.0
            assert set(ranked) <= {0, 6}


class TestZeroK:
    """``k == 0`` returns nothing and therefore scores nothing."""

    @pytest.mark.parametrize("name", ["jaccard", "lm", "bm25", "edit_distance"])
    def test_rank_and_topk_skip_scoring(self, name, monkeypatch):
        predicate = make_predicate(name).fit(CORPUS)
        predicate.rank("Morgan Stanley")
        assert predicate.last_num_candidates > 0

        def no_scoring(query):
            raise AssertionError("k == 0 must not score candidates")

        monkeypatch.setattr(predicate, "_scores", no_scoring)
        assert predicate.rank("Morgan Stanley", limit=0) == []
        assert predicate.last_num_candidates == 0
        predicate.last_num_candidates = None
        assert predicate.top_k("Morgan Stanley", 0) == []
        assert predicate.last_num_candidates == 0


class TestEngineIntegration:
    def test_engine_topk_matches_rank(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25")
        assert [
            (m.tid, m.score) for m in query.top_k("Morgn Stanley", 5)
        ] == [(m.tid, m.score) for m in query.rank("Morgn Stanley", limit=5)]

    def test_unkernelised_predicate_plans_and_runs_the_heap(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("edit_distance")
        assert "top_k: heap accumulation" in query.plan(op="top_k").notes
        report = query.explain("Morgan Stanley Inc", k=5)
        assert report.execution == "top_k via heap accumulation"
        assert report.fallback_reason is None
        assert "pruning:" not in report.describe()

    def test_plan_names_one_path_blocked_or_not(self):
        engine = SimilarityEngine()
        for name in ("jaccard", "bm25", "weighted_match"):
            plain = engine.from_strings(CORPUS).predicate(name)
            for query in (plain, plain.blocker("lsh")):
                top_k_notes = [
                    note for note in query.plan(op="top_k").notes if "top_k" in note
                ]
                assert top_k_notes == ["top_k: dense scan + partition (numpy kernel)"]

    def test_plan_reports_select_fast_path(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("bm25").plan(op="select")
        assert any("filter before sorting" in note for note in plan.notes)

    def test_run_many_topk_matches_individual(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("cosine")
        queries = ["Morgan Stanley", "IBM Corp"]
        batched = query.run_many(queries, op="top_k", k=3)
        assert [
            [(m.tid, m.score) for m in batch] for batch in batched
        ] == [[(m.tid, m.score) for m in query.top_k(text, 3)] for text in queries]

    def test_declarative_parity_for_topk(self):
        engine = SimilarityEngine()
        direct = engine.from_strings(CORPUS).predicate("bm25").top_k("IBM Corp", 5)
        declarative = (
            engine.from_strings(CORPUS)
            .predicate("bm25")
            .realization("declarative")
            .top_k("IBM Corp", 5)
        )
        assert [m.tid for m in direct] == [m.tid for m in declarative]


#: Every kernelised predicate with a threshold that filters some, not all,
#: of its candidates on ``CORPUS``.
JOIN_THRESHOLDS = {
    "intersect": 4.0,
    "jaccard": 0.3,
    "weighted_match": 2.0,
    "weighted_jaccard": 0.3,
    "cosine": 0.3,
    "bm25": 2.0,
    "lm": 100.0,
    "hmm": 1e6,
}


class TestJoinTopKProbing:
    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("name", sorted(JOIN_THRESHOLDS))
    def test_join_topk_matches_select_then_trim(self, name, blocked):
        from repro.core.join import ApproximateJoiner

        threshold = JOIN_THRESHOLDS[name]
        probe = ["Morgan Staney", "IBM Corp", "Goldman Sach", "zzz"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            joiner = ApproximateJoiner(
                CORPUS * 2,
                predicate=name,
                blocker=make_blocker("lsh", lsh_bands=4, lsh_rows=2) if blocked else None,
            )
        assert joiner.predicate.uses_kernels
        fast = joiner.join(probe, top_k=3, threshold=threshold)
        expected = []
        for probe_id, text in enumerate(probe):
            matches = joiner.matches_for(probe_id, text, threshold)
            matches.sort(key=lambda m: (-m.score, m.right_id))
            expected.extend(matches[:3])
        assert expected and len(expected) < 3 * len(probe)
        assert [(m.left_id, m.right_id, m.score) for m in fast] == [
            (m.left_id, m.right_id, m.score) for m in expected
        ]

    def test_join_topk_unkernelized_predicate_unchanged(self):
        from repro.core.join import ApproximateJoiner

        joiner = ApproximateJoiner(CORPUS, predicate="edit_distance", threshold=0.2)
        assert not joiner.predicate.uses_kernels
        fast = joiner.join(["Morgan Stanley Inc"], top_k=2)
        assert len(fast) == 2
        assert fast[0].score >= fast[1].score
