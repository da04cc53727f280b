"""Tests for the top-k / threshold-aware query fast paths.

Three families of guarantees:

* **Exactness** -- property-based equivalence: for the monotone-sum
  predicates (WeightedMatch, Cosine, BM25), ``top_k`` returns *exactly* the
  same ``(tid, score)`` lists as ``rank(limit=k)``, across random corpora,
  k values, with/without blockers and candidate restrictions, on every
  kernel backend -- the scalar one, where ``top_k`` runs max-score pruning,
  and numpy, where it is the dense scan.
* **Satellite fixes** -- ``select`` filters before sorting but returns the
  same results; ``score(query, tid)`` single-tuple paths agree with the
  whole-corpus ``_scores`` for every direct predicate.
* **Surfacing** -- ``pruning_stats`` exposes the work counters and
  ``engine.explain`` / ``plan`` report the chosen fast path (pinned under
  the ``scalar_kernel`` fixture, the backend where pruning runs).
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core import kernels
from repro.core.predicates.registry import make_predicate
from repro.core.topk import PruningStats, Term, maxscore_top_k
from repro.engine import SimilarityEngine

MONOTONE = ["weighted_match", "cosine", "bm25"]

BACKENDS = ["python"] + (["numpy"] if kernels.numpy_available() else [])

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


@pytest.mark.parametrize("backend", BACKENDS)
class TestMaxScoreEquivalence:
    """Property: top_k == unpruned rank(limit=k), bit for bit, whichever
    algorithm the backend makes ``top_k`` pick."""

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_topk_equals_rank(self, backend, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        with kernels.use_backend(backend):
            assert _pairs(predicate.top_k(query, k)) == _pairs(
                predicate.rank(query, limit=k)
            )

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_topk_equals_rank_under_restriction(
        self, backend, name, corpus, query, k, data
    ):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        with kernels.use_backend(backend), predicate.restrict_candidates(allowed):
            assert _pairs(predicate.top_k(query, k)) == _pairs(
                predicate.rank(query, limit=k)
            )

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_topk_equals_rank_under_blocker(self, backend, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        with kernels.use_backend(backend):
            assert _pairs(predicate.top_k(query, k)) == _pairs(
                predicate.rank(query, limit=k)
            )

    @pytest.mark.parametrize("name", MONOTONE)
    def test_topk_exact_on_company_corpus(self, backend, name):
        predicate = make_predicate(name).fit(CORPUS * 20)
        with kernels.use_backend(backend):
            for query in ("Morgn Stanley", "IBM Corp", "Goldman", "zzz"):
                for k in (1, 3, 10, 100, 1000):
                    assert _pairs(predicate.top_k(query, k)) == _pairs(
                        predicate.rank(query, limit=k)
                    )


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
        with predicate.restrict_candidates({0}):
            # Restriction semantics are defined by the full path; the
            # single-tuple fast path must not bypass them.
            assert predicate.score("Morgan Stanley", 6) == pytest.approx(
                predicate._scores("Morgan Stanley").get(6, 0.0)
            )


@pytest.mark.usefixtures("scalar_kernel")
class TestPruningStats:
    def test_stats_populated_for_monotone_predicates(self):
        predicate = make_predicate("bm25").fit(CORPUS * 50)
        predicate.top_k("Morgan Stanley Inc", 5)
        stats = predicate.pruning_stats
        assert isinstance(stats, PruningStats)
        assert stats.postings_opened + stats.postings_skipped == stats.postings_total
        assert stats.candidates_rescored <= stats.candidates_scored
        assert predicate.last_num_candidates == stats.candidates_scored
        assert "posting lists opened" in stats.describe()

    def test_stats_show_skipped_postings_on_skewed_corpus(self):
        predicate = make_predicate("bm25").fit(CORPUS * 100)
        predicate.top_k("Morgan Stanley Inc", 3)
        assert predicate.pruning_stats.pruned
        assert predicate.pruning_stats.postings_skipped > 0

    def test_stats_reset_on_fallback(self):
        predicate = make_predicate("lm").fit(CORPUS)
        predicate.top_k("Morgan", 3)
        assert predicate.pruning_stats is None

    def test_maxscore_topk_empty_terms(self):
        result, stats = maxscore_top_k(5, [], lambda tids: {})
        assert result == []
        assert stats.candidates_scored == 0

    def test_maxscore_topk_k_zero_skips_everything(self):
        term = Term("ab", 1.0, [(0, 1.0), (1, 2.0)], 2.0, 1.0)
        result, stats = maxscore_top_k(0, [term], lambda tids: {})
        assert result == []
        assert stats.postings_skipped == 2


def _reference_rescore(terms):
    """Scalar exact-rescore callback over synthetic terms, canonical order."""
    lookups = [(term.query_weight, dict(term.postings)) for term in terms]

    def rescore(tids):
        scores = {}
        for tid in tids:
            total = 0.0
            for query_weight, contributions in lookups:
                contribution = contributions.get(tid, 0.0)
                if contribution:
                    total += query_weight * contribution
            scores[tid] = total
        return scores

    return rescore


#: Coarse values so exact score ties (also straddling the k-th place) are
#: common; no zeros, which the posting indexes never store.
_contributions = st.sampled_from([-2.0, -0.5, 0.25, 0.5, 1.0, 1.5, 3.0])
_query_weights = st.sampled_from([1.0, 1.0, 0.5, 2.0, -1.0])


@st.composite
def _synthetic_terms(draw):
    num_tuples = draw(st.integers(1, 40))
    terms = []
    for position in range(draw(st.integers(1, 8))):
        tids = sorted(
            draw(st.sets(st.integers(0, num_tuples - 1), min_size=1, max_size=num_tuples))
        )
        postings = [(tid, draw(_contributions)) for tid in tids]
        values = [contribution for _, contribution in postings]
        terms.append(
            Term(
                token=f"t{position:02d}",
                query_weight=draw(_query_weights),
                postings=postings,
                max_contribution=max(values),
                min_contribution=min(values),
            )
        )
    return num_tuples, terms


class TestMaxScoreLoopEdgeCases:
    """What the pruned loop could get wrong, at the ``maxscore_top_k``
    boundary: pinned against the unpruned ranking of a reference rescore."""

    @given(
        data=_synthetic_terms(),
        k=st.integers(1, 45),
        restrict=st.booleans(),
        draw=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_synthetic_terms(self, data, k, restrict, draw):
        """Negative contributions and weights, ties at the k-th place,
        ``k = 1`` and ``k >=`` the candidate count, with and without an
        ``allowed`` set."""
        num_tuples, terms = data
        allowed = (
            draw.draw(st.sets(st.integers(0, num_tuples - 1))) if restrict else None
        )
        rescore = _reference_rescore(terms)
        top, stats = maxscore_top_k(k, terms, rescore, allowed=allowed)
        touched = {tid for term in terms for tid, _ in term.postings}
        if allowed is not None:
            touched &= allowed
        unpruned = sorted(
            rescore(touched).items(), key=lambda item: (-item[1], item[0])
        )
        assert top == unpruned[:k]
        assert stats.postings_opened + stats.postings_skipped == stats.postings_total


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy unavailable")
class TestNumpyTopKIsTheDenseScan:
    """On the numpy backend ``top_k`` is ``rank(limit=k)`` and nothing else:
    a silent return of the max-score path would cost ~4x per query."""

    @pytest.mark.parametrize("name", MONOTONE)
    def test_never_builds_a_maxscore_plan(self, name, monkeypatch):
        predicate = make_predicate(name).fit(CORPUS * 20)
        with kernels.use_backend("python"):
            predicate.top_k("Morgn Stanley", 5)
        assert predicate.pruning_stats is not None  # primed, must be cleared
        calls = []
        plan = predicate._maxscore_plan
        monkeypatch.setattr(
            predicate, "_maxscore_plan", lambda query: calls.append(query) or plan(query)
        )
        with kernels.use_backend("numpy"):
            top = predicate.top_k("Morgn Stanley", 5)
            assert _pairs(top) == _pairs(predicate.rank("Morgn Stanley", limit=5))
        assert calls == []
        assert predicate.pruning_stats is None
        assert predicate.last_num_candidates == len(predicate.rank("Morgn Stanley"))


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

    def test_plan_reports_maxscore_fast_path(self, scalar_kernel):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("bm25").plan(op="top_k")
        assert any("max-score" in note for note in plan.notes)

    def test_plan_reports_heap_fast_path_for_non_monotone(self, scalar_kernel):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("jaccard").plan(op="top_k")
        assert any("heap" in note for note in plan.notes)

    def test_plan_reports_heap_fallback_for_blocked_aggregates(self, scalar_kernel):
        # The aggregate family applies blockers post-scoring, so a blocked
        # plan cannot run max-score pruning; the note must say so.
        engine = SimilarityEngine()
        blocked = engine.from_strings(CORPUS).predicate("bm25").blocker("lsh")
        assert any("heap" in note for note in blocked.plan(op="top_k").notes)
        # WeightedMatch blocks before scoring and keeps the pruned path.
        pruned = engine.from_strings(CORPUS).predicate("weighted_match").blocker("lsh")
        assert any("max-score" in note for note in pruned.plan(op="top_k").notes)

    def test_plan_reports_select_fast_path(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("bm25").plan(op="select")
        assert any("filter before sorting" in note for note in plan.notes)

    def test_explain_surfaces_pruning_stats(self, scalar_kernel):
        engine = SimilarityEngine()
        report = (
            engine.from_strings(CORPUS * 50)
            .predicate("bm25")
            .explain("Morgan Stanley Inc", k=5)
        )
        assert report.plan.operation == "top_k"
        assert report.pruning is not None
        assert report.pruning.candidates_scored == report.num_candidates
        assert "pruning:" in report.describe()

    def test_explain_no_pruning_for_declarative(self):
        engine = SimilarityEngine()
        report = (
            engine.from_strings(CORPUS[:6])
            .predicate("bm25")
            .realization("declarative")
            .explain("Morgan Stanley", k=3)
        )
        assert report.pruning is None

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


class TestJoinTopKProbing:
    def test_join_topk_matches_select_then_trim(self):
        from repro.core.join import ApproximateJoiner

        base = CORPUS * 5
        probe = ["Morgan Staney", "IBM Corp", "Goldman Sach"]
        joiner = ApproximateJoiner(base, predicate="bm25", threshold=2.0)
        fast = joiner.join(probe, top_k=4)
        expected = []
        for probe_id, text in enumerate(probe):
            matches = joiner.matches_for(probe_id, text)
            matches.sort(key=lambda m: (-m.score, m.right_id))
            expected.extend(matches[:4])
        assert [(m.left_id, m.right_id, m.score) for m in fast] == [
            (m.left_id, m.right_id, m.score) for m in expected
        ]

    def test_join_topk_non_monotone_predicate_unchanged(self):
        from repro.core.join import ApproximateJoiner

        joiner = ApproximateJoiner(CORPUS, predicate="jaccard", threshold=0.2)
        fast = joiner.join(["Morgan Stanley Inc"], top_k=2)
        assert len(fast) == 2
        assert fast[0].score >= fast[1].score
