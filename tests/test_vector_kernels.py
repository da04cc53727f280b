"""Equivalence suite for the vectorized scoring kernels.

The contract of :mod:`repro.core.kernels` is *bit-identity*: for every
kernelized predicate (the monotone-sum family -- WeightedMatch,
WeightedJaccard, Cosine, BM25, LM, HMM), the numpy backend must return
exactly the floats the pure-Python backend returns, across corpora, queries,
k values, blockers, candidate restrictions, shard counts, and executors.
The tests force each backend in turn via :func:`kernels.use_backend` and
compare with ``==`` -- no tolerances anywhere.

Mirrors the structure of ``tests/test_topk_fastpath.py`` (which pins the
pruned-vs-unpruned equivalence; this file pins the backend equivalence).
For ``top_k`` the two backends run different *algorithms* -- max-score
pruning on the scalar one, the dense scan + partition on numpy -- so the
backend equivalence is also the algorithm equivalence.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core import kernels
from repro.core.index import WeightedPostingIndex
from repro.core.predicates.registry import make_predicate
from repro.engine import SimilarityEngine
from repro.obs.export import bench_envelope

#: Every predicate whose scoring routes through repro.core.kernels.
KERNELIZED = ["weighted_match", "weighted_jaccard", "cosine", "bm25", "lm", "hmm"]

#: The subset with a max-score top_k plan (pruned on the scalar backend).
MONOTONE = ["weighted_match", "cosine", "bm25"]

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

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy unavailable"
)


def _pairs(scored):
    return [(match.tid, match.score) for match in scored]


def _both_backends(operation):
    """Run ``operation()`` under each backend and return both results."""
    with kernels.use_backend("python"):
        python_result = operation()
    with kernels.use_backend("numpy"):
        numpy_result = operation()
    return python_result, numpy_result


@needs_numpy
class TestScoresBitIdentical:
    """_scores / rank / select / score agree across backends, bit for bit."""

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings)
    @settings(max_examples=30, deadline=None)
    def test_scores_dict(self, name, corpus, query):
        predicate = make_predicate(name).fit(corpus)
        python_scores, numpy_scores = _both_backends(
            lambda: predicate._scores(query)
        )
        assert python_scores == numpy_scores

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings, limit=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_rank(self, name, corpus, query, limit):
        predicate = make_predicate(name).fit(corpus)
        python_rank, numpy_rank = _both_backends(
            lambda: _pairs(predicate.rank(query, limit=limit))
        )
        assert python_rank == numpy_rank

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings, threshold=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_select(self, name, corpus, query, threshold):
        predicate = make_predicate(name).fit(corpus)
        python_sel, numpy_sel = _both_backends(
            lambda: _pairs(predicate.select(query, threshold))
        )
        assert python_sel == numpy_sel

    @pytest.mark.parametrize("name", KERNELIZED)
    def test_score_matches_scores_on_company_corpus(self, name):
        predicate = make_predicate(name).fit(CORPUS)
        for query in ("Morgn Stanley", "IBM Corp", "Goldman", "zzz"):
            with kernels.use_backend("numpy"):
                scores = predicate._scores(query)
                for tid in range(len(CORPUS)):
                    assert predicate.score(query, tid) == scores.get(tid, 0.0)


@needs_numpy
class TestTopKBitIdentical:
    """Scalar max-score ``top_k`` and the numpy dense scan agree."""

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_topk(self, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        python_top, numpy_top = _both_backends(
            lambda: _pairs(predicate.top_k(query, k))
        )
        assert python_top == numpy_top

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_topk_under_restriction(self, name, corpus, query, k, data):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        with predicate.restrict_candidates(allowed):
            python_top, numpy_top = _both_backends(
                lambda: _pairs(predicate.top_k(query, k))
            )
        assert python_top == numpy_top

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_topk_under_blocker(self, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        python_top, numpy_top = _both_backends(
            lambda: _pairs(predicate.top_k(query, k))
        )
        assert python_top == numpy_top


def _assert_topk_agrees(predicate, query, k):
    """numpy == python == ``rank(limit=k)``."""
    python_top, numpy_top = _both_backends(
        lambda: _pairs(predicate.top_k(query, k))
    )
    assert numpy_top == python_top
    assert numpy_top == _pairs(predicate.rank(query, limit=k))


@needs_numpy
class TestTopKAgreesUnderTiesAndRestrictions:
    """Scalar max-score, numpy dense scan and ``rank(limit=k)`` agree where
    ordering is most fragile."""

    @given(corpus=_corpora, query=_strings, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rs_weighted_match_with_ties(self, corpus, query, data):
        """RS weights go negative for frequent tokens; a doubled corpus makes
        every score tie with its twin, so k lands inside tie groups."""
        doubled = corpus + corpus
        k = data.draw(st.sampled_from([1, len(corpus), len(doubled) + 3])
                      | st.integers(1, len(doubled)))
        _assert_topk_agrees(make_predicate("weighted_match").fit(doubled), query, k)

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 12), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_restriction_and_blocker(self, name, corpus, query, k, data):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        with predicate.restrict_candidates(allowed):
            _assert_topk_agrees(predicate, query, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        _assert_topk_agrees(predicate, query, k)


@needs_numpy
class TestShardedBitIdentical:
    """Sharded execution agrees across backends for every executor."""

    @pytest.mark.parametrize("name", ["bm25", "weighted_match", "lm"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_topk_and_rank(self, name, num_shards, executor):
        engine = SimilarityEngine()
        query = (
            engine.from_strings(CORPUS * 3)
            .predicate(name)
            .shards(num_shards, executor=executor)
        )

        def run():
            return (
                _pairs(query.top_k("Morgn Stanley", k=5)),
                _pairs(query.rank("IBM Corp", limit=8)),
            )

        python_result, numpy_result = _both_backends(run)
        assert python_result == numpy_result

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_run_many(self, executor):
        engine = SimilarityEngine()
        query = (
            engine.from_strings(CORPUS * 3)
            .predicate("cosine")
            .shards(2, executor=executor)
        )
        queries = ["Morgn Stanley", "IBM Corp", "Goldman", "zzz"]

        def run():
            return [
                _pairs(ranking)
                for ranking in query.run_many(queries, op="top_k", k=4)
            ]

        python_result, numpy_result = _both_backends(run)
        assert python_result == numpy_result

    def test_sliced_index_arrays_match_shard_fit(self):
        """shard==slice invariant extends to the array backing."""
        predicate = make_predicate("bm25").fit(CORPUS)
        weighted = predicate._weighted_index
        sliced = weighted.slice(3, 9)
        for token in list(weighted._postings):
            pair = sliced.arrays(token)
            if pair is None:
                assert sliced.postings(token) == []
                continue
            tids, contributions = pair
            assert tids.tolist() == [tid for tid, _ in sliced.postings(token)]
            assert contributions.tolist() == [
                contribution for _, contribution in sliced.postings(token)
            ]


class TestKernelDispatch:
    """Backend selection, forcing, and op counters."""

    def test_active_backend_matches_availability(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.active_backend() == expected

    def test_use_backend_python_always_allowed(self):
        with kernels.use_backend("python"):
            assert kernels.active_backend() == "python"
        # restored afterwards
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.active_backend() == expected

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            with kernels.use_backend("fortran"):
                pass

    @pytest.mark.skipif(kernels.numpy_available(), reason="numpy present")
    def test_use_backend_numpy_requires_numpy(self):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("numpy"):
                pass

    def test_ops_counter_increments(self):
        predicate = make_predicate("bm25").fit(CORPUS)
        backend = kernels.active_backend()
        before = kernels.ops_snapshot()[backend]
        predicate.rank("IBM Corp", limit=3)
        assert kernels.ops_snapshot()[backend] > before

    def test_accumulate_keeps_cancelled_candidates(self):
        """Sums cancelling to exactly 0.0 must stay in the candidate set
        (negative RS weights make this reachable), on both backends."""
        index = WeightedPostingIndex({"a": [(0, 1.5), (1, 2.0)], "b": [(0, -1.5)]})
        items = [("a", 1.0), ("b", 1.0)]
        with kernels.use_backend("python"):
            python_scores = kernels.accumulate(index, items, 2)
        assert python_scores == {0: 0.0, 1: 2.0}
        if kernels.numpy_available():
            with kernels.use_backend("numpy"):
                assert kernels.accumulate(index, items, 2) == python_scores

    def test_bench_envelope_records_kernel(self):
        report = bench_envelope("unit", None, {}, [])
        assert report["kernel"] == kernels.active_backend()
        with kernels.use_backend("python"):
            assert bench_envelope("unit", None, {}, [])["kernel"] == "python"


class TestEngineSurface:
    """plan() notes and obs counters surface the chosen kernel."""

    def test_plan_note_names_backend(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("bm25").plan("top_k")
        backend = kernels.active_backend()
        assert any(f"scoring kernels: {backend!r}" in note for note in plan.notes)

    def test_plan_note_follows_forced_backend(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("cosine")
        with kernels.use_backend("python"):
            plan = query.plan("rank")
        assert any("'python' backend" in note for note in plan.notes)

    def test_plan_note_absent_for_unkernelized_predicates(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("jaccard").plan("rank")
        assert not any("scoring kernels" in note for note in plan.notes)

    def test_kernel_ops_counter_published(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25")
        query.top_k("IBM Corp", k=3)
        backend = kernels.active_backend()
        counters = engine.obs.metrics.to_dict()["counters"]
        assert counters.get("kernel_ops." + backend, 0) > 0
