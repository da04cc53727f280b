"""Equivalence suite for the vectorized scoring kernels.

The contract of :mod:`repro.core.kernels` is *bit-identity*: for every
kernelized predicate (the monotone-sum family -- WeightedMatch,
WeightedJaccard, Cosine, BM25, LM, HMM -- on the weighted scan, and
IntersectSize / Jaccard on the integer count scan), the numpy backend must
return exactly the floats the pure-Python backend returns, across corpora,
queries, k values, blockers, candidate restrictions, shard counts, and
executors.
The tests force each backend in turn via :func:`kernels.use_backend` and
compare with ``==`` -- no tolerances anywhere.

Mirrors the structure of ``tests/test_topk_fastpath.py`` (which pins
``top_k`` against the ranking cut to ``k``; this file pins the backend
equivalence).  ``top_k`` is ``rank(limit=k)`` on both backends, but the two
select differently -- a bounded heap over the scalar scan's dict, a
partition over the numpy scan's arrays -- so it stays a two-backend check.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex, WeightedPostingIndex
from repro.core.predicates import make_predicate
from repro.engine import SimilarityEngine
from repro.obs.export import bench_envelope
from repro.shard import ShardedPredicate
from repro.text.tokenize import QgramTokenizer, WordTokenizer

#: Every predicate whose scoring routes through repro.core.kernels.
KERNELIZED = [
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "lm",
    "hmm",
    "jaccard",
    "intersect",
]

#: The overlap predicates whose finalizers this suite checks against a naive
#: reference (the count scan's two, and the weighted finalizer kept in arrays).
COUNTED = ["intersect", "jaccard", "weighted_jaccard"]

#: The plain monotone sums (no finalizer): the top_k property-test subset.
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
    """The scalar heap ``top_k`` and the numpy dense scan agree."""

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
    """Scalar heap, numpy dense scan and ``rank(limit=k)`` agree where
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

    @pytest.mark.parametrize(
        "name", ["bm25", "weighted_match", "lm", "jaccard", "intersect"]
    )
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


# -- the overlap family on the kernels ------------------------------------------
#
# Corpora here are hostile on purpose: duplicates, empty strings (an empty
# token set under the word tokenizer, the one-token ``$$`` tuple under
# q-grams), one-token tuples and query words no tuple contains.

_overlap_words = st.sampled_from(["alpha", "beta", "gamma", "ab", "ba", "aa", "a", "zz"])
_overlap_strings = st.lists(_overlap_words, min_size=0, max_size=4).map(" ".join)
_overlap_corpora = st.lists(_overlap_strings, min_size=1, max_size=20)
_overlap_queries = _overlap_strings | st.just("qq") | st.just("unseen words only")
_tokenizers = st.sampled_from([QgramTokenizer(q=2), WordTokenizer()])


def _naive_scores(predicate, name, corpus, query):
    """The paper's definition, one tuple at a time: no index, no scan.

    ``len(Q & D)`` and ``len(Q & D) / len(Q | D)`` for the count-scan pair;
    the weighted Jaccard sums the fitted weight table over ``Q & D``, ``Q``
    and ``D`` in sorted token order (the canonical order, RPL001).
    """
    tokenize = predicate.tokenizer.tokenize
    query_set = set(tokenize(query))
    scores = {}
    for tid, text in enumerate(corpus):
        tuple_set = set(tokenize(text))
        if name == "weighted_jaccard":
            weight = predicate._weights
            shared = [
                weight[token]
                for token in sorted(query_set & tuple_set)
                if weight.get(token, 0.0) != 0.0
            ]
            if not shared:
                continue
            common = sum(shared, 0.0)
            union = (
                sum(weight.get(token, 0.0) for token in sorted(query_set))
                + sum(weight.get(token, 0.0) for token in sorted(tuple_set))
                - common
            )
            scores[tid] = common / union if union > 0 else 0.0
        elif query_set & tuple_set:
            common = len(query_set & tuple_set)
            scores[tid] = (
                float(common) if name == "intersect" else common / len(query_set | tuple_set)
            )
    return scores


def _ordered(scores):
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


class TestOverlapExactness:
    """numpy ``==`` scalar ``==`` the naive reference, argued then exercised."""

    @needs_numpy
    def test_integer_division_is_the_same_quotient_exhaustively(self):
        """Why the count scan needs no sampling to be trusted.

        The overlap count is an exact integer (a tid occurs at most once per
        posting list; integer addition is order-free).  Every operand of the
        Jaccard finalizer -- ``common`` and ``union = |Q| + |D| - common`` --
        is an integer far below 2**53, hence exactly representable in
        float64.  CPython's ``int / int`` and numpy's ``int64 / int64`` both
        return the correctly rounded IEEE-754 quotient of those two exact
        values, and a correctly rounded result is unique: the two are equal
        bit for bit.  Checked here for *every* pair a token set of up to 512
        tokens can produce, not for a sample of them.
        """
        np = kernels.np
        for union in range(1, 513):
            common = np.arange(1, union + 1, dtype=np.int64)
            quotients = (common / np.int64(union)).tolist()
            assert quotients == [value / union for value in range(1, union + 1)]

    @needs_numpy
    @pytest.mark.parametrize("name", COUNTED)
    @given(
        corpus=_overlap_corpora,
        query=_overlap_queries,
        tokenizer=_tokenizers,
        k=st.integers(0, 25),
        threshold=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_plain_calls_match_the_naive_reference(
        self, name, corpus, query, tokenizer, k, threshold
    ):
        predicate = make_predicate(name, tokenizer=tokenizer).fit(corpus)
        want = _naive_scores(predicate, name, corpus, query)

        def run():
            return (
                _pairs(predicate.rank(query)),
                _pairs(predicate.rank(query, limit=k)),
                _pairs(predicate.top_k(query, k)),
                _pairs(predicate.select(query, threshold)),
                [predicate.score(query, tid) for tid in range(-1, len(corpus) + 1)],
            )

        python_result, numpy_result = _both_backends(run)
        assert numpy_result == python_result
        ranked = _ordered(want)
        assert numpy_result == (
            ranked,
            ranked[:k],
            ranked[:k],
            [item for item in ranked if item[1] >= threshold],
            [want.get(tid, 0.0) for tid in range(-1, len(corpus) + 1)],
        )

    @needs_numpy
    @pytest.mark.parametrize("name", COUNTED)
    @given(
        corpus=_overlap_corpora,
        query=_overlap_queries,
        tokenizer=_tokenizers,
        k=st.integers(1, 25),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_restricted_calls_match_the_naive_reference(
        self, name, corpus, query, tokenizer, k, data
    ):
        """The numpy mask and the scalar set loop keep the same candidates:
        allowed ∩ {tuples sharing a kept token} -- with restriction tids
        outside the relation ignored by both."""
        predicate = make_predicate(name, tokenizer=tokenizer).fit(corpus)
        allowed = data.draw(st.sets(st.integers(-2, len(corpus) + 1)))
        want = {
            tid: score
            for tid, score in _naive_scores(predicate, name, corpus, query).items()
            if tid in allowed
        }

        def run():
            with predicate.restrict_candidates(allowed):
                return (
                    _pairs(predicate.rank(query)),
                    _pairs(predicate.top_k(query, k)),
                    _pairs(predicate.select(query, 0.0)),
                    predicate.last_num_candidates,
                    [predicate.score(query, tid) for tid in range(len(corpus))],
                )

        python_result, numpy_result = _both_backends(run)
        assert numpy_result == python_result
        ranked = _ordered(want)
        assert numpy_result == (
            ranked,
            ranked[:k],
            [item for item in ranked if item[1] >= 0.0],
            len(want),
            [want.get(tid, 0.0) for tid in range(len(corpus))],
        )

    @needs_numpy
    @given(
        corpus=_overlap_corpora,
        query=_overlap_queries,
        tokenizer=_tokenizers,
        threshold=st.sampled_from([0.3, 0.6, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocked_jaccard_matches_the_naive_reference(
        self, corpus, query, tokenizer, threshold
    ):
        """``length+prefix`` is exact for Jaccard at its threshold, so the
        blocked selection is the naive one -- on both backends, with the
        same candidate count."""
        predicate = make_predicate("jaccard", tokenizer=tokenizer).fit(corpus)
        predicate.set_blocker(
            make_blocker("length+prefix", threshold=threshold, tokenizer=tokenizer)
        )
        want = _naive_scores(predicate, "jaccard", corpus, query)

        def run():
            return (
                _pairs(predicate.select(query, threshold)),
                predicate.last_num_candidates,
                _pairs(predicate.rank(query)),
            )

        python_result, numpy_result = _both_backends(run)
        assert numpy_result == python_result
        assert numpy_result[0] == [
            item for item in _ordered(want) if item[1] >= threshold
        ]
        # A blocked ranking is the naive ranking of the surviving candidates.
        assert all(want[tid] == score for tid, score in numpy_result[2])

    @needs_numpy
    @pytest.mark.parametrize("name", COUNTED)
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @given(corpus=_overlap_corpora, query=_overlap_queries, k=st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_sharded_calls_match_the_naive_reference(
        self, name, num_shards, corpus, query, k
    ):
        sharded = ShardedPredicate(
            lambda: make_predicate(name), num_shards=num_shards, executor="serial"
        ).fit(corpus)
        ranked = _ordered(
            _naive_scores(make_predicate(name).fit(corpus), name, corpus, query)
        )
        allowed = set(range(-1, len(corpus) + 2, 2))

        def run():
            with sharded.restrict_candidates(allowed):
                restricted = _pairs(sharded.rank(query))
            return (
                _pairs(sharded.rank(query)),
                _pairs(sharded.top_k(query, k)),
                _pairs(sharded.select(query, 0.0)),
                restricted,
            )

        python_result, numpy_result = _both_backends(run)
        assert numpy_result == python_result
        assert numpy_result == (
            ranked,
            ranked[:k],
            [item for item in ranked if item[1] >= 0.0],
            [item for item in ranked if item[0] in allowed],
        )


class TestOverlapStaysInArrays:
    """On numpy the overlap family goes from postings to selection without a
    dict or a per-candidate Python loop; on the scalar backend it runs the
    code it always ran."""

    #: Enough candidates (> ``kernels._SELECTION_MIN``) for array selection.
    ROWS = [f"{left} {right} corp" for left in CORPUS for right in CORPUS]

    @needs_numpy
    @pytest.mark.parametrize("name", COUNTED)
    @pytest.mark.parametrize("restricted", [False, True])
    def test_numpy_never_builds_the_dict(self, name, restricted, monkeypatch):
        predicate = make_predicate(name).fit(self.ROWS)
        with kernels.use_backend("python"):
            want = predicate._scores("Morgan Stanley Corp")
        assert len(want) > kernels._SELECTION_MIN

        def no_scalar_scan(self, tokens):
            raise AssertionError("the numpy path must not run candidate_overlap")

        monkeypatch.setattr(InvertedIndex, "candidate_overlap", no_scalar_scan)
        produced = []
        scores_of = predicate._scores

        def spy(query):
            produced.append(scores_of(query))
            return produced[-1]

        monkeypatch.setattr(predicate, "_scores", spy)
        allowed = set(range(len(self.ROWS))) if restricted else None
        with kernels.use_backend("numpy"), predicate.restrict_candidates(allowed):
            assert len(predicate.rank("Morgan Stanley Corp", limit=10)) == 10
            assert predicate.select("Morgan Stanley Corp", 0.0)
            assert len(predicate.top_k("Morgan Stanley Corp", 10)) == 10
        assert len(produced) == 3
        for scores in produced:
            assert isinstance(scores, kernels.DenseScores)
            assert not scores._filled
            assert scores == want  # materializes: same keys, same floats

    @pytest.mark.parametrize("name", ["intersect", "jaccard"])
    def test_scalar_backend_runs_candidate_overlap(self, name, monkeypatch):
        predicate = make_predicate(name).fit(self.ROWS)
        index = predicate._index
        seen = []
        candidate_overlap = InvertedIndex.candidate_overlap

        def spy(self, tokens):
            seen.append(candidate_overlap(self, tokens))
            return seen[-1]

        monkeypatch.setattr(InvertedIndex, "candidate_overlap", spy)
        with kernels.use_backend("python"):
            before = kernels.ops_snapshot()
            overlap = kernels.count_overlap(index, {"MO", "OR", "zz"}, len(self.ROWS))
            after = kernels.ops_snapshot()
            assert overlap is seen[-1] and type(overlap) is dict
            assert after["python"] == before["python"] + 1
            assert after["python_fallback"] == before["python_fallback"]
            scores = predicate._scores("Morgan Stanley Corp")
        assert type(scores) is dict and len(seen) == 2
        if kernels.numpy_available():
            with kernels.use_backend("numpy"):
                dense = kernels.count_overlap(index, {"MO", "OR", "zz"}, len(self.ROWS))
            assert isinstance(dense, kernels.DenseScores) and dense == overlap
            assert len(seen) == 2


class TestIndexArrays:
    """The relation's posting arrays: built once per index, inside a fit, shared."""

    @needs_numpy
    def test_one_build_per_core_shared_by_reference(self):
        strings = CORPUS * 3
        core = CorpusCore(strings, QgramTokenizer(q=2))
        assert core.index.arrays("OR") is None and core.index.set_sizes is None
        assert core.summary()["array_bytes"] is None
        names = ["jaccard", "intersect", "weighted_jaccard", "bm25", "lm"]
        with kernels.use_backend("python"):  # forcing is dispatch-only
            first = make_predicate(names[0]).fit(strings, core=core)
        pairs = {token: core.index.arrays(token) for token in core.index.tokens()}
        sizes = core.index.set_sizes
        assert sizes.dtype == kernels.np.int64
        predicates = [first] + [
            make_predicate(name).fit(strings, core=core) for name in names[1:]
        ]
        assert core.index.set_sizes is sizes
        for predicate in predicates:
            assert predicate._index is core.index
        for token, (tids, tfs) in pairs.items():
            assert core.index.arrays(token)[0] is tids  # built once
            for array in (tids, tfs):
                assert array.dtype == kernels.np.int64 and array.flags["C_CONTIGUOUS"]
            assert list(zip(tids.tolist(), tfs.tolist())) == core.index.postings(token)
            # lm keeps every posting, so it scans the core's own tid arrays.
            assert predicates[-1]._weighted_index.arrays(token)[0] is tids
        assert sizes.tolist() == [len(set(tokens)) for tokens in core.token_lists]
        assert core.summary()["array_bytes"] == 16 * core.num_postings + 8 * len(core)
        assert "posting arrays" in core.describe()

    @needs_numpy
    def test_engine_fits_share_the_arrays(self):
        engine = SimilarityEngine()
        base = engine.from_strings(CORPUS * 3)
        fitted = [
            base.predicate(name).fitted_predicate()
            for name in ["jaccard", "intersect", "bm25", "weighted_match", "cosine"]
        ]
        assert len({id(predicate._index) for predicate in fitted}) == 1
        assert fitted[0]._index.arrays("OR") is not None
        assert fitted[0]._index.arrays("OR") is fitted[1]._index.arrays("OR")

    @needs_numpy
    def test_core_slice_index_answers_like_a_fresh_one(self):
        """A shard's index is built from the slice's own lists: its arrays
        and its count scan equal those of an index over just those rows."""
        core = CorpusCore(CORPUS * 2, QgramTokenizer(q=2))
        core.build_index_arrays()
        for start, stop in [(0, len(core)), (3, 17), (5, 6), (4, 4)]:
            sliced = core.slice(start, stop).index
            assert sliced.arrays("OR") is None  # no arrays, none carried
            sliced.build_arrays()
            fresh = InvertedIndex(core.token_lists[start:stop])
            fresh.build_arrays()
            assert sliced.set_sizes.tolist() == fresh.set_sizes.tolist()
            assert set(sliced.tokens()) == set(fresh.tokens())
            for token in fresh.tokens():
                assert [a.tolist() for a in sliced.arrays(token)] == [
                    a.tolist() for a in fresh.arrays(token)
                ]
            tokens = set(core.token_lists[7])
            with kernels.use_backend("numpy"):
                got = kernels.count_overlap(sliced, tokens, stop - start)
            assert got == fresh.candidate_overlap(tokens)

    def test_no_arrays_without_numpy(self, monkeypatch):
        """``REPRO_KERNEL=python`` leaves ``kernels.np`` unset: nothing is built."""
        monkeypatch.setattr(kernels, "np", None)
        predicate = make_predicate("jaccard").fit(CORPUS)
        assert predicate._index.arrays("OR") is None
        assert predicate._index.set_sizes is None
        assert predicate._core.summary()["array_bytes"] is None
        assert make_predicate("weighted_jaccard").fit(CORPUS)._tuple_weight_sum_array is None
        assert make_predicate("bm25").fit(CORPUS)._weighted_index.arrays("OR") is None
        assert _pairs(predicate.rank("IBM Corp"))  # and the scalar path answers


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
        values = [("a", [1.5, 2.0]), ("b", [-1.5])]
        index = WeightedPostingIndex(
            InvertedIndex([["a", "b"], ["a"]]), values, lambda: values
        )
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
        plan = engine.from_strings(CORPUS).predicate("edit_distance").plan("rank")
        assert not any("scoring kernels" in note for note in plan.notes)

    @pytest.mark.parametrize("name", ["jaccard", "intersect"])
    def test_plan_note_names_backend_for_count_scan_predicates(self, name):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate(name)
        backends = ["python"] + (["numpy"] if kernels.numpy_available() else [])
        for backend in backends:
            with kernels.use_backend(backend):
                notes = query.plan("rank").notes
            assert any(f"scoring kernels: {backend!r} backend" in note for note in notes)

    def test_kernel_ops_counter_published(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25")
        query.top_k("IBM Corp", k=3)
        backend = kernels.active_backend()
        counters = engine.obs.metrics.to_dict()["counters"]
        assert counters.get("kernel_ops." + backend, 0) > 0
