"""The vectorized scoring kernels, pinned to definitions rather than to a
second implementation.

:mod:`repro.core.kernels` runs every kernelised predicate's inner loop (the
monotone-sum family -- WeightedMatch, WeightedJaccard, Cosine, BM25, LM,
HMM -- on the weighted scan, IntersectSize / Jaccard on the integer count
scan).  ``tests/test_reference.py`` checks every path against the paper's
formulas; this module adds the kernels' own properties: every kernelised
predicate against the reference scorer (``tests/reference.py``) on larger
random corpora, k values and thresholds, the overlap family against a naive
one-tuple-at-a-time definition (plain, restricted, blocked, sharded), the
array selection against the full sort where ties are densest, the index's
arrays, and what the engine reports.  Everything compares with ``==`` -- no
tolerances anywhere.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import Reference
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



def _pairs(scored):
    return [(match.tid, match.score) for match in scored]


def _pairs_of(scores):
    """A :class:`~repro.core.kernels.Scores`' ``(tid, score)`` pairs, as a dict."""
    return dict(kernels.sorted_items(scores))


class TestKernelsEqualTheReference:
    """``_scores`` / ``rank`` / ``select`` / ``top_k``, plain, restricted,
    LSH-blocked and sharded, ``==`` the reference scorer's answer on random
    corpora of up to 24 rows."""

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings)
    @settings(max_examples=30, deadline=None)
    def test_scores_dict(self, name, corpus, query):
        predicate = make_predicate(name).fit(corpus)
        scores = predicate._scores(query)
        want = Reference(name, corpus).scores(query)
        assert _pairs_of(scores) == want
        assert scores.tids.tolist() == sorted(want)  # tid-ascending

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings, limit=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_rank(self, name, corpus, query, limit):
        predicate = make_predicate(name).fit(corpus)
        want = Reference(name, corpus).rank(query, limit)
        assert _pairs(predicate.rank(query, limit=limit)) == want

    @pytest.mark.parametrize("name", KERNELIZED)
    @given(corpus=_corpora, query=_strings, threshold=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_select(self, name, corpus, query, threshold):
        predicate = make_predicate(name).fit(corpus)
        want = Reference(name, corpus).select(query, threshold)
        assert _pairs(predicate.select(query, threshold)) == want

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_topk(self, name, corpus, query, k):
        predicate = make_predicate(name).fit(corpus)
        assert _pairs(predicate.top_k(query, k)) == Reference(name, corpus).rank(query, k)

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_topk_under_restriction(self, name, corpus, query, k, data):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        want = [
            item for item in Reference(name, corpus).rank(query) if item[0] in allowed
        ]
        with predicate.restrict_candidates(allowed):
            assert _pairs(predicate.top_k(query, k)) == want[:k]

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_topk_under_blocker(self, name, corpus, query, k):
        """An LSH-blocked answer is the reference ranking of the tuples the
        blocker lets through."""
        predicate = make_predicate(name).fit(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        kept = {tid for tid, _ in _pairs(predicate.rank(query))}
        want = [item for item in Reference(name, corpus).rank(query) if item[0] in kept]
        assert _pairs(predicate.top_k(query, k)) == want[:k]

    @pytest.mark.parametrize(
        "name", ["bm25", "weighted_match", "lm", "jaccard", "intersect"]
    )
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_topk_and_rank(self, name, num_shards, executor):
        rows = CORPUS * 3
        query = (
            SimilarityEngine()
            .from_strings(rows)
            .predicate(name)
            .shards(num_shards, executor=executor)
        )
        reference = Reference(name, rows)
        assert _pairs(query.top_k("Morgn Stanley", k=5)) == reference.rank("Morgn Stanley", 5)
        assert _pairs(query.rank("IBM Corp", limit=8)) == reference.rank("IBM Corp", 8)
        query.engine.clear_cache()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_run_many(self, executor):
        rows = CORPUS * 3
        query = SimilarityEngine().from_strings(rows).predicate("cosine").shards(
            2, executor=executor
        )
        queries = ["Morgn Stanley", "IBM Corp", "Goldman", "zzz"]
        reference = Reference("cosine", rows)
        assert [
            _pairs(ranking) for ranking in query.run_many(queries, op="top_k", k=4)
        ] == [reference.rank(text, 4) for text in queries]
        query.engine.clear_cache()


class TestScoreSeesScores:
    @pytest.mark.parametrize("name", KERNELIZED)
    def test_score_matches_scores_on_company_corpus(self, name):
        predicate = make_predicate(name).fit(CORPUS)
        for query in ("Morgn Stanley", "IBM Corp", "Goldman", "zzz"):
            scores = predicate._scores(query)
            pairs = _pairs_of(scores)
            for tid in range(len(CORPUS)):
                assert predicate.score(query, tid) == pairs.get(tid, 0.0)
                assert scores.score(tid) == pairs.get(tid, 0.0)


def _assert_topk_is_the_sorted_cut(predicate, query, k):
    """The partition selection ``==`` the full sort cut to ``k``."""
    top = _pairs(predicate.top_k(query, k))
    assert top == _pairs(predicate.rank(query))[:k]


class TestTopKAgreesUnderTiesAndRestrictions:
    """The partition selection and the full sort agree where ordering is
    most fragile."""

    @given(corpus=_corpora, query=_strings, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rs_weighted_match_with_ties(self, corpus, query, data):
        """RS weights go negative for frequent tokens; a doubled corpus makes
        every score tie with its twin, so k lands inside tie groups."""
        doubled = corpus + corpus
        k = data.draw(st.sampled_from([1, len(corpus), len(doubled) + 3])
                      | st.integers(1, len(doubled)))
        _assert_topk_is_the_sorted_cut(
            make_predicate("weighted_match").fit(doubled), query, k
        )

    @pytest.mark.parametrize("name", MONOTONE)
    @given(corpus=_corpora, query=_strings, k=st.integers(1, 12), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_restriction_and_blocker(self, name, corpus, query, k, data):
        predicate = make_predicate(name).fit(corpus)
        allowed = data.draw(
            st.sets(st.integers(0, len(corpus) - 1), max_size=len(corpus))
        )
        with predicate.restrict_candidates(allowed):
            _assert_topk_is_the_sorted_cut(predicate, query, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        _assert_topk_is_the_sorted_cut(predicate, query, k)


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
    """The array scans ``==`` the naive reference, argued then exercised."""

    def test_integer_division_is_the_same_quotient_exhaustively(self):
        """Why the count scan needs no sampling to be trusted.

        The overlap count is an exact integer (a tid occurs at most once per
        posting array; integer addition is order-free).  Every operand of the
        Jaccard finalizer -- ``common`` and ``union = |Q| + |D| - common`` --
        is an integer far below 2**53, hence exactly representable in
        float64.  CPython's ``int / int`` and numpy's ``int64 / int64`` both
        return the correctly rounded IEEE-754 quotient of those two exact
        values, and a correctly rounded result is unique: the two are equal
        bit for bit.  Checked here for *every* pair a token set of up to 512
        tokens can produce, not for a sample of them.
        """
        for union in range(1, 513):
            common = np.arange(1, union + 1, dtype=np.int64)
            quotients = (common / np.int64(union)).tolist()
            assert quotients == [value / union for value in range(1, union + 1)]

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
        ranked = _ordered(want)
        assert (
            _pairs(predicate.rank(query)),
            _pairs(predicate.rank(query, limit=k)),
            _pairs(predicate.top_k(query, k)),
            _pairs(predicate.select(query, threshold)),
            [predicate.score(query, tid) for tid in range(-1, len(corpus) + 1)],
        ) == (
            ranked,
            ranked[:k],
            ranked[:k],
            [item for item in ranked if item[1] >= threshold],
            [want.get(tid, 0.0) for tid in range(-1, len(corpus) + 1)],
        )

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
        """The restriction mask keeps allowed ∩ {tuples sharing a kept
        token} -- with restriction tids outside the relation ignored."""
        predicate = make_predicate(name, tokenizer=tokenizer).fit(corpus)
        allowed = data.draw(st.sets(st.integers(-2, len(corpus) + 1)))
        want = {
            tid: score
            for tid, score in _naive_scores(predicate, name, corpus, query).items()
            if tid in allowed
        }
        with predicate.restrict_candidates(allowed):
            got = (
                _pairs(predicate.rank(query)),
                _pairs(predicate.top_k(query, k)),
                _pairs(predicate.select(query, 0.0)),
                predicate.last_num_candidates,
                [predicate.score(query, tid) for tid in range(len(corpus))],
            )
        ranked = _ordered(want)
        assert got == (
            ranked,
            ranked[:k],
            [item for item in ranked if item[1] >= 0.0],
            len(want),
            [want.get(tid, 0.0) for tid in range(len(corpus))],
        )

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
        blocked selection is the naive one."""
        predicate = make_predicate("jaccard", tokenizer=tokenizer).fit(corpus)
        predicate.set_blocker(
            make_blocker("length+prefix", threshold=threshold, tokenizer=tokenizer)
        )
        want = _naive_scores(predicate, "jaccard", corpus, query)
        assert _pairs(predicate.select(query, threshold)) == [
            item for item in _ordered(want) if item[1] >= threshold
        ]
        # A blocked ranking is the naive ranking of the surviving candidates.
        assert all(want[tid] == score for tid, score in _pairs(predicate.rank(query)))

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
        with sharded.restrict_candidates(allowed):
            restricted = _pairs(sharded.rank(query))
        assert (
            _pairs(sharded.rank(query)),
            _pairs(sharded.top_k(query, k)),
            _pairs(sharded.select(query, 0.0)),
            restricted,
        ) == (
            ranked,
            ranked[:k],
            [item for item in ranked if item[1] >= 0.0],
            [item for item in ranked if item[0] in allowed],
        )


class TestOverlapStaysInArrays:
    """The overlap family goes from postings to selection without a dict or
    a per-candidate Python loop."""

    #: More than 64 candidates per query: partitions over real tie groups.
    ROWS = [f"{left} {right} corp" for left in CORPUS for right in CORPUS]

    @pytest.mark.parametrize("name", COUNTED)
    @pytest.mark.parametrize("restricted", [False, True])
    def test_the_scan_never_builds_the_dict(self, name, restricted, monkeypatch):
        predicate = make_predicate(name).fit(self.ROWS)
        want = _naive_scores(predicate, name, self.ROWS, "Morgan Stanley Corp")
        assert len(want) > 64
        produced = []
        scores_of = predicate._scores

        def spy(query):
            produced.append(scores_of(query))
            return produced[-1]

        monkeypatch.setattr(predicate, "_scores", spy)
        allowed = set(range(len(self.ROWS))) if restricted else None
        with predicate.restrict_candidates(allowed):
            assert len(predicate.rank("Morgan Stanley Corp", limit=10)) == 10
            assert predicate.select("Morgan Stanley Corp", 0.0)
            assert len(predicate.top_k("Morgan Stanley Corp", 10)) == 10
        assert len(produced) == 3
        for scores in produced:
            assert isinstance(scores, kernels.Scores)
            assert scores.logs is None
            assert scores.tids.tolist() == sorted(want)
            assert scores.values.tolist() == [want[tid] for tid in sorted(want)]


class TestIndexArrays:
    """The relation's posting arrays: built once per index, inside a fit, shared."""

    def test_one_build_per_core_shared_by_reference(self):
        strings = CORPUS * 3
        core = CorpusCore(strings, QgramTokenizer(q=2))
        assert core._index is None and core.summary()["array_bytes"] is None
        names = ["jaccard", "intersect", "weighted_jaccard", "bm25", "lm"]
        first = make_predicate(names[0]).fit(strings, core=core)
        pairs = {token: core.index.arrays(token) for token in core.index.tokens()}
        sizes = core.index.set_sizes
        assert sizes.dtype == np.int64
        predicates = [first] + [
            make_predicate(name).fit(strings, core=core) for name in names[1:]
        ]
        assert core.index.set_sizes is sizes
        for predicate in predicates:
            assert predicate._index is core.index
        for token, (tids, tfs) in pairs.items():
            assert core.index.arrays(token)[0] is tids  # built once
            for array in (tids, tfs):
                assert array.dtype == np.int64 and array.flags["C_CONTIGUOUS"]
            assert list(zip(tids.tolist(), tfs.tolist())) == core.index.postings(token)
            # lm keeps every posting, so it scans the core's own tid arrays.
            assert predicates[-1]._weighted_index.arrays(token)[0] is tids
        assert sizes.tolist() == [len(set(tokens)) for tokens in core.token_lists]
        # Per posting an int64 tid and tf token-major and, tuple-major, a
        # token id and a tf of the narrowest unsigned types; per tuple its
        # int64 size.
        ids, tfs, bounds = core.index.tuple_major()
        assert ids.dtype == np.min_scalar_type(core.vocabulary_size)
        assert tfs.dtype == np.min_scalar_type(int(tfs.max()))
        assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]
        assert core.summary()["array_bytes"] == (
            (16 + ids.itemsize + tfs.itemsize) * core.num_postings + 8 * len(core)
        )
        assert "posting arrays" in core.describe()

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

    def test_core_slice_index_answers_like_a_fresh_one(self):
        """A shard's index is built from the slice's own lists: its arrays
        and its count scan equal those of an index over just those rows."""
        core = CorpusCore(CORPUS * 2, QgramTokenizer(q=2))
        core.index
        for start, stop in [(0, len(core)), (3, 17), (5, 6), (4, 4)]:
            part = core.slice(start, stop)
            assert part._index is None  # no index carried
            sliced = part.index
            fresh = InvertedIndex(core.token_lists[start:stop])
            assert sliced.set_sizes.tolist() == fresh.set_sizes.tolist()
            assert set(sliced.tokens()) == set(fresh.tokens())
            for token in fresh.tokens():
                assert [a.tolist() for a in sliced.arrays(token)] == [
                    a.tolist() for a in fresh.arrays(token)
                ]
            tokens = set(core.token_lists[7])
            overlap = {
                tid: len(tokens & set(row))
                for tid, row in enumerate(core.token_lists[start:stop])
                if tokens & set(row)
            }
            assert _pairs_of(kernels.count_overlap(sliced, tokens, stop - start)) == overlap
            assert _pairs_of(kernels.count_overlap(fresh, tokens, stop - start)) == overlap


class TestKernelCounters:
    """Op counters and the bench envelope."""

    def test_ops_counter_increments(self):
        predicate = make_predicate("bm25").fit(CORPUS)
        before = kernels.ops_snapshot()["numpy"]
        predicate.rank("IBM Corp", limit=3)
        assert kernels.ops_snapshot()["numpy"] > before

    def test_accumulate_keeps_cancelled_candidates(self):
        """Sums cancelling to exactly 0.0 must stay in the candidate set
        (negative RS weights make this reachable)."""
        index = WeightedPostingIndex(
            InvertedIndex([["a", "b"], ["a"]]), [("a", [1.5, 2.0]), ("b", [-1.5])]
        )
        items = [("a", 1.0), ("b", 1.0)]
        assert _pairs_of(kernels.accumulate(index, items, 2)) == {0: 0.0, 1: 2.0}

    def test_bench_envelope_records_kernel(self):
        assert bench_envelope("unit", None, {}, [])["kernel"] == "numpy"


class TestInStepChecks:
    """Each scan checks the length it read against the counts the fit
    stored: a short or missing array raises, never a partial answer; a
    read that does not touch the damaged token is answered."""

    @staticmethod
    def _scan(scan, index, tokens):
        if scan == "accumulate":
            items = [(token, 1.0) for token in sorted(tokens)]
            return kernels.accumulate(index, items, len(CORPUS))
        if scan == "count_overlap":
            return kernels.count_overlap(index, tokens, len(CORPUS))
        return kernels.posting_tids(index, tokens)

    @pytest.mark.parametrize("tokens", ["one", "several"])
    @pytest.mark.parametrize("damage", ["truncate", "drop"])
    @pytest.mark.parametrize("scan", ["accumulate", "count_overlap", "posting_tids"])
    def test_a_short_or_missing_array_raises(self, scan, damage, tokens):
        if scan == "accumulate":
            index = make_predicate("bm25").fit(CORPUS)._weighted_index
        else:
            index = make_predicate("jaccard").fit(CORPUS)._index
        arrays = index._arrays
        widest = sorted(arrays, key=lambda token: (-arrays[token][0].size, token))
        damaged, untouched = widest[0], widest[1:3]
        read = [damaged] if tokens == "one" else [damaged, *untouched]
        want = self._scan(scan, index, untouched)
        self._scan(scan, index, read)  # in step
        if damage == "drop":
            del arrays[damaged]
        else:
            tids, values = arrays[damaged]
            arrays[damaged] = (tids[:-1], values[:-1])
        with pytest.raises(ValueError, match="out of step"):
            self._scan(scan, index, read)
        got = self._scan(scan, index, untouched)
        if scan == "posting_tids":
            assert got.tolist() == want.tolist()
        else:
            assert _pairs_of(got) == _pairs_of(want) and len(want) > 0

    def test_count_overlap_refuses_a_tid_beyond_the_relation(self):
        index = make_predicate("jaccard").fit(CORPUS)._index
        token = next(iter(index._arrays))
        tids, tfs = index._arrays[token]
        index._arrays[token] = (tids + len(CORPUS), tfs)
        with pytest.raises(ValueError, match="beyond the relation"):
            kernels.count_overlap(index, [token], len(CORPUS))


class TestEngineSurface:
    """plan() notes and obs counters surface the kernels."""

    def test_plan_note_names_the_kernels(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("bm25").plan("top_k")
        assert any("scoring kernels: numpy" in note for note in plan.notes)
        assert not any("python" in note for note in plan.notes)

    def test_plan_note_absent_for_unkernelized_predicates(self):
        engine = SimilarityEngine()
        plan = engine.from_strings(CORPUS).predicate("edit_distance").plan("rank")
        assert not any("scoring kernels" in note for note in plan.notes)

    @pytest.mark.parametrize("name", ["jaccard", "intersect"])
    def test_plan_note_names_the_kernels_for_count_scan_predicates(self, name):
        engine = SimilarityEngine()
        notes = engine.from_strings(CORPUS).predicate(name).plan("rank").notes
        assert any("scoring kernels: numpy" in note for note in notes)

    def test_kernel_ops_counter_published(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25")
        query.top_k("IBM Corp", k=3)
        counters = engine.obs.metrics.to_dict()["counters"]
        assert counters.get("kernel_ops.numpy", 0) > 0
