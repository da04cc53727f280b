"""The shared corpus core is invisible in answers and visible in work.

One engine fits every direct predicate on one ``(corpus, tokenizer)`` over a
single :class:`~repro.core.corpus.CorpusCore`.  These tests pin both halves
of that sentence: predicates fitted through one engine answer ``==`` (bit for
bit) predicates fitted alone, across all 13 predicates x shard counts x
tokenizers; and the relation is tokenized exactly once,
the core is built once, it is read-only, it goes away with ``clear_cache()``
and the engine's own output (spans, counters, gauges, ``explain()``) says so.
The seam's refusals (mismatched length / tokenizer) and the
``PrunedTokenizer`` state collision it exposed are regression-tested here
too.
"""

from __future__ import annotations

import copy
import gc
import math
import pickle
import weakref
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex
from repro.core.predicates import BM25, GES, Jaccard
from repro.core.predicates.base import Predicate
from repro.engine import SimilarityEngine, registry
from repro.eval.pruning import PrunedTokenizer
from repro.eval.timing import time_preprocessing
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedPredicate, ShardStatisticsView
from repro.text.tokenize import QgramTokenizer, TwoLevelTokenizer, WordTokenizer
from repro.text.weights import CollectionStatistics, tfidf_norm

ALL_DIRECT = registry.available_predicates("direct")

#: Predicates configured by a ``tokenizer=`` argument; the edit and
#: combination families take the q-gram length ``q=`` instead.
TOKENIZER_CONFIGURED = [
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "lm",
    "hmm",
]

TOKENIZERS = [QgramTokenizer(q=2), QgramTokenizer(q=3), WordTokenizer()]

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
    "Morgan Stanley Inc",
]

QUERIES = ["Morgn Stanley Inc", "IBM Corp", "at&t", "zzz"]

_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "corp", "inc", "intl", "ab", "ba", "aa"]
)
_strings = st.lists(_words, min_size=1, max_size=4).map(" ".join)
_corpora = st.lists(_strings, min_size=2, max_size=16)


def _pairs(scored):
    return [(m.tid, m.score) for m in scored]


def _kwargs(name: str, tokenizer) -> dict:
    """Constructor arguments putting ``name`` on ``tokenizer`` (the edit and
    combination families follow its q-gram length, or keep their default)."""
    if name in TOKENIZER_CONFIGURED:
        return {"tokenizer": tokenizer}
    q = getattr(tokenizer, "q", None)
    return {} if q is None else {"q": q}


def _assert_same_answers(shared, alone, queries, num_tuples):
    for query in queries:
        assert _pairs(shared.rank(query)) == _pairs(alone.rank(query))
        assert _pairs(shared.rank(query, limit=3)) == _pairs(
            alone.rank(query, limit=3)
        )
        assert _pairs(shared.top_k(query, 3)) == _pairs(alone.top_k(query, 3))
        for threshold in (0.0, 0.3, 0.7):
            assert _pairs(shared.select(query, threshold)) == _pairs(
                alone.select(query, threshold)
            )
        assert [shared.score(query, tid) for tid in range(num_tuples)] == [
            alone.score(query, tid) for tid in range(num_tuples)
        ]


#: When the shared fits answer: after all of them are fitted (every one reads
#: a core the others have read and partly built), or each right after its
#: own fit (the core's lazy parts are built by the fits still to come).
ORDERS = ["fit-all-first", "query-as-fitted"]


class TestSharedEqualsAlone:
    """Property: fitted through one engine == fitted alone, bit for bit."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("tokenizer", TOKENIZERS, ids=lambda t: t.name)
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_all_predicates_on_one_engine(self, num_shards, tokenizer, order):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(CORPUS).shards(num_shards)

        def check(name, shared):
            alone = registry.make(name, **_kwargs(name, tokenizer)).fit(CORPUS)
            _assert_same_answers(shared, alone, QUERIES, len(CORPUS))

        fitted = {}
        for name in ALL_DIRECT:
            fitted[name] = base.predicate(name, **_kwargs(name, tokenizer)).fitted_predicate()
            if order == "query-as-fitted":
                check(name, fitted[name])
        assert len(ALL_DIRECT) == 13
        assert isinstance(fitted["bm25"], ShardedPredicate) == (num_shards > 1)
        # 13 fits, far fewer tokenization passes: one per distinct tokenizer.
        builds = engine.metrics.value("core_builds_total")
        assert builds + engine.metrics.value("core_reuses_total") == 13
        assert builds <= 3
        if order == "fit-all-first":
            for name, shared in fitted.items():
                check(name, shared)
        engine.clear_cache()

    @pytest.mark.parametrize("order", ["core-first", "blocked-first"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_blocked_jaccard_on_a_shared_core(self, num_shards, order):
        """The blocked fit reads a core another fit built, or builds it
        before another fit reads it."""
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(CORPUS).shards(num_shards)
        if order == "core-first":
            base.predicate("bm25").fitted_predicate()  # the core exists already
        blocked = base.predicate("jaccard").blocker("length+prefix")
        if order == "blocked-first":
            blocked.select(QUERIES[0], 0.3)  # fits jaccard and its blocker
            base.predicate("bm25").fitted_predicate()
        alone = Jaccard().fit(CORPUS)
        for query in QUERIES:
            for threshold in (0.3, 0.6):
                assert _pairs(blocked.select(query, threshold)) == _pairs(
                    alone.select(query, threshold)
                )
        assert engine.metrics.value("core_builds_total") == 1
        engine.clear_cache()

    @pytest.mark.parametrize("order", ORDERS)
    @given(
        corpus=_corpora,
        query=_strings,
        num_shards=st.sampled_from([1, 2, 7]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_corpora(self, corpus, query, num_shards, order):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(corpus).shards(num_shards)

        def check(name, shared):
            alone = registry.make(name).fit(corpus)
            assert _pairs(shared.rank(query)) == _pairs(alone.rank(query))
            assert _pairs(shared.top_k(query, 2)) == _pairs(alone.top_k(query, 2))
            assert _pairs(shared.select(query, 0.4)) == _pairs(
                alone.select(query, 0.4)
            )

        fitted = {}
        for name in ALL_DIRECT:
            fitted[name] = base.predicate(name).fitted_predicate()
            if order == "query-as-fitted":
                check(name, fitted[name])
        if order == "fit-all-first":
            for name, shared in fitted.items():
                check(name, shared)
        engine.clear_cache()


class TestSharingIsVisibleInWork:
    def test_relation_is_tokenized_once_for_six_fits(
        self, company_strings, counting_tokenizer
    ):
        counting = counting_tokenizer
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        for name in ("bm25", "cosine", "weighted_match", "lm", "jaccard"):
            base.predicate(name, tokenizer=counting).fitted_predicate()
        base.predicate("bm25", tokenizer=counting).shards(2).fitted_predicate()
        assert engine.metrics.value("fits_total") == 6
        # At the parent commit every fit re-tokenized the relation: 6x.
        assert counting.calls == len(company_strings)
        assert engine.metrics.value("core_builds_total") == 1
        assert engine.metrics.value("core_reuses_total") == 5
        engine.clear_cache()

    def test_instances_and_refits_go_through_the_shared_core(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        instance = BM25()
        sharded = ShardedPredicate(lambda: registry.make("cosine"), num_shards=2)
        first, second = company_strings, company_strings[:6]
        engine.from_strings(first).predicate("jaccard").fitted_predicate()
        assert engine.from_strings(first).predicate(instance).fitted_predicate() is instance
        engine.from_strings(first).predicate(sharded).fitted_predicate()
        assert engine.metrics.value("core_builds_total") == 1
        assert instance._core is sharded._core
        # Staleness refit of the same instance on another corpus: a second
        # core, built once, and the answers of a standalone fit.
        refit = engine.from_strings(second).predicate(instance)
        assert _pairs(refit.rank("Beijing Hotel")) == _pairs(
            BM25().fit(second).rank("Beijing Hotel")
        )
        assert engine.metrics.value("core_builds_total") == 2
        assert len(instance._core) == len(second)
        engine.clear_cache()

    def test_unhashable_tokenizer_gets_a_private_core(
        self, company_strings, counting_tokenizer
    ):
        class Unhashable(type(counting_tokenizer)):
            __hash__ = None

        engine = SimilarityEngine(metrics=MetricsRegistry())
        tokenizer = Unhashable(QgramTokenizer(q=2))
        base = engine.from_strings(company_strings)
        shared = base.predicate(BM25(tokenizer=tokenizer)).fitted_predicate()
        base.predicate(Jaccard(tokenizer=tokenizer)).fitted_predicate()
        assert tokenizer.calls == 2 * len(company_strings)
        assert engine.metrics.value("core_builds_total") == 0
        assert _pairs(shared.rank("Beijing Hotel")) == _pairs(
            BM25().fit(company_strings).rank("Beijing Hotel")
        )

    def test_objects_that_know_no_core_are_fitted_on_the_strings(self, company_strings):
        class ProtocolOnly:
            """Duck-typed predicate: a tokenizer, but ``fit(strings)`` only."""

            def __init__(self):
                self._inner = Jaccard()

            def fit(self, strings):
                self._inner.fit(strings)
                return self

            def __getattr__(self, name):
                return getattr(self._inner, name)

        class NoTokenizer(Predicate):
            """Own phases, no tokenizer: nothing to key a core by."""

            name = "constant"

            def tokenize_phase(self):
                pass

            def weight_phase(self):
                pass

            def _scores(self, query):
                return kernels.Scores.from_dict({0: 0.5})

        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        alone = _pairs(Jaccard().fit(company_strings).rank("Beijing Hotel"))
        assert _pairs(base.predicate(ProtocolOnly()).rank("Beijing Hotel")) == alone
        assert _pairs(base.predicate(NoTokenizer()).rank("Beijing Hotel")) == [(0, 0.5)]
        assert engine.metrics.value("fits_total") == 2
        assert engine.metrics.value("core_builds_total") == 0
        assert engine._cores == {}

    def test_a_second_fit_leaves_the_first_untouched(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        first = base.predicate("bm25").fitted_predicate()
        token_lists = copy.deepcopy(first._token_lists)
        postings = {
            token: list(first._index.postings(token)) for token in first._index.tokens()
        }
        answers = [_pairs(first.rank(query)) for query in QUERIES]
        for name in ALL_DIRECT:
            base.predicate(name).fitted_predicate()
        base.predicate("lm").shards(2).fitted_predicate()
        assert first._token_lists == token_lists
        assert {
            token: first._index.postings(token) for token in first._index.tokens()
        } == postings
        assert [_pairs(first.rank(query)) for query in QUERIES] == answers
        engine.clear_cache()

    def test_clear_cache_leaves_no_core_reachable(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        core = weakref.ref(base.predicate("bm25").fitted_predicate()._core)
        base.predicate("ges").shards(2).fitted_predicate()
        assert core() is not None and len(engine._cores) == 2
        engine.clear_cache()
        del base
        gc.collect()
        assert engine._cores == {}
        assert core() is None

    def test_standalone_phases_still_time_apart(self, company_strings):
        timing = time_preprocessing("bm25", company_strings * 20)
        assert timing.tokenization_seconds > 0.0
        assert timing.weights_seconds > 0.0
        # An already-fitted instance is re-bound, not answered from the
        # core of its previous relation.
        instance = BM25().fit(company_strings)
        time_preprocessing(instance, company_strings[:5])
        assert len(instance._core) == 5
        assert _pairs(instance.rank("Beijing Hotel")) == _pairs(
            BM25().fit(company_strings[:5]).rank("Beijing Hotel")
        )


class TestCoreParts:
    def test_parts_are_built_on_first_use_and_kept(self, company_strings):
        core = CorpusCore(company_strings, QgramTokenizer(q=2))
        assert core.token_lists == QgramTokenizer(q=2).tokenize_many(company_strings)
        assert core._term_frequencies is None and core._index is None
        assert core._token_sets is None and core._stats is None
        assert core.index is core.index and core.stats is core.stats
        # The index and the statistics are built from the token lists: no
        # Counter list is counted for them.
        assert core._term_frequencies is None
        assert core.token_sets is core.token_sets
        # A tuple's counts are its token list counted, in one key order.
        for tid in (0, len(company_strings) - 1):
            counts = core.index.term_frequencies(tid)
            assert counts == core.stats.term_frequencies(tid)
            assert list(counts.items()) == list(core.stats.term_frequencies(tid).items())
        assert core._term_frequencies is None
        assert core.vocabulary_size == len(core.stats.vocabulary)
        assert core.num_postings == sum(
            len(core.index.postings(token)) for token in core.index.tokens()
        )

    def test_word_level_predicates_never_build_a_posting_index(self, company_strings):
        predicate = GES().fit(company_strings)
        assert predicate._core._index is None and predicate._core._stats is not None

    def test_slice_is_a_shard_local_fit_over_global_statistics(self, company_strings):
        core = CorpusCore(company_strings, QgramTokenizer(q=2))
        part = core.slice(3, 8)
        assert len(part) == 5 and part.token_lists == core.token_lists[3:8]
        assert isinstance(part.stats, ShardStatisticsView)
        assert part.stats.num_tuples == len(company_strings)
        assert part.stats.num_local_tuples == 5
        assert part.stats.rs_table() is core.stats.rs_table()
        rebuilt = InvertedIndex(core.token_lists[3:8])
        assert {t: part.index.postings(t) for t in part.index.tokens()} == {
            t: rebuilt.postings(t) for t in rebuilt.tokens()
        }
        # What a process-pool fit ships: the slice, not the core it came from.
        assert all(value is not core for value in vars(part).values())
        shipped = pickle.loads(pickle.dumps(part))
        assert shipped.token_lists == part.token_lists
        assert shipped.stats.rs_table() == core.stats.rs_table()

    def test_statistics_tables_are_cached_and_bit_identical(self):
        token_lists = [["A", "B", "A"], ["B", "C"], ["C", "D", "D", "D"]]
        stats = CollectionStatistics(token_lists)
        assert stats.rs_table() is stats.rs_table()
        assert stats.idf_table() is stats.idf_table()
        assert stats.rs_table() == {t: stats.rs_weight(t) for t in stats.vocabulary}
        assert stats.idf_table() == {t: stats.idf(t) for t in stats.vocabulary}
        # The public constructor still owns (copies) what it is handed.
        token_lists[0].append("Z")
        assert stats.tokens(0) == ["A", "B", "A"] and stats.length(0) == 3


#: The kernelised predicates: on numpy none of their fits or plain queries
#: reads the inverted index's (tid, tf) lists.
KERNELISED = [
    "bm25",
    "cosine",
    "weighted_match",
    "weighted_jaccard",
    "lm",
    "hmm",
    "jaccard",
    "intersect",
]

EDGE_ROWS = CORPUS + ["", "aa aa aa", "x"]


def _lists_from_counters(counters):
    """The (tid, tf) lists rebuilt tuple-major from the Counters."""
    postings = {}
    for tid, counts in enumerate(counters):
        for token, tf in counts.items():
            postings.setdefault(token, []).append((tid, tf))
    return postings


def _counter_statistics(token_lists, counters):
    """df, cf and p̂_avg counted tuple-major over the Counters."""
    df, cf, pml = {}, {}, {}
    for tid, counts in enumerate(counters):
        length = len(token_lists[tid]) or 1
        for token, tf in counts.items():
            df[token] = df.get(token, 0) + 1
            cf[token] = cf.get(token, 0) + tf
            pml[token] = pml.get(token, 0.0) + tf / length
    return df, cf, {token: total / df[token] for token, total in pml.items()}


class TestPostingListView:
    """The inverted index's (tid, tf) lists are a view derived from the
    posting arrays on the first read; the arrays and the statistics are
    built from the token lists without them -- all ``==`` a tuple-major
    recount over the Counters."""

    @pytest.mark.parametrize("name", KERNELISED)
    def test_numpy_fits_and_queries_leave_it_unbuilt(self, name):
        predicate = registry.make(name).fit(EDGE_ROWS)
        index = predicate._index
        for query in QUERIES + [""]:
            predicate.top_k(query, 3)
            predicate.select(query, 0.3)
            predicate.rank(query)
            predicate.rank(query, limit=2)
        assert not index.posting_lists_built
        assert index.describe_posting_lists() == "not built"
        assert "posting lists: not built, posting arrays" in predicate._core.describe()

    @pytest.mark.parametrize("name", KERNELISED)
    def test_sharded_fits_and_queries_leave_it_unbuilt(self, name):
        """A shard's slice of the core is read through its arrays too: no
        shard's fit, scan or merge reads the lists."""
        sharded = ShardedPredicate(lambda: registry.make(name), num_shards=2).fit(EDGE_ROWS)
        for query in QUERIES + [""]:
            sharded.top_k(query, 3)
            sharded.select(query, 0.3)
            sharded.rank(query)
            sharded.run_many([query], "top_k", k=2)
        assert [shard._index.posting_lists_built for shard in sharded.shards] == [False] * 2
        assert "posting lists: not built" in sharded.shards[0]._core.describe()
        sharded.close()

    @pytest.mark.parametrize("name", KERNELISED)
    def test_the_first_read_builds_it_from_the_counters(self, name):
        predicate = registry.make(name).fit(EDGE_ROWS)
        index = predicate._index
        answer = _pairs(predicate.top_k(QUERIES[0], 3))
        assert index.postings(next(iter(index.tokens())))
        assert _pairs(predicate.top_k(QUERIES[0], 3)) == answer
        assert index.posting_lists_built and index.lists_cause == "first read"
        assert index.describe_posting_lists().startswith("built in ")
        assert index.describe_posting_lists().endswith(
            f"({predicate._core.num_postings} postings, cause: first read)"
        )
        expected = _lists_from_counters(predicate._core.term_frequencies)
        assert list(index.tokens()) == list(expected)
        assert {token: index.postings(token) for token in index.tokens()} == expected
        for token, plist in expected.items():
            tids, tfs = index.arrays(token)
            assert tids.tolist() == [tid for tid, _ in plist]
            assert tfs.tolist() == [tf for _, tf in plist]
            assert index.document_frequency(token) == len(plist)

    def test_fits_whose_scans_read_the_lists_build_them(self):
        """The edit family reads the lists: its fit builds them."""
        predicate = registry.make("edit_distance").fit(EDGE_ROWS)
        index = predicate._index
        assert index.posting_lists_built and index.lists_cause == "fit"
        expected = _lists_from_counters(predicate._core.term_frequencies)
        assert {token: index.postings(token) for token in index.tokens()} == expected

    @pytest.mark.parametrize("tokenizer", TOKENIZERS, ids=repr)
    def test_statistics_equal_the_counter_pass_in_order(self, tokenizer):
        core = CorpusCore(EDGE_ROWS, tokenizer)
        core.index
        df, cf, pavg = _counter_statistics(core.token_lists, core.term_frequencies)
        for stats in (core.stats, CollectionStatistics(core.token_lists)):
            assert list(stats._document_frequency.items()) == list(df.items())
            assert list(stats._collection_frequency.items()) == list(cf.items())
            assert all(type(count) is int for count in stats._collection_frequency.values())
            assert list(stats.pavg_table().items()) == list(pavg.items())
        assert list(core.document_frequencies.items()) == list(df.items())

    def test_lm_complement_sums_equal_the_counter_pass(self):
        lm = registry.make("lm").fit(EDGE_ROWS)
        counters = lm._core.term_frequencies
        expected = [0.0] * len(counters)
        for tid, counts in enumerate(counters):
            for token in sorted(counts):
                expected[tid] += lm._posting_terms(
                    lm._pavg[token], lm._log_cfcs[token], counts[token], lm._lengths[tid]
                )[1]
        assert lm._sum_complement.tolist() == expected
        assert not lm._index.posting_lists_built

    def test_a_fitted_shard_pickles_without_its_lock(self):
        sharded = ShardedPredicate(BM25, num_shards=2).fit(EDGE_ROWS)
        shard = sharded._shards[1]
        assert "_lists_lock" not in shard._index.__getstate__()
        copy = pickle.loads(pickle.dumps(shard))
        assert copy._index._lists_lock is not shard._index._lists_lock
        for query in QUERIES:
            assert _pairs(copy.rank(query)) == _pairs(shard.rank(query))
        assert not copy._index.posting_lists_built
        assert {t: copy._index.postings(t) for t in copy._index.tokens()} == (
            _lists_from_counters(copy._core.term_frequencies)
        )

    def test_a_blocked_sharded_call_reads_the_tid_arrays(self):
        rows = EDGE_ROWS * 3
        alone = Jaccard().fit(rows)
        alone.set_blocker(make_blocker("length+prefix", threshold=0.5))
        sharded = ShardedPredicate(Jaccard, num_shards=3).fit(rows)
        sharded.set_blocker(make_blocker("length+prefix", threshold=0.5))
        for query in QUERIES:
            assert _pairs(sharded.select(query, 0.5)) == _pairs(alone.select(query, 0.5))
        assert not any(shard._index.posting_lists_built for shard in sharded._shards)


class TestMismatchedSeamIsRefused:
    ROWS = ["ab cd", "ef gh", "ij"]

    def test_token_lists_of_another_length(self):
        predicate = BM25()
        with pytest.raises(ValueError, match="1 tuples but the relation has 3"):
            predicate.fit(self.ROWS, token_lists=[["AB"]])
        assert not predicate.is_fitted and predicate.base_strings == []

    def test_core_of_another_length(self):
        core = CorpusCore(self.ROWS[:2], QgramTokenizer(q=2))
        with pytest.raises(ValueError, match="2 tuples but the relation has 3"):
            BM25().fit(self.ROWS, core=core)
        with pytest.raises(ValueError, match="2 tuples but the relation has 3"):
            ShardedPredicate(BM25, num_shards=2).fit(self.ROWS, core=core)

    def test_core_of_another_tokenizer(self):
        core = CorpusCore(self.ROWS, QgramTokenizer(q=3))
        with pytest.raises(ValueError, match="tokenized with"):
            BM25().fit(self.ROWS, core=core)
        with pytest.raises(ValueError, match="tokenized with"):
            ShardedPredicate(BM25, num_shards=2).fit(self.ROWS, core=core)

    def test_shards_whose_tokenizers_differ_from_the_prototype(self):
        # The factory must produce interchangeable predicates: a shard that
        # would tokenize queries differently from the relation is refused.
        qs = iter([2, 3, 3])
        sharded = ShardedPredicate(
            lambda: BM25(tokenizer=QgramTokenizer(q=next(qs))), num_shards=2
        )
        with pytest.raises(ValueError, match="tokenized with"):
            sharded.fit(self.ROWS)

    def test_core_and_token_lists_together(self):
        core = CorpusCore(self.ROWS, QgramTokenizer(q=2))
        with pytest.raises(ValueError, match="either core or token_lists"):
            BM25().fit(self.ROWS, core=core, token_lists=core.token_lists)

    def test_matching_core_is_accepted(self):
        core = CorpusCore(self.ROWS, QgramTokenizer(q=2))
        shared = BM25().fit(self.ROWS, core=core)
        assert shared._core is core
        assert _pairs(shared.rank("ab cd")) == _pairs(BM25().fit(self.ROWS).rank("ab cd"))


class TestPrunedTokenizerIsAValue:
    ROWS = ["ab cd", "ab ef", "zz q"]

    def test_equality_hash_and_repr_follow_the_fields(self):
        a = PrunedTokenizer(QgramTokenizer(), {"AB"})
        b = PrunedTokenizer(WordTokenizer(), {"ZZ", "Q"})
        assert a != b and repr(a) != repr(b)
        assert a == PrunedTokenizer(QgramTokenizer(), ["AB"])
        assert hash(a) == hash(PrunedTokenizer(QgramTokenizer(), {"AB"}))
        assert a.q == 2  # attribute forwarding kept
        assert pickle.loads(pickle.dumps(b)) == b

    def test_engine_keeps_two_prunings_apart(self):
        a = PrunedTokenizer(QgramTokenizer(), {"AB"})
        b = PrunedTokenizer(WordTokenizer(), {"ZZ", "Q"})
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(self.ROWS)
        first = base.predicate("jaccard", tokenizer=a).rank("ab cd")
        second = base.predicate("jaccard", tokenizer=b).rank("ab cd")
        # At the parent commit the second query was answered from the first
        # one's q-gram state: tid 1 at 0.25.
        assert _pairs(first) == _pairs(Jaccard(tokenizer=a).fit(self.ROWS).rank("ab cd"))
        assert _pairs(second) == _pairs(Jaccard(tokenizer=b).fit(self.ROWS).rank("ab cd"))
        assert _pairs(second)[1] == (1, 1 / 3)
        assert engine.cache_size == 2 and len(engine._cores) == 2


class TestCoreObservability:
    def test_core_build_span_sits_under_the_fit_that_built_it(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        built = base.predicate("bm25").trace("Beijing Hotel", k=3).span
        fit = built.find("fit")
        span = fit.find("core.build")
        assert span is not None and span in fit.children
        core = base.predicate("bm25").fitted_predicate()._core
        assert span.attributes["tokenizer"] == "qgram(q=2)"
        assert span.attributes["rows"] == len(company_strings)
        assert span.attributes["vocabulary"] == core.vocabulary_size
        assert span.attributes["postings"] == core.num_postings
        assert span.attributes["seconds"] > 0.0
        assert span.attributes["array_bytes"] == core.index.array_bytes
        # What the fit derived from the core, and what that cost.
        weighted = base.predicate("bm25").fitted_predicate()._weighted_index
        assert fit.attributes["weighted_postings"] == weighted.num_postings
        assert fit.attributes["weighted_postings"] + fit.attributes["zero_dropped"] == (
            core.num_postings
        )
        assert 0.0 < fit.attributes["weights_s"] < fit.duration
        # A second predicate on the same (corpus, tokenizer) builds nothing,
        # and one without weighted postings reports none.
        reused = base.predicate("jaccard").trace("Beijing Hotel", k=3).span
        assert reused.find("fit") is not None
        assert reused.find("core.build") is None
        assert "weighted_postings" not in reused.find("fit").attributes

    def test_counters_and_gauges_follow_the_cores(self, company_strings):
        metrics = MetricsRegistry()
        engine = SimilarityEngine(metrics=metrics)
        base = engine.from_strings(company_strings)
        qgram = base.predicate("bm25").fitted_predicate()._core
        base.predicate("cosine").fitted_predicate()
        words = base.predicate("ges").fitted_predicate()._core
        assert metrics.value("core_builds_total") == 2
        assert metrics.value("core_reuses_total") == 1
        assert metrics.gauge_value("engine.core.rows") == 2 * len(company_strings)
        assert metrics.gauge_value("engine.core.vocabulary") == (
            qgram.vocabulary_size + words.vocabulary_size
        )
        assert metrics.gauge_value("engine.core.postings") == (
            qgram.num_postings + words.num_postings
        )
        engine.clear_cache()
        for name in ("rows", "vocabulary", "postings"):
            assert metrics.gauge_value("engine.core." + name) == 0

    def test_explain_names_the_core_and_who_shares_it(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        base = engine.from_strings(company_strings)
        for name in ("bm25", "cosine", "jaccard"):
            base.predicate(name).fitted_predicate()
        report = base.predicate("bm25").explain("Beijing Hotel", k=3)
        core = base.predicate("bm25").fitted_predicate()._core
        assert report.core.startswith(
            f"qgram(q=2): {len(company_strings)} rows, "
            f"{core.vocabulary_size} tokens, {core.num_postings} postings, built in "
        )
        assert report.core.endswith("shared by 3 fitted predicates")
        assert f"core:        {report.core}" in report.describe()
        arrays = f"posting arrays {core.index.array_bytes / 1e6:.1f} MB"
        assert f", {arrays}, shared by" in report.core
        # No query so far read the index's (tid, tf) lists, and no fit
        # counted the per-tuple Counters.
        assert ", posting lists: not built" in report.core
        assert ", term counts: not built, posting lists: " in report.core
        assert core.describe_term_counts() == "not built"
        # The word-level statistics read them: a combination fit counts its
        # own core's.
        base.predicate("soft_tfidf").fitted_predicate()
        words = base.predicate("soft_tfidf").fitted_predicate()._core
        assert words.describe_term_counts().startswith("built in ")
        assert words.describe_term_counts().endswith(" ms (cause: fit)")
        assert ", term counts: built in " in words.describe()
        assert core.describe_term_counts() == "not built"
        weighted = base.predicate("bm25").fitted_predicate()._weighted_index
        assert report.weights.startswith(
            f"{weighted.num_postings} postings "
            f"({weighted.zero_dropped} dropped as zero), derived in "
        )
        assert f"weights:     {report.weights}" in report.describe()
        assert base.predicate("jaccard").explain("Beijing Hotel", k=3).weights is None
        declarative = base.predicate("bm25").realization("declarative")
        assert declarative.explain("Beijing Hotel", k=3).core is None
        assert declarative.explain("Beijing Hotel", k=3).weights is None
        engine.clear_cache()


# -- statistics and sizes read off the index ----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefg"), max_size=6), min_size=0, max_size=8
    )
)
def test_statistics_read_off_the_index_equal_the_counter_pass(token_lists):
    """``df`` / ``cf`` token-major: the same integers in the same vocabulary
    order (derived tables iterate it, so order is part of bit-identity)."""
    counts = [Counter(tokens) for tokens in token_lists]
    index = InvertedIndex(token_lists)
    counted = CollectionStatistics(token_lists, term_frequencies=counts)
    indexed = CollectionStatistics(token_lists, index=index)
    for table in ("_document_frequency", "_collection_frequency"):
        assert list(getattr(indexed, table).items()) == list(
            getattr(counted, table).items()
        )
    assert list(indexed.rs_table().items()) == list(counted.rs_table().items())
    assert list(indexed.pavg_table().items()) == list(counted.pavg_table().items())
    assert indexed.collection_size == counted.collection_size


def test_core_statistics_use_the_index_only_when_a_fit_built_one(monkeypatch):
    built = []
    init = CollectionStatistics.__init__

    def spy(self, token_lists, term_frequencies=None, index=None):
        built.append(index)
        init(self, token_lists, term_frequencies=term_frequencies, index=index)

    monkeypatch.setattr(CollectionStatistics, "__init__", spy)
    bm25 = BM25().fit(CORPUS)
    assert built == [bm25._core._index] and built[0] is not None
    core = CorpusCore(CORPUS, WordTokenizer())
    core.stats
    assert built[-1] is None and core._index is None  # no index built for it


class _Walked(list):
    """A Counter list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_core_sizes_are_computed_once():
    for tokenizer, build_index in ((QgramTokenizer(q=2), True), (WordTokenizer(), False)):
        core = CorpusCore(CORPUS, tokenizer)
        if build_index:
            core.index
        want = (
            len({token for tokens in core.token_lists for token in tokens}),
            sum(len(set(tokens)) for tokens in core.token_lists),
        )
        core._term_frequencies = counters = _Walked(core.term_frequencies)
        for _ in range(3):
            summary = core.summary()
            assert (summary["vocabulary"], summary["postings"]) == want
        # With an index nothing is walked at all; without one the Counters
        # are walked once per size, then never again.
        assert counters.walks <= (0 if build_index else 2)


@pytest.mark.parametrize("name", ["jaccard", "intersect", "weighted_match"])
def test_overlap_fits_and_queries_build_no_token_sets(name):
    """The overlap fit sizes by the relation and scores off the arrays;
    ``score`` takes the set of its one tuple's tokens, so the core's
    per-tuple token sets stay unbuilt -- and ``score`` still sees what
    ``rank`` sees."""
    predicate = registry.make(name).fit(EDGE_ROWS)
    core = predicate._core
    for query in QUERIES + [""]:
        predicate.top_k(query, 3)
        predicate.select(query, 0.3)
        ranked = dict(_pairs(predicate.rank(query)))
        for tid in range(-1, len(EDGE_ROWS) + 1):
            assert predicate.score(query, tid) == ranked.get(tid, 0.0)
    assert core._token_sets is None


# -- the token lists are the source -------------------------------------------


def _counter_route(token_lists):
    """The index's arrays as the former Counter-based build made them, kept
    here as the oracle: a Counter per tuple, one ``df`` pass over the
    Counters, token ids from a ``token_id`` map, one stable sort by id."""
    counters = [Counter(tokens) for tokens in token_lists]
    df = dict(Counter(chain.from_iterable(counters)))
    token_id = {token: position for position, token in enumerate(df)}
    ids = [token_id[token] for counts in counters for token in counts]
    tfs = [tf for counts in counters for tf in counts.values()]
    tids = [tid for tid, counts in enumerate(counters) for _ in counts]
    order = sorted(range(len(ids)), key=ids.__getitem__)  # stable
    return {
        "tokens": list(df),
        "df": list(df.items()),
        "tuple_ids": ids,
        "tuple_tfs": tfs,
        "tuple_bounds": [0, *_running_sums(map(len, counters))],
        "set_sizes": [len(counts) for counts in counters],
        "posting_tids": [tids[i] for i in order],
        "posting_tfs": [tfs[i] for i in order],
        "posting_bounds": [0, *_running_sums(df.values())],
    }


def _running_sums(values):
    total, sums = 0, []
    for value in values:
        total += value
        sums.append(total)
    return sums


def _interned(index):
    ids, tfs, bounds = index.tuple_major()
    posting_tids, posting_tfs, posting_bounds = index.posting_buffers()
    return {
        "tokens": list(index.tokens()),
        "df": list(index.document_frequencies.items()),
        "tuple_ids": ids.tolist(),
        "tuple_tfs": tfs.tolist(),
        "tuple_bounds": bounds.tolist(),
        "set_sizes": index.set_sizes.tolist(),
        "posting_tids": posting_tids.tolist(),
        "posting_tfs": posting_tfs.tolist(),
        "posting_bounds": posting_bounds.tolist(),
    }


#: The token lists the interned build is checked on: three tokenizers over
#: rows with an empty string, an all-empty relation and an empty relation.
SOURCES = {
    **{
        repr(tokenizer): [tokenizer.tokenize(text) for text in EDGE_ROWS]
        for tokenizer in TOKENIZERS + [TwoLevelTokenizer(q=2)]
    },
    "all-empty": [[], [], []],
    "empty": [],
}


class TestTokenListsAreTheSource:
    """The index is built from the token lists in one interned pass: no
    Counter list, and every array ``==`` the Counter route's."""

    @pytest.mark.parametrize("source", list(SOURCES))
    def test_term_frequencies_count_the_token_list(self, source):
        token_lists = SOURCES[source]
        index = InvertedIndex(token_lists)
        for candidate in (index, pickle.loads(pickle.dumps(index))):
            for tid, tokens in enumerate(token_lists):
                counts = candidate.term_frequencies(tid)
                assert counts == Counter(tokens)
                assert list(counts.items()) == list(Counter(tokens).items())

    @pytest.mark.parametrize("source", list(SOURCES))
    def test_interned_arrays_equal_the_counter_route(self, source):
        token_lists = SOURCES[source]
        assert _interned(InvertedIndex(token_lists)) == _counter_route(token_lists)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e", "ab", "é"]), max_size=8),
            max_size=10,
        )
    )
    def test_random_token_lists_equal_the_counter_route(self, token_lists):
        assert _interned(InvertedIndex(token_lists)) == _counter_route(token_lists)

    def test_cosine_norms_are_tfidf_norm_per_tuple(self):
        """Hex-equal to ``tfidf_norm`` of the tuple's Counter, including an
        empty tuple and one whose every token is in every tuple (norm 0,
        stored as inf)."""
        rows = ["aaa", "aa", "aa aa aa", "", "xaay", *CORPUS]
        cosine = registry.make("cosine", tokenizer=WordTokenizer()).fit(rows)
        every = registry.make("cosine", tokenizer=QgramTokenizer(q=2)).fit(["aa", "aaa", "aaaa"])
        for predicate in (cosine, every):
            idf = predicate._core.stats.idf_table()
            for tid, tokens in enumerate(predicate._token_lists):
                raw = [tf * idf[token] for token, tf in Counter(tokens).items()]
                want = tfidf_norm(raw) or math.inf
                assert predicate._tuple_factors[tid].hex() == want.hex()
        # q=2 over runs of "a": every tuple holds every q-gram, idf 0.
        assert every._tuple_factors == [math.inf] * 3
        assert cosine._tuple_factors[rows.index("")] == math.inf

    def test_kernelised_fits_and_queries_count_no_term_frequencies(self):
        core = CorpusCore(EDGE_ROWS, QgramTokenizer(q=2))
        names = ["bm25", "cosine", "weighted_match", "lm", "hmm", "jaccard", "intersect"]
        fitted = [registry.make(name).fit(EDGE_ROWS, core=core) for name in names]
        for predicate in fitted:
            for query in QUERIES + [""]:
                predicate.top_k(query, 3)
                predicate.select(query, 0.3)
                predicate.rank(query)
                for tid in (0, 3, len(EDGE_ROWS) - 1):
                    predicate.score(query, tid)
        assert core._term_frequencies is None
        assert core.describe_term_counts() == "not built"

    def test_only_the_word_level_statistics_count_term_frequencies(self):
        words = CorpusCore(EDGE_ROWS, TwoLevelTokenizer(q=2))
        registry.make("soft_tfidf").fit(EDGE_ROWS, core=words)
        assert words._term_frequencies is not None and words._index is None
        assert words.describe_term_counts().endswith("(cause: fit)")
        # weighted_jaccard sums each tuple's token set; the edit family
        # reads the (tid, tf) lists, derived from the arrays.
        qgrams = CorpusCore(EDGE_ROWS, QgramTokenizer(q=2))
        weighted = registry.make("weighted_jaccard").fit(EDGE_ROWS, core=qgrams)
        registry.make("edit_distance").fit(EDGE_ROWS, core=qgrams)
        assert qgrams._index.posting_lists_built and qgrams._term_frequencies is None
        for query in QUERIES:
            ranked = dict(_pairs(weighted.rank(query)))
            for tid in range(len(EDGE_ROWS)):
                assert weighted.score(query, tid) == ranked.get(tid, 0.0)
        assert qgrams._term_frequencies is None
