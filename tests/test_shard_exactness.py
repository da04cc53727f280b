"""Sharded execution must be bit-identical to unsharded execution.

The sharding subsystem's whole contract is exactness: partitioning the base
relation and broadcasting globally computed collection statistics must not
change a single float.  These tests check that contract property-based
(random corpora x shard counts x k values x blockers) for the weighted
predicates, plus the structural invariant that a shard-local fit equals a
*slice* of the global fit, the executor strategies, and the engine wiring
(``num_shards=`` / ``Query.shards`` / plan + explain reporting).
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.core.predicates import make_predicate
from repro.engine import SimilarityEngine
from repro.shard import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardedPredicate,
    ThreadShardExecutor,
    make_executor,
    shard_offsets,
)

#: The predicates whose scores depend on collection statistics -- the ones
#: naive partitioning would get wrong, and the ISSUE's exactness target.
WEIGHTED = ["weighted_match", "weighted_jaccard", "cosine", "bm25"]

ALL_DIRECT = WEIGHTED + [
    "intersect",
    "jaccard",
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
_shard_counts = st.sampled_from([1, 2, 7])


def _pairs(scored):
    return [(m.tid, m.score) for m in scored]


def _sharded(name, corpus, num_shards, executor="serial", **kwargs):
    return ShardedPredicate(
        lambda: make_predicate(name, **kwargs),
        num_shards=num_shards,
        executor=executor,
    ).fit(corpus)


class TestShardOffsets:
    def test_balanced_partition(self):
        assert shard_offsets(10, 4) == [0, 3, 6, 8, 10]
        assert shard_offsets(9, 3) == [0, 3, 6, 9]
        assert shard_offsets(2, 7) == [0, 1, 2, 2, 2, 2, 2, 2]
        assert shard_offsets(0, 1) == [0, 0]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_offsets(5, 0)


class TestShardedExactness:
    """Property: sharded select/top_k/rank/run_many == unsharded, bit for bit."""

    @pytest.mark.parametrize("name", WEIGHTED)
    @given(
        corpus=_corpora,
        query=_strings,
        k=st.integers(0, 20),
        num_shards=_shard_counts,
    )
    @settings(max_examples=25, deadline=None)
    def test_topk_and_rank(self, name, corpus, query, k, num_shards):
        base = make_predicate(name).fit(corpus)
        sharded = _sharded(name, corpus, num_shards)
        assert _pairs(sharded.top_k(query, k)) == _pairs(base.top_k(query, k))
        assert _pairs(sharded.rank(query)) == _pairs(base.rank(query))

    @pytest.mark.parametrize("name", ["jaccard", "lm", "bm25"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_zero_k_scores_nothing_on_either_side(self, name, num_shards):
        # Unsharded plan-less predicates used to score the whole candidate
        # set before returning [] (and report the full count); sharded
        # execution ran nothing and reported 0.
        base = make_predicate(name).fit(CORPUS)
        sharded = _sharded(name, CORPUS, num_shards)
        for side in (base, sharded):
            assert side.top_k("Morgan Stanley", 0) == []
            assert side.last_num_candidates == 0
            assert side.rank("Morgan Stanley", limit=0) == []
            assert side.last_num_candidates == 0

    @pytest.mark.parametrize("name", WEIGHTED)
    @given(
        corpus=_corpora,
        query=_strings,
        threshold=st.floats(0.0, 5.0),
        num_shards=_shard_counts,
    )
    @settings(max_examples=25, deadline=None)
    def test_select(self, name, corpus, query, threshold, num_shards):
        base = make_predicate(name).fit(corpus)
        sharded = _sharded(name, corpus, num_shards)
        assert _pairs(sharded.select(query, threshold)) == _pairs(
            base.select(query, threshold)
        )
        assert sharded.last_num_candidates == base.last_num_candidates

    @pytest.mark.parametrize("name", WEIGHTED)
    @given(
        corpus=_corpora,
        queries=st.lists(_strings, min_size=1, max_size=4),
        k=st.integers(1, 8),
        num_shards=_shard_counts,
    )
    @settings(max_examples=20, deadline=None)
    def test_run_many(self, name, corpus, queries, k, num_shards):
        base = make_predicate(name).fit(corpus)
        sharded = _sharded(name, corpus, num_shards)
        batches = sharded.run_many(queries, op="top_k", k=k)
        expected = [base.top_k(query, k) for query in queries]
        assert [_pairs(b) for b in batches] == [_pairs(b) for b in expected]
        # Batches record per-qid counts and reset the single-query counter.
        assert len(sharded.last_batch_candidates) == len(queries)
        assert sharded.last_num_candidates is None

    @pytest.mark.parametrize("name", ALL_DIRECT)
    def test_every_direct_predicate_on_company_corpus(self, name):
        corpus = CORPUS * 3
        base = make_predicate(name).fit(corpus)
        sharded = _sharded(name, corpus, 7)
        for query in ("Morgn Stanley", "IBM Corp", "Goldman Sachs Group", "zzz"):
            assert _pairs(sharded.rank(query)) == _pairs(base.rank(query))
            assert _pairs(sharded.top_k(query, 5)) == _pairs(base.top_k(query, 5))

    @pytest.mark.parametrize("name", ["bm25", "weighted_match", "jaccard"])
    def test_score_parity_under_blocker_and_restriction(self, name):
        # score() sees the candidates rank() sees on both hosts: under a
        # blocker or a restriction it is the tuple's rank score, or 0.0.
        base = make_predicate(name).fit(CORPUS)
        sharded = _sharded(name, CORPUS, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            base.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
            sharded.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        for query in ("Morgan Stanley", "Deutsche Bank"):
            for tid in range(len(CORPUS)):
                assert sharded.score(query, tid) == base.score(query, tid), (
                    name,
                    query,
                    tid,
                )
        base.set_blocker(None)
        sharded.set_blocker(None)
        allowed = {0, 4, 7}
        with base.restrict_candidates(allowed), sharded.restrict_candidates(allowed):
            for tid in range(len(CORPUS)):
                assert sharded.score("Morgan Stanley", tid) == base.score(
                    "Morgan Stanley", tid
                ), (name, tid)

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_score_routes_to_owning_shard(self, name):
        base = make_predicate(name).fit(CORPUS)
        sharded = _sharded(name, CORPUS, 5)
        for query in ("Morgan Stanley", "IBM", ""):
            for tid in range(len(CORPUS)):
                assert sharded.score(query, tid) == base.score(query, tid)
        assert sharded.score("Morgan", -1) == 0.0
        assert sharded.score("Morgan", len(CORPUS) + 3) == 0.0


class TestShardedBlocking:
    """Blockers apply pre-partition: fitted globally, decided on global ids."""

    @given(corpus=_corpora, query=_strings, num_shards=_shard_counts)
    @settings(max_examples=20, deadline=None)
    def test_jaccard_with_exact_filters(self, corpus, query, num_shards):
        threshold = 0.4
        base = make_predicate("jaccard").fit(corpus)
        base.set_blocker(make_blocker("length+prefix", threshold=threshold))
        sharded = _sharded("jaccard", corpus, num_shards)
        sharded.set_blocker(make_blocker("length+prefix", threshold=threshold))
        assert _pairs(sharded.select(query, threshold)) == _pairs(
            base.select(query, threshold)
        )
        assert _pairs(sharded.rank(query)) == _pairs(base.rank(query))
        assert _pairs(sharded.top_k(query, 5)) == _pairs(base.top_k(query, 5))

    @pytest.mark.parametrize("name", WEIGHTED)
    @given(corpus=_corpora, query=_strings, num_shards=_shard_counts)
    @settings(max_examples=15, deadline=None)
    def test_weighted_with_lsh(self, name, corpus, query, num_shards):
        def blocked(predicate):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
            return predicate

        base = blocked(make_predicate(name).fit(corpus))
        sharded = blocked(_sharded(name, corpus, num_shards))
        assert _pairs(sharded.rank(query)) == _pairs(base.rank(query))
        assert _pairs(sharded.top_k(query, 4)) == _pairs(base.top_k(query, 4))
        assert _pairs(sharded.select(query, 0.5)) == _pairs(base.select(query, 0.5))

    def test_restriction_uses_global_ids(self):
        base = make_predicate("bm25").fit(CORPUS)
        sharded = _sharded("bm25", CORPUS, 4)
        allowed = {1, 6, 7, 11}
        with base.restrict_candidates(allowed), sharded.restrict_candidates(allowed):
            for query in ("Morgan Stanley", "Deutsche Bank"):
                assert _pairs(sharded.rank(query)) == _pairs(base.rank(query))
                assert _pairs(sharded.top_k(query, 3)) == _pairs(base.top_k(query, 3))


class TestRoundBookkeeping:
    """Every operation is one dispatch round; these are the round's edges:
    what a call leaves in ``shard_stats``, ``last_num_candidates`` and
    ``last_batch_candidates`` when it runs no shard, an empty batch, or a
    blocked / restricted query."""

    QUERIES = ["Morgan Stanley Inc", "IBM Corp", "zzz"]

    def _state(self, sharded):
        stats = sharded.shard_stats
        return (
            None if stats is None else stats.shards_run,
            sharded.last_num_candidates,
            sharded.last_batch_candidates,
        )

    def test_zero_k_and_empty_batch_run_no_shard(self):
        sharded = _sharded("bm25", CORPUS, 3)
        assert self._state(sharded) == (None, None, None)
        assert sharded.run_many([], "top_k", k=3) == []
        assert self._state(sharded) == (None, None, [])
        assert sharded.top_k("Morgan Stanley", 0) == []
        assert self._state(sharded) == (0, 0, [])
        assert sharded.shard_stats.describe() == "0/3 shards run via 'serial' executor"
        assert sharded.run_many(["Morgan Stanley", "IBM"], "top_k", k=0) == [[], []]
        assert self._state(sharded) == (3, None, [0, 0])

    @pytest.mark.parametrize("name", ["bm25", "jaccard", "edit_distance"])
    def test_plain_and_restricted_calls_count_like_the_unsharded_predicate(self, name):
        base = make_predicate(name).fit(CORPUS)
        sharded = _sharded(name, CORPUS, 3)
        for allowed in (None, {1, 6, 7, 11}, set()):
            with base.restrict_candidates(allowed), sharded.restrict_candidates(allowed):
                for query in self.QUERIES:
                    for run in (
                        lambda p: p.rank(query),
                        lambda p: p.rank(query, limit=2),
                        lambda p: p.top_k(query, 2),
                        lambda p: p.select(query, 0.3),
                    ):
                        assert _pairs(run(sharded)) == _pairs(run(base))
                        assert self._state(sharded)[:2] == (3, base.last_num_candidates)
                for op, params in (
                    ("rank", {"limit": 2}),
                    ("top_k", {"k": 2}),
                    ("select", {"threshold": 0.3, "limit": 1}),
                ):
                    batches = sharded.run_many(self.QUERIES, op, **params)
                    expected, counts = [], []
                    for query in self.QUERIES:
                        if op == "select":
                            expected.append(_pairs(base.select(query, 0.3)))
                        else:
                            expected.append(_pairs(base.rank(query, limit=2)))
                        counts.append(base.last_num_candidates)
                    assert [_pairs(batch) for batch in batches] == expected
                    assert self._state(sharded) == (3, None, counts)

    @pytest.mark.parametrize(
        "name, spec", [("jaccard", "length+prefix"), ("bm25", "lsh")]
    )
    def test_blocked_calls_count_like_the_unsharded_predicate(self, name, spec):
        def blocked(predicate):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                predicate.set_blocker(
                    make_blocker(spec, threshold=0.3, lsh_bands=4, lsh_rows=2)
                )
            return predicate

        base = blocked(make_predicate(name).fit(CORPUS))
        sharded = blocked(_sharded(name, CORPUS, 3))
        for query in self.QUERIES:
            for run in (
                lambda p: p.rank(query),
                lambda p: p.top_k(query, 2),
                lambda p: p.select(query, 0.3),
            ):
                assert _pairs(run(sharded)) == _pairs(run(base))
                assert self._state(sharded)[:2] == (3, base.last_num_candidates)
        batches = sharded.run_many(self.QUERIES, "select", threshold=0.3)
        counts = []
        for query, batch in zip(self.QUERIES, batches):
            assert _pairs(batch) == _pairs(base.select(query, 0.3))
            counts.append(base.last_num_candidates)
        assert self._state(sharded) == (3, None, counts)


class TestSliceInvariant:
    """A shard-local fit equals the unsharded fit restricted to the shard's
    tid range and rebased -- through what callers of the weighted index see:
    its posting arrays."""

    @pytest.mark.parametrize("num_shards", [2, 3, 7])
    @pytest.mark.parametrize("name", WEIGHTED + ["lm", "hmm"])
    def test_shard_fit_is_the_global_fit_restricted_and_rebased(self, name, num_shards):
        corpus = CORPUS * 2
        base = make_predicate(name).fit(corpus)
        sharded = _sharded(name, corpus, num_shards)
        offsets = sharded.offsets
        for shard_id, shard in enumerate(sharded.shards):
            start, stop = offsets[shard_id], offsets[shard_id + 1]
            local = shard._weighted_index
            for token in base._index.tokens():
                pair = base._weighted_index.arrays(token)
                postings = [] if pair is None else zip(*(a.tolist() for a in pair))
                expected = [
                    (tid - start, contribution)
                    for tid, contribution in postings
                    if start <= tid < stop
                ]
                assert (token in local) == bool(expected)
                assert local.posting_count(token) == len(expected)
                pair = local.arrays(token)
                if not expected:
                    assert pair is None
                else:
                    assert list(zip(*(a.tolist() for a in pair))) == expected


class TestExecutors:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_executors_are_exact(self, executor):
        corpus = CORPUS * 4
        base = make_predicate("bm25").fit(corpus)
        sharded = _sharded("bm25", corpus, 4, executor=executor)
        try:
            for query in ("Morgan Stanley Inc", "IBM Corp", "Goldman"):
                assert _pairs(sharded.top_k(query, 5)) == _pairs(base.top_k(query, 5))
                assert _pairs(sharded.select(query, 2.0)) == _pairs(
                    base.select(query, 2.0)
                )
            batches = sharded.run_many(["Morgan Stanley", "IBM"], op="top_k", k=3)
            expected = [base.top_k(q, 3) for q in ("Morgan Stanley", "IBM")]
            assert [_pairs(b) for b in batches] == [_pairs(b) for b in expected]
        finally:
            sharded.close()

    def test_executor_instances_cannot_be_shared(self):
        # An executor holds per-predicate shard state; a second predicate
        # binding a live instance would silently redirect the first
        # predicate's queries to the wrong shards -- it must fail loudly.
        executor = SerialShardExecutor()
        first = ShardedPredicate(
            lambda: make_predicate("bm25"), num_shards=2, executor=executor
        ).fit(CORPUS)
        with pytest.raises(ValueError, match="cannot be shared"):
            ShardedPredicate(
                lambda: make_predicate("bm25"), num_shards=2, executor=executor
            ).fit(CORPUS[:6])
        # The original binding is intact, and refits of the owner still work.
        assert len(first.top_k("Morgan Stanley", 3)) == 3
        first.fit(CORPUS)
        assert len(first.top_k("Morgan Stanley", 3)) == 3

    def test_close_leaves_caller_owned_executor_running(self):
        executor = ThreadShardExecutor(max_workers=2)
        try:
            sharded = ShardedPredicate(
                lambda: make_predicate("bm25"), num_shards=2, executor=executor
            ).fit(CORPUS)
            sharded.close()  # caller-owned: must stay usable
            assert len(sharded.top_k("Morgan Stanley", 3)) == 3
        finally:
            executor.close()

    def test_process_executor_recovers_after_close(self):
        # clear_cache() closes owned pools; a later query on a still-live
        # predicate must lazily re-register the shards and fork fresh
        # workers instead of failing on a retired registry key.
        sharded = _sharded("bm25", CORPUS * 2, 2, executor="process")
        base = make_predicate("bm25").fit(CORPUS * 2)
        try:
            assert _pairs(sharded.top_k("Morgan Stanley", 3)) == _pairs(
                base.top_k("Morgan Stanley", 3)
            )
            sharded._executor.close()
            assert _pairs(sharded.top_k("IBM Corp", 3)) == _pairs(
                base.top_k("IBM Corp", 3)
            )
        finally:
            sharded.close()

    def test_make_executor_resolves_names_and_instances(self):
        assert isinstance(make_executor(None), SerialShardExecutor)
        assert isinstance(make_executor("serial"), SerialShardExecutor)
        assert isinstance(make_executor("thread"), ThreadShardExecutor)
        assert isinstance(make_executor("process"), ProcessShardExecutor)
        instance = SerialShardExecutor()
        assert make_executor(instance) is instance
        with pytest.raises(ValueError):
            make_executor("cluster")

    def test_topk_records_shard_stats(self):
        corpus = CORPUS * 25
        sharded = _sharded("bm25", corpus, 4)
        base = make_predicate("bm25").fit(corpus)
        query = "Morgan Stanley Inc"
        assert _pairs(sharded.top_k(query, 3)) == _pairs(base.top_k(query, 3))
        shard_stats = sharded.shard_stats
        assert shard_stats.num_shards == 4
        assert shard_stats.shards_run == 4
        assert shard_stats.describe() == "4/4 shards run via 'serial' executor"

    def test_skewed_corpus_is_exact(self):
        # The first shard holds every Morgan-like tuple; the other shards
        # share no q-gram with the query and answer with no rows.  Every
        # shard still runs: top_k is one dispatch round and a merge.
        corpus = ["Morgan Stanley Incorporated"] * 10 + [
            "zzz qqq xxx",
            "vvv www yyy",
            "kkk lll uuu",
            "fff jjj bbb",
        ] * 15
        sharded = _sharded("weighted_match", corpus, 4)
        base = make_predicate("weighted_match").fit(corpus)
        query = "Morgan Stanley Incorporated"
        assert _pairs(sharded.top_k(query, 5)) == _pairs(base.top_k(query, 5))
        assert sharded.shard_stats.shards_run == sharded.num_shards == 4
        assert sharded.last_num_candidates == base.last_num_candidates

    @pytest.mark.parametrize("num_shards", [3, 16])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("name", ALL_DIRECT)
    def test_top_k_is_rank_with_a_limit_on_every_path(self, name, executor, num_shards):
        """One top-k path: sharded ``top_k``, the batched ``run_many`` and the
        unsharded ``rank(limit=k)`` are the same answer on every executor --
        also with more shards than tuples, where some shards are empty."""
        base = make_predicate(name).fit(CORPUS)
        sharded = _sharded(name, CORPUS, num_shards, executor=executor)
        try:
            for query in ("Morgn Stanley Inc", "IBM Corp", "zzz"):
                for k in (0, 1, 10, len(CORPUS) + 5):
                    expected = _pairs(base.rank(query, limit=k))
                    assert _pairs(sharded.top_k(query, k)) == expected
                    batch = sharded.run_many([query], "top_k", k=k)
                    assert _pairs(batch[0]) == expected
                    assert _pairs(base.top_k(query, k)) == expected
        finally:
            sharded.close()


class TestEngineSharding:
    def test_engine_default_and_per_query_override(self):
        engine = SimilarityEngine(num_shards=3)
        sharded = engine.from_strings(CORPUS).predicate("bm25")
        unsharded = sharded.shards(1)
        for query in ("Morgan Stanley", "IBM Corp"):
            assert [(m.tid, m.score, m.string) for m in sharded.top_k(query, 4)] == [
                (m.tid, m.score, m.string) for m in unsharded.top_k(query, 4)
            ]
            assert _pairs(sharded.select(query, 1.0)) == _pairs(
                unsharded.select(query, 1.0)
            )

    def test_plan_reports_shard_layout(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25").shards(4)
        notes = " | ".join(query.plan("top_k").notes)
        assert "4 shards" in notes
        assert "serial" in notes
        assert "exact merge" in notes

    def test_plan_notes_sharding_ignored_for_declarative(self):
        engine = SimilarityEngine(num_shards=4)
        query = (
            engine.from_strings(CORPUS[:6]).predicate("bm25").realization("declarative")
        )
        assert any("sharding ignored" in note for note in query.plan("rank").notes)

    def test_explain_reports_shard_stats(self):
        engine = SimilarityEngine()
        report = (
            engine.from_strings(CORPUS * 5)
            .predicate("bm25")
            .shards(3)
            .explain("Morgan Stanley Inc", k=4)
        )
        assert report.shards is not None
        assert report.shards.num_shards == 3
        assert "shards:" in report.describe()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sharded_fit_reports_its_shards(self, executor):
        """The shard fits run where the tracer lives: one ``shard[i].fit``
        child per shard under the engine's ``fit`` span, and a ``weights:``
        line that sums the shards'."""
        engine = SimilarityEngine()
        corpus = CORPUS * 5
        query = engine.from_strings(corpus).predicate("bm25").shards(3, executor=executor)
        try:
            fit = query.trace("Morgan Stanley Inc", k=4).span.find("fit")
            spans = [child for child in fit.children if child.name.endswith(".fit")]
            assert [span.name for span in spans] == [f"shard[{i}].fit" for i in range(3)]
            assert [span.attributes["rows"] for span in spans] == [20, 20, 20]
            assert 0.0 < sum(span.duration for span in spans) <= fit.duration
            sharded = query.fitted_predicate()
            weighted = [shard._weighted_index for shard in sharded.shards]
            unsharded = make_predicate("bm25").fit(corpus)._weighted_index
            assert fit.attributes["weighted_postings"] == unsharded.num_postings == sum(
                index.num_postings for index in weighted
            )
            assert fit.attributes["zero_dropped"] == unsharded.zero_dropped
            assert 0.0 < fit.attributes["weights_s"] < fit.duration
            report = query.explain("Morgan Stanley Inc", k=4)
            assert report.weights.startswith(
                f"{unsharded.num_postings} postings "
                f"({unsharded.zero_dropped} dropped as zero), derived in "
            )
            assert report.weights.endswith(" s")
            assert f"weights:     {report.weights}" in report.describe()
            jaccard = query.predicate("jaccard")
            assert jaccard.explain("Morgan Stanley Inc", k=4).weights is None
        finally:
            engine.clear_cache()

    def test_sharded_run_many_matches_unsharded(self):
        engine = SimilarityEngine()
        queries = ["Morgan Stanley", "IBM Corp", "Goldman Sachs"]
        sharded = engine.from_strings(CORPUS).predicate("cosine").shards(2)
        unsharded = engine.from_strings(CORPUS).predicate("cosine")
        assert [
            [_pairs([m])[0] for m in batch]
            for batch in sharded.run_many(queries, op="top_k", k=3)
        ] == [
            [_pairs([m])[0] for m in batch]
            for batch in unsharded.run_many(queries, op="top_k", k=3)
        ]
        stats = sharded.last_run_many_stats
        assert stats is not None and stats.num_queries == len(queries)

    def test_sharded_join_and_dedup(self):
        engine = SimilarityEngine(num_shards=3)
        sharded = engine.from_strings(CORPUS)
        unsharded = engine.from_strings(CORPUS).shards(1)
        probe = ["Morgn Stanley", "IBM Corp"]
        assert [
            (m.left_id, m.right_id, m.score)
            for m in sharded.join(probe, threshold=2.0, top_k=2)
        ] == [
            (m.left_id, m.right_id, m.score)
            for m in unsharded.join(probe, threshold=2.0, top_k=2)
        ]
        assert [
            tuple(cluster.members) for cluster in sharded.dedup(threshold=6.0)
        ] == [tuple(cluster.members) for cluster in unsharded.dedup(threshold=6.0)]

    def test_predicate_instances_stay_unsharded(self):
        engine = SimilarityEngine(num_shards=4)
        instance = make_predicate("bm25")
        query = engine.from_strings(CORPUS).predicate(instance)
        assert query._sharding_active() is False
        assert any("sharding ignored" in note for note in query.plan("rank").notes)
        results = query.top_k("Morgan Stanley", 3)
        assert len(results) == 3

    def test_sharded_instance_plans_and_explains(self):
        # A caller-built ShardedPredicate is a legal predicate instance:
        # plan()/explain() must ask it the same algorithm question they ask
        # an unsharded predicate, and name the path its shards ran.
        instance = ShardedPredicate(lambda: make_predicate("bm25"), num_shards=2)
        query = SimilarityEngine().from_strings(CORPUS * 3).predicate(instance)
        notes = " | ".join(query.plan("top_k").notes)
        report = query.explain("Morgan Stanley Inc", k=3)
        assert report.num_results == 3
        assert report.shards is not None and report.shards.num_shards == 2
        path = "dense scan + partition (numpy kernel)"
        assert f"top_k: {path}" in notes
        assert report.execution == f"top_k via {path}"
        assert report.fallback_reason is None

    def test_clear_cache_closes_shard_executors(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25").shards(
            2, executor="thread"
        )
        query.top_k("Morgan Stanley", 3)
        predicate = query.fitted_predicate()
        assert isinstance(predicate, ShardedPredicate)
        engine.clear_cache()
        # The predicate still answers (serial fallback through a fresh pool
        # would rebind lazily); the engine state cache is empty.
        assert engine.cache_size == 0

    def test_rejects_invalid_shard_counts(self):
        engine = SimilarityEngine()
        with pytest.raises(ValueError):
            engine.from_strings(CORPUS).shards(0)
        with pytest.raises(ValueError):
            SimilarityEngine(num_shards=0)


class TestSharedSlices:
    """A slice is a part of the core it is cut from, built once per range:
    every sharded fit over one relation and one shard count reads the same
    shard-local cores, and the parent's statistics come off one index."""

    QUERIES = ["Morgan Stanley Inc", "IBM Corp", "AT&T", "", "zzz"]

    @staticmethod
    def _assert_answers_equal(sharded, unsharded, queries):
        for query in queries:
            assert _pairs(sharded.top_k(query, 4)) == _pairs(unsharded.top_k(query, 4))
            assert _pairs(sharded.rank(query)) == _pairs(unsharded.rank(query))
            assert _pairs(sharded.rank(query, limit=3)) == _pairs(
                unsharded.rank(query, limit=3)
            )
            assert _pairs(sharded.select(query, 0.5)) == _pairs(
                unsharded.select(query, 0.5)
            )
        for op, kwargs in (("top_k", {"k": 3}), ("rank", {}), ("select", {"threshold": 0.5})):
            assert [_pairs(batch) for batch in sharded.run_many(queries, op=op, **kwargs)] == [
                _pairs(batch) for batch in unsharded.run_many(queries, op=op, **kwargs)
            ]

    def test_sharded_fits_share_one_slice_per_range(self, monkeypatch):
        import pickle

        from repro.core import index as index_module

        builds = []
        init = index_module.InvertedIndex.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        corpus = CORPUS * 5
        engine = SimilarityEngine()
        base = engine.from_strings(corpus)
        targets = [
            (name, executor) for executor in ("thread", "process")
            for name in ("bm25", "weighted_match")
        ]
        try:
            monkeypatch.setattr(index_module.InvertedIndex, "__init__", counted)
            fitted = {
                target: base.predicate(target[0]).shards(2, executor=target[1]).fitted_predicate()
                for target in targets
            }
            monkeypatch.undo()
            # The parent's index (its statistics are read off it) and one
            # index per slice -- not one per shard per fit.
            assert len(builds) == 3
            core = fitted[targets[0]]._core
            assert builds[0] is core._index
            assert all(sharded._core is core for sharded in fitted.values())
            offsets = fitted[targets[0]].offsets
            bounds = list(zip(offsets, offsets[1:]))
            assert all(core.slice(a, b) is core.slice(a, b) for a, b in bounds)
            slices = [core.slice(a, b) for a, b in bounds]
            for sharded in fitted.values():
                for shard, part in zip(sharded.shards, slices):
                    assert shard._core is part and shard._index is part._index
            assert core._term_frequencies is None
            line = core.describe()
            assert ", term counts: not built, " in line
            assert line.endswith(", shard slices: 2")
            report = base.predicate("bm25").shards(2, executor="thread").explain(
                "IBM Corp", k=3
            )
            assert report.core.endswith("shard slices: 2, shared by 4 fitted predicates")
            # A pickled parent carries no slices; the live one keeps them.
            copy = pickle.loads(pickle.dumps(core))
            assert copy._slices == {} and len(core._slices) == 2
            assert "shard slices" not in copy.describe()
            unsharded = {
                name: base.predicate(name).shards(1).fitted_predicate()
                for name in ("bm25", "weighted_match")
            }
            assert all(predicate._core is core for predicate in unsharded.values())
            for (name, _), sharded in fitted.items():
                self._assert_answers_equal(sharded, unsharded[name], self.QUERIES)
            # Another shard count cuts its own ranges.
            three = base.predicate("bm25").shards(3).fitted_predicate()
            own = [three._core.slice(a, b) for a, b in zip(three.offsets, three.offsets[1:])]
            assert all(shard._core is part for shard, part in zip(three.shards, own))
            assert not any(part is other for part in own for other in slices)
            assert core.describe().endswith(", shard slices: 5")
            self._assert_answers_equal(three, unsharded["bm25"], self.QUERIES)
            assert core._term_frequencies is None
        finally:
            engine.clear_cache()

    def test_a_word_level_sharded_fit_counts_its_statistics(self):
        """The combination family builds no index over the whole relation:
        its parent's statistics keep the ``Counter`` route."""
        sharded = _sharded("soft_tfidf", CORPUS * 2, 2)
        assert sharded._core._index is None
        assert sharded._core.describe_term_counts().endswith("(cause: fit)")
        assert sharded._core.describe().endswith(", shard slices: 2")
        unsharded = make_predicate("soft_tfidf").fit(CORPUS * 2)
        for query in self.QUERIES:
            assert _pairs(sharded.rank(query)) == _pairs(unsharded.rank(query))


class TestTimingHarness:
    def test_time_queries_supports_sharding(self):
        from repro.eval.timing import time_queries

        timing = time_queries(
            "bm25", CORPUS * 3, ["Morgan Stanley", "IBM"], num_shards=2
        )
        assert timing.num_queries == 2
        assert timing.total_seconds >= 0.0

    def test_time_queries_rejects_sharded_instances(self):
        from repro.eval.timing import time_queries

        with pytest.raises(ValueError):
            time_queries(
                make_predicate("bm25"), CORPUS, ["Morgan"], num_shards=2
            )
