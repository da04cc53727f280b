"""Regression tests for the engine-stats / lifecycle / explain bugfix sweep.

Each class pins one fixed bug:

* ``run_many`` used to leave ``last_num_candidates`` holding a single
  misleading value (the batch's last query -- or, before any filter ran, a
  previous sequential call's); it now records per-qid counts and resets the
  scalar.
* ``SimilarityEngine.clear_cache`` used to leak SQLite connections the
  engine itself had created; it now closes them (and ``SQLBackend`` is a
  context manager).
* ``GESJaccard``/``GESApx`` filter scores used to depend on query word
  *order* (float summation), flipping candidates at thresholds on the
  min-hash score lattice; summation is now canonical (sorted).
* ``explain()`` used to describe a path other than the one its sample
  execution ran -- it now reports the strategy that actually executed, and
  a fallback reason only when ``top_k`` itself did not run.
* A restriction tid outside the relation used to be a silent wrong answer on
  the overlap family (``-1`` scored the *last* tuple and reported it as tid
  -1) or a bare ``IndexError`` (``n``); such tids are now ignored, as the
  aggregate family always ignored them.
* A negative ``limit`` used to be Python slicing on the declarative paths
  that cut in Python (memory ``run_many``, a blocked ``rank``): ``limit=-1``
  returned all but the last row.  Every path now returns ``[]`` for
  ``limit <= 0``, as the direct realization does.
* Declarative ``rank(q, limit=0)`` used to keep the previous call's
  ``last_num_candidates`` and ``last_sql_stats``; it now records 0
  candidates and no SQL stats.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SQLiteBackend
from repro.core import kernels
from repro.core.predicates import make_predicate
from repro.engine import SimilarityEngine
from repro.shard import ShardedPredicate

CORPUS = [
    "AT&T Corporation",
    "ATT Corp",
    "International Business Machines",
    "IBM Corporation",
    "Morgan Stanley Inc",
    "Morgn Stanley Incorporated",
    "Goldman Sachs Group",
    "Deutsche Bank AG",
]


class TestRunManyCandidateStats:
    @pytest.mark.parametrize("realization", ["direct", "declarative"])
    def test_batch_resets_single_query_counter(self, realization):
        engine = SimilarityEngine(realization=realization)
        query = engine.from_strings(CORPUS).predicate("bm25")
        # A sequential call leaves a per-query count behind ...
        query.select("Morgan Stanley", 0.1)
        predicate = query.fitted_predicate()
        assert predicate.last_num_candidates is not None
        # ... which a batch must not leave dangling: per-qid counts are
        # recorded, the scalar is reset.
        query.run_many(["IBM Corp", "Goldman"], op="top_k", k=2)
        assert predicate.last_num_candidates is None

    @pytest.mark.parametrize("realization", ["direct", "declarative"])
    def test_per_query_counts_match_sequential_execution(self, realization):
        engine = SimilarityEngine(realization=realization)
        query = engine.from_strings(CORPUS).predicate("bm25")
        texts = ["Morgan Stanley", "IBM Corp", "zzz"]
        query.run_many(texts, op="rank")
        stats = query.last_run_many_stats
        assert stats is not None
        assert stats.num_queries == len(texts)
        expected = []
        predicate = query.fitted_predicate()
        for text in texts:
            predicate.rank(text)
            expected.append(predicate.last_num_candidates)
        assert list(stats.candidates_per_query) == expected
        assert stats.total_candidates == sum(expected)
        assert "queries" in stats.describe()

    def test_declarative_predicate_records_batch_counts(self):
        engine = SimilarityEngine(realization="declarative")
        query = engine.from_strings(CORPUS).predicate("jaccard")
        texts = ["Morgan Stanley", "IBM"]
        query.run_many(texts, op="select", threshold=0.2)
        predicate = query.fitted_predicate()
        assert predicate.last_num_candidates is None
        assert len(predicate.last_batch_candidates) == len(texts)
        assert all(count >= 0 for count in predicate.last_batch_candidates)

    def test_empty_batch(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS).predicate("bm25")
        assert query.run_many([], op="rank") == []
        assert query.last_run_many_stats.num_queries == 0


class TestBackendLifecycle:
    def test_clear_cache_closes_engine_owned_sqlite_backend(self):
        engine = SimilarityEngine(realization="declarative", backend="sqlite")
        query = engine.from_strings(CORPUS[:5]).predicate("bm25")
        assert len(query.rank("Morgan Stanley")) > 0
        backend = engine._backend_instances["sqlite"]
        engine.clear_cache()
        with pytest.raises(sqlite3.ProgrammingError):
            backend.query("SELECT 1")
        # The engine itself stays usable: a fresh backend is created lazily.
        assert len(query.rank("Morgan Stanley")) > 0
        engine.clear_cache()

    def test_clear_cache_leaves_caller_owned_backend_open(self):
        with SQLiteBackend() as backend:
            engine = SimilarityEngine(realization="declarative")
            query = (
                engine.from_strings(CORPUS[:5]).predicate("bm25").backend(backend)
            )
            assert len(query.rank("Morgan Stanley")) > 0
            engine.clear_cache()
            # Caller-owned instance: still open after the engine drops caches.
            assert backend.query("SELECT 1") == [(1,)]

    def test_sqlite_backend_is_a_context_manager(self):
        with SQLiteBackend() as backend:
            backend.create_table("T", ["x INTEGER"])
            backend.insert_rows("T", [(1,), (2,)])
            assert backend.row_count("T") == 2
        with pytest.raises(sqlite3.ProgrammingError):
            backend.query("SELECT 1")


_words = st.sampled_from(
    ["morgan", "stanley", "goldman", "sachs", "deutsche", "bank", "group",
     "incorporated", "corporation", "international"]
)


class TestGesApxFilterDeterminism:
    @given(
        words=st.lists(_words, min_size=2, max_size=8, unique=True),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_filter_score_is_word_order_invariant(self, words, data):
        corpus = [
            "morgan stanley incorporated group",
            "goldman sachs group incorporated",
            "deutsche bank international corporation",
            "morgan goldman deutsche stanley",
            "stanley sachs bank group",
        ]
        predicate = make_predicate("ges_apx", threshold=0.525).fit(corpus)
        permuted = data.draw(st.permutations(words))
        for tuple_words in (corpus[0].split(), corpus[3].split()):
            original = predicate.filter_score(words, tuple_words)
            shuffled = predicate.filter_score(list(permuted), tuple_words)
            # Bit-identical, not approximately equal: a one-ulp difference is
            # exactly what used to flip candidates at lattice thresholds.
            assert original == shuffled

    def test_candidate_membership_stable_at_lattice_threshold(self):
        # 0.525 sits on the min-hash filter's score lattice (multiples of
        # 1/(2*num_hashes) around the q-gram adjustment constant); candidate
        # membership there must not depend on query word order.
        corpus = [
            "morgan stanley incorporated group",
            "goldman sachs group incorporated",
            "deutsche bank international corporation",
            "morgan goldman deutsche stanley",
            "stanley sachs bank group",
            "incorporated international morgan bank",
        ]
        predicate = make_predicate("ges_apx", threshold=0.525).fit(corpus)
        words = ["morgan", "stanley", "goldman", "sachs", "deutsche", "bank",
                 "group", "incorporated"]
        forward = {m.tid for m in predicate.rank(" ".join(words))}
        backward = {m.tid for m in predicate.rank(" ".join(reversed(words)))}
        assert forward == backward

    def test_ges_jaccard_inherits_sorted_summation(self):
        corpus = ["morgan stanley group", "goldman sachs group"]
        predicate = make_predicate("ges_jaccard", threshold=0.5).fit(corpus)
        words = ["stanley", "morgan", "group"]
        assert predicate.filter_score(words, corpus[0].split()) == (
            predicate.filter_score(list(reversed(words)), corpus[0].split())
        )


class TestExplainExecutionAccuracy:
    """explain() names the top_k path that ran, and no fallback that did not."""

    def test_explain_without_k_reports_the_full_ranking(self):
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS * 10).predicate("bm25")
        query.top_k("Morgan Stanley Inc", 3)
        # explain without k: the sample execution runs a full ranking, and
        # the report says so instead of naming the top_k path.
        report = query.explain("IBM Corp", op="top_k")
        assert report.execution == "top_k executed as a full ranking"
        assert "pass k=" in report.fallback_reason

    @pytest.mark.parametrize("name", ["bm25", "jaccard", "edit_distance"])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_direct_topk_reports_its_path_and_no_fallback(self, name, blocked):
        query = SimilarityEngine().from_strings(CORPUS).predicate(name)
        if blocked:
            query = query.blocker("lsh")
        report = query.explain("Morgan Stanley", k=3)
        path = (
            "heap accumulation" if name == "edit_distance"
            else "dense scan + partition (numpy kernel)"
        )
        assert report.execution == "top_k via " + path
        assert report.fallback_reason is None
        assert "executed:" in report.describe()
        assert "fallback:" not in report.describe()
        assert "pruning:" not in report.describe()

    def test_sharded_topk_plan_and_report_agree(self):
        engine = SimilarityEngine()
        blocked = (
            engine.from_strings(CORPUS * 3)
            .predicate("weighted_match")
            .shards(2)
            .blocker("lsh")
        )
        for query in (blocked, blocked.blocker(None)):
            notes = query.plan("top_k").notes
            assert "top_k: dense scan + partition (numpy kernel)" in notes
            assert not any("skipped" in note for note in notes)
            report = query.explain("Morgan Stanley", k=3)
            assert report.execution == "top_k via dense scan + partition (numpy kernel)"
            assert report.fallback_reason is None
            assert report.shards.describe() == "2/2 shards run via 'serial' executor"

    def test_declarative_topk_reports_sql_execution(self):
        engine = SimilarityEngine(realization="declarative")
        report = engine.from_strings(CORPUS[:5]).predicate("bm25").explain(
            "Morgan Stanley", k=2
        )
        assert report.execution == "top_k via SQL (see sql path / emitted SQL)"
        assert report.fallback_reason is None


class TestExplainNamesTheNumpyPath:
    """explain()/plan() used to call every top_k "heap accumulation", even
    when the numpy kernel ran a scan + argpartition."""

    def test_monotone_predicate_reports_dense_scan(self):
        query = SimilarityEngine().from_strings(CORPUS * 10).predicate("bm25")
        notes = " | ".join(query.plan("top_k").notes)
        report = query.explain("Morgan Stanley Inc", k=3)
        assert "top_k: dense scan + partition (numpy kernel)" in notes
        assert "heap" not in notes
        assert report.execution == "top_k via dense scan + partition (numpy kernel)"
        assert report.fallback_reason is None
        assert report.num_candidates == len(query.rank("Morgan Stanley Inc"))

    def test_unkernelized_predicate_still_reports_the_heap(self):
        query = SimilarityEngine().from_strings(CORPUS).predicate("edit_distance")
        notes = " | ".join(query.plan("top_k").notes)
        report = query.explain("IBM", k=2)
        assert "scoring kernels" not in notes
        assert report.execution == "top_k via heap accumulation"
        assert report.fallback_reason is None

    @pytest.mark.parametrize("name", ["jaccard", "intersect"])
    def test_count_scan_predicates_name_the_kernel_that_ran(self, name):
        """The unweighted overlap pair scores through the count-scan kernel:
        a numpy scan is not "heap accumulation"."""
        engine = SimilarityEngine()
        query = engine.from_strings(CORPUS * 10).predicate(name)
        notes = " | ".join(query.plan("top_k").notes)
        before = kernels.ops_snapshot()["numpy"]
        report = query.explain("Morgan Stanley Inc", k=3)
        assert kernels.ops_snapshot()["numpy"] > before
        assert "scoring kernels: numpy" in notes
        assert "fallback" not in notes
        assert "dense scan + partition (numpy kernel)" in notes
        assert "heap" not in notes
        assert report.execution == "top_k via dense scan + partition (numpy kernel)"
        assert report.fallback_reason is None
        assert engine.obs.metrics.to_dict()["counters"].get("kernel_ops.numpy", 0) > 0

    def test_sharded_plan_names_the_shards_path(self):
        query = (
            SimilarityEngine().from_strings(CORPUS * 3).predicate("bm25").shards(2)
        )
        notes = query.plan("top_k").notes
        assert "top_k: dense scan + partition (numpy kernel)" in notes
        assert not any("bound" in note for note in notes)


class TestRestrictionIgnoresTidsOutsideTheRelation:
    ROWS = ["alpha beta", "alpha gamma", "delta epsilon", "alpha beta gamma"]
    OVERLAP = ["intersect", "jaccard", "weighted_match", "weighted_jaccard"]

    @staticmethod
    def _answers(predicate, allowed):
        with predicate.restrict_candidates(allowed):
            return (
                [(m.tid, m.score) for m in predicate.rank("alpha beta")],
                [(m.tid, m.score) for m in predicate.top_k("alpha beta", 3)],
                [(m.tid, m.score) for m in predicate.select("alpha beta", -100.0)],
                predicate.last_num_candidates,
                [predicate.score("alpha beta", tid) for tid in range(-1, 5)],
            )

    @pytest.mark.parametrize("name", OVERLAP + ["bm25"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_out_of_range_tids_are_ignored(self, name, num_shards):
        """Also with one tuple per shard: a stray tid lands past every
        shard's range, not only past the relation's."""
        if num_shards == 1:
            predicate = make_predicate(name).fit(self.ROWS)
        else:
            predicate = ShardedPredicate(
                lambda: make_predicate(name), num_shards=num_shards
            ).fit(self.ROWS)
        want = self._answers(predicate, {0, 3})
        assert [tid for tid, _ in want[0]] in ([0, 3], [3, 0])
        for stray in ({-1}, {4}, {-5, -1, 4, 99}):
            assert self._answers(predicate, {0, 3} | stray) == want
        assert self._answers(predicate, {-1, 4})[0] == []


class TestNonPositiveLimits:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.datagen import make_dataset

        return make_dataset("CU1", size=60, num_clean=10, seed=7).strings

    @staticmethod
    def _query(rows, config):
        base = SimilarityEngine().from_strings(rows).predicate("bm25")
        if config == "sharded":
            return base.shards(2, executor="thread")
        if config == "direct":
            return base
        return base.realization("declarative").backend(config)

    @pytest.mark.parametrize("config", ["direct", "sharded", "memory", "sqlite"])
    @pytest.mark.parametrize("limit", [0, -1, -2])
    def test_run_many_returns_nothing(self, rows, config, limit):
        query = self._query(rows, config)
        texts = [rows[1], rows[30]]
        assert query.run_many(texts, op="rank", limit=limit) == [[], []]
        assert query.last_run_many_stats.candidates_per_query == (0, 0)

    @pytest.mark.parametrize("config", ["direct", "memory", "sqlite"])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_blocked_rank_returns_nothing(self, rows, config, limit):
        query = self._query(rows, config).blocker("lsh")
        assert query.rank(rows[1])
        assert query.rank(rows[1], limit=limit) == []

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_rank_limit_zero_resets_the_stats(self, rows, backend):
        from repro.declarative import make_declarative_predicate

        predicate = make_declarative_predicate("bm25", backend=backend)
        predicate.preprocess(rows)
        assert len(predicate.rank(rows[1], limit=5)) == 5
        assert predicate.last_sql_stats.plan == ("order-by-limit",)
        for call in (
            lambda: predicate.rank(rows[30], limit=0),
            lambda: predicate.top_k(rows[30], 0),
        ):
            predicate.rank(rows[1], limit=5)
            assert call() == []
            assert predicate.last_num_candidates == 0
            assert predicate.last_sql_stats is None
