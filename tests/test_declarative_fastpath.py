"""Declarative pushdown tests: ORDER BY/LIMIT, in-SQL pruning, shared cores.

Three guarantees of the declarative realization are exercised here:

* **Exactness** -- the ORDER BY/LIMIT top-k pushdown, the in-SQL
  length/prefix candidate pruning and the batched statements must return
  exactly what the unpushed calls on the same predicate return (``rank(q)``
  without a limit, one query at a time), property-tested over random
  corpora, queries and thresholds on both backends.
* **Shared-core reuse** -- fitting a second declarative predicate on an
  already-prepared backend must reuse the shared token tables instead of
  re-materializing them (counted in executed preprocessing statements).
* **Parameterized statements** -- query strings reach the SQL through bind
  parameters end to end, so quotes and SQL metacharacters in the data are
  inert (regression: they used to be string-interpolated literals).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import MemoryBackend, SQLiteBackend
from repro.declarative import (
    DECLARATIVE_CLASSES,
    available_declarative_predicates,
    clear_shared_state,
    make_declarative_predicate,
)
from repro.engine import SimilarityEngine
from repro.engine.plan import RecordingBackend, sql_statements
from repro.obs import Observability, Tracer

#: Small token-y alphabet with spaces and quotes (quotes must be inert).
words = st.sampled_from(
    ["MORGAN", "STANLEY", "GROUP", "O'REILLY", "AT&T", "INC", "HOTEL", "BEIJING"]
)
strings = st.lists(words, min_size=1, max_size=4).map(" ".join)
corpora = st.lists(strings, min_size=2, max_size=12)

BACKENDS = [MemoryBackend, SQLiteBackend]


def _fitted(name, backend_cls, corpus, **kwargs):
    predicate = make_declarative_predicate(name, backend=backend_cls(), **kwargs)
    return predicate.preprocess(corpus)


class TestPushdownExactness:
    @settings(max_examples=25, deadline=None)
    @given(corpus=corpora, query=strings, k=st.integers(min_value=0, max_value=6))
    def test_order_by_limit_pushdown_equals_full_rank(self, corpus, query, k):
        for backend_cls in BACKENDS:
            for name in ("jaccard", "bm25", "weighted_match"):
                predicate = _fitted(name, backend_cls, corpus)
                full = predicate.rank(query)
                assert predicate.rank(query, limit=k) == full[:k], (
                    name,
                    backend_cls.__name__,
                )
                assert predicate.top_k(query, k) == full[:k]

    @settings(max_examples=25, deadline=None)
    @given(
        corpus=corpora,
        query=strings,
        threshold=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_pruned_select_equals_filtered_rank(self, corpus, query, threshold):
        """Length/prefix bounds pushed into the Jaccard SQL stay exact."""
        for backend_cls in BACKENDS:
            predicate = _fitted("jaccard", backend_cls, corpus)
            expected = [m for m in predicate.rank(query) if m.score >= threshold]
            assert predicate.select(query, threshold) == expected, (
                backend_cls.__name__,
                threshold,
            )

    def test_pruned_select_scores_fewer_candidates(self):
        from repro.datagen import make_dataset

        corpus = make_dataset("CU1", size=120, num_clean=30, seed=9).strings
        predicate = _fitted("jaccard", SQLiteBackend, corpus)
        pruned = predicate.select(corpus[3], 0.7)
        pruned_candidates = predicate.last_num_candidates
        assert predicate.last_sql_stats.plan == ("length-filter", "prefix-filter")
        ranked = predicate.rank(corpus[3])
        assert pruned == [m for m in ranked if m.score >= 0.7]
        assert pruned_candidates < predicate.last_num_candidates

    @settings(max_examples=15, deadline=None)
    @given(corpus=corpora, queries=st.lists(strings, min_size=1, max_size=4))
    def test_batched_scores_equal_sequential(self, corpus, queries):
        for backend_cls in BACKENDS:
            for name in ("intersect", "cosine", "lm", "edit_distance"):
                predicate = _fitted(name, backend_cls, corpus)
                batched = predicate.run_many(queries, op="rank")
                for query, batch in zip(queries, batched):
                    expected = predicate.rank(query)
                    assert [m.tid for m in batch] == [m.tid for m in expected]
                    for got, want in zip(batch, expected):
                        assert got.score == pytest.approx(
                            want.score, rel=1e-9, abs=1e-12
                        )


#: Families whose scoring is one SELECT (everything but the GES
#: filter-verify pair): their batches and single queries share statements.
SINGLE_STATEMENT = sorted(
    name
    for name in available_declarative_predicates()
    if DECLARATIVE_CLASSES[name].single_statement
)


def _assert_same_cut(got, want, full, context):
    """``got`` equals ``want`` under the engine-parity tie rule: scores equal
    to 1e-9, tids equal except inside a score tie, where any member of the
    full ranking's tie group may take a place (the cut can split a tie)."""
    assert len(got) == len(want), context
    full_scores = {match.tid: match.score for match in full}
    assert len({match.tid for match in got}) == len(got), context
    for mine, theirs in zip(got, want):
        assert mine.score == pytest.approx(theirs.score, rel=1e-9, abs=1e-12), context
        if mine.tid != theirs.tid:
            assert abs(full_scores[mine.tid] - theirs.score) <= 1e-8, context


class TestBatchEqualsPerQuery:
    """``run_many`` with a cut equals the single-query ``top_k`` per query,
    for every single-statement family on both backends, with the stats
    contract of the path that ran: SQLite cuts each query in its own
    ``ORDER BY ... LIMIT`` statement, the in-memory engine scores the batch
    in one statement and cuts in Python."""

    QUERIES = [3, 3, "", 11, "zzzz qqqq"]

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.datagen import make_dataset

        return make_dataset("CU1", size=40, num_clean=8, seed=5).strings

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    @pytest.mark.parametrize("name", SINGLE_STATEMENT)
    def test_cut_batches_equal_top_k(self, name, backend_cls, corpus):
        predicate = _fitted(name, backend_cls, corpus)
        queries = [corpus[q] if isinstance(q, int) else q for q in self.QUERIES]
        full = [predicate.rank(query) for query in queries]
        for k in (0, 4, len(corpus) + 5):
            expected = [predicate.top_k(query, k) for query in queries]
            single_counts = []
            for query in queries:
                predicate.top_k(query, k)
                single_counts.append(predicate.last_num_candidates)
            for op, kwargs in (("top_k", {"k": k}), ("rank", {"limit": k})):
                context = (name, backend_cls.__name__, op, k)
                batched = predicate.run_many(queries, op=op, **kwargs)
                assert len(batched) == len(queries), context
                for got, want, ranked in zip(batched, expected, full):
                    if backend_cls is SQLiteBackend:
                        assert got == want, context
                    else:
                        _assert_same_cut(got, want, ranked, context)
                assert predicate.last_num_candidates is None, context
                stats = predicate.last_sql_stats
                if k == 0:
                    assert predicate.last_batch_candidates == [0] * len(queries)
                    assert stats.plan == (), context
                elif backend_cls is SQLiteBackend:
                    assert predicate.last_batch_candidates == single_counts, context
                    assert stats.plan == ("order-by-limit",), context
                else:
                    assert predicate.last_batch_candidates == [
                        len(ranked) for ranked in full
                    ], context
                    assert stats.plan == ("batch",), context
                assert stats.rows_scored == sum(predicate.last_batch_candidates)

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_empty_batch(self, backend_cls, corpus):
        predicate = _fitted("bm25", backend_cls, corpus)
        for op, kwargs in (("top_k", {"k": 3}), ("rank", {"limit": 3})):
            assert predicate.run_many([], op=op, **kwargs) == []
            assert predicate.last_batch_candidates == []
            assert predicate.last_num_candidates is None
            assert predicate.last_sql_stats.plan == ()


class TestSharedCores:
    def _captured_statements(self, obs, fit):
        """SQL statements emitted by ``fit``, captured as sql.statement spans."""
        tracer = Tracer()
        with obs.activate(tracer):
            with tracer.span("capture"):
                fit()
        return sql_statements(tracer.last_root)

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_second_predicate_reuses_shared_token_tables(self, backend_cls):
        """Acceptance: fitting a second declarative predicate on an
        already-prepared backend reuses the shared token tables."""
        corpus = [f"COMPANY {i} HOLDINGS {i % 5} LLC" for i in range(40)]
        obs = Observability()
        recorder = RecordingBackend(backend_cls(), obs=obs)
        first = self._captured_statements(
            obs,
            lambda: make_declarative_predicate("bm25", backend=recorder).preprocess(corpus),
        )
        second = self._captured_statements(
            obs,
            lambda: make_declarative_predicate("cosine", backend=recorder).preprocess(corpus),
        )
        third = self._captured_statements(
            obs,
            lambda: make_declarative_predicate(
                "weighted_match", backend=recorder
            ).preprocess(corpus),
        )
        # The first fit pays the core (BASE_TABLE/BASE_TOKENS/stats tables);
        # later fits only materialize their own small weight tables.
        assert len(second) < len(first) and len(third) < len(first)
        assert not any(
            "BASE_TOKENS" in statement and ("CREATE TABLE" in statement or "bulk load" in statement)
            for statement in second + third
        ), (second, third)

    def test_refitting_same_predicate_reuses_core(self):
        corpus = ["ALPHA ONE", "BETA TWO", "GAMMA THREE"]
        obs = Observability()
        recorder = RecordingBackend(SQLiteBackend(), obs=obs)
        predicate = make_declarative_predicate("jaccard", backend=recorder)
        predicate.preprocess(corpus)
        refit = self._captured_statements(obs, lambda: predicate.preprocess(corpus))
        assert not any("CREATE TABLE" in statement for statement in refit), refit

    def test_two_corpora_coexist_without_clobbering(self):
        backend = SQLiteBackend()
        first = make_declarative_predicate("jaccard", backend=backend)
        first.preprocess(["MORGAN STANLEY", "GOLDMAN SACHS"])
        second = make_declarative_predicate("jaccard", backend=backend)
        second.preprocess(["HOTEL BEIJING", "HOTEL SHANGHAI"])
        # Namespaced cores: the first predicate still answers from its own
        # tables after the second fit, with no refit required.
        assert not first.tables_stale()
        assert first.rank("MORGAN STANLEY")[0].tid == 0
        assert second.rank("HOTEL BEIJING")[0].tid == 0
        assert first.core.prefix != second.core.prefix

    def test_parameter_variants_coexist_without_staleness(self):
        from repro.text.weights import BM25Parameters

        backend = SQLiteBackend()
        corpus = ["MORGAN STANLEY GROUP", "MORGAN HOLDINGS", "STANLEY INC"]
        default = make_declarative_predicate("bm25", backend=backend)
        default.preprocess(corpus)
        expected = default.rank("MORGAN STANLEY")
        tuned = make_declarative_predicate(
            "bm25", backend=backend, params=BM25Parameters(k1=0.4, b=0.9)
        )
        tuned.preprocess(corpus)
        # Parameter-signed features get variant-named tables, so the two
        # instances coexist on one backend: neither goes stale, both answer
        # from their own weights, and alternating queries never refit.
        assert not default.tables_stale() and not tuned.tables_stale()
        assert default._weights_table != tuned._weights_table
        assert default.rank("MORGAN STANLEY") == expected
        assert tuned.rank("MORGAN STANLEY")  # answers, from its own table
        assert not default.tables_stale()

    def test_clear_shared_state_forces_rematerialization(self):
        backend = SQLiteBackend()
        predicate = make_declarative_predicate("jaccard", backend=backend)
        predicate.preprocess(["ALPHA BETA", "GAMMA DELTA"])
        clear_shared_state(backend)
        assert predicate.tables_stale()
        assert predicate.rank("ALPHA BETA")[0].tid == 0  # self-heals


class TestParameterizedQueries:
    QUOTED_CORPUS = [
        "O'Reilly & Sons",
        "It's a 'test' -- DROP TABLE BASE_TOKENS",
        'Quote "Unquote" Partners',
        "Plain Company Inc",
    ]

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_edit_distance_handles_quotes_end_to_end(self, backend_cls):
        predicate = make_declarative_predicate("edit_distance", backend=backend_cls())
        predicate.preprocess(self.QUOTED_CORPUS)
        ranking = predicate.rank("O'Reilly & Sons")
        assert ranking[0].tid == 0 and ranking[0].score == 1.0
        selected = predicate.select("It's a 'test' -- DROP TABLE BASE_TOKENS", 0.9)
        assert [match.tid for match in selected] == [1]
        batched = predicate.run_many(
            ["O'Reilly & Sons", 'Quote "Unquote" Partners'], op="rank"
        )
        assert batched[0][0].tid == 0 and batched[1][0].tid == 2

    def test_engine_run_with_quoted_queries(self):
        engine = SimilarityEngine(realization="declarative", backend="sqlite")
        query = engine.from_strings(self.QUOTED_CORPUS).predicate("edit_distance")
        assert query.top_k("O'Reilly & Sons", 1)[0].tid == 0

    def test_memory_engine_rejects_unbound_placeholders(self):
        backend = MemoryBackend()
        backend.create_table("t", ["x TEXT"])
        from repro.dbengine.errors import ParseError

        with pytest.raises(ParseError):
            backend.query("SELECT x FROM t WHERE x = ?", [])
        with pytest.raises(ParseError):
            backend.query("SELECT x FROM t WHERE x = ?", ["a", "b"])
