"""Unit tests for the unified similarity engine (repro.engine)."""

from __future__ import annotations

import pytest

from repro import Match, SimilarityEngine
from repro.core import ApproximateJoiner, Deduplicator
from repro.core.predicates import Jaccard
from repro.declarative import DeclarativeJaccard
from repro.engine import SimilarityPredicateProtocol
from repro.engine import registry as engine_registry


@pytest.fixture()
def engine():
    return SimilarityEngine()


class TestMatch:
    def test_retired_aliases_are_gone(self):
        import repro
        import repro.core
        import repro.core.predicates

        for module in (repro, repro.core, repro.core.predicates):
            for name in ("ApproximateSelector", "SelectionResult", "ScoredTuple"):
                assert not hasattr(module, name)
        assert not hasattr(Match(3, 0.5, "AT&T Inc."), "text")

    def test_unpacks_to_tid_and_score(self):
        match = Match(3, 0.5)
        tid, score = match
        assert (tid, score) == (3, 0.5)
        assert match.string is None

    def test_with_string(self):
        match = Match(3, 0.5, "AT&T Inc.")
        assert match.string == "AT&T Inc."
        assert match.with_string("IBM").string == "IBM"

    def test_text_in_the_score_slot_raises(self):
        # Match(tid, text, score) must fail loudly instead of carrying the
        # text as a score.
        with pytest.raises(TypeError):
            Match(0, "AT&T Inc.", 0.9)


class TestFluentQuery:
    def test_fluent_chain_returns_matches_with_strings(self, engine, company_strings):
        results = (
            engine.from_strings(company_strings)
            .predicate("bm25")
            .realization("declarative")
            .backend("sqlite")
            .top_k("Morgn Stanley Inc", 2)
        )
        assert results[0].tid == 0
        assert results[0].string == company_strings[0]
        assert isinstance(results[0], Match)

    def test_builders_do_not_mutate(self, engine, company_strings):
        base = engine.from_strings(company_strings).predicate("jaccard")
        declarative = base.realization("declarative")
        assert base._resolved_realization() == "direct"
        assert declarative._resolved_realization() == "declarative"

    def test_select_and_rank_match_a_fresh_engine(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard")
        fresh = SimilarityEngine().from_strings(company_strings).predicate("jaccard")
        assert query.select("Beijing Hotel", 0.5) == fresh.select("Beijing Hotel", 0.5)
        assert query.rank("Beijing Hotel") == fresh.rank("Beijing Hotel")

    def test_predicate_instance_pins_realization(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate(DeclarativeJaccard())
        assert query._resolved_realization() == "declarative"
        with pytest.raises(ValueError):
            query.realization("direct").rank("Beijing")

    def test_instance_with_kwargs_rejected(self, engine, company_strings):
        with pytest.raises(ValueError):
            engine.from_strings(company_strings).predicate(Jaccard(), q=3)

    def test_unknown_realization_and_backend(self, engine, company_strings):
        query = engine.from_strings(company_strings)
        with pytest.raises(ValueError):
            query.realization("quantum")
        with pytest.raises(ValueError):
            query.backend("postgres")

    def test_negative_top_k(self, engine, company_strings):
        with pytest.raises(ValueError):
            engine.from_strings(company_strings).top_k("x", -1)

    def test_score(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard")
        assert query.score(company_strings[2], 2) == pytest.approx(1.0)

    def test_session_default_backend_is_used(self, company_strings):
        from repro.backends.sqlite import SQLiteBackend

        engine = SimilarityEngine(realization="declarative", backend="sqlite")
        query = engine.from_strings(company_strings).predicate("jaccard")
        predicate = query.fitted_predicate()
        # The session default must drive execution, not just plan()/explain().
        assert isinstance(predicate.backend.inner, SQLiteBackend)
        assert query.plan().backend == "sqlite"
        assert query.rank("Beijing Hotel")[0].string is not None

    def test_both_predicates_satisfy_the_protocol(self, engine, company_strings):
        direct = engine.from_strings(company_strings).predicate("jaccard")
        declarative = direct.realization("declarative")
        assert isinstance(direct.fitted_predicate(), SimilarityPredicateProtocol)
        assert isinstance(declarative.fitted_predicate(), SimilarityPredicateProtocol)


class TestStateCaching:
    def test_run_many_fits_once(self, engine, company_strings, monkeypatch):
        fits = {"count": 0}
        original = Jaccard.tokenize_phase

        def counting(self):
            fits["count"] += 1
            return original(self)

        monkeypatch.setattr(Jaccard, "tokenize_phase", counting)
        query = engine.from_strings(company_strings).predicate("jaccard")
        batches = query.run_many(["Beijing Hotel", "AT&T Inc.", "IBM"], op="top_k", k=2)
        assert len(batches) == 3
        assert all(isinstance(match, Match) for batch in batches for match in batch)
        query.run_many(["Morgan Stanley"], op="rank")
        query.rank("Goldman Sachs")
        assert fits["count"] == 1

    def test_clones_share_fitted_state(self, engine, company_strings, monkeypatch):
        fits = {"count": 0}
        original = Jaccard.tokenize_phase

        def counting(self):
            fits["count"] += 1
            return original(self)

        monkeypatch.setattr(Jaccard, "tokenize_phase", counting)
        base = engine.from_strings(company_strings)
        base.predicate("jaccard").rank("Beijing")
        base.predicate("jaccard").rank("Hotel")
        assert fits["count"] == 1
        assert engine.cache_size == 1

    def test_different_plans_do_not_share_state(self, engine, company_strings):
        base = engine.from_strings(company_strings)
        base.predicate("jaccard").rank("Beijing")
        base.predicate("jaccard").realization("declarative").rank("Beijing")
        assert engine.cache_size == 2
        engine.clear_cache()
        assert engine.cache_size == 0

    def test_from_strings_interns_identical_corpora(self, engine, company_strings, monkeypatch):
        fits = {"count": 0}
        original = Jaccard.tokenize_phase

        def counting(self):
            fits["count"] += 1
            return original(self)

        monkeypatch.setattr(Jaccard, "tokenize_phase", counting)
        engine.from_strings(company_strings).predicate("jaccard").rank("Beijing")
        engine.from_strings(list(company_strings)).predicate("jaccard").rank("Hotel")
        assert fits["count"] == 1
        assert engine.cache_size == 1

    def test_threshold_sweep_shares_predicate_state(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard").blocker(
            "length+prefix"
        )
        query.select("Beijing Hotel", 0.6)
        query.select("Beijing Hotel", 0.7)
        # Only the (cheap) blocker differs per threshold; the expensive
        # fitted predicate state is shared.
        assert engine.cache_size == 1
        assert len(engine._blockers) == 2

    def test_blocker_does_not_leak_into_blockerless_query(self, engine, company_strings):
        from repro.core.predicates import make_predicate

        predicate = make_predicate("jaccard")
        query = engine.from_strings(company_strings).predicate(predicate)
        blocked = query.blocker("lsh", lsh_bands=1, lsh_rows=8)
        pruned = blocked.select("Beijing Hotel", 0.1)
        full = query.select("Beijing Hotel", 0.1)
        assert predicate.blocker is None
        assert len(full) >= len(pruned)
        assert {m.tid for m in full} >= {5, 7, 6}

    def test_user_attached_blocker_is_preserved(self, engine, company_strings):
        from repro.blocking import MinHashLSH
        from repro.core.predicates import make_predicate

        blocker = MinHashLSH(num_bands=4, rows_per_band=4)
        predicate = make_predicate("jaccard").set_blocker(blocker)
        query = engine.from_strings(company_strings).predicate(predicate)
        query.rank("Beijing Hotel")
        assert predicate.blocker is blocker

    def test_shared_instance_is_refit_across_corpora(self, engine, company_strings):
        # One predicate instance queried through two corpora: the earlier
        # corpus's cached state wraps the same object, so a cache hit must
        # detect that the instance was meanwhile refitted on the other
        # relation and refit it -- not silently answer over the wrong corpus.
        from repro.core.predicates import make_predicate

        predicate = make_predicate("jaccard")
        first = engine.from_strings(company_strings).predicate(predicate)
        second = engine.from_strings(["Zebra Quux Ltd", "Flurble GmbH"]).predicate(
            predicate
        )
        expected = first.rank("Beijing Hotel")
        assert {match.tid for match in expected} >= {5}
        assert second.rank("Zebra Quux Ltd")[0].tid == 0
        assert first.rank("Beijing Hotel") == expected

    def test_shared_declarative_instance_is_refit_across_corpora(
        self, engine, company_strings
    ):
        predicate = DeclarativeJaccard()
        first = engine.from_strings(company_strings).predicate(predicate)
        second = engine.from_strings(["Zebra Quux Ltd", "Flurble GmbH"]).predicate(
            predicate
        )
        expected = first.rank("Beijing Hotel")
        assert {match.tid for match in expected} >= {5}
        assert second.rank("Zebra Quux Ltd")[0].tid == 0
        assert first.rank("Beijing Hotel") == expected

    def test_shared_backend_instance_is_refit_across_corpora(self, engine, company_strings):
        # Declarative predicates materialize fixed-name tables, so two cached
        # states sharing one backend instance clobber each other; the engine
        # must detect the clobber and rematerialize before answering.
        from repro.backends.sqlite import SQLiteBackend

        backend = SQLiteBackend()
        first = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .realization("declarative")
            .backend(backend)
        )
        second = (
            engine.from_strings(["Zebra Quux Ltd", "Flurble GmbH"])
            .predicate("jaccard")
            .realization("declarative")
            .backend(backend)
        )
        expected = first.rank("Beijing Hotel")
        assert {match.tid for match in expected} >= {5}
        assert second.rank("Zebra Quux Ltd")[0].tid == 0
        assert first.rank("Beijing Hotel") == expected

    def test_recorder_only_captures_while_tracing(self, engine, company_strings):
        # Normal query workloads must not accumulate SQL statement text
        # without bound on a long-lived engine: capture happens only while a
        # live tracer is active (explain()/trace()), as sql.statement spans.
        query = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .realization("declarative")
        )
        query.run_many(["Beijing Hotel", "AT&T Inc."], op="rank")
        predicate = query.fitted_predicate()
        assert not engine.tracer.enabled  # default engine: no-op tracer
        report = query.explain("Beijing Hotel", k=3)
        assert any("QUERY_TOKENS" in statement for statement in report.sql)
        # The report's SQL is read off the captured span tree.
        assert report.trace is not None
        spans = [s for s in report.trace.walk() if s.name == "sql.statement"]
        assert tuple(s.attributes["sql"] for s in spans) == report.sql
        # Queries outside explain()/trace() leave no trace behind.
        query.rank("Morgan Stanley")
        assert engine.obs.tracer.last_root is None

    def test_clear_cache_detaches_engine_attached_blockers(self, engine, company_strings):
        # Once clear_cache() forgets the engine-attached blocker ids, a
        # blocker left on a caller instance would pass for caller-attached
        # and silently prune blocker-less queries.
        from repro.core.predicates import make_predicate

        predicate = make_predicate("jaccard")
        query = engine.from_strings(company_strings).predicate(predicate)
        pruned = query.blocker("lsh", lsh_bands=1, lsh_rows=8).select(
            "Beijing Hotel", 0.1
        )
        engine.clear_cache()
        assert predicate.blocker is None
        full = query.select("Beijing Hotel", 0.1)
        assert len(full) >= len(pruned)
        assert {match.tid for match in full} >= {5, 6, 7}

    def test_clear_cache_releases_interned_corpora(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard")
        query.rank("Beijing Hotel")
        assert len(engine._corpora) == 1
        engine.clear_cache()
        assert engine._corpora == {}
        assert engine.cache_size == 0
        # Live queries keep working; their state is rebuilt on demand.
        assert {match.tid for match in query.rank("Beijing Hotel")} >= {5}

    def test_run_many_select_and_validation(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard")
        selected = query.run_many(["Beijing Hotel"], op="select", threshold=0.5)
        assert {match.tid for match in selected[0]} >= {5}
        with pytest.raises(ValueError):
            query.run_many(["x"], op="select")
        with pytest.raises(ValueError):
            query.run_many(["x"], op="top_k")
        with pytest.raises(ValueError):
            query.run_many(["x"], op="cluster")


class TestBlocking:
    def test_exact_blocker_preserves_select(self, engine, company_strings):
        base = engine.from_strings(company_strings).predicate("jaccard")
        blocked = base.blocker("length+prefix")
        assert blocked.select("Beijing Hotel", 0.9) == base.select("Beijing Hotel", 0.9)

    def test_exact_blocker_requires_threshold(self, engine, company_strings):
        blocked = (
            engine.from_strings(company_strings).predicate("jaccard").blocker("length")
        )
        with pytest.raises(ValueError):
            blocked.top_k("Beijing Hotel", 3)

    def test_self_join_matches_joiner(self, engine, company_strings):
        query = engine.from_strings(company_strings).predicate("jaccard")
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.6)
        assert query.self_join(0.6) == joiner.self_join()
        assert query.last_self_join_stats is not None

    def test_dedup_matches_deduplicator(self, engine, company_strings):
        clusters = engine.from_strings(company_strings).predicate("jaccard").dedup(0.6)
        expected = Deduplicator(
            company_strings, predicate="jaccard", threshold=0.6
        ).clusters()
        assert clusters == expected

    def test_declarative_blocked_select_is_exact(self, engine, company_strings):
        base = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .realization("declarative")
        )
        blocked = base.blocker("length+prefix")
        assert blocked.select("Beijing Hotel", 0.9) == base.select("Beijing Hotel", 0.9)

    def test_declarative_dedup_through_engine(self, engine, company_strings):
        clusters = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .realization("declarative")
            .dedup(0.6)
        )
        expected = Deduplicator(
            company_strings, predicate="jaccard", threshold=0.6
        ).clusters()
        assert clusters == expected


class TestExplain:
    def test_plan_without_execution(self, engine, company_strings):
        report = (
            engine.from_strings(company_strings)
            .predicate("bm25")
            .realization("declarative")
            .backend("sqlite")
            .explain()
        )
        assert report.plan.predicate == "bm25"
        assert report.plan.realization == "declarative"
        assert report.plan.backend == "sqlite"
        assert report.sql == ()
        assert report.seconds is None

    def test_declarative_explain_reports_sql(self, engine, company_strings):
        report = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .realization("declarative")
            .explain("Beijing Hotel", k=3)
        )
        assert report.plan.operation == "top_k"
        assert report.num_results == 3
        assert report.results is not None and len(report.results) == 3
        assert report.results[0].string is not None
        assert report.num_candidates is not None
        assert any("QUERY_TOKENS" in statement for statement in report.sql)
        text = report.describe()
        assert "emitted SQL" in text and "jaccard" in text

    def test_direct_explain_reports_blocker_stats(self, engine, company_strings):
        report = (
            engine.from_strings(company_strings)
            .predicate("jaccard")
            .blocker("length+prefix")
            .explain("Beijing Hotel", threshold=0.9)
        )
        assert report.plan.operation == "select"
        assert report.plan.blocker == "length+prefix"
        assert report.plan.blocker_threshold == 0.9
        assert report.sql == ()
        assert report.blocker_stats is not None
        assert report.blocker_stats.candidates_out <= report.blocker_stats.candidates_in
        assert "blocking:" in report.describe()

    def test_plan_notes_backend_ignored_for_direct(self, engine, company_strings):
        plan = engine.from_strings(company_strings).backend("sqlite").plan()
        assert any("ignored" in note for note in plan.notes)


class TestMergedRegistry:
    def test_canonical_name_resolution(self):
        assert engine_registry.canonical_name("TF-IDF") == "cosine"
        assert engine_registry.canonical_name(" Okapi ") == "bm25"
        with pytest.raises(ValueError):
            engine_registry.canonical_name("soundex")

    def test_make_both_realizations(self):
        direct = engine_registry.make("jaccard")
        declarative = engine_registry.make("jaccard", realization="declarative")
        assert isinstance(direct, Jaccard)
        assert isinstance(declarative, DeclarativeJaccard)

    def test_backend_rejected_for_direct(self):
        with pytest.raises(ValueError):
            engine_registry.make("jaccard", backend="sqlite")

    def test_aliases_and_realizations_introspection(self):
        assert "okapi" in engine_registry.aliases_for("bm25")
        assert engine_registry.available_realizations("ges") == (
            "direct",
            "declarative",
        )


class TestOneLinePort:
    def test_engine_query_answers_what_the_selector_did(self, company_strings):
        query = SimilarityEngine().from_strings(company_strings).predicate("bm25")
        assert query.fitted_predicate().is_fitted
        results = query.top_k("Morgn Stanley Inc", k=1)
        assert results[0].tid == 0
        assert results[0].string == company_strings[0]
