"""Concurrency regressions for the engine, plus the fit seam under sharding.

The serving layer runs engine calls on worker threads, so the engine's
fitted-state / instance / backend / corpus-core caches must behave under
concurrent access: one fit per plan and one core build per (corpus,
tokenizer) no matter how many threads race them, and results identical to
single-threaded execution.  The second half covers the ``Predicate.fit``
seam (``core=`` / its ``token_lists=`` sugar): sharded fits tokenize the
relation exactly once, every shard is fitted in the calling process whatever
the executor, and fitted predicates survive a pickle round trip (what a
non-``fork`` process executor ships with each task).
"""

from __future__ import annotations

import functools
import pickle
import sys
import threading

import pytest

from repro.core.predicates.base import Predicate
from repro.engine import SimilarityEngine
from repro.engine import registry
from repro.obs.metrics import MetricsRegistry
from repro.shard.predicate import ShardedPredicate


class TestEngineThreadSafety:
    def test_racing_threads_fit_once_and_agree(self, company_strings):
        engine = SimilarityEngine(metrics=MetricsRegistry())
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        results: list = [None] * num_threads
        errors: list = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                query = engine.from_strings(company_strings).predicate("bm25")
                results[index] = query.top_k("Morgn Stanley", 5)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        # The racing threads shared ONE fit (the cache did not double-build)
        # over ONE corpus core.
        assert engine.metrics.value("fits_total") == 1
        assert engine.metrics.value("core_builds_total") == 1
        assert engine.cache_size == 1
        for result in results[1:]:
            assert result == results[0]

    def test_racing_plans_share_one_core_build(self, company_strings):
        """More threads than cores, a shortened switch interval, and four
        plans over one (corpus, tokenizer): a check-then-build race on the
        core cache would show as a second build (or a second fit of a plan)."""
        engine = SimilarityEngine(metrics=MetricsRegistry())
        names = ["bm25", "cosine", "jaccard", "lm"]
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        results: list = [None] * num_threads
        errors: list = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                query = engine.from_strings(company_strings).predicate(
                    names[index % len(names)]
                )
                results[index] = query.top_k("Morgn Stanley", 5)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert engine.metrics.value("fits_total") == len(names)
        assert engine.metrics.value("core_builds_total") == 1
        assert engine.metrics.value("core_reuses_total") == len(names) - 1
        for index, result in enumerate(results):
            alone = registry.make(names[index % len(names)]).fit(company_strings)
            assert [(m.tid, m.score) for m in result] == [
                (m.tid, m.score) for m in alone.top_k("Morgn Stanley", 5)
            ]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_concurrent_declarative_queries_on_shared_backend(
        self, backend, company_strings
    ):
        """Interleaved declarative executions must not clobber each other's
        staged query tables on the engine-shared SQL backend."""
        engine = SimilarityEngine(metrics=MetricsRegistry())
        plans = [("bm25", "Morgn Stanley"), ("jaccard", "AT&T"), ("cosine", "Beijing")]
        num_threads = 6
        results: list = [None] * num_threads
        errors: list = []
        barrier = threading.Barrier(num_threads)

        def worker(index: int) -> None:
            predicate, text = plans[index % len(plans)]
            try:
                barrier.wait(timeout=30)
                query = (
                    engine.from_strings(company_strings)
                    .predicate(predicate)
                    .realization("declarative")
                    .backend(backend)
                )
                results[index] = query.top_k(text, 4)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        # Compare against a fresh single-threaded engine, plan by plan.
        serial_engine = SimilarityEngine()
        for index, (predicate, text) in enumerate(
            plans[i % len(plans)] for i in range(num_threads)
        ):
            serial = (
                serial_engine.from_strings(company_strings)
                .predicate(predicate)
                .realization("declarative")
                .backend(backend)
                .top_k(text, 4)
            )
            assert results[index] == serial, (predicate, text)
        engine.clear_cache()
        serial_engine.clear_cache()

    def test_concurrent_corpus_interning(self, company_strings):
        engine = SimilarityEngine()
        queries: list = [None] * 8
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            barrier.wait(timeout=30)
            queries[index] = engine.from_strings(company_strings)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # All racing registrations interned to ONE corpus object.
        keys = {query._corpus.key for query in queries}
        assert len(keys) == 1


class TestFitTokenSeam:
    def test_fit_accepts_pretokenized_lists(self, company_strings):
        baseline = registry.make("bm25", realization="direct").fit(company_strings)
        pretokenized = registry.make("bm25", realization="direct")
        token_lists = [
            pretokenized.tokenizer.tokenize(text) for text in company_strings
        ]
        pretokenized.fit(company_strings, token_lists=token_lists)
        assert pretokenized.top_k("Morgn Stanley", 5) == baseline.top_k(
            "Morgn Stanley", 5
        )

    def test_seam_is_per_fit_not_fitted_state(self, company_strings):
        predicate = registry.make("bm25", realization="direct")
        token_lists = [
            predicate.tokenizer.tokenize(text) for text in company_strings
        ]
        predicate.fit(company_strings, token_lists=token_lists)
        seam_core = predicate._core
        assert len(seam_core) == len(company_strings)
        # A refit without the seam re-tokenizes the *new* strings: the core
        # handed to one fit is not replayed by the next.
        predicate.fit(company_strings[:4])
        assert predicate._core is not seam_core and len(predicate._core) == 4
        assert predicate.top_k("AT&T", 2) == registry.make(
            "bm25", realization="direct"
        ).fit(company_strings[:4]).top_k("AT&T", 2)

    def test_sharded_fit_tokenizes_each_string_once(
        self, company_strings, counting_tokenizer
    ):
        counting = counting_tokenizer
        sharded = ShardedPredicate(
            factory=lambda: registry.make(
                "bm25", realization="direct", tokenizer=counting
            ),
            num_shards=3,
        )
        sharded.fit(company_strings)
        # One global tokenization pass (the whole relation's core); the
        # shard-local fits read slices of it instead of re-tokenizing.
        assert counting.calls == len(company_strings)
        baseline = registry.make("bm25", realization="direct").fit(company_strings)
        assert sharded.top_k("Morgn Stanley", 5) == baseline.top_k("Morgn Stanley", 5)
        sharded.close()

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("predicate_name", registry.available_predicates("direct"))
    def test_every_shard_is_fitted_in_the_calling_process(
        self, predicate_name, executor, company_strings, monkeypatch
    ):
        """One fit path: ``Predicate.fit`` runs here exactly ``S`` times,
        whatever the executor (forked workers would append to their own
        copy of the list, not this one)."""
        fits = []
        fit = Predicate.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(type(self).__name__)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(Predicate, "fit", counting_fit)
        sharded = ShardedPredicate(
            factory=lambda: registry.make(predicate_name, realization="direct"),
            num_shards=3,
            executor=executor,
        )
        try:
            sharded.fit(company_strings)
            assert len(fits) == sharded.num_shards == 3
            baseline = registry.make(predicate_name, realization="direct").fit(
                company_strings
            )
            assert sharded.top_k("Morgn Stanley", 5) == baseline.top_k(
                "Morgn Stanley", 5
            )
        finally:
            sharded.close()

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_unpicklable_factory_fits_and_answers(self, executor, company_strings):
        marker = object()

        def factory():
            predicate = registry.make("bm25", realization="direct")
            predicate._unpicklable = lambda: marker  # closes over a local
            return predicate

        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(factory())
        sharded = ShardedPredicate(factory=factory, num_shards=2, executor=executor)
        baseline = registry.make("bm25", realization="direct").fit(company_strings)
        try:
            sharded.fit(company_strings)
            for text in ("Morgn Stanley", "AT&T Incorporated", "Beijing Hotel"):
                assert sharded.top_k(text, 5) == baseline.top_k(text, 5)
                assert sharded.rank(text) == baseline.rank(text)
                assert sharded.select(text, 0.5) == baseline.select(text, 0.5)
        finally:
            sharded.close()

    @pytest.mark.parametrize("shipped_as", ["predicate", "shard"])
    @pytest.mark.parametrize("lists_built", [False, True])
    @pytest.mark.parametrize(
        "predicate_name", ["bm25", "lm", "weighted_match", "jaccard"]
    )
    def test_fitted_predicates_survive_a_pickle_round_trip(
        self, predicate_name, lists_built, shipped_as, company_strings
    ):
        """Without ``fork`` the process executor pickles the fitted shard
        with every task: the copy -- of a whole fitted predicate, or of one
        shard of a sharded fit -- must answer ``==``, whether or not the
        index's posting lists were built before it travelled."""
        make = functools.partial(registry.make, predicate_name, realization="direct")
        if shipped_as == "predicate":
            fitted = make().fit(company_strings)
        else:
            sharded = ShardedPredicate(make, num_shards=2).fit(company_strings)
            fitted = sharded.shards[1]
            sharded.close()
        if lists_built:
            fitted._index.postings(next(iter(fitted._index.tokens())))
        shipped = pickle.loads(pickle.dumps(fitted))
        assert shipped._index.posting_lists_built == lists_built
        for text in ("Morgn Stanley", "AT&T Incorporated", "Beijing Hotel"):
            assert shipped.top_k(text, 5) == fitted.top_k(text, 5)
            assert shipped.rank(text) == fitted.rank(text)
