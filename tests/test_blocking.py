"""Tests for the blocking & candidate-pruning subsystem (:mod:`repro.blocking`)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    BLOCKER_NAMES,
    Blocker,
    BlockingPipeline,
    BlockingStats,
    LengthFilter,
    MinHashLSH,
    PrefixFilter,
    make_blocker,
)
from repro.core import ApproximateJoiner, Deduplicator
from repro.core.index import InvertedIndex
from repro.core.predicates import Jaccard, make_predicate
from repro.text.tokenize import QgramTokenizer


def _jaccard(left: set, right: set) -> float:
    union = left | right
    return len(left & right) / len(union) if union else 0.0


# ---------------------------------------------------------------------------
# token-set corpora for the property-based exactness tests
# ---------------------------------------------------------------------------

_token = st.text(alphabet="abcdef", min_size=1, max_size=2)
_token_lists = st.lists(
    st.lists(_token, min_size=0, max_size=8), min_size=2, max_size=12
)
_thresholds = st.sampled_from([0.2, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0])


class TestBlockingStats:
    def test_record_and_ratio(self):
        stats = BlockingStats()
        stats.record(10, 2)
        stats.record(6, 2)
        assert stats.probes == 2
        assert stats.candidates_in == 16
        assert stats.candidates_out == 4
        assert stats.pruned == 12
        assert stats.reduction_ratio == 4.0

    def test_ratio_degenerate_cases(self):
        stats = BlockingStats()
        assert stats.reduction_ratio == 1.0  # nothing seen yet
        stats.record(5, 0)
        assert stats.reduction_ratio == math.inf

    def test_delta_of_one_prune(self):
        stats = BlockingStats()
        stats.record(10, 2)
        before = BlockingStats() + stats
        stats.record(5, 0)
        assert stats - before == BlockingStats(
            probes=1, candidates_in=5, candidates_out=0
        )

    def test_reset(self):
        stats = BlockingStats()
        stats.record(3, 1)
        stats.reset()
        assert stats.probes == 0
        assert stats.candidates_in == 0


class TestLengthFilter:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LengthFilter(1.5)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            LengthFilter(0.5).prune({"ab"}, {0})

    def test_unfitted_partners_and_blocks_raise(self):
        for blocker in (LengthFilter(0.5), PrefixFilter(0.5), MinHashLSH()):
            with pytest.raises(RuntimeError):
                blocker.partners(0)
            with pytest.raises(RuntimeError):
                blocker.blocks()

    def test_supports_threshold(self):
        blocker = LengthFilter(0.6)
        assert blocker.supports_threshold(0.6)
        assert blocker.supports_threshold(0.9)
        assert not blocker.supports_threshold(0.3)
        assert MinHashLSH().supports_threshold(0.0)
        pipeline = BlockingPipeline([LengthFilter(0.6), MinHashLSH()])
        assert not pipeline.supports_threshold(0.5)
        assert pipeline.supports_threshold(0.7)

    def test_prune_drops_incompatible_sizes(self):
        blocker = LengthFilter(0.5).fit([["a", "b", "c", "d"], ["a"], ["a", "b", "c"]])
        survivors = blocker.prune({"a", "b", "c", "d"}, {0, 1, 2})
        assert survivors == {0, 2}  # |D|=1 cannot reach Jaccard 0.5 vs |Q|=4

    def test_zero_threshold_is_noop(self):
        blocker = LengthFilter(0.0).fit([["a"], ["a", "b", "c", "d", "e"]])
        assert blocker.prune({"a"}, {0, 1}) == {0, 1}
        assert blocker.partners(0) is None

    def test_partners_symmetric_compatibility(self):
        blocker = LengthFilter(0.5).fit([["a"], ["a", "b"], ["a", "b", "c", "d"]])
        assert 1 in blocker.partners(0)  # 1/2 >= 0.5 possible
        assert 2 not in blocker.partners(0)  # 1/4 < 0.5 impossible
        assert 0 not in blocker.partners(2)

    def test_blocks_cover_all_compatible_pairs(self):
        token_lists = [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]
        blocker = LengthFilter(0.6).fit(token_lists)
        covered = set()
        for block in blocker.blocks():
            for left in block:
                for right in block:
                    if left < right:
                        covered.add((left, right))
        sizes = [len(set(tokens)) for tokens in token_lists]
        for left in range(4):
            for right in range(left + 1, 4):
                low, high = sorted((sizes[left], sizes[right]))
                if low / high >= 0.6:
                    assert (left, right) in covered

    @given(token_lists=_token_lists, threshold=_thresholds)
    @settings(max_examples=120, deadline=None)
    def test_never_drops_reachable_pair(self, token_lists, threshold):
        """Exactness: no pair with Jaccard >= threshold is ever pruned."""
        sets = [set(tokens) for tokens in token_lists]
        blocker = LengthFilter(threshold).fit(token_lists)
        universe = set(range(len(sets)))
        for qid, query in enumerate(sets):
            survivors = blocker.prune(set(query), universe)
            partners = blocker.partners(qid)
            for tid, candidate in enumerate(sets):
                if _jaccard(query, candidate) >= threshold and (query or candidate):
                    assert tid in survivors
                    if partners is not None:
                        assert tid in partners


class TestPrefixFilter:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PrefixFilter(-0.1)

    def test_prefix_length_formula(self):
        blocker = PrefixFilter(0.8)
        # |X|=10, needed overlap ceil(8)=8 -> prefix 10-8+1=3
        assert blocker.prefix_length(10) == 3
        assert blocker.prefix_length(0) == 0
        assert PrefixFilter(0.0).prefix_length(7) == 7

    def test_probe_tokens_prefers_rare_tokens(self):
        token_lists = [["r1", "c"], ["r2", "c"], ["r3", "c"], ["r4", "c"]]
        blocker = PrefixFilter(0.5).fit(token_lists)
        probe = blocker.probe_tokens({"r1", "c"})
        # prefix length 2 here, but rare token must come first in the order
        assert "r1" in probe

    def test_probe_tokens_shrinks_query(self):
        corpus = [["a", "b", "c", "d", "e", "f"]] * 3
        blocker = PrefixFilter(0.9).fit(corpus)
        probe = blocker.probe_tokens({"a", "b", "c", "d", "e", "f"})
        assert len(probe) == blocker.prefix_length(6) == 1

    @given(token_lists=_token_lists, threshold=_thresholds)
    @settings(max_examples=120, deadline=None)
    def test_never_drops_reachable_pair(self, token_lists, threshold):
        """Exactness of both the probe path and the partners (pair) path."""
        sets = [set(tokens) for tokens in token_lists]
        blocker = PrefixFilter(threshold).fit(token_lists)
        index = InvertedIndex(token_lists)
        for qid, query in enumerate(sets):
            probed = index.candidates(query, blocker=blocker)
            partners = blocker.partners(qid)
            for tid, candidate in enumerate(sets):
                if query and _jaccard(query, candidate) >= threshold:
                    assert tid in probed
                    if partners is not None:
                        assert tid in partners


class TestMinHashLSH:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MinHashLSH(num_bands=0)

    def test_num_hashes(self):
        assert MinHashLSH(num_bands=8, rows_per_band=3).num_hashes == 24

    def test_candidate_probability_s_curve(self):
        blocker = MinHashLSH(num_bands=16, rows_per_band=4)
        assert blocker.candidate_probability(1.0) == pytest.approx(1.0)
        assert blocker.candidate_probability(0.0) == pytest.approx(0.0)
        assert blocker.candidate_probability(0.9) > blocker.candidate_probability(0.3)
        with pytest.raises(ValueError):
            blocker.candidate_probability(1.5)

    def test_identical_sets_always_collide(self):
        token_lists = [["x", "y", "z"], ["x", "y", "z"], ["p", "q"]]
        blocker = MinHashLSH(num_bands=4, rows_per_band=2).fit(token_lists)
        assert 1 in blocker.partners(0)
        assert blocker.prune({"x", "y", "z"}, {0, 1, 2}) >= {0, 1}

    def test_partners_include_self(self):
        blocker = MinHashLSH().fit([["a", "b"], ["c", "d"]])
        assert 0 in blocker.partners(0)

    def test_blocks_are_multi_member_buckets(self):
        token_lists = [["x", "y", "z"], ["x", "y", "z"], ["zz", "qq"]]
        blocker = MinHashLSH(num_bands=4, rows_per_band=2).fit(token_lists)
        for block in blocker.blocks():
            assert len(block) >= 2

    def test_deterministic_across_fits(self):
        token_lists = [["a", "b", "c"], ["a", "b"], ["x", "y"]]
        first = MinHashLSH(num_bands=8, rows_per_band=2).fit(token_lists)
        second = MinHashLSH(num_bands=8, rows_per_band=2).fit(token_lists)
        for tid in range(3):
            assert first.partners(tid) == second.partners(tid)

    def test_recall_against_unblocked_self_join(self, small_dataset):
        """LSH blocking keeps (nearly) all true matches on a dirty dataset."""
        strings = small_dataset.strings[:250]
        threshold = 0.6
        base = ApproximateJoiner(strings, predicate="jaccard", threshold=threshold)
        baseline_pairs = {
            (match.left_id, match.right_id) for match in base.self_join()
        }
        baseline_stats = base.last_self_join_stats
        assert baseline_pairs  # the generated dataset has known duplicates

        blocked = ApproximateJoiner(
            strings,
            predicate="jaccard",
            threshold=threshold,
            blocker=MinHashLSH(num_bands=24, rows_per_band=3),
        )
        blocked_pairs = {
            (match.left_id, match.right_id) for match in blocked.self_join()
        }
        blocked_stats = blocked.last_self_join_stats

        recall = len(blocked_pairs & baseline_pairs) / len(baseline_pairs)
        assert recall >= 0.95
        assert blocked_pairs <= baseline_pairs  # LSH can drop but never invent
        assert blocked_stats.pairs_examined < baseline_stats.pairs_examined


class TestBlockingPipeline:
    def test_requires_stages(self):
        with pytest.raises(ValueError):
            BlockingPipeline([])

    def test_name_and_exactness(self):
        exact = BlockingPipeline([LengthFilter(0.5), PrefixFilter(0.5)])
        assert exact.name == "length+prefix"
        assert exact.exact is True
        mixed = BlockingPipeline([LengthFilter(0.5), MinHashLSH()])
        assert mixed.exact is False

    def test_prune_intersects_stages(self):
        token_lists = [["a", "b", "c", "d"], ["a"], ["a", "b", "c"]]
        pipeline = BlockingPipeline([LengthFilter(0.5), PrefixFilter(0.5)])
        pipeline.fit(token_lists)
        survivors = pipeline.prune({"a", "b", "c", "d"}, {0, 1, 2})
        assert 1 not in survivors  # dropped by the length stage

    def test_stage_stats_collected(self):
        pipeline = BlockingPipeline([LengthFilter(0.5), PrefixFilter(0.5)])
        pipeline.fit([["a", "b"], ["a"], ["a", "b", "c", "d", "e"]])
        pipeline.prune({"a", "b"}, {0, 1, 2})
        names = [name for name, _ in pipeline.stage_stats()]
        assert names == ["length", "prefix"]
        assert pipeline.stats.probes == 1
        assert pipeline.stage_stats()[0][1].probes == 1
        pipeline.reset_stats()
        assert pipeline.stage_stats()[0][1].probes == 0

    @given(token_lists=_token_lists, threshold=_thresholds)
    @settings(max_examples=60, deadline=None)
    def test_exact_pipeline_never_drops_reachable_pair(self, token_lists, threshold):
        sets = [set(tokens) for tokens in token_lists]
        pipeline = BlockingPipeline([LengthFilter(threshold), PrefixFilter(threshold)])
        pipeline.fit(token_lists)
        index = InvertedIndex(token_lists)
        for qid, query in enumerate(sets):
            probed = index.candidates(query, blocker=pipeline)
            partners = pipeline.partners(qid)
            for tid, candidate in enumerate(sets):
                if query and _jaccard(query, candidate) >= threshold:
                    assert tid in probed
                    if partners is not None:
                        assert tid in partners


class TestMakeBlocker:
    def test_none_specs(self):
        assert make_blocker(None) is None
        assert make_blocker("none") is None
        assert make_blocker("") is None

    def test_single_stages(self):
        assert isinstance(make_blocker("length", threshold=0.5), LengthFilter)
        assert isinstance(make_blocker("prefix", threshold=0.5), PrefixFilter)
        assert isinstance(make_blocker("lsh"), MinHashLSH)

    def test_pipeline_spec(self):
        blocker = make_blocker("length+prefix+lsh", threshold=0.5, lsh_bands=8)
        assert isinstance(blocker, BlockingPipeline)
        assert [stage.name for stage in blocker.stages] == ["length", "prefix", "lsh"]
        assert blocker.stages[2].num_bands == 8

    def test_exact_filters_require_threshold(self):
        with pytest.raises(ValueError):
            make_blocker("length")
        with pytest.raises(ValueError):
            make_blocker("prefix")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_blocker("sorted-neighborhood")

    def test_blocker_names_constant(self):
        assert set(BLOCKER_NAMES) == {"length", "prefix", "lsh"}


class TestPredicateIntegration:
    def test_set_blocker_after_fit(self, company_strings):
        predicate = Jaccard().fit(company_strings)
        blocker = LengthFilter(0.5)
        predicate.set_blocker(blocker)
        assert blocker.is_fitted
        assert predicate.blocker is blocker

    def test_set_blocker_before_fit(self, company_strings):
        predicate = Jaccard()
        predicate.set_blocker(LengthFilter(0.5))
        predicate.fit(company_strings)
        assert predicate.blocker.is_fitted

    def test_blocked_select_is_subset_of_unblocked(self, company_strings):
        query = "Beijing Hotel"
        plain = Jaccard().fit(company_strings)
        blocked = Jaccard().set_blocker(LengthFilter(0.5)).fit(company_strings)
        plain_ids = {st.tid for st in plain.select(query, 0.5)}
        blocked_ids = {st.tid for st in blocked.select(query, 0.5)}
        assert blocked_ids == plain_ids  # exact filter at matching threshold

    def test_exact_filter_preserves_thresholded_scores(self, company_strings):
        threshold = 0.6
        plain = Jaccard().fit(company_strings)
        blocked = (
            Jaccard()
            .set_blocker(BlockingPipeline([LengthFilter(threshold), PrefixFilter(threshold)]))
            .fit(company_strings)
        )
        for query in company_strings:
            assert blocked.select(query, threshold) == plain.select(query, threshold)

    def test_generic_path_predicates_accept_blockers(self, company_strings):
        """Non-overlap predicates (e.g. BM25) filter candidates after scoring."""
        predicate = make_predicate("bm25")
        with pytest.warns(UserWarning, match="heuristic"):
            predicate.set_blocker(LengthFilter(0.5))
        predicate.fit(company_strings)
        results = predicate.rank("Beijing Hotel")
        assert results  # still finds the near-duplicates
        assert predicate.last_num_candidates == len(results)

    def test_jaccard_blocker_on_score_predicate_warns(self, company_strings):
        """Length/prefix bounds are Jaccard semantics; on BM25 they are heuristics."""
        with pytest.warns(UserWarning, match="Jaccard"):
            make_predicate("bm25").set_blocker(PrefixFilter(0.5))

    def test_jaccard_blocker_on_jaccard_predicate_is_silent(self, company_strings):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Jaccard().set_blocker(LengthFilter(0.5))
            Jaccard().set_blocker(MinHashLSH())  # LSH is predicate-agnostic
            make_predicate("bm25").set_blocker(MinHashLSH())

    def test_select_below_blocker_threshold_raises(self, company_strings):
        """An exact blocker built for t must refuse selections below t."""
        predicate = Jaccard().set_blocker(LengthFilter(0.8)).fit(company_strings)
        with pytest.raises(ValueError, match="below the threshold"):
            predicate.select("Beijing Hotel", 0.3)
        # At or above the blocker's threshold everything still works.
        assert predicate.select("Beijing Hotel", 0.8)
        assert predicate.select("Beijing Hotel", 0.9) is not None

    def test_restrict_candidates_context(self, company_strings):
        predicate = Jaccard().fit(company_strings)
        with predicate.restrict_candidates({5, 7}):
            ids = {st.tid for st in predicate.rank("Beijing Hotel")}
            assert ids <= {5, 7}
        # restriction is scoped: everything is a candidate again afterwards
        assert len(predicate.rank("Beijing Hotel")) > 2

    def test_last_num_candidates_tracks_scored_set(self, company_strings):
        predicate = Jaccard().fit(company_strings)
        predicate.rank("Beijing Hotel")
        unblocked = predicate.last_num_candidates
        predicate.set_blocker(LengthFilter(0.6))
        predicate.rank("Beijing Hotel")
        assert predicate.last_num_candidates <= unblocked


class TestJoinerIntegration:
    def test_exact_blocked_self_join_is_byte_identical(self, company_strings):
        threshold = 0.5
        base = ApproximateJoiner(company_strings, predicate="jaccard", threshold=threshold)
        baseline = base.self_join()
        for spec in ("length", "prefix", "length+prefix"):
            joiner = ApproximateJoiner(
                company_strings,
                predicate="jaccard",
                threshold=threshold,
                blocker=make_blocker(spec, threshold=threshold),
            )
            assert joiner.self_join() == baseline

    def test_blocked_self_join_examines_fewer_pairs(self, company_strings):
        threshold = 0.5
        base = ApproximateJoiner(company_strings, predicate="jaccard", threshold=threshold)
        base.self_join()
        blocked = ApproximateJoiner(
            company_strings,
            predicate="jaccard",
            threshold=threshold,
            blocker=make_blocker("length+prefix", threshold=threshold),
        )
        blocked.self_join()
        assert (
            blocked.last_self_join_stats.pairs_examined
            < base.last_self_join_stats.pairs_examined
        )

    def test_singleton_blocks_skip_probing(self):
        # "zz...z" shares no bigram with anything and is far longer than the
        # rest, so the length filter puts it in a singleton block.
        strings = ["abcd", "abce", "zzzzzzzzzzzzzzzzzzzzzzzz"]
        joiner = ApproximateJoiner(
            strings,
            predicate="jaccard",
            threshold=0.5,
            blocker=LengthFilter(0.5),
        )
        joiner.self_join()
        assert joiner.last_self_join_stats.probes_skipped >= 1

    def test_blocked_self_join_include_identity(self, company_strings):
        threshold = 0.99
        joiner = ApproximateJoiner(
            company_strings,
            predicate="jaccard",
            threshold=threshold,
            blocker=LengthFilter(threshold),
        )
        matches = joiner.self_join(include_identity=True)
        identity = [m for m in matches if m.left_id == m.right_id]
        assert len(identity) == len(company_strings)

    def test_join_with_blocker_prunes_probes(self, company_strings):
        joiner = ApproximateJoiner(
            company_strings,
            predicate="jaccard",
            threshold=0.5,
            blocker=make_blocker("length+prefix", threshold=0.5),
        )
        matches = joiner.join(["Beijing Hotel"])
        assert {match.right_text for match in matches} >= {"Beijing Hotel", "Hotel Beijing"}

    def test_self_join_threshold_override_below_blocker_raises(self, company_strings):
        """Regression: a lower per-call threshold must not silently over-prune."""
        joiner = ApproximateJoiner(
            company_strings,
            predicate="jaccard",
            threshold=0.8,
            blocker=LengthFilter(0.8),
        )
        with pytest.raises(ValueError, match="below the threshold"):
            joiner.self_join(threshold=0.3)
        with pytest.raises(ValueError, match="below the threshold"):
            joiner.join(["Beijing Hotel"], threshold=0.3)
        # Even when every probe would be skipped via singleton blocks (the
        # predicate-level guard is never reached), self_join must still raise.
        all_singletons = ApproximateJoiner(
            ["abcdefgh", "abcd"],
            predicate="jaccard",
            threshold=0.8,
            blocker=LengthFilter(0.8),
        )
        with pytest.raises(ValueError, match="below the threshold"):
            all_singletons.self_join(threshold=0.3)
        # Raising the threshold keeps the filter exact and is allowed.
        unblocked = ApproximateJoiner(
            company_strings, predicate="jaccard", threshold=0.8
        ).self_join(threshold=0.9)
        assert joiner.self_join(threshold=0.9) == unblocked

    def test_blocker_property_exposed(self, company_strings):
        blocker = LengthFilter(0.5)
        joiner = ApproximateJoiner(
            company_strings, predicate="jaccard", threshold=0.5, blocker=blocker
        )
        assert joiner.blocker is blocker
        assert ApproximateJoiner(company_strings, predicate="jaccard").blocker is None


class TestDeduplicatorIntegration:
    def test_exact_blocker_gives_identical_clusters(self, small_dataset):
        strings = small_dataset.strings[:150]
        plain = Deduplicator(strings, predicate="jaccard", threshold=0.55)
        blocked = Deduplicator(
            strings,
            predicate="jaccard",
            threshold=0.55,
            blocker=make_blocker("length+prefix", threshold=0.55),
        )
        assert blocked.clusters() == plain.clusters()
        assert blocked.blocker is not None

    def test_lsh_blocked_quality_stays_close(self, small_dataset):
        strings = small_dataset.strings[:150]
        truth = small_dataset.cluster_ids[:150]
        plain = Deduplicator(strings, predicate="jaccard", threshold=0.55)
        blocked = Deduplicator(
            strings,
            predicate="jaccard",
            threshold=0.55,
            blocker=MinHashLSH(num_bands=24, rows_per_band=3),
        )
        plain_quality = plain.quality(truth)
        blocked_quality = blocked.quality(truth)
        assert blocked_quality.f1 >= plain_quality.f1 - 0.05


class TestBlockerABC:
    def test_default_hooks_are_noops(self):
        class Passthrough(Blocker):
            name = "passthrough"

            def _fit(self, token_sets):
                pass

        blocker = Passthrough().fit([["a"], ["b"]])
        assert blocker.probe_tokens({"a"}) == {"a"}
        assert blocker.prune({"a"}, {0, 1}) == {0, 1}
        assert blocker.partners(0) is None
        assert blocker.blocks() is None
        assert blocker.num_tuples == 2

    def test_fit_strings_uses_tokenizer(self):
        blocker = LengthFilter(0.5, tokenizer=QgramTokenizer(q=3))
        blocker.fit_strings(["ab", "abcdef"])
        assert blocker.is_fitted
        assert blocker.num_tuples == 2
