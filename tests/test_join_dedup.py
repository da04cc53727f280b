"""Unit and integration tests for the approximate join and deduplication."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.dedup import ClusteringQuality, Deduplicator, UnionFind
from repro.core.join import ApproximateJoiner, JoinMatch, SelfJoinStats
from repro.core.predicates import Jaccard
from repro.core.predicates.base import Match, Predicate


class _UnsortedPredicate(Predicate):
    """Pathological predicate whose select() ignores rank order entirely."""

    name = "unsorted"

    def tokenize_phase(self) -> None:
        pass

    def weight_phase(self) -> None:
        pass

    def _scores(self, query):
        return kernels.Scores.from_dict({0: 0.1, 1: 0.9, 2: 0.5})

    def select(self, query, threshold):
        # Deliberately worst-score-first to exercise the join's top_k sort.
        return [Match(0, 0.1), Match(2, 0.5), Match(1, 0.9)]


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(4)
        assert len(uf.groups()) == 4

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1) is True
        assert uf.union(1, 2) is True
        assert uf.union(0, 2) is False  # already connected
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_groups_partition_everything(self):
        uf = UnionFind(6)
        uf.union(0, 5)
        uf.union(2, 3)
        groups = uf.groups()
        members = sorted(tid for group in groups.values() for tid in group)
        assert members == list(range(6))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
    @settings(max_examples=40)
    def test_transitivity_property(self, edges):
        uf = UnionFind(20)
        for left, right in edges:
            uf.union(left, right)
        # connectivity is an equivalence relation: same-root pairs share groups
        groups = uf.groups()
        for root, members in groups.items():
            for member in members:
                assert uf.find(member) == root


class TestApproximateJoiner:
    def test_basic_join(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.4)
        matches = joiner.join(["AT&T Incorporated"])
        assert any(match.right_text == "AT&T Incorporated" for match in matches)
        for match in matches:
            assert isinstance(match, JoinMatch)
            assert match.score >= 0.4
            assert match.left_id == 0

    def test_join_with_predicate_instance(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate=Jaccard(), threshold=0.3)
        assert joiner.predicate.name == "Jaccard"

    def test_kwargs_only_with_name(self, company_strings):
        with pytest.raises(ValueError):
            ApproximateJoiner(company_strings, predicate=Jaccard(), q=3)

    def test_top_k_limits_matches_per_probe(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.1)
        matches = joiner.join(["Beijing Hotel"], top_k=1)
        assert len(matches) == 1
        assert matches[0].right_text in ("Beijing Hotel", "Hotel Beijing")

    def test_top_k_keeps_highest_scores_even_if_predicate_unsorted(self):
        """Regression: top_k must keep the k best matches, not the k first."""
        joiner = ApproximateJoiner(
            ["a", "b", "c"], predicate=_UnsortedPredicate(), threshold=0.0
        )
        matches = joiner.join(["query"], top_k=2)
        assert [match.right_id for match in matches] == [1, 2]
        assert [match.score for match in matches] == [0.9, 0.5]

    def test_top_k_rejects_negative(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.1)
        with pytest.raises(ValueError):
            joiner.join(["Beijing Hotel"], top_k=-1)

    def test_self_join_records_stats(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.5)
        matches = joiner.self_join()
        stats = joiner.last_self_join_stats
        assert isinstance(stats, SelfJoinStats)
        assert stats.probes == len(company_strings)
        assert stats.pairs_emitted == len(matches)
        assert stats.pairs_examined >= stats.pairs_emitted

    def test_iter_join_streams(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.9)
        streamed = list(joiner.iter_join(["Beijing Hotel", "nothing similar"]))
        assert all(match.left_id == 0 for match in streamed)

    def test_self_join_reports_each_pair_once(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.5)
        pairs = {(match.left_id, match.right_id) for match in joiner.self_join()}
        assert all(left < right for left, right in pairs)
        # Beijing Hotel / Hotel Beijing are near-identical under q-grams.
        assert (5, 7) in pairs

    def test_self_join_identity_flag(self, company_strings):
        joiner = ApproximateJoiner(company_strings, predicate="jaccard", threshold=0.99)
        with_identity = joiner.self_join(include_identity=True)
        assert any(match.left_id == match.right_id for match in with_identity)

    def test_threshold_validation(self, company_strings):
        with pytest.raises(ValueError):
            ApproximateJoiner(company_strings, predicate="jaccard", threshold=-0.5)

    def test_probe_relation_different_from_base(self, company_strings):
        queries = ["Morgn Stanley Group", "Beijing Htoel"]
        joiner = ApproximateJoiner(company_strings, predicate="bm25", threshold=0.0)
        matches = joiner.join(queries, top_k=1)
        assert len(matches) == 2
        assert matches[0].right_id == 0
        assert matches[1].right_id in (5, 7)


class TestDeduplicator:
    def test_clusters_partition_the_relation(self, company_strings):
        dedup = Deduplicator(company_strings, predicate="jaccard", threshold=0.6)
        clusters = dedup.clusters()
        members = sorted(tid for cluster in clusters for tid in cluster.members)
        assert members == list(range(len(company_strings)))

    def test_known_duplicates_clustered_together(self, company_strings):
        dedup = Deduplicator(company_strings, predicate="jaccard", threshold=0.6)
        labels = dedup.assignments()
        assert labels[5] == labels[7]          # Beijing Hotel / Hotel Beijing
        assert labels[5] != labels[1]          # unrelated company

    def test_representative_is_longest_member(self, company_strings):
        dedup = Deduplicator(company_strings, predicate="jaccard", threshold=0.6)
        for cluster in dedup.clusters():
            assert cluster.representative == max(
                (company_strings[tid] for tid in cluster.members), key=len
            )

    def test_high_threshold_yields_singletons(self, company_strings):
        dedup = Deduplicator(company_strings, predicate="jaccard", threshold=0.999)
        clusters = dedup.clusters()
        # Only the q-gram-identical pair may merge; everything else is a singleton.
        assert len(clusters) >= len(company_strings) - 1

    def test_quality_against_ground_truth(self, small_dataset):
        strings = small_dataset.strings[:150]
        truth = small_dataset.cluster_ids[:150]
        dedup = Deduplicator(strings, predicate="jaccard", threshold=0.55)
        quality = dedup.quality(truth)
        assert isinstance(quality, ClusteringQuality)
        assert 0.0 <= quality.precision <= 1.0
        assert 0.0 <= quality.recall <= 1.0
        assert quality.f1 > 0.3  # far better than random clustering
        assert quality.num_true_pairs > 0

    def test_quality_length_mismatch(self, company_strings):
        dedup = Deduplicator(company_strings, predicate="jaccard")
        with pytest.raises(ValueError):
            dedup.quality([0, 1])

    def test_threshold_tradeoff(self, small_dataset):
        """Lower thresholds raise recall; higher thresholds raise precision."""
        strings = small_dataset.strings[:120]
        truth = small_dataset.cluster_ids[:120]
        dedup = Deduplicator(strings, predicate="jaccard")
        loose = dedup.quality(truth, threshold=0.35)
        strict = dedup.quality(truth, threshold=0.8)
        assert loose.recall >= strict.recall - 1e-9
        assert strict.precision >= loose.precision - 0.05


def test_exact_blocker_match_sets_identical_through_engine():
    """Miniature of the ``blocking`` case of benchmarks/paper.py: the exact
    filters leave the self-join match set byte-identical and examine no
    more pairs."""
    from repro.datagen import make_dataset
    from repro.engine import SimilarityEngine

    rows = make_dataset("CU1", size=40, num_clean=10, seed=7).strings
    base = SimilarityEngine().from_strings(rows)
    baseline_query = base.predicate("jaccard")
    baseline = baseline_query.self_join(0.6)
    baseline_examined = baseline_query.last_self_join_stats.pairs_examined
    for spec in ("length", "prefix", "length+prefix"):
        blocked_query = base.predicate("jaccard").blocker(spec)
        assert blocked_query.self_join(0.6) == baseline, spec
        assert (
            blocked_query.last_self_join_stats.pairs_examined <= baseline_examined
        ), spec
