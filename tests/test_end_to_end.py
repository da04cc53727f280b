"""End-to-end integration tests reproducing the paper's qualitative findings
on small generated datasets (the full-size experiments live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.datagen import make_dataset
from repro.engine import SimilarityEngine
from repro.eval import ExperimentRunner, IdfPruner


@pytest.fixture(scope="module")
def dirty_dataset():
    """A scaled-down CU1 (dirty) dataset."""
    return make_dataset("CU1", size=400, num_clean=60, seed=7)


@pytest.fixture(scope="module")
def abbreviation_dataset():
    """A scaled-down F1 (abbreviation errors only) dataset."""
    return make_dataset("F1", size=300, num_clean=60, seed=7)


@pytest.fixture(scope="module")
def swap_dataset():
    """A scaled-down F2 (token swap errors only) dataset."""
    return make_dataset("F2", size=300, num_clean=60, seed=7)


class TestPaperFindings:
    def test_weighted_predicates_handle_abbreviations(self, abbreviation_dataset):
        """Table 5.5: weighted predicates have (near-)perfect accuracy on F1
        and do at least as well as the unweighted overlap predicates."""
        runner = ExperimentRunner(abbreviation_dataset, "F1")
        bm25 = runner.evaluate("bm25", num_queries=30)
        jaccard = runner.evaluate("jaccard", num_queries=30)
        assert bm25.mean_average_precision >= 0.9
        assert bm25.mean_average_precision >= jaccard.mean_average_precision - 1e-9

    def test_qgram_predicates_handle_token_swaps(self, swap_dataset):
        """Table 5.5: q-gram predicates are robust to token swaps, GES is not."""
        runner = ExperimentRunner(swap_dataset, "F2")
        bm25 = runner.evaluate("bm25", num_queries=30)
        ges = runner.evaluate("ges", num_queries=30)
        assert bm25.mean_average_precision >= 0.95
        assert bm25.mean_average_precision >= ges.mean_average_precision

    def test_probabilistic_predicates_lead_on_dirty_data(self, dirty_dataset):
        """Figure 5.1(c): BM25/HMM/LM beat the unweighted overlap predicates
        and edit distance on dirty data."""
        runner = ExperimentRunner(dirty_dataset, "CU1")
        names = ["bm25", "hmm", "lm", "intersect", "edit_distance"]
        results = {
            name: runner.evaluate(name, num_queries=30).mean_average_precision
            for name in names
        }
        best_probabilistic = max(results["bm25"], results["hmm"], results["lm"])
        assert best_probabilistic > results["intersect"]
        assert best_probabilistic > results["edit_distance"]

    def test_pruning_speeds_up_without_large_accuracy_loss(self, dirty_dataset):
        """Section 5.6: moderate IDF pruning keeps accuracy within a few points."""
        runner = ExperimentRunner(dirty_dataset, "CU1")
        baseline = runner.evaluate("jaccard", num_queries=25)
        pruner = IdfPruner(0.25)
        pruned_predicate = pruner.apply("jaccard", dirty_dataset.strings)
        pruned = runner.evaluate(pruned_predicate, num_queries=25)
        assert pruner.retained_fraction < 1.0
        assert pruned.mean_average_precision >= baseline.mean_average_precision - 0.05


class TestSelectorWorkflow:
    def test_deduplication_workflow(self, dirty_dataset):
        """The quickstart workflow: index a dirty relation, look up a record,
        and retrieve its duplicates."""
        query = SimilarityEngine().from_strings(dirty_dataset.strings).predicate("bm25")
        query_tid = 5
        query_text = dirty_dataset.strings[query_tid]
        relevant = set(dirty_dataset.relevant_for(query_tid))
        top = query.top_k(query_text, k=len(relevant))
        found = {result.tid for result in top}
        # At least half the duplicates are found in the top-|cluster| results.
        assert len(found & relevant) >= max(1, len(relevant) // 2)

    def test_threshold_selection_over_generated_data(self, dirty_dataset):
        query = SimilarityEngine().from_strings(dirty_dataset.strings).predicate("jaccard")
        results = query.select(dirty_dataset.strings[0], threshold=0.99)
        assert any(result.tid == 0 for result in results)

    def test_declarative_and_direct_agree_on_generated_data(self, dirty_dataset):
        from repro.declarative import make_declarative_predicate

        strings = dirty_dataset.strings[:120]
        direct = SimilarityEngine().from_strings(strings).predicate("bm25")
        declarative = make_declarative_predicate("bm25").preprocess(strings)
        query = strings[10]
        direct_top = [r.tid for r in direct.top_k(query, k=5)]
        declarative_top = [s.tid for s in declarative.rank(query, limit=5)]
        assert direct_top == declarative_top
