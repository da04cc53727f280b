"""End-to-end integration tests on small generated datasets (the paper's
experiments live in benchmarks/paper.py, their accuracy numbers in
tests/golden/accuracy.json)."""

from __future__ import annotations

import pytest

from repro.datagen import make_dataset
from repro.engine import SimilarityEngine
from repro.eval import ExperimentRunner, IdfPruner


@pytest.fixture(scope="module")
def dirty_dataset():
    """A scaled-down CU1 (dirty) dataset."""
    return make_dataset("CU1", size=400, num_clean=60, seed=7)


class TestPaperFindings:
    """The accuracy findings themselves (Figure 5.1, Tables 5.5 and 5.6) are
    pinned cell by cell in ``tests/golden/accuracy.json``
    (``tests/test_accuracy_golden.py``, and ``benchmarks/paper.py``'s shape
    checks)."""

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
