"""Data de-duplication on a generated dirty dataset.

Run with::

    python examples/deduplication.py

The paper's motivating application is data cleaning: a relation accumulates
erroneous duplicates (typos, token swaps, abbreviation changes) and
approximate selections retrieve every version of a record.  This example

1. generates a dirty company-names dataset (the CU1 configuration of Table
   5.3, scaled down),
2. runs an approximate selection for a sample of records under two
   predicates (plain Jaccard and BM25), and
3. reports mean average precision against the generator's ground-truth
   clusters, reproducing the accuracy gap the paper measures.
"""

from __future__ import annotations

from repro import SimilarityEngine
from repro.datagen import make_dataset
from repro.eval import ExperimentRunner

DATASET_SIZE = 600
NUM_CLEAN = 100
NUM_QUERIES = 40


def main() -> None:
    dataset = make_dataset("CU1", size=DATASET_SIZE, num_clean=NUM_CLEAN, seed=2025)
    print(
        f"Generated dirty dataset CU1: {len(dataset)} tuples, "
        f"{dataset.num_clusters()} ground-truth clusters"
    )
    sample = dataset.records[1]
    clean = next(
        dataset.records[tid]
        for tid in dataset.cluster_members(sample.cluster_id)
        if dataset.records[tid].is_clean
    )
    print(f"  clean tuple    : {clean.text!r}")
    print(f"  dirty duplicate: {sample.text!r}\n")

    print("=== Retrieving the duplicates of one record (BM25, top cluster size) ===")
    query = SimilarityEngine().from_strings(dataset.strings).predicate("bm25")
    relevant = set(dataset.relevant_for(sample.tid))
    hits = 0
    for result in query.top_k(sample.text, k=len(relevant)):
        marker = "+" if result.tid in relevant else " "
        hits += result.tid in relevant
        print(f"  [{marker}] score={result.score:8.3f}  {result.string}")
    print(f"  -> {hits}/{len(relevant)} true duplicates in the top-{len(relevant)}\n")

    print("=== Accuracy over a query workload (mean average precision) ===")
    runner = ExperimentRunner(dataset, "CU1 (scaled)")
    for predicate in ("jaccard", "cosine", "bm25", "hmm"):
        result = runner.evaluate(predicate, num_queries=NUM_QUERIES)
        print(
            f"  {result.predicate_name:12s} MAP={result.mean_average_precision:.3f} "
            f"maxF1={result.mean_max_f1:.3f}"
        )
    print(
        "\nThe weighted probabilistic predicates (BM25, HMM) retrieve duplicates "
        "more accurately than the unweighted overlap predicates, matching the "
        "paper's findings on dirty data."
    )


if __name__ == "__main__":
    main()
