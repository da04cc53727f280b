"""Engine parity suite: every predicate, every realization, every backend.

The acceptance bar for the unified engine: for each registered predicate the
*same* :class:`repro.engine.query.Query` call must return identical rankings
whether it executes the direct in-memory realization or the declarative SQL
realization on either backend, on a small UIS-style generated dataset.

Rankings are compared as tid sequences up to permutations within
floating-point score ties (both realizations sort by ``(-score, tid)``, but
scores that differ only in the last few ulps may order two tuples
differently across realizations).
"""

from __future__ import annotations

import pytest

from repro.datagen import make_dataset
from repro.engine import SimilarityEngine, available_predicates

#: All realization/backend combinations the engine must agree across.
CONFIGURATIONS = [
    ("direct", "memory"),
    ("declarative", "memory"),
    ("declarative", "sqlite"),
]

#: Predicates whose scores are identical across realizations; the remaining
#: combination predicates (soft_tfidf, ges_jaccard, ges_apx) keep/drop
#: query-constant factors in their SQL filter step, so only their rankings
#: are compared.
SCORE_EXACT = {
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "hmm",
    "lm",
    "edit_distance",
    "ges",
}

#: Extra constructor arguments needed on the small dataset (the GES filters'
#: default 0.8 threshold empties candidate sets on heavily-erroneous data).
#: ges_apx must stay above the filter's q-gram adjustment constant
#: ``1 - 1/q = 0.5``: below it the filter degenerates to "pass everything",
#: where the direct realization admits q-gram-sharing candidates with zero
#: min-hash collisions that the declarative min-hash join can never produce.
#: It must also avoid the filter-score lattice (multiples of 0.025 with five
#: hashes and equal word weights), where float summation order decides which
#: side of the threshold a candidate falls on.
PREDICATE_KWARGS = {
    "ges_jaccard": {"threshold": 0.3},
    "ges_apx": {"threshold": 0.53},
}


@pytest.fixture(scope="module")
def uis_dataset():
    """A small UIS-style dataset (kept small: the in-memory SQL engine is a
    nested-loop engine and the suite runs 13 predicates x 3 configurations)."""
    return make_dataset("CU1", size=40, num_clean=10, seed=7)


@pytest.fixture(scope="module")
def parity_queries(uis_dataset):
    tids = uis_dataset.sample_query_tids(4, seed=3)
    return [uis_dataset.records[tid].text for tid in tids]


@pytest.fixture(scope="module")
def engine():
    return SimilarityEngine()


def _ranking_groups(matches, tolerance=1e-8):
    """Collapse a ranking into score-tie groups of tids (order-insensitive
    within a group, ordered across groups)."""
    groups = []
    current = []
    last_score = None
    for match in matches:
        if last_score is not None and abs(match.score - last_score) > tolerance:
            groups.append(frozenset(current))
            current = []
        current.append(match.tid)
        last_score = match.score
    if current:
        groups.append(frozenset(current))
    return groups


def assert_same_ranking(reference, other, context):
    assert _ranking_groups(reference) == _ranking_groups(other), context


@pytest.mark.parametrize("name", sorted(available_predicates()))
def test_identical_rankings_across_realizations_and_backends(
    name, engine, uis_dataset, parity_queries
):
    kwargs = PREDICATE_KWARGS.get(name, {})
    base = engine.from_strings(uis_dataset.strings)
    queries = {
        (realization, backend): base.predicate(name, **kwargs)
        .realization(realization)
        .backend(backend)
        for realization, backend in CONFIGURATIONS
    }
    for text in parity_queries:
        reference = queries[("direct", "memory")].rank(text)
        for (realization, backend), query in queries.items():
            ranking = query.rank(text)
            context = (name, realization, backend, text)
            assert_same_ranking(reference, ranking, context)
            if name in SCORE_EXACT:
                assert len(ranking) == len(reference), context
                scores = {match.tid: match.score for match in ranking}
                for match in reference:
                    assert scores[match.tid] == pytest.approx(
                        match.score, rel=1e-6, abs=1e-9
                    ), context


@pytest.mark.parametrize("name", sorted(available_predicates()))
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_batched_equals_sequential_for_every_predicate(
    name, backend, engine, uis_dataset, parity_queries
):
    """The batched SQL path (one statement per batch) must agree with the
    sequential per-query path, per predicate and per backend: same tids in
    the same tie-group order, scores equal to float noise."""
    kwargs = PREDICATE_KWARGS.get(name, {})
    query = (
        engine.from_strings(uis_dataset.strings)
        .predicate(name, **kwargs)
        .realization("declarative")
        .backend(backend)
    )
    batched = query.run_many(parity_queries, op="rank")
    for text, batch_ranking in zip(parity_queries, batched):
        sequential = query.rank(text)
        context = (name, backend, text)
        assert_same_ranking(sequential, batch_ranking, context)
        assert len(batch_ranking) == len(sequential), context
        scores = {match.tid: match.score for match in batch_ranking}
        for match in sequential:
            assert scores[match.tid] == pytest.approx(
                match.score, rel=1e-9, abs=1e-12
            ), context


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_batched_top_k_and_select_agree(backend, engine, uis_dataset, parity_queries):
    """run_many's op variants equal their single-query counterparts."""
    query = (
        engine.from_strings(uis_dataset.strings)
        .predicate("jaccard")
        .realization("declarative")
        .backend(backend)
    )
    top = query.run_many(parity_queries, op="top_k", k=3)
    sel = query.run_many(parity_queries, op="select", threshold=0.4)
    for text, top_batch, sel_batch in zip(parity_queries, top, sel):
        assert [m.tid for m in top_batch] == [m.tid for m in query.top_k(text, 3)]
        assert [m.tid for m in sel_batch] == [m.tid for m in query.select(text, 0.4)]


def test_top_k_and_select_agree_across_realizations(engine, uis_dataset):
    """The same Query call agrees for the other terminal operations too."""
    text = uis_dataset.records[0].text
    base = engine.from_strings(uis_dataset.strings)
    direct = base.predicate("jaccard")
    for realization, backend in CONFIGURATIONS[1:]:
        declarative = base.predicate("jaccard").realization(realization).backend(backend)
        assert [m.tid for m in declarative.top_k(text, 5)] == [
            m.tid for m in direct.top_k(text, 5)
        ]
        assert [(m.tid, m.string) for m in declarative.select(text, 0.4)] == [
            (m.tid, m.string) for m in direct.select(text, 0.4)
        ]


def test_exact_blocker_match_sets_identical_through_engine(engine, uis_dataset):
    """Miniature of the ``blocking`` case of benchmarks/paper.py: the
    exact filters must leave the self-join match set byte-identical."""
    base = engine.from_strings(uis_dataset.strings)
    baseline_query = base.predicate("jaccard")
    baseline = baseline_query.self_join(0.6)
    baseline_examined = baseline_query.last_self_join_stats.pairs_examined
    for spec in ("length", "prefix", "length+prefix"):
        blocked_query = base.predicate("jaccard").blocker(spec)
        blocked = blocked_query.self_join(0.6)
        assert blocked == baseline, spec
        assert (
            blocked_query.last_self_join_stats.pairs_examined <= baseline_examined
        ), spec
