"""Every execution path against the reference scorer (``tests/reference.py``).

One hypothesis strategy draws a corpus (duplicate rows, empty strings and the
empty corpus included), a query, an operation with its ``k`` or threshold, a
blocker or a restriction, a realization, a sharding, a
tokenizer, whether other fits built the relation's cores first and whether
the call is served, and checks the answer against the reference scorer
fitted on the same rows:

* **direct paths** (unsharded, or 2 or 7 shards on the serial or thread
  executor; in-process or served) answer ``==`` the
  reference: the same tids in ``(-score, tid)`` order with equal floats;
* **declarative paths** (SQLite and the in-memory engine) answer the same
  tids with scores equal to 1e-9, where two tids may swap only inside a tie
  group of the reference; soft_tfidf, ges_jaccard and ges_apx keep or drop
  query-constant factors in their SQL (``RANKING_ONLY``), so only their
  rankings are compared;
* **blockers**: ``length+prefix`` bounds a Jaccard score, so at the
  selection's own threshold a blocked Jaccard ``select`` is the unblocked
  reference ``select``; any other blocking (LSH, ``length+prefix`` on the
  other predicates, a candidate restriction) answers a subsequence of the
  reference ranking with equal scores, and every operation then answers the
  reference restricted to the blocked ranking's tids;
* ``score(q, t)`` is the reference score of ``t`` when ``t`` is in the
  blocked ranking and ``0.0`` otherwise.

Fixed examples add a generated relation (longer, dirtier strings), candidate
sets past the numpy selection cutover, the exact blocker at every threshold
edge, the process executor (one module-scoped pool), and the smallest case
of each disagreement the reference found.
"""

from __future__ import annotations

import ast
import asyncio
import warnings
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as reference_module
from reference import PREDICATES, Reference
from repro.engine import SimilarityEngine
from repro.serve import SimilarityService
from repro.shard import ProcessShardExecutor
from repro.text.tokenize import QgramTokenizer, WordTokenizer

#: Declarative realizations whose SQL keeps or drops query-constant factors
#: (the filter step of the GES pair, SoftTFIDF's normalization): their scores
#: are not the paper's, their rankings are.
RANKING_ONLY = {"soft_tfidf", "ges_jaccard", "ges_apx"}

#: Constructor arguments, the same for the path and the reference.  The GES
#: filters' default 0.8 empties most candidate sets on short rows; ges_apx
#: stays above the filter's q-gram adjustment 1 - 1/q (0.5 at q = 2; below
#: it the filter passes tuples with no min-hash collision, which the
#: declarative min-hash join cannot produce) and off the lattice of filter
#: scores (multiples of 0.025 with five hashes and equal word weights).
PARAMS = {"ges_jaccard": {"threshold": 0.3}, "ges_apx": {"threshold": 0.53}}

#: The same at q = 3 (adjustment 2/3).
PARAMS_Q3 = {"ges_jaccard": {"threshold": 0.3}, "ges_apx": {"threshold": 0.71}}

#: Known departures of the declarative realization from the formulas, each
#: recorded as a FOUND line in CHANGES.md and modelled by a reference flag
#: until it is mended: the join on token of these three admits tuples
#: sharing only tokens of weight 0.0 with the query (scored 0.0), where the
#: direct realization keeps no posting for a zero weight ...
ZERO_WEIGHT_CANDIDATES = {"bm25", "cosine", "weighted_match"}
#: ... and BM25's average tuple length leaves out tuples without a token
#: (an empty string under the word tokenizer).
AVGDL_SKIPS_EMPTY = {"bm25"}

#: The families over one token level, whose tokenizer is a parameter.
TOKEN_FAMILIES = set(PREDICATES[:8])

#: Declarative equality: scores to 1e-9, tids up to reference ties.
TIE = 1e-9

WORDS = ["ab", "ba", "abc", "aa", "b", "corp", "inc", "cop", "x", "o'r"]
texts = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)


@st.composite
def corpora(draw):
    rows = draw(st.lists(texts, max_size=7))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # duplicates
    return draw(st.permutations(rows))


@st.composite
def cases(draw):
    """One path, one operation, one corpus."""
    rows = draw(corpora())
    queries = draw(st.lists(st.one_of(texts, st.sampled_from(rows or [""])), min_size=1, max_size=3))
    # select twice as often: thresholds are where paths part (edit_distance
    # even has its own filter-and-verify select).
    op = draw(
        st.sampled_from(
            ["rank", "rank_limit", "top_k", "select", "select", "score"]
            + ["run_many:rank", "run_many:rank_limit", "run_many:top_k", "run_many:select"]
        )
    )
    # Direct paths are cheaper and have more legs: drawn half the time.
    realization = draw(st.sampled_from(["direct", "direct", "sqlite", "memory"]))
    blockers = ["none", "lsh"]
    if op.endswith("select") or op == "score":
        blockers.append("length+prefix")
    if realization == "direct":
        blockers.append("restriction")
    blocker = draw(st.sampled_from(blockers))
    shards, num_shards = "none", 1
    if realization == "direct":
        shards = draw(st.sampled_from(["none", "serial", "thread"]))
        num_shards = 1 if shards == "none" else draw(st.sampled_from([2, 7]))
    served = (
        op in ("rank", "rank_limit", "top_k", "select")
        and blocker == "none"
        and bool(rows)
        and draw(st.booleans())
    )
    return {
        "rows": rows,
        "queries": queries,
        "op": op,
        "k": draw(st.integers(0, 8)),
        "threshold": draw(st.sampled_from([-1.0, 0.0, 0.3, 0.5, 0.8, 1.0, 2.5])),
        # Or exactly the score of one of the first query's candidates.
        "threshold_at": draw(st.none() | st.integers(0, 9)),
        "realization": realization,
        "blocker": blocker,
        "allowed": draw(st.sets(st.integers(-2, len(rows) + 1))),
        "shards": shards,
        "num_shards": num_shards,
        "served": served,
        "tokenizer": "qgram" if served else draw(st.sampled_from(["qgram", "qgram3", "word"])),
        "shared_core": realization == "direct" and draw(st.booleans()),
    }


# -- comparing an answer with the reference ----------------------------------------


def _pairs(matches, rows=None):
    """``(tid, score)`` of each match; an engine's matches (``rows`` given)
    carry the matched string."""
    if rows is not None:
        assert [match.string for match in matches] == [rows[match.tid] for match in matches]
    return [(match.tid, match.score) for match in matches]


def _is_subsequence(got, ranking):
    remaining = iter(ranking)
    return all(any(item == other for other in remaining) for item in got)


def _cut(case, op, ranking):
    """An operation's answer cut from a full ranking."""
    if op in ("rank_limit", "top_k"):
        return ranking[: case["k"]]
    if op == "select":
        return [item for item in ranking if item[1] >= case["threshold"]]
    return ranking


def assert_tie_equal(got, want, ranking, ranking_only, context):
    """``got`` is ``want`` under the tie rule: equal length, scores to 1e-9
    (not compared for ``ranking_only``), and where the tids differ, ``got``'s
    is in the same reference tie group as ``want``'s."""
    assert len(got) == len(want), context
    assert len({tid for tid, _ in got}) == len(got), context
    reference = dict(ranking)
    for (tid, score), (want_tid, want_score) in zip(got, want):
        if not ranking_only:
            assert score == pytest.approx(want_score, rel=TIE, abs=TIE), context
        if tid != want_tid:
            assert tid in reference, context
            assert abs(reference[tid] - want_score) <= TIE, context


def _assert_declarative(case, op, got, ranking, optional, ranking_only, context):
    """A declarative answer against the reference ``ranking``.

    SQL arithmetic is not the reference's to the last bit, so a tuple the
    reference puts within 1e-9 of a threshold may fall either side of it:
    the GES filters' ``optional`` tuples (their filter score is that close
    to the filter threshold) and, for ``select``, tuples scoring that close
    to the selection threshold count as answered whichever way the SQL
    decided.  A ranking-only ``select`` thresholds the SQL's own scores, so
    its answer is a prefix of the ranking.
    """
    answered = {tid for tid, _ in got}
    ranking = [item for item in ranking if item[0] not in optional or item[0] in answered]
    if op == "select" and ranking_only:
        want = ranking[: len(got)]
    elif op == "select":
        threshold = case["threshold"]
        want = [
            item
            for item in ranking
            if (item[0] in answered if abs(item[1] - threshold) <= TIE else item[1] >= threshold)
        ]
    else:
        want = _cut(case, op, ranking)
    assert_tie_equal(got, want, ranking, ranking_only, context)


def _run(case, plan, query, op):
    """One operation through the engine ``plan`` (or its fitted predicate)."""
    if op == "rank":
        return plan.rank(query)
    if op == "rank_limit":
        return plan.rank(query, limit=case["k"])
    if op == "top_k":
        return plan.top_k(query, case["k"])
    return plan.select(query, case["threshold"])


def _run_many(case, plan, target, queries, op):
    kwargs = {
        "rank": {},
        "rank_limit": {"limit": case["k"]},
        "top_k": {"k": case["k"]},
        "select": {"threshold": case["threshold"]},
    }[op]
    if target is not plan:  # a restricted predicate: the engine's batch loop, by hand
        return [_pairs(_run(case, target, query, op)) for query in queries]
    batches = plan.run_many(queries, op="rank" if op == "rank_limit" else op, **kwargs)
    return [_pairs(ranked, case["rows"]) for ranked in batches]


def _serve(case, name, query, op):
    payload = {"text": query, "predicate": name, "op": "rank" if op == "rank_limit" else op}
    if op == "top_k":
        payload["k"] = case["k"]
    elif op == "rank_limit":
        payload["limit"] = case["k"]
    elif op == "select":
        payload["threshold"] = case["threshold"]
    if case["realization"] == "direct":
        if case["shards"] != "none":
            payload.update(num_shards=case["num_shards"], executor=case["shards"])
    else:
        payload.update(realization="declarative", backend=case["realization"])

    async def call():
        service = SimilarityService(batch_window=0.0)
        try:
            payload["corpus_id"] = service.register_corpus(case["rows"])[0]
            return await service.handle(payload)
        finally:
            service.close()

    envelope = asyncio.run(call())
    assert envelope["status"] == 200, envelope
    for row in envelope["matches"]:
        assert row["string"] == case["rows"][row["tid"]]
    return [(row["tid"], row["score"]) for row in envelope["matches"]]


class _Oracle:
    """The reference for one case, and which of its tuples are optional."""

    def __init__(self, name, rows, params, declarative):
        kwargs = dict(
            params,
            zero_weight_candidates=declarative and name in ZERO_WEIGHT_CANDIDATES,
            avgdl_skips_empty=declarative and name in AVGDL_SKIPS_EMPTY,
        )
        self.reference = Reference(name, rows, **kwargs)
        self.lenient = self.strict = self.reference
        if declarative and name in ("ges_jaccard", "ges_apx"):
            threshold = params.get("threshold", 0.8)
            self.lenient = Reference(name, rows, **dict(kwargs, threshold=threshold - TIE))
            self.strict = Reference(name, rows, **dict(kwargs, threshold=threshold + TIE))

    def ranking(self, query, allowed):
        return [
            item
            for item in self.lenient.rank(query)
            if allowed is None or item[0] in allowed
        ]

    def optional(self, query):
        return set(self.lenient.scores(query)) - set(self.strict.scores(query))


def check(name, case):
    rows, op, blocker = case["rows"], case["op"], case["blocker"]
    direct = case["realization"] == "direct"
    ranking_only = not direct and name in RANKING_ONLY
    # A served request names its predicate and takes its default parameters.
    params = {} if case["served"] else dict(PARAMS.get(name, {}))
    if case["tokenizer"] == "word" and name in TOKEN_FAMILIES:
        params["tokenizer"] = WordTokenizer()
    elif case["tokenizer"] == "qgram3" and (direct or name != "edit_distance"):
        # (The declarative edit distance has its q-gram length fixed at 2.)
        params = dict(PARAMS_Q3.get(name, {}))
        params.update({"tokenizer": QgramTokenizer(q=3)} if name in TOKEN_FAMILIES else {"q": 3})
    oracle = _Oracle(name, rows, params, not direct)
    scores = [score for _, score in oracle.reference.rank(case["queries"][0])]
    if case["threshold_at"] is not None and scores:
        case = dict(case, threshold=scores[case["threshold_at"] % len(scores)])
    if name == "edit_distance" or blocker == "length+prefix":
        # Both refuse a similarity threshold outside [0, 1].
        case = dict(case, threshold=min(max(case["threshold"], 0.0), 1.0))
    engine = SimilarityEngine()
    if case["shared_core"]:
        # Other predicates fitted first on the relation's q-gram and word
        # cores: a shared core answers like a private one.
        for other in ("jaccard", "soft_tfidf"):
            engine.from_strings(rows).predicate(other).fitted_predicate()
    plan = engine.from_strings(rows).predicate(name, **params)
    if not direct:
        plan = plan.realization("declarative").backend(case["realization"])
    if case["shards"] != "none":
        plan = plan.shards(case["num_shards"], executor=case["shards"])
    if blocker == "lsh":
        plan = plan.blocker("lsh", lsh_bands=4, lsh_rows=2)
    elif blocker == "length+prefix":
        plan = plan.blocker("length+prefix")
    # length+prefix bounds a Jaccard score: at the selection's own threshold
    # it is no blocking at all (a score sees the blocked ranking, though).
    # A declarative host fits the blocker on the blocker's own q-gram tokens,
    # not on its tokenizer's, where it is a heuristic (a FOUND line in
    # CHANGES.md).
    exact = (
        blocker == "length+prefix"
        and name == "jaccard"
        and op != "score"
        and (direct or "tokenizer" not in params)
    )
    context = (name, case)
    with ExitStack() as stack:
        stack.callback(plan.engine.clear_cache)
        target = plan
        if blocker == "restriction":
            target = plan.fitted_predicate()
            stack.enter_context(target.restrict_candidates(case["allowed"]))
        elif blocker == "length+prefix" and op == "score":
            # score() carries no threshold: ask the predicate the blocker
            # was fitted on for the selection's.
            target = plan.fitted_predicate(case["threshold"])
        queries = case["queries"]
        if op.startswith("run_many"):
            op = op.split(":")[1]
            answers = _run_many(case, plan, target, queries, op)
        elif case["served"]:
            answers = [_serve(case, name, query, op) for query in queries]
        elif op != "score":
            answers = [_pairs(_run(case, plan, query, op), rows) for query in queries]
        for position, query in enumerate(queries):
            allowed = None
            if blocker == "restriction":
                allowed = case["allowed"]
            elif blocker != "none" and not exact:
                # The blocked ranking (a thresholded blocker admits select only).
                blocked = _pairs(
                    target.select(query, case["threshold"])
                    if blocker == "length+prefix" and op != "score"
                    else target.rank(query)
                )
                allowed = {tid for tid, _ in blocked}
                if direct:
                    assert _is_subsequence(blocked, oracle.ranking(query, None)), context
            ranking = oracle.ranking(query, allowed)
            if op == "score":
                _check_score(case, target, query, dict(ranking), direct, ranking_only, context)
            elif direct:
                assert answers[position] == _cut(case, op, ranking), (context, query)
                if case["op"] == "select" and not case["served"] and blocker in ("none", "restriction"):
                    # Every candidate was scored: the count is the ranking's.
                    _run(case, target, query, op)
                    fitted = target if blocker == "restriction" else plan.fitted_predicate()
                    assert fitted.last_num_candidates == len(ranking), (context, query)
            else:
                _assert_declarative(
                    case, op, answers[position], ranking, oracle.optional(query),
                    ranking_only, (context, query),
                )


def _check_score(case, target, query, scores, direct, ranking_only, context):
    """``score(q, t)``: the reference score inside the blocked ranking, else 0.0."""
    for tid in range(-2, len(case["rows"]) + 2):
        got, want = target.score(query, tid), scores.get(tid, 0.0)
        if direct:
            assert got == want, (context, query, tid)
        elif not ranking_only:
            assert got == pytest.approx(want, rel=TIE, abs=TIE), (context, query, tid)


@pytest.mark.parametrize("name", PREDICATES)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_every_path_equals_the_reference(name, case):
    with warnings.catch_warnings():
        # LSH and the Jaccard-derived filters on score-based predicates warn
        # that they are heuristics there; that is the case being drawn.
        warnings.simplefilter("ignore", UserWarning)
        check(name, case)


# -- fixed examples: a generated relation, the process executor ------------------------


@pytest.fixture(scope="module")
def generated():
    """A small UIS-style relation: longer, dirtier strings than the strategy's."""
    from repro.datagen import make_dataset

    dataset = make_dataset("CU1", size=40, num_clean=10, seed=7)
    queries = [dataset.records[tid].text for tid in dataset.sample_query_tids(4, seed=3)]
    return dataset.strings, queries


@pytest.mark.parametrize("name", PREDICATES)
def test_a_generated_relation_equals_the_reference(name, generated):
    rows, queries = generated
    base = SimilarityEngine().from_strings(rows).predicate(name, **PARAMS.get(name, {}))
    for declarative, plan in (
        (False, base),
        (True, base.realization("declarative").backend("sqlite")),
        (True, base.realization("declarative").backend("memory")),
    ):
        oracle = _Oracle(name, rows, PARAMS.get(name, {}), declarative)
        for query in queries:
            ranking = oracle.ranking(query, None)
            # Direct selections at the reference's own scores: the >= boundary.
            boundary = [] if declarative else sorted({score for _, score in ranking})[-8:]
            for threshold in [None] + boundary:
                op = "rank" if threshold is None else "select"
                case = {"threshold": threshold}
                got = _pairs(_run(case, plan, query, op), rows)
                if declarative:
                    _assert_declarative(
                        case, op, got, ranking, oracle.optional(query),
                        name in RANKING_ONLY, (name, query, threshold),
                    )
                else:
                    assert got == _cut(case, op, ranking), (name, query, threshold)
    base.engine.clear_cache()

@pytest.mark.parametrize("tokenizer", [QgramTokenizer(q=2), WordTokenizer()], ids=["qgram", "word"])
def test_exact_blocker_selects_like_the_unblocked_reference(tokenizer, generated):
    """``length+prefix`` at the selection's own threshold, at every score
    the reference gives (the bounds' edges): the unblocked reference
    ``select``, unsharded and on 2 shards."""
    rows, queries = generated
    reference = Reference("jaccard", rows, tokenizer=tokenizer)
    base = SimilarityEngine().from_strings(rows).predicate("jaccard", tokenizer=tokenizer)
    blocked = base.blocker("length+prefix")
    for query in queries:
        for threshold in sorted({score for _, score in reference.rank(query)}):
            want = reference.select(query, threshold)
            assert _pairs(blocked.select(query, threshold)) == want, (query, threshold)
            assert _pairs(blocked.shards(2).select(query, threshold)) == want, (query, threshold)
    base.engine.clear_cache()


@pytest.fixture(scope="module")
def large():
    """More than 64 candidates per query: partitions with real tie groups."""
    from repro.datagen import make_dataset

    return make_dataset("CU1", size=150, num_clean=15, seed=7).strings


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("name", sorted(TOKEN_FAMILIES))
def test_large_candidate_sets_select_like_the_reference(name, num_shards, large):
    """Partition, tie fill and lexsort; plain and under a restriction (the
    restriction mask, on the scan or after scoring);
    unsharded, and merged from two shards."""
    reference = Reference(name, large)
    query_builder = SimilarityEngine().from_strings(large).predicate(name)
    predicate = query_builder.shards(num_shards).fitted_predicate()
    assert len(getattr(predicate, "shards", [predicate])) == num_shards
    allowed = set(range(0, len(large), 3))
    for query in large[:2]:
        full = reference.rank(query)
        assert len(full) > 64
        for restriction in (None, allowed):
            ranking = [item for item in full if restriction is None or item[0] in restriction]
            with predicate.restrict_candidates(restriction):
                assert _pairs(predicate.rank(query)) == ranking, (query, restriction)
                for k in (1, 7, 64, 100):
                    assert _pairs(predicate.top_k(query, k)) == ranking[:k], (query, k)
                threshold = ranking[len(ranking) // 2][1]
                assert _pairs(predicate.select(query, threshold)) == [
                    item for item in ranking if item[1] >= threshold
                ]


@pytest.mark.parametrize("name", ["bm25", "cosine", "lm", "hmm", "soft_tfidf"])
def test_a_restriction_without_a_blocker_is_the_mask(name, generated, monkeypatch):
    """A restricted call with no blocker masks the scores with the
    restriction itself (no set of the scored tids is built): every operation
    answers the reference cut to the allowed tids, and
    ``last_num_candidates`` counts the allowed candidates."""
    from repro.blocking.host import BlockingHost

    def no_set_route(*args, **kwargs):
        raise AssertionError("a restriction alone must not build the allowed set")

    monkeypatch.setattr(BlockingHost, "_allowed_after_scoring", no_set_route)
    rows, queries = generated
    n = len(rows)
    reference = Reference(name, rows)
    engine = SimilarityEngine()
    base = engine.from_strings(rows).predicate(name)
    restrictions = [set(range(1, n, 2)), {-1, 0, 2, 5}, {n, n + 5}, set()]
    try:
        for predicate in (base.fitted_predicate(), base.shards(2).fitted_predicate()):
            for allowed in restrictions:
                with predicate.restrict_candidates(allowed):
                    for query in queries + [""]:
                        ranking = [item for item in reference.rank(query) if item[0] in allowed]
                        context = (type(predicate).__name__, sorted(allowed)[:3], query)
                        assert _pairs(predicate.rank(query)) == ranking, context
                        assert predicate.last_num_candidates == len(ranking), context
                        assert _pairs(predicate.top_k(query, 3)) == ranking[:3], context
                        assert predicate.last_num_candidates == len(ranking), context
                        threshold = ranking[len(ranking) // 2][1] if ranking else 0.5
                        assert _pairs(predicate.select(query, threshold)) == [
                            item for item in ranking if item[1] >= threshold
                        ], context
                        assert predicate.last_num_candidates == len(ranking), context
                        scores = dict(ranking)
                        for tid in range(-1, n + 1):
                            assert predicate.score(query, tid) == scores.get(tid, 0.0), (
                                context, tid
                            )
    finally:
        engine.clear_cache()


ROWS = [
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "AT&T Incorporated",
    "AT&T Inc.",
    "Stanley Morgan Group Incorporated",
    "",
    "Goldman Sachs Group",
]
QUERIES = ["Morgn Stanley Inc", "AT&T", "Goldman Sachs Group", "", "zzz"]


@pytest.fixture(scope="module")
def process_pool():
    pool = ProcessShardExecutor(max_workers=2)
    yield pool
    pool.close()


@pytest.mark.parametrize("name", PREDICATES)
def test_process_shards_equal_the_reference(name, process_pool):
    """Two shards on a process pool: rank, rank(limit), top_k, select,
    score and run_many ``==`` the reference.  The pool is released after
    each predicate, so the next one binds it afresh."""
    reference = Reference(name, ROWS, **PARAMS.get(name, {}))
    engine = SimilarityEngine()
    plan = (
        engine.from_strings(ROWS)
        .predicate(name, **PARAMS.get(name, {}))
        .shards(2, executor=process_pool)
    )
    try:
        for query in QUERIES:
            ranking = reference.rank(query)
            assert _pairs(plan.rank(query)) == ranking, query
            assert _pairs(plan.rank(query, limit=2)) == ranking[:2], query
            assert _pairs(plan.top_k(query, 3)) == ranking[:3], query
            assert _pairs(plan.select(query, 0.5)) == reference.select(query, 0.5), query
            for tid in range(-1, len(ROWS) + 1):
                assert plan.score(query, tid) == reference.score(query, tid), (query, tid)
        batches = plan.run_many(QUERIES, op="top_k", k=2)
        assert [_pairs(batch) for batch in batches] == [
            reference.rank(query, 2) for query in QUERIES
        ]
    finally:
        engine.clear_cache()
        process_pool.close()


# -- what the reference found --------------------------------------------------------


class TestFoundByTheReference:
    """Disagreements the reference scorer found, each pinned on its smallest
    example."""

    def test_edit_distance_select_keeps_the_tuples_at_the_threshold(self):
        # (1 - 0.9) * 10 is 0.9999999999999998: the allowed distance used to
        # round down to 0 and drop the tuple that scores exactly 0.9.
        rows = ["abcdefghij", "abcdefghiX", "zzzz"]
        want = [(0, 1.0), (1, 0.9)]
        base = SimilarityEngine().from_strings(rows).predicate("edit_distance")
        for plan in (base, base.shards(2)):
            assert _pairs(plan.rank("abcdefghij")) == want
            assert _pairs(plan.select("abcdefghij", 0.9)) == want
        assert Reference("edit_distance", rows).select("abcdefghij", 0.9) == want
        # Every threshold edge of short strings an insertion or deletion
        # apart, where the banded verification runs along its band's edge.
        rows = ["ab", "abc", "abcd", "a", "ab ab", "ba", "corp", "cop", "o'r"]
        reference = Reference("edit_distance", rows)
        base = SimilarityEngine().from_strings(rows).predicate("edit_distance")
        for query in rows:
            for threshold in sorted({score for _, score in reference.rank(query)}):
                want = reference.select(query, threshold)
                assert _pairs(base.select(query, threshold)) == want, (query, threshold)

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_declarative_weighted_jaccard_follows_the_weight_table(self, backend):
        # N = 1: the one token's RS weight is negative, so is the union
        # weight, and the score is 0.0, not common / union = 1.0.  N = 2:
        # "$$" is in half the tuples, its RS weight is 0.0 and it is no
        # posting, so "" shares no weighted token with "ab".
        for rows, want in (([""], [(0, 0.0)]), (["", "ab"], [])):
            plan = (
                SimilarityEngine()
                .from_strings(rows)
                .predicate("weighted_jaccard")
                .realization("declarative")
                .backend(backend)
            )
            assert Reference("weighted_jaccard", rows).rank("") == want
            assert _pairs(plan.rank("")) == want
            assert [_pairs(batch) for batch in plan.run_many(["", "ab"])][0] == want

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_declarative_combination_scores_like_the_direct_one(self, backend):
        # A repeated query word weighs once per occurrence in SoftTFIDF's
        # tf-idf vector and in the GES filter's sums, as in the direct
        # realization: "AB AB BA" ranks "AB AB AB" above "BA", and "CORP
        # CORP" keeps the GESApx filter score of "AB" below 0.8.  SoftTFIDF
        # ranks positive scores only.
        cases = [
            ("soft_tfidf", ["", "ab ab ba", "ab ab ab", "ba"], "ab ab ba"),
            ("ges_apx", ["", "ab", "ab ba"], "ab corp corp"),
            # "AB" is in every tuple (idf 0) and "BA" in none: "ab abc"
            # scores 0.0 and, as in the direct realization, is not ranked.
            ("soft_tfidf", ["ab", "ab abc"], "ab ba"),
        ]
        for name, rows, query in cases:
            plan = (
                SimilarityEngine()
                .from_strings(rows)
                .predicate(name)
                .realization("declarative")
                .backend(backend)
            )
            want = [tid for tid, _ in Reference(name, rows).rank(query)]
            assert [match.tid for match in plan.rank(query)] == want, name
            batch = plan.run_many([query, "ba"])[0]
            assert [match.tid for match in batch] == want, name


def test_the_reference_imports_only_tokenizers_and_minhash():
    """The oracle shares no scoring code with what it checks: of the library
    it imports the tokenizers and the min-hash family only, and no numpy."""
    tree = ast.parse(Path(reference_module.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    roots = {module.split(".")[0] for module in modules}
    assert {module for module in modules if module.startswith("repro")} == {
        "repro.text.tokenize",
        "repro.text.minhash",
    }
    assert "numpy" not in roots and "" not in roots  # no relative imports
