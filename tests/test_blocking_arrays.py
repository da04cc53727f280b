"""Exact blockers on the posting arrays.

An overlap predicate under an exact blocker (``length``, ``prefix`` and
pipelines made only of them) keeps its one full scan and narrows the scan's
``(tids, values)`` with boolean masks: the probe tokens' tid arrays mark the
probed candidates and :meth:`~repro.blocking.base.Blocker.prune_array`
applies the length bound
(:meth:`~repro.core.index.InvertedIndex.candidate_mask`).  No Python
candidate set is built.  The contract pinned here is that this changes
nothing observable: answers, ``last_num_candidates`` and every
:class:`~repro.blocking.base.BlockingStats` counter (the pipeline's and
each stage's) are ``==`` to the set path's -- the blocker's candidate set
from :meth:`~repro.core.index.InvertedIndex.candidates`, applied as a
restriction to an unblocked predicate -- and a blocked Jaccard selection is
``==`` to the unblocked one at or above the blocker's threshold.  LSH keeps
the set path.

Also here: the probe's in-step check (a prefix token whose tid array is out
of step with its document frequency raises, never answers from fewer
candidates), a blocker re-attached to the relation it was fitted from is
not refitted, and the ``length+prefix`` fit from the corpus core builds the
structures the token-list fit built.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    Blocker,
    BlockingPipeline,
    LengthFilter,
    PrefixFilter,
    make_blocker,
)
from repro.core import ApproximateJoiner, Deduplicator
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex
from repro.core.predicates import make_predicate
from repro.datagen import make_dataset
from repro.engine import SimilarityEngine
from repro.text.tokenize import QgramTokenizer, WordTokenizer

#: The overlap predicates: both count-scan ones and a weighted one (whose
#: scan drops zero-weight tokens, so its candidates are not the probe's).
NAMES = ["jaccard", "intersect", "weighted_jaccard"]
#: Exact specs (array path) and one that keeps the set path.
SPECS = ["length", "prefix", "length+prefix", "length+lsh"]
EXACT = {"length", "prefix", "length+prefix"}

_texts = st.text(alphabet="abcd ", max_size=9)


@st.composite
def blocked_cases(draw):
    """One blocked workload: corpus (empty strings and duplicates likely),
    queries (an empty one and unseen tokens included), predicate, blocker
    spec, blocker threshold, a selection threshold at or above it, and an
    optional restriction (tids outside the relation included)."""
    corpus = draw(st.lists(_texts, min_size=1, max_size=14))
    corpus += draw(st.lists(st.sampled_from(corpus), max_size=3))
    queries = draw(st.lists(_texts | st.sampled_from(corpus), min_size=1, max_size=4))
    queries += ["", "xyz yx", corpus[0]]
    blocker_threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]))
    select_threshold = draw(
        st.sampled_from(
            [t for t in (0.0, 0.3, 0.5, 0.6, 0.8, 1.0) if t >= blocker_threshold]
        )
    )
    restriction = draw(
        st.none() | st.sets(st.integers(-2, len(corpus) + 2), max_size=len(corpus) + 4)
    )
    return {
        "corpus": corpus,
        "queries": queries,
        "name": draw(st.sampled_from(NAMES)),
        "spec": draw(st.sampled_from(SPECS)),
        "tokenizer": draw(st.sampled_from([QgramTokenizer(q=2), WordTokenizer()])),
        "blocker_threshold": blocker_threshold,
        "threshold": select_threshold,
        "k": draw(st.integers(1, 6)),
        "restriction": restriction,
    }


def _stats(blocker):
    """The pipeline's counters and each stage's, as comparable records."""
    stages = blocker.stages if isinstance(blocker, BlockingPipeline) else []
    return [blocker.stats] + [stage.stats for stage in stages]


def _blocked(case):
    tokenizer = case["tokenizer"]
    predicate = make_predicate(case["name"], tokenizer=tokenizer).fit(case["corpus"])
    blocker = make_blocker(
        case["spec"], threshold=case["blocker_threshold"], tokenizer=tokenizer
    )
    with warnings.catch_warnings():
        # Jaccard-derived bounds on IntersectSize / WeightedJaccard: heuristic.
        warnings.simplefilter("ignore", UserWarning)
        predicate.set_blocker(blocker)
    return predicate


def _operations(predicate, query, case):
    return (
        lambda: predicate.select(query, case["threshold"]),
        lambda: predicate.rank(query),
        lambda: predicate.top_k(query, case["k"]),
    )


def _answer(operation, predicate):
    return [(m.tid, m.score.hex()) for m in operation()], predicate.last_num_candidates


def _run(case):
    """Every operation over every query on the blocked predicate: answers
    (exact floats), candidate counts, and the blocker's counters afterwards."""
    predicate = _blocked(case)
    answers = []
    with predicate.restrict_candidates(case["restriction"]):
        for query in case["queries"]:
            for operation in _operations(predicate, query, case):
                answers.append(_answer(operation, predicate))
    return answers, _stats(predicate.blocker)


def _run_set_path(case):
    """:func:`_run` on the set path: per operation, the blocker's candidate
    set (``InvertedIndex.candidates``), narrowed by the restriction, scopes
    an unblocked predicate."""
    blocked = _blocked(case)
    blocker, index = blocked.blocker, blocked._index
    plain = make_predicate(case["name"], tokenizer=case["tokenizer"]).fit(case["corpus"])
    restriction = case["restriction"]
    answers = []
    for query in case["queries"]:
        for operation in _operations(plain, query, case):
            allowed = index.candidates(blocked._query_tokens(query), blocker=blocker)
            if restriction is not None:
                allowed &= restriction
            with plain.restrict_candidates(allowed):
                answers.append(_answer(operation, plain))
    return answers, _stats(blocker)


@given(case=blocked_cases())
@settings(max_examples=250, deadline=None)
def test_array_path_matches_the_set_path(case):
    assert _run(case) == _run_set_path(case)


@given(case=blocked_cases())
@settings(max_examples=150, deadline=None)
def test_exact_blocked_jaccard_select_is_the_unblocked_select(case):
    case = dict(case, name="jaccard", spec=sorted(EXACT)[len(case["queries"]) % 3])
    blocked = _blocked(case)
    plain = make_predicate("jaccard", tokenizer=case["tokenizer"]).fit(case["corpus"])
    with blocked.restrict_candidates(case["restriction"]), plain.restrict_candidates(
        case["restriction"]
    ):
        for query in case["queries"]:
            assert blocked.select(query, case["threshold"]) == plain.select(
                query, case["threshold"]
            )


@pytest.mark.parametrize("spec", sorted(EXACT))
def test_exact_blocked_self_join_and_dedup_match_the_unblocked_ones(spec):
    """Blocked self-joins probe under ``restrict_candidates``: an exact
    blocker at the join threshold finds every pair the unblocked join finds."""
    rows = make_dataset("CU1", size=120, num_clean=12, seed=5).strings
    blocker = make_blocker(spec, threshold=0.5)
    pairs = ApproximateJoiner(rows, "jaccard", threshold=0.5, blocker=blocker).self_join()
    plain = ApproximateJoiner(rows, "jaccard", threshold=0.5).self_join()
    assert [(p.left_id, p.right_id, p.score) for p in pairs] == [
        (p.left_id, p.right_id, p.score) for p in plain
    ]
    clusters = Deduplicator(
        rows, predicate="jaccard", threshold=0.5, blocker=make_blocker(spec, threshold=0.5)
    ).clusters()
    assert clusters == Deduplicator(rows, predicate="jaccard", threshold=0.5).clusters()


def test_lsh_blocked_self_join_finds_a_subset_of_the_unblocked_pairs():
    """LSH may miss a pair, but it cannot invent one or change its score."""
    rows = make_dataset("CU1", size=120, num_clean=12, seed=5).strings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        blocker = make_blocker("length+lsh", threshold=0.5)
        pairs = ApproximateJoiner(rows, "jaccard", threshold=0.5, blocker=blocker).self_join()
    plain = ApproximateJoiner(rows, "jaccard", threshold=0.5).self_join()
    found = {(p.left_id, p.right_id, p.score) for p in pairs}
    assert found and found <= {(p.left_id, p.right_id, p.score) for p in plain}


ROWS = make_dataset("CU1", size=300, num_clean=30, seed=3).strings


def _rows_case(name, spec="length+prefix"):
    return {
        "corpus": ROWS,
        "name": name,
        "spec": spec,
        "tokenizer": QgramTokenizer(q=2),
        "blocker_threshold": 0.5,
        "threshold": 0.5,
        "k": 5,
        "restriction": None,
        "queries": ROWS[:20],
    }


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("spec", sorted(EXACT))
@pytest.mark.parametrize("restricted", [False, True])
def test_exact_blocked_calls_build_no_candidate_set(name, spec, restricted, monkeypatch):
    case = _rows_case(name, spec)
    predicate = _blocked(case)
    want = _run_set_path(case)[0][::3]  # the selections

    def no_set_path(*args, **kwargs):
        raise AssertionError("the array path must not build a candidate set")

    monkeypatch.setattr(InvertedIndex, "candidates", no_set_path)
    monkeypatch.setattr(Blocker, "prune", no_set_path)
    allowed = set(range(0, len(ROWS), 2)) if restricted else None
    with predicate.restrict_candidates(allowed):
        got = [_answer(lambda q=q: predicate.select(q, 0.5), predicate) for q in ROWS[:20]]
        predicate.top_k(ROWS[0], 5)
        predicate.rank(ROWS[1])
    if not restricted:
        assert got == want


def test_lsh_keeps_the_set_path(monkeypatch):
    predicate = make_predicate("jaccard").fit(ROWS)
    predicate.set_blocker(make_blocker("length+lsh", threshold=0.5))
    seen = []
    candidates = InvertedIndex.candidates

    def spy(self, tokens, blocker=None):
        seen.append(blocker)
        return candidates(self, tokens, blocker)

    monkeypatch.setattr(InvertedIndex, "candidates", spy)
    predicate.select(ROWS[0], 0.5)
    assert seen == [predicate.blocker]


# -- the in-step check ----------------------------------------------------------


def _prefix_token(predicate, query):
    """The query's prefix token with the most postings."""
    index = predicate._index
    prefix = predicate.blocker.stages[-1].prefix_of(predicate._query_tokens(query))
    return max(prefix, key=index.document_frequency)


@pytest.mark.parametrize("damage", ["truncate", "drop", "retype", "overrun", "swap"])
@pytest.mark.parametrize("name", NAMES)
def test_prefix_tid_array_out_of_step_raises(name, damage):
    """A prefix token whose tid array is out of step with its document
    frequency fails the call -- never an answer drawn from fewer
    candidates.  A short or missing array (``truncate``, ``drop``) is the
    in-step check's :class:`ValueError`; ``swap`` shortens the prefix
    token's array and lengthens a non-prefix query token's by as much, so
    the count scan's total still matches and only the probe's check sees
    it."""
    query = max(ROWS[:50], key=len)
    predicate = _blocked(_rows_case(name))
    index = predicate._index
    arrays = dict(index._arrays)
    token = _prefix_token(predicate, query)
    tids, tfs = arrays[token]
    assert tids.size > 1
    if damage == "drop":
        del arrays[token]
    elif damage == "swap":
        query_tokens = predicate._query_tokens(query)
        prefix = set(predicate.blocker.stages[-1].prefix_of(query_tokens))
        other = next(
            t for t in sorted(query_tokens)
            if t not in prefix and index.arrays(t) is not None
        )
        arrays[token] = (tids[:-1], tfs[:-1])
        other_tids, other_tfs = arrays[other]
        arrays[other] = (
            np.append(other_tids, other_tids[:1]),
            np.append(other_tfs, other_tfs[:1]),
        )
    else:
        arrays[token] = {
            "truncate": (tids[:-1], tfs[:-1]),
            "retype": (tids.astype(np.float64), tfs),
            "overrun": (tids + len(ROWS), tfs),
        }[damage]
    index._arrays = arrays
    predicate.last_num_candidates = None
    if damage in ("truncate", "drop", "swap"):
        with pytest.raises(ValueError, match="out of step"):
            predicate.select(query, 0.5)
    else:  # a wrong dtype or a tid beyond the relation fails in numpy itself
        with pytest.raises((ValueError, TypeError, IndexError)):
            predicate.select(query, 0.5)
    assert predicate.last_num_candidates is None


def test_candidate_mask_raises_on_an_out_of_step_probe():
    predicate = make_predicate("jaccard").fit(ROWS)
    blocker = PrefixFilter(0.5).fit_core(predicate._core)
    index = predicate._index
    query = predicate._query_tokens(ROWS[0])
    token = blocker.prefix_of(query)[0]
    tids, tfs = index._arrays[token]
    index._arrays = dict(index._arrays, **{token: (tids[:-1], tfs[:-1])})
    with pytest.raises(ValueError, match="out of step"):
        index.candidate_mask(query, blocker)
    assert blocker.stats.probes == 0  # nothing recorded for a refused probe


# -- fitting: once per relation, from the core -------------------------------------


class _FitCounter:
    """Counts the fits that build something: a pipeline's and each stage's."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for cls in (LengthFilter, PrefixFilter, BlockingPipeline):
            monkeypatch.setattr(cls, "_fit", self._counted(cls._fit))

    def _counted(self, fit):
        def counted(blocker, core):
            self.calls += 1
            return fit(blocker, core)

        return counted


def test_alternating_thresholds_fit_each_blocker_once(monkeypatch):
    strings = ROWS
    reference = {}
    for threshold in (0.6, 0.8):
        plain = make_predicate("jaccard").fit(strings)
        reference[threshold] = [plain.select(q, threshold) for q in strings[:3]]
    fits = _FitCounter(monkeypatch)
    engine = SimilarityEngine()
    query = engine.from_strings(strings).predicate("jaccard").blocker("length+prefix")
    for _ in range(10):
        for threshold in (0.6, 0.8):
            got = [query.select(q, threshold) for q in strings[:3]]
            assert [[(m.tid, m.score) for m in r] for r in got] == [
                [(m.tid, m.score) for m in r] for r in reference[threshold]
            ]
    # One blocker per threshold, each a two-stage pipeline: fitted once.
    assert fits.calls == 2 * 3


def test_alternating_blocked_and_plain_queries_fit_once(monkeypatch):
    fits = _FitCounter(monkeypatch)
    engine = SimilarityEngine()
    base = engine.from_strings(ROWS).predicate("jaccard")
    blocked = base.blocker("length+prefix")
    for _ in range(10):
        base.select(ROWS[0], 0.6)
        blocked.select(ROWS[0], 0.6)
    assert fits.calls == 3


def test_reattaching_refits_only_for_another_relation(monkeypatch):
    fits = _FitCounter(monkeypatch)
    blocker = LengthFilter(0.5)
    predicate = make_predicate("jaccard").fit(ROWS)
    predicate.set_blocker(blocker)
    predicate.set_blocker(None)
    predicate.set_blocker(blocker)
    assert fits.calls == 1 and blocker.fitted_core is predicate._core
    # A predicate without a shared core keeps one per relation for its blocker.
    bm25 = make_predicate("bm25").fit(ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bm25.set_blocker(blocker)
        bm25.set_blocker(blocker)
    assert fits.calls == 2
    predicate.fit(ROWS[:50])
    assert fits.calls == 3 and blocker.num_tuples == 50
    predicate.set_blocker(blocker)
    assert fits.calls == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bm25.set_blocker(blocker)
    assert fits.calls == 4 and blocker.num_tuples == len(ROWS)


def _reference_fit(token_lists, threshold):
    """The token-list fit the core fit replaced: frozen sets counted per
    fit, the order key ``(df, token)`` evaluated per token per tuple."""
    token_sets = [frozenset(tokens) for tokens in token_lists]
    frequency = {}
    for tokens in token_sets:
        for token in tokens:
            frequency[token] = frequency.get(token, 0) + 1

    def prefix_of(tokens):
        ordered = sorted(tokens, key=lambda token: (frequency.get(token, 0), token))
        size = len(ordered)
        if size == 0:
            return []
        length = size if threshold <= 0.0 else max(
            1, size - math.ceil(threshold * size - 1e-9) + 1
        )
        return ordered[:length]

    prefixes, postings = [], {}
    for tid, tokens in enumerate(token_sets):
        prefix = prefix_of(set(tokens))
        prefixes.append(frozenset(prefix))
        for token in prefix:
            postings.setdefault(token, []).append(tid)
    sizes = [len(tokens) for tokens in token_sets]
    order = sorted(range(len(sizes)), key=lambda tid: (sizes[tid], tid))
    return prefixes, postings, order, [sizes[tid] for tid in order], prefix_of


def _assert_fit_matches_reference(token_lists, threshold, queries):
    """Over a bare core (document frequencies counted over the token sets)
    and over one whose index a fit built (read off the index)."""
    prefixes, postings, order, sorted_sizes, prefix_of = _reference_fit(
        token_lists, threshold
    )
    for indexed in (False, True):
        core = CorpusCore.of_token_lists(token_lists, QgramTokenizer(q=2))
        if indexed:
            core.index
        pipeline = make_blocker("length+prefix", threshold=threshold).fit_core(core)
        length, prefix = pipeline.stages
        assert prefix._prefixes == prefixes
        assert prefix._prefix_postings == postings
        assert list(prefix._prefix_postings) == list(postings)  # blocks() order
        assert length._tids_by_size == order
        assert length._sorted_sizes == sorted_sizes
        for tokens in queries:
            assert prefix.prefix_of(set(tokens)) == prefix_of(set(tokens))


@given(
    token_lists=st.lists(
        st.lists(st.sampled_from("abcdefgh"), max_size=7), min_size=1, max_size=25
    ),
    queries=st.lists(st.lists(st.sampled_from("abcdxyz"), max_size=6), max_size=4),
    threshold=st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.9, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_core_fit_builds_the_token_list_fit(token_lists, queries, threshold):
    _assert_fit_matches_reference(token_lists, threshold, queries)


def test_core_fit_builds_the_token_list_fit_on_the_lib_scan_corpus():
    """The ledger's ``lib-scan`` relation (10k CU1 rows, its default seed)."""
    strings = make_dataset("CU1", size=10_000, num_clean=1_000, seed=20070611).strings
    token_lists = QgramTokenizer(q=2).tokenize_many(strings)
    _assert_fit_matches_reference(token_lists, 0.6, token_lists[:200] + [["zz"], []])
