"""The scalar view of a weighted posting index.

A numpy fit derives the ``(tids, contributions)`` arrays and one posting
count per token, nothing else; the ``(tid, contribution)`` lists the scalar
loops read are derived once, under a lock, by the first scalar read --
``use_backend("python")`` or the numpy -> scalar ladder healing a scan (that
one is ``tests/test_chaos.py``'s cold variant) -- by re-running the
predicate's own scalar derivation.  This module pins what that buys and what
it must not change: the derived lists ``==`` the lists a fit without numpy
builds, the numpy query path never touches the view, concurrent first reads
share one build, and the engine says which of the two states an index is in.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.corpus import CorpusCore
from repro.core.index import InvertedIndex
from repro.core.predicates import make_predicate
from repro.engine import SimilarityEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Observability
from repro.text.tokenize import QgramTokenizer, WordTokenizer
from repro.text.weights import CollectionStatistics

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="only a numpy fit leaves the view unbuilt"
)

WEIGHTED = ["bm25", "cosine", "weighted_match", "weighted_jaccard", "lm", "hmm"]

ROWS = [
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "AT&T Incorporated",
    "IBM Incorporated",
    "AT&T Inc.",
    "Beijing Hotel",
    "Hotel Beijing",
    "Stanley Morgan Group Incorporated",
]

#: Word tokens: "the" sits in every tuple (idf 0: cosine drops the whole
#: list), "cat" in two of four (RS weight exactly 0), an empty string, a
#: single repeated token (lm's clamp) and tf > 1.
EDGES = ["the cat", "the dog", "the the end", "the cat cat nap", "", "x x x"]

QUERIES = ["Morgn Stanley Inc", "Beijing", "the cat", "x", "", "zzz"]


def _hex_lists(predicate):
    weighted = predicate._weighted_index
    return {
        token: [(tid, value.hex()) for tid, value in weighted.postings(token)]
        for token in sorted(predicate._index.tokens())
    }


def _answers(predicate):
    return [
        (predicate.rank(query), predicate.top_k(query, 3), predicate.select(query, 0.2))
        for query in QUERIES
    ]


@needs_numpy
@pytest.mark.parametrize("tokenizer", [QgramTokenizer(q=2), WordTokenizer()], ids=repr)
@pytest.mark.parametrize("name", WEIGHTED)
def test_the_view_equals_the_lists_a_fit_without_numpy_builds(
    name, tokenizer, monkeypatch
):
    """tid and ``float.hex`` of every posting, zero-dropping (the default)
    and ``keep_zeros`` (lm / hmm) included, and the stored counts agree."""
    for rows in (ROWS, EDGES, ROWS + EDGES):
        lazy = make_predicate(name, tokenizer=tokenizer).fit(rows)
        weighted = lazy._weighted_index
        assert not weighted.scalar_view_built
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "np", None)
            eager = make_predicate(name, tokenizer=tokenizer).fit(rows)
            assert eager._weighted_index.scalar_view_built
            assert eager._weighted_index.arrays(next(iter(eager._index.tokens()))) is None
            want = _hex_lists(eager)
        assert _hex_lists(lazy) == want
        assert weighted.scalar_view_built
        for token, plist in want.items():
            assert weighted.posting_count(token) == len(plist)
            assert (token in weighted) == bool(plist)
        assert len(weighted) == sum(map(bool, want.values()))
        assert weighted.num_postings == sum(map(len, want.values()))
        assert (weighted.num_postings, weighted.zero_dropped) == (
            eager._weighted_index.num_postings,
            eager._weighted_index.zero_dropped,
        )
        if name == "lm":  # the re-run left the fitted complement sums alone
            assert lazy._sum_complement == eager._sum_complement
            assert lazy._sum_complement_array.tolist() == eager._sum_complement
        with kernels.use_backend("python"):
            assert _answers(lazy) == _answers(eager)


@needs_numpy
@pytest.mark.parametrize("name", WEIGHTED)
def test_numpy_queries_never_build_the_view(name):
    predicate = make_predicate(name).fit(ROWS + EDGES)
    weighted = predicate._weighted_index
    for round_ in range(25):
        query = QUERIES[round_ % len(QUERIES)]
        predicate.rank(query)
        predicate.top_k(query, 3)
        predicate.select(query, 0.3)
        predicate.score(query, round_ % len(ROWS))
        with predicate.restrict_candidates({0, 1, 5}):
            predicate.rank(query)
    assert "MO" in weighted and len(weighted) > 0
    assert weighted.posting_count("MO") == weighted.arrays("MO")[0].size
    assert predicate.weights_summary()["scalar_view"] == "not built"
    assert not weighted.scalar_view_built
    assert weighted.view_seconds is None and weighted.view_cause is None


@needs_numpy
def test_concurrent_first_scalar_reads_share_one_view():
    predicate = make_predicate("bm25").fit(ROWS * 20)
    weighted = predicate._weighted_index
    derive, calls = weighted._scalar_values, []

    def slow_derivation():
        calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the lock long enough for everyone to arrive
        return derive()

    weighted._scalar_values = slow_derivation
    with kernels.use_backend("python"):
        want = make_predicate("bm25").fit(ROWS * 20).rank("Morgn Stanley")
    builds = kernels.ops_snapshot()["scalar_view_build"]
    barrier = threading.Barrier(8)
    seen, answers, errors = [], [], []

    def reader():
        try:
            barrier.wait(timeout=30)
            seen.append(weighted.postings("MO"))
            answers.append(predicate.rank("Morgn Stanley"))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with kernels.use_backend("python"):
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert kernels.ops_snapshot()["scalar_view_build"] == builds + 1
    assert len(seen) == 8 and all(plist is seen[0] for plist in seen)
    assert answers == [want] * 8
    assert weighted.view_cause == "forced backend"


@needs_numpy
@pytest.mark.parametrize("name", ["bm25", "lm", "weighted_jaccard"])
def test_a_fitted_predicate_pickles_with_and_without_its_view(name):
    """The lock is dropped and the derivation is a bound method, so a fitted
    shard travels to a worker process in either state."""
    predicate = make_predicate(name).fit(ROWS)
    cold = pickle.loads(pickle.dumps(predicate))
    assert not cold._weighted_index.scalar_view_built
    with kernels.use_backend("python"):
        want = _answers(predicate)
        assert _answers(cold) == want
    assert cold._weighted_index.scalar_view_built
    # The copy derives from its own predicate, not from the original's.
    assert cold._weighted_index._scalar_values.__self__ is cold
    warm = pickle.loads(pickle.dumps(predicate))
    assert warm._weighted_index.scalar_view_built
    assert _hex_lists(warm) == _hex_lists(predicate)
    assert _answers(warm) == _answers(predicate)


def _engine():
    engine = SimilarityEngine()
    engine.obs = Observability(metrics=MetricsRegistry())
    return engine


@needs_numpy
def test_the_engine_reports_the_state_of_the_view():
    engine = _engine()
    try:
        query = engine.from_strings(ROWS).predicate("bm25")
        fit = query.trace("Morgn Stanley", k=3).span.find("fit")
        assert fit.attributes["scalar_view"] == "not built"
        report = query.explain("Morgn Stanley", op="top_k", k=3)
        assert report.weights.endswith("scalar view: not built")
        assert "scalar view: not built" in report.describe()
        assert engine.obs.metrics.value("core.scalar_view.builds_total") == 0
        with kernels.use_backend("python"):
            forced = query.top_k("Morgn Stanley", 3)
        assert forced == query.top_k("Morgn Stanley", 3)
        assert engine.obs.metrics.value("core.scalar_view.builds_total") == 1
        assert engine.obs.metrics.value("kernel_ops.scalar_view_build") == 0
        weighted = query.fitted_predicate()._weighted_index
        summary = query.fitted_predicate().weights_summary()["scalar_view"]
        assert summary.startswith("built in ") and summary.endswith(
            f" ms ({weighted.num_postings} postings, cause: forced backend)"
        )
        assert query.explain("Morgn Stanley", op="top_k", k=3).weights.endswith(
            "scalar view: " + summary
        )
        # One build however many scalar calls follow.
        with kernels.use_backend("python"):
            query.rank("AT&T")
        assert engine.obs.metrics.value("core.scalar_view.builds_total") == 1
    finally:
        engine.clear_cache()


def test_a_fit_without_numpy_reports_its_own_lists(monkeypatch):
    monkeypatch.setattr(kernels, "np", None)
    predicate = make_predicate("bm25").fit(ROWS)
    assert predicate._weighted_index.scalar_view_built
    assert (
        predicate.weights_summary()["scalar_view"]
        == "the fit's own postings (no numpy)"
    )


# -- the satellites riding on the same metric ----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefg"), max_size=6), min_size=0, max_size=8
    )
)
def test_statistics_read_off_the_index_equal_the_counter_pass(token_lists):
    """``df`` / ``cf`` token-major: the same integers in the same vocabulary
    order (derived tables iterate it, so order is part of bit-identity)."""
    counts = [Counter(tokens) for tokens in token_lists]
    index = InvertedIndex(token_lists, term_frequencies=counts)
    counted = CollectionStatistics(token_lists, term_frequencies=counts)
    indexed = CollectionStatistics(token_lists, term_frequencies=counts, index=index)
    for table in ("_document_frequency", "_collection_frequency"):
        assert list(getattr(indexed, table).items()) == list(
            getattr(counted, table).items()
        )
    assert list(indexed.rs_table().items()) == list(counted.rs_table().items())
    assert list(indexed.pavg_table().items()) == list(counted.pavg_table().items())
    assert indexed.collection_size == counted.collection_size


def test_core_statistics_use_the_index_only_when_a_fit_built_one(monkeypatch):
    built = []
    init = CollectionStatistics.__init__

    def spy(self, token_lists, term_frequencies=None, index=None):
        built.append(index)
        init(self, token_lists, term_frequencies=term_frequencies, index=index)

    monkeypatch.setattr(CollectionStatistics, "__init__", spy)
    bm25 = make_predicate("bm25").fit(ROWS)
    assert built == [bm25._core._index] and built[0] is not None
    core = CorpusCore(ROWS, WordTokenizer())
    core.stats
    assert built[-1] is None and core._index is None  # no index built for it


class _Walked(list):
    """A Counter list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_core_sizes_are_computed_once():
    for tokenizer, build_index in ((QgramTokenizer(q=2), True), (WordTokenizer(), False)):
        core = CorpusCore(ROWS, tokenizer)
        if build_index:
            core.build_index_arrays()
        want = (
            len({token for tokens in core.token_lists for token in tokens}),
            sum(len(set(tokens)) for tokens in core.token_lists),
        )
        core._term_frequencies = counters = _Walked(core.term_frequencies)
        for _ in range(3):
            summary = core.summary()
            assert (summary["vocabulary"], summary["postings"]) == want
        # With posting arrays nothing is walked at all; without an index the
        # Counters are walked once per size, then never again.
        walks = 0 if build_index and kernels.numpy_available() else 2
        assert counters.walks <= walks
