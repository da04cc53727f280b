"""Below the engine every host answers in ordered ``(tid, score)`` pairs;
the engine builds each result ``Match`` once, with its string.

* Through ``Query``, every host (direct; sharded on the serial and thread
  executors, and on the process executor for one fixed example;
  declarative on SQLite and the in-memory engine) and every operation
  (``rank``, ``rank(limit)``, ``top_k``, ``select``, ``run_many``) runs
  ``Match.__post_init__`` exactly once per returned row and never calls
  ``Match.with_string``; the rows are the host's own pairs.
* Each host's public methods still return ``Match(tid, score)`` with
  ``string=None``, ``==`` its pairs wrapped.
* A protocol-only user predicate, and a host subclass overriding a public
  operation, still answer through ``Query``.
* ``average_precision`` / ``max_f1`` (computed from hit ranks) ``==`` the
  list-based formulas, and the accuracy runner builds no ``Match``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimilarityEngine
from repro.core.predicates.base import Match
from repro.core.predicates.edit import EditDistance
from repro.engine.protocol import pair_host
from repro.eval.metrics import average_precision, max_f1, precision_recall_curve
from repro.eval.runner import ExperimentRunner

ROWS = [
    "Morgan Stanley Group Inc.",
    "Goldman Sachs Group",
    "AT&T Incorporated",
    "IBM Incorporated",
    "AT&T Inc.",
    "AT&T Inc.",
    "Beijing Hotel",
    "Beijing Labs",
    "Hotel Beijing",
    "Stanley Morgan Group Incorporated",
    "Silicon Valley Group, Inc.",
    "Pacific Gas and Electric Company",
    "Granite Construction Incorporated",
    "IBM Corp",
]
QUERIES = ["AT&T Inc", "Morgan Stanley Group", "Hotel Beijing Labs", "IBM Inc"]
PREDICATES = ("bm25", "jaccard", "edit_distance")

HOSTS = {
    "direct": lambda q: q,
    "sharded-serial": lambda q: q.shards(3, executor="serial"),
    "sharded-thread": lambda q: q.shards(3, executor="thread"),
    "declarative-sqlite": lambda q: q.realization("declarative").backend("sqlite"),
    "declarative-memory": lambda q: q.realization("declarative").backend("memory"),
}

#: name -> (Query call, the host's pair call): the operations of both layers.
OPS = {
    "rank": (lambda q, t: q.rank(t), lambda h, t: h.rank_pairs(t)),
    "rank-limit": (lambda q, t: q.rank(t, limit=3), lambda h, t: h.rank_pairs(t, 3)),
    "top_k": (lambda q, t: q.top_k(t, 2), lambda h, t: h.top_k_pairs(t, 2)),
    "select": (lambda q, t: q.select(t, 0.3), lambda h, t: h.select_pairs(t, 0.3)),
}
BATCH_OPS = {
    "rank": {"op": "rank"},
    "rank-limit": {"op": "rank", "limit": 3},
    "top_k": {"op": "top_k", "k": 2},
    "select": {"op": "select", "threshold": 0.3},
}


@pytest.fixture(scope="module")
def engine():
    engine = SimilarityEngine()
    yield engine
    engine.clear_cache()


@contextmanager
def match_builds(monkeypatch):
    """Count ``Match.__post_init__`` runs; make ``with_string`` fail loudly."""
    built = [0]
    guard = Match.__post_init__

    def counting(self):
        built[0] += 1
        guard(self)

    def no_copy(self, string):
        raise AssertionError("with_string called below the engine boundary")

    with monkeypatch.context() as patch:
        patch.setattr(Match, "__post_init__", counting)
        patch.setattr(Match, "with_string", no_copy)
        yield built


def _rows(matches: List[Match]) -> list:
    return [(match.tid, match.score) for match in matches]


def _assert_strings(matches: List[Match]) -> None:
    assert all(match.string == ROWS[match.tid] for match in matches)


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("name", PREDICATES)
def test_query_builds_one_match_per_row(engine, monkeypatch, name, host, op):
    query = HOSTS[host](engine.from_strings(ROWS).predicate(name))
    pairs_of = pair_host(query.fitted_predicate())
    ask, pairs = OPS[op]
    for text in QUERIES:
        expected = pairs(pairs_of, text)
        with match_builds(monkeypatch) as built:
            answer = ask(query, text)
        assert built[0] == len(answer)
        assert _rows(answer) == [tuple(pair) for pair in expected]
        _assert_strings(answer)


@pytest.mark.parametrize("op", sorted(BATCH_OPS))
@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("name", PREDICATES)
def test_run_many_builds_one_match_per_row(engine, monkeypatch, name, host, op):
    query = HOSTS[host](engine.from_strings(ROWS).predicate(name))
    params = BATCH_OPS[op]
    expected = pair_host(query.fitted_predicate()).run_many_pairs(QUERIES, **params)
    with match_builds(monkeypatch) as built:
        batches = query.run_many(QUERIES, **params)
    assert built[0] == sum(len(batch) for batch in batches)
    assert [_rows(batch) for batch in batches] == expected
    for batch in batches:
        _assert_strings(batch)
    assert query.last_run_many_stats.num_queries == len(QUERIES)


def test_process_executor_builds_one_match_per_row(monkeypatch):
    engine = SimilarityEngine()
    try:
        query = engine.from_strings(ROWS).predicate("bm25").shards(2, executor="process")
        plain = SimilarityEngine().from_strings(ROWS).predicate("bm25")
        with match_builds(monkeypatch) as built:
            ranked = query.rank("AT&T Inc")
            batches = query.run_many(QUERIES, op="top_k", k=3)
        assert built[0] == len(ranked) + sum(len(batch) for batch in batches)
        assert ranked == plain.rank("AT&T Inc")
        assert batches == plain.run_many(QUERIES, op="top_k", k=3)
    finally:
        engine.clear_cache()


@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("name", PREDICATES)
def test_public_methods_wrap_the_pairs(engine, name, host):
    predicate = HOSTS[host](engine.from_strings(ROWS).predicate(name)).fitted_predicate()

    def wrapped(pairs) -> List[Match]:
        return [Match(tid, score) for tid, score in pairs]

    for text in QUERIES:
        answers = {
            "rank": (predicate.rank(text), predicate.rank_pairs(text)),
            "rank-limit": (predicate.rank(text, limit=3), predicate.rank_pairs(text, 3)),
            "top_k": (predicate.top_k(text, 2), predicate.top_k_pairs(text, 2)),
            "select": (predicate.select(text, 0.3), predicate.select_pairs(text, 0.3)),
        }
        for op, (matches, pairs) in answers.items():
            assert matches == wrapped(pairs), op
            assert all(match.string is None for match in matches), op
            assert all(type(pair) is tuple for pair in pairs), op
    batches = predicate.run_many(QUERIES, op="select", threshold=0.3)
    assert batches == [
        wrapped(pairs)
        for pairs in predicate.run_many_pairs(QUERIES, op="select", threshold=0.3)
    ]


class ProtocolOnly:
    """A caller's own predicate: the protocol, no pair methods, no top_k."""

    name = "exact-prefix"
    family = "user"

    def __init__(self) -> None:
        self.last_num_candidates: Optional[int] = None
        self._strings: List[str] = []

    def fit(self, strings):
        self._strings = list(strings)
        return self

    @property
    def base_strings(self):
        return list(self._strings)

    def _scored(self, query: str) -> List[Match]:
        query = query.lower()
        head = query.split()[0] if query.split() else ""
        scored = [
            Match(tid, 1.0 if text.lower().rstrip(".") == query else 0.5)
            for tid, text in enumerate(self._strings)
            if head and head in text.lower()
        ]
        self.last_num_candidates = len(scored)
        return sorted(scored, key=lambda match: (-match.score, match.tid))

    def rank(self, query, limit=None):
        ranked = self._scored(query)
        return ranked if limit is None else ranked[:limit]

    def select(self, query, threshold):
        return [match for match in self._scored(query) if match.score >= threshold]

    def score(self, query, tid):
        return dict(self._scored(query)).get(tid, 0.0)

    def set_blocker(self, blocker):
        return self

    @contextmanager
    def restrict_candidates(self, allowed):
        yield


def test_protocol_only_predicate_answers_through_query(engine):
    query = engine.from_strings(ROWS).predicate(ProtocolOnly())
    expected = [(4, 1.0), (5, 1.0), (2, 0.5)]
    assert _rows(query.rank("AT&T Inc")) == expected
    assert _rows(query.top_k("AT&T Inc", 2)) == expected[:2]
    assert _rows(query.select("AT&T Inc", 0.75)) == expected[:2]
    batches = query.run_many(["AT&T Inc", "IBM"], op="top_k", k=1)
    assert [_rows(batch) for batch in batches] == [expected[:1], [(3, 0.5)]]
    assert query.last_run_many_stats.candidates_per_query == (3, 2)
    _assert_strings(query.rank("AT&T Inc"))
    assert query.explain("AT&T Inc", op="top_k", k=2).num_results == 2


class FilteredEditDistance(EditDistance):
    """Overrides a public operation: the engine must honour the override."""

    def rank(self, query, limit=None):
        results = self.select(query, 0.7)
        return results[:limit] if limit is not None else results


def test_public_override_answers_through_query(engine):
    predicate = FilteredEditDistance()
    query = engine.from_strings(ROWS).predicate(predicate)
    answer = query.rank("AT&T Inc")
    assert _rows(answer) == _rows(predicate.rank("AT&T Inc"))
    assert all(match.score >= 0.7 for match in answer)
    assert len(answer) < len(EditDistance().fit(ROWS).rank("AT&T Inc"))
    _assert_strings(answer)
    assert query.top_k("AT&T Inc", 1) == answer[:1]
    assert query.run_many(["AT&T Inc"], op="top_k", k=1) == [answer[:1]]


# -- accuracy metrics from hit ranks -------------------------------------------


def _list_average_precision(ranking, relevant) -> float:
    relevant = set(relevant)
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for rank, tid in enumerate(ranking, start=1):
        if tid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def _list_max_f1(ranking, relevant) -> float:
    best = 0.0
    for precision, recall in precision_recall_curve(ranking, relevant):
        if precision + recall == 0.0:
            continue
        best = max(best, 2.0 * precision * recall / (precision + recall))
    return best


def _ranking_with_ties(scores) -> List[int]:
    pairs = sorted(enumerate(scores), key=lambda pair: (-pair[1], pair[0]))
    return [tid for tid, _ in pairs]


@pytest.mark.parametrize(
    "ranking, relevant",
    [
        ([], {1, 2}),
        ([0, 1, 2], set()),
        ([3, 4, 5, 6], {0, 1}),  # no hits
        ([2, 0, 1], {0, 1, 2}),  # all hits
        ([5, 1, 7, 2, 9, 3], {1, 2, 3, 4}),
        (_ranking_with_ties([0.5, 0.9, 0.5, 0.5, 0.1, 0.9, 0.5]), {2, 3, 4}),
    ],
)
def test_metrics_equal_the_list_formulas(ranking, relevant):
    assert average_precision(ranking, relevant) == _list_average_precision(ranking, relevant)
    assert max_f1(ranking, relevant) == _list_max_f1(ranking, relevant)


@given(
    scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=60),
    relevant=st.sets(st.integers(0, 70), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_metrics_equal_the_list_formulas_on_tied_rankings(scores, relevant):
    ranking = _ranking_with_ties(scores)
    assert average_precision(ranking, relevant) == _list_average_precision(ranking, relevant)
    assert max_f1(ranking, relevant) == _list_max_f1(ranking, relevant)


@pytest.mark.parametrize("realization", ["direct", "declarative"])
def test_accuracy_runner_builds_no_match(small_dataset, monkeypatch, realization):
    runner = ExperimentRunner(small_dataset, "small")
    fitted = runner.evaluate("jaccard", num_queries=10, realization=realization)
    with match_builds(monkeypatch) as built:
        again = runner.evaluate(
            "jaccard", num_queries=10, keep_outcomes=True, realization=realization
        )
    assert built[0] == 0
    assert again.mean_average_precision == fitted.mean_average_precision
    query = runner.engine.from_strings(small_dataset.strings).predicate("jaccard")
    query = query.realization(realization)
    for outcome in again.outcomes:
        ranking = [match.tid for match in query.rank(outcome.query_text)]
        relevant = small_dataset.relevant_for(outcome.query_tid)
        assert outcome.average_precision == _list_average_precision(ranking, relevant)
        assert outcome.max_f1 == _list_max_f1(ranking, relevant)
        assert outcome.num_retrieved == len(ranking)
