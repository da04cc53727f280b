"""The blocking contract is one contract on every predicate host.

:class:`repro.blocking.host.BlockingHost` implements attaching a blocker,
the candidate restriction and the threshold check once; the direct, the
declarative (in-memory engine and SQLite) and the sharded (serial and thread
executors) predicates inherit it.  Each check below runs on every host and
expects the same observable outcome.
"""

from __future__ import annotations

import warnings

import pytest

from repro.blocking import make_blocker
from repro.core.predicates import make_predicate
from repro.declarative import make_declarative_predicate
from repro.shard import ShardedPredicate

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
QUERY = "Morgan Stanley Group"

HOSTS = ["direct", "declarative-memory", "declarative-sqlite", "sharded-serial", "sharded-thread"]


def _make(kind, name):
    if kind == "direct":
        return make_predicate(name)
    if kind.startswith("declarative-"):
        return make_declarative_predicate(name, backend=kind.split("-")[1])
    return ShardedPredicate(
        lambda: make_predicate(name), num_shards=2, executor=kind.split("-")[1]
    )


@pytest.fixture(params=HOSTS)
def host(request):
    """``host(name)``: a fitted predicate of that name on this host kind."""
    made = []

    def build(name):
        predicate = _make(request.param, name).fit(ROWS)
        made.append(predicate)
        return predicate

    yield build
    for predicate in made:
        if isinstance(predicate, ShardedPredicate):
            predicate.close()
        elif hasattr(predicate, "backend"):
            predicate.backend.close()


def test_select_below_the_blocker_threshold_is_refused(host):
    predicate = host("jaccard")
    predicate.set_blocker(make_blocker("length", threshold=0.8))
    with pytest.raises(ValueError) as raised:
        predicate.select(QUERY, 0.5)
    assert str(raised.value) == (
        "selection threshold 0.5 is below the threshold the attached 'length' "
        "blocker was built for; rebuild the blocker with the lower threshold"
    )
    predicate.select(QUERY, 0.8)


def test_jaccard_derived_blocker_on_bm25_warns_once(host):
    predicate = host("bm25")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        predicate.set_blocker(make_blocker("length+prefix", threshold=0.6))
    assert [str(w.message) for w in caught] == [
        "BlockingPipeline derives its bounds from Jaccard semantics; with the "
        "BM25 predicate it is a heuristic and may drop candidates whose score "
        "reaches the threshold"
    ]
    assert caught[0].category is UserWarning
    # Attributed to the caller of set_blocker, whichever host it is.
    assert caught[0].filename == __file__


def test_nested_restrictions_restore_the_outer_one(host):
    predicate = host("bm25")

    def tids():
        return {match.tid for match in predicate.rank(QUERY)}

    unrestricted = tids()
    outer_score = predicate.score(QUERY, 0)
    assert outer_score != 0.0 and {0, 7} <= unrestricted
    with predicate.restrict_candidates({0, 7}):
        assert tids() == {0, 7}
        with predicate.restrict_candidates({7}):
            assert tids() == {7}
            assert predicate.score(QUERY, 0) == 0.0
        assert tids() == {0, 7}
        assert predicate.score(QUERY, 0) == outer_score
        with pytest.raises(RuntimeError):
            with predicate.restrict_candidates({7}):
                assert predicate.score(QUERY, 0) == 0.0
                raise RuntimeError("body failed")
        assert tids() == {0, 7}
        assert predicate.score(QUERY, 0) == outer_score
    assert tids() == unrestricted


def test_reattaching_a_fitted_blocker_does_not_refit_it(host, monkeypatch):
    predicate = host("jaccard")
    blocker = make_blocker("length+prefix", threshold=0.6)
    fits = []
    for part in [blocker, *blocker.stages]:
        fit = part._fit
        monkeypatch.setattr(part, "_fit", lambda core, fit=fit: fits.append(core) or fit(core))
    predicate.set_blocker(blocker)
    assert len(fits) == 3  # the pipeline and its two stages
    expected = predicate.select(QUERY, 0.6)
    for _ in range(3):
        predicate.set_blocker(None)
        predicate.select(QUERY, 0.6)
        predicate.set_blocker(blocker)
        assert predicate.select(QUERY, 0.6) == expected
    assert len(fits) == 3
