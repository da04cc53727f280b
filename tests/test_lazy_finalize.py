"""Exactness of selection under the language models' deferred finalizer.

``lm`` and ``hmm`` return their candidates' *log*
scores (the ``logs`` of :class:`repro.core.kernels.Scores`), and ``top_k`` /
``rank(limit=k)`` / ``select(t)`` run ``math.exp`` on a superset of the
winners only -- plain, blocked or restricted -- guarded
by a proof that no other candidate could have entered the answer.  The
answers must be ``==`` the reference scorer's (``tests/reference.py``) --
including where the guard must give up: scores that underflow ``exp`` to
``0.0`` or overflow it to ``inf`` (ties the log domain would break the other
way), thresholds ``<= 0``, and ``k`` at or beyond the candidate count -- and
the guard's own counters say which way each selection went.  ``hmm`` on a
long query overflows ``exp``, and reads ``inf`` like ``lm`` instead of
raising.
"""

import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import Reference
from repro.blocking import make_blocker
from repro.core import kernels
from repro.core.predicates.hmm import HMM
from repro.core.predicates.language_model import LanguageModeling
from repro.engine import SimilarityEngine
from repro.shard import ShardedPredicate

PREDICATES = [LanguageModeling, HMM]


def _extreme_rows():
    """A query and rows whose lm log scores leave ``exp``'s range both ways.

    The query's 800 distinct bigrams are frequent in the collection (five
    verbatim copies: log score ≈ +1460, ``exp`` overflows to ``inf``) but
    occur once each inside two ~17k-character rows, where the smoothed
    probability is tiny (log score ≈ -786, ``exp`` underflows to ``0.0``).
    """
    rng = random.Random(3)
    query = "".join(chr(0x4E00 + i) for i in range(800))

    def filler(size):
        return "".join(chr(0x0400 + rng.randrange(60)) for _ in range(size))

    long_rows = [filler(8000) + query + filler(8000) for _ in range(2)]
    return query, [query] * 5 + long_rows


EXTREME_QUERY, EXTREME_ROWS = _extreme_rows()


def _full(scores):
    """Every candidate finalized, as a plain dict."""
    return dict(kernels.sorted_items(scores))


def _reference_top(scores, k):
    return heapq.nlargest(k, _full(scores).items(), key=lambda item: (item[1], -item[0]))


def _reference_select(scores, threshold):
    survivors = [item for item in _full(scores).items() if item[1] >= threshold]
    return sorted(survivors, key=lambda item: (-item[1], item[0]))


def _pairs(matches):
    return [(match.tid, match.score) for match in matches]


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("cls", PREDICATES)
def test_scores_beyond_exp_select_like_the_reference(cls, num_shards):
    """Log scores that overflow ``exp`` to ``inf`` and underflow it to
    ``0.0`` tie after finalization: every selection is the reference
    scorer's, at every ``k`` and at thresholds down to ``0`` and the
    smallest subnormal -- unsharded, and merged from two shards that each
    finalize their own winners.  (Ordinary corpora are
    ``tests/test_reference.py``'s.)"""
    rows = EXTREME_ROWS + ["", "ab cd", "ab", "ab"]
    name = "lm" if cls is LanguageModeling else "hmm"
    reference = Reference(name, rows)
    if num_shards == 1:
        predicate = cls().fit(rows)
    else:
        predicate = ShardedPredicate(cls, num_shards=num_shards).fit(rows)
    for query in (EXTREME_QUERY, "ab", ""):
        ranking = reference.rank(query)
        for k in (1, 2, 3, 5, 6, 8, 1000):
            assert _pairs(predicate.rank(query, limit=k)) == ranking[:k]
            assert _pairs(predicate.top_k(query, k)) == ranking[:k]
        for threshold in (0, 0.0, 5e-324, 1e-300, 1e-3, 1.0, math.inf):
            assert _pairs(predicate.select(query, threshold)) == [
                item for item in ranking if item[1] >= threshold
            ]


class TestDeferredSelectionIsExact:
    @given(
        logs=st.lists(
            st.sampled_from(
                [-1000.0, -800.0, -745.2, -3.0, -1e-300, 0.0, 2.5, 709.7, 710.0, 720.0]
            ),
            min_size=1,
            max_size=40,
        ),
        wobble=st.lists(st.integers(-3, 3), min_size=40, max_size=40),
        k=st.integers(1, 45),
        threshold=st.sampled_from([0.0, 1e-320, 0.04978706836786394, 1.0, 12.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernels_on_near_ties(self, logs, wobble, k, threshold):
        """Logs a few ULPs apart finalize to ties, and so do distinct logs
        that underflow to ``0.0`` or overflow to ``inf``: the margin must
        keep the first in the superset, the guard must give up on the rest."""
        values = np.array(logs, dtype=np.float64)
        for i, steps in enumerate(wobble[: values.size]):
            for _ in range(abs(steps)):
                values[i] = np.nextafter(values[i], math.copysign(math.inf, steps))
        tids = np.arange(values.size, dtype=np.int64) * 3
        top = kernels.top_items(kernels.Scores(tids, logs=values), k)
        selected = kernels.select_items(kernels.Scores(tids, logs=values), threshold)
        reference = kernels.Scores(tids, logs=values)
        assert top == _reference_top(reference, k)
        assert selected == _reference_select(reference, threshold)


class TestGuard:
    def _counted(self, call):
        before = kernels.ops_snapshot()
        result = call()
        after = kernels.ops_snapshot()
        deferred = after["finalize_deferred"] - before["finalize_deferred"]
        fallback = after["finalize_fallback"] - before["finalize_fallback"]
        return result, deferred, fallback

    def test_fallback_fires_on_the_underflow_corpus(self):
        lm = LanguageModeling().fit(EXTREME_ROWS + ["", "x"])
        scores = lm._scores(EXTREME_QUERY)
        assert sorted(_full(scores).values()) == [0.0, 0.0] + [math.inf] * 5
        # k = 6 ends on the two rows whose scores underflow to 0.0: the log
        # domain ranks tid 6 first, the finalized tie goes to tid 5.
        top, deferred, fallback = self._counted(lambda: lm.top_k(EXTREME_QUERY, 6))
        assert (deferred, fallback) == (0, 1)
        assert _pairs(top) == _reference_top(scores, 6)
        assert top[-1].tid == 5 and top[-1].score == 0.0

    @pytest.mark.parametrize("pruned", [None, "restricted", "lsh"])
    @pytest.mark.parametrize("cls", PREDICATES)
    def test_plain_top_k_finalizes_a_superset_only(self, cls, pruned):
        """Plain, restricted (odd tids) and LSH-blocked calls alike select in
        the log domain: the allowance narrows the logs, it finalizes none."""
        rows = ["morgan stanley", "morgan stanly", "stanley works"] * 30
        query = "morgan stanley"
        predicate = cls().fit(rows)
        allowed = set(range(1, len(rows), 2)) if pruned == "restricted" else None
        if pruned == "lsh":
            predicate.set_blocker(make_blocker("lsh", lsh_bands=4, lsh_rows=2))
        with predicate.restrict_candidates(allowed):
            top, deferred, fallback = self._counted(lambda: predicate.top_k(query, 3))
            assert (deferred, fallback) == (1, 0)
            scores = predicate._candidate_scores(query)
            assert kernels.top_items(scores, 3) == _pairs(top)
            assert scores.values is None  # selection finalized no full array
            assert _pairs(top) == _reference_top(scores, 3)
            ranking = Reference(predicate.name.lower(), rows).rank(query)
            want = [item for item in ranking if item[0] in _full(scores)][:3]
            assert _pairs(top) == want
            if allowed is not None:
                assert {tid for tid, _ in want} <= allowed

    def test_non_positive_threshold_falls_back(self):
        lm = LanguageModeling().fit(["ab", "abc", "bcd"])
        _, deferred, fallback = self._counted(lambda: lm.select("ab", 0.0))
        assert (deferred, fallback) == (0, 1)

    def test_engine_publishes_the_counters_and_names_the_path(self):
        engine = SimilarityEngine()
        query = engine.from_strings(["ab cd", "ab ef"] * 40).predicate("lm")
        notes = query.plan("top_k").notes
        report = query.explain("ab cd", k=3)
        query.top_k("ab cd", 3)
        path = "dense scan + partition (numpy kernel), finalize k"
        assert f"top_k: {path}" in notes
        assert report.execution == f"top_k via {path}"
        counters = engine.obs.metrics.to_dict()["counters"]
        assert counters.get("kernel_ops.finalize_deferred", 0) >= 1


def test_top_k_algorithm_names_the_deferred_finalize():
    for cls in PREDICATES:
        assert cls.top_k_algorithm() == "dense-scan, finalize k"


class TestHmmOverflowReadsInf:
    """A long query sums ``hmm``'s log factors past ``exp``'s range; that is
    ``inf`` (as ``lm`` reads it), not an ``OverflowError``."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = random.Random(7)
        alphabet = "abcdefghijklmnopqrstuvwxyz "
        rows = ["".join(rng.choice(alphabet) for _ in range(60)) for _ in range(2000)]
        long_row = "".join(rng.choice(alphabet[:-1]) for _ in range(400))
        return HMM().fit(rows + [long_row]), long_row

    def test_top_k_select_and_score(self, case):
        hmm, query = case
        top = hmm.top_k(query, 3)
        selected = hmm.select(query, 1e300)
        score = hmm.score(query, 2000)
        assert top[0].tid == 2000 and top[0].score == math.inf
        assert math.isfinite(top[1].score)
        assert [match.tid for match in selected][0] == 2000
        assert score == math.inf

    def test_two_shards_read_inf_like_one(self, case):
        """Each shard finalizes its own winners; the merge keeps the ``inf``
        of the shard holding the long row and ranks it first."""
        hmm, query = case
        sharded = ShardedPredicate(HMM, num_shards=2).fit(list(hmm._strings))
        try:
            assert sharded.top_k(query, 10) == hmm.top_k(query, 10)
            assert sharded.select(query, 1e100) == hmm.select(query, 1e100)
            assert sharded.score(query, 2000) == math.inf
        finally:
            sharded.close()
