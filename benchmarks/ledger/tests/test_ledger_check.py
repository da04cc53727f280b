"""The correctness gate: a wrong answer is a failed call."""

import pytest

from check import References, answers_match, digest
from rounds import Tally, check_round
from workloads import Call, Target, Workload

from repro.engine import SimilarityEngine

STRINGS = [
    "AT&T Incorporated", "AT&T Inc.", "IBM Corporation", "IBM Corp.",
    "Morgan Stanley Group", "Morgn Stanley Grp", "Goldman Sachs", "Goldmann Sachs Inc",
]


@pytest.fixture(scope="module")
def workload():
    calls = [
        Call(target="bm25", op="top_k", texts=(text,), k=3)
        for text in ("AT&T Inc", "IBM Corp", "Morgan Stanley")
    ]
    return Workload(
        name="unit", seed=0, clients=1, corpora={"base": STRINGS},
        targets={"bm25": Target("bm25", "base", "bm25")}, round_calls=calls,
    )


@pytest.fixture(scope="module")
def engine():
    return SimilarityEngine()


class _Program:
    """Answers like the engine, except where told to corrupt."""

    def __init__(self, query):
        self.query = query

    @staticmethod
    def answers(call, raw):
        return [raw]

    def raw(self, call, corrupt=False):
        answer = [(m.tid, m.score) for m in self.query.top_k(call.texts[0], call.k)]
        if corrupt:
            answer[0] = (answer[0][0], answer[0][1] * (1 + 1e-12))
        return answer


def test_a_corrupted_answer_is_counted_in_failed_share(workload, engine):
    references = References(workload, engine)
    program = _Program(engine.from_strings(STRINGS).predicate("bm25"))
    calls = workload.round_calls
    outs = [{
        "latencies": [0.001, 0.002, 0.003],
        "raws": [program.raw(calls[0]), program.raw(calls[1], corrupt=True),
                 RuntimeError("refused")],
    }]
    tally = Tally()
    good = check_round(workload, program, references, [calls], outs, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_share == pytest.approx(2 / 3)
    assert good == [0.001]  # only correct calls contribute a latency


def test_exact_targets_must_match_bit_for_bit():
    expected = [(1, 0.5), (2, 0.25)]
    assert answers_match(expected, [(1, 0.5), (2, 0.25)], exact=True)
    assert not answers_match(expected, [(1, 0.5 + 1e-16 + 1e-13), (2, 0.25)], exact=True)
    assert not answers_match(expected, [(2, 0.25), (1, 0.5)], exact=True)
    assert not answers_match(expected, [(1, 0.5)], exact=True)


def test_declarative_targets_may_swap_tids_inside_a_tie_only():
    expected = [(1, 0.5), (2, 0.25)]
    full = {1: 0.5, 2: 0.25, 3: 0.25 * (1 + 1e-12), 4: 0.1}
    assert answers_match(expected, [(1, 0.5 * (1 + 1e-11)), (2, 0.25)], False, full)
    assert answers_match(expected, [(1, 0.5), (3, 0.25)], False, full)  # tie swap
    assert not answers_match(expected, [(1, 0.5), (4, 0.1)], False, full)
    assert not answers_match(expected, [(1, 0.5), (4, 0.25)], False, full)  # not its score
    assert not answers_match(expected, [(1, 0.5), (1, 0.5)], False, full)  # duplicate tid
    assert not answers_match(expected, [(1, 0.5)], False, full)


def test_digest_keeps_twelve_significant_digits():
    assert digest([[(1, 0.123456789012)]]) == digest([[(1, 0.1234567890123)]])
    assert digest([[(1, 0.123456789012)]]) != digest([[(1, 0.123456789013)]])
    assert digest([[(1, 0.5)], [(2, 0.5)]]) != digest([[(1, 0.5), (2, 0.5)]])
