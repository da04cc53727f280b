"""Correctness gate of the perf ledger: references, comparison, golden digests.

Before anything is timed, every distinct ``(target, op, parameters, query)``
of the workload gets a *reference answer* from the plain path of the same
commit -- the direct, unsharded, unblocked realization through
``Query.rank`` / ``Query.select`` -- and every timed answer is compared with
it:

* direct, sharded and served answers must be the bit-identical
  ``[(tid, score), ...]`` list;
* declarative answers are compared the way ``tests/test_engine_parity.py``
  does: the same scores position by position and every tid carrying its own
  reference score, both within ``1e-9`` relative -- which allows tids to swap
  inside a group of tied scores and nothing else.

For seed 20070611 the reference answers are additionally digested (tids and
scores at 12 significant digits) and compared with the committed
``golden/<workload>.json``, so a later commit is checked against this one
and not only against itself.  A run at that seed writes candidate files to
``out/golden/``; copying them to ``golden/`` accepts that commit's answers.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Call, Target, Workload

__all__ = [
    "GOLDEN_SEED",
    "Answer",
    "References",
    "answers_match",
    "digest",
    "golden_path",
    "load_golden",
]

GOLDEN_SEED = 20070611

#: One query's answer: ``[(tid, score), ...]`` in ranked order.
Answer = List[Tuple[int, float]]

_RELATIVE_TOLERANCE = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _RELATIVE_TOLERANCE * max(1.0, abs(a), abs(b))


def _key(target: Target, call: Call, text: str) -> tuple:
    return (
        target.corpus, target.predicate, call.query_op,
        call.k, call.threshold, call.limit, text,
    )


class References:
    """Reference answers of one workload, built on a plain engine.

    ``engine`` is any :class:`~repro.engine.SimilarityEngine`; the references
    run ``engine.from_strings(corpus).predicate(name)`` with nothing else
    configured.  For declarative targets the *full* reference ranking is kept
    as well, so tids that tie with the k-th score can be recognised.
    """

    def __init__(self, workload: Workload, engine) -> None:
        self._expected: Dict[tuple, Answer] = {}
        self._full: Dict[tuple, Dict[int, float]] = {}
        queries = {}
        for call in workload.round_calls:
            target = workload.targets[call.target]
            plain = queries.get((target.corpus, target.predicate))
            if plain is None:
                plain = engine.from_strings(workload.corpora[target.corpus]).predicate(
                    target.predicate
                )
                queries[(target.corpus, target.predicate)] = plain
            for text in call.texts:
                key = _key(target, call, text)
                if key in self._expected:
                    continue
                limit = call.k if call.query_op == "top_k" else call.limit
                if call.query_op == "select":
                    matches = plain.select(text, call.threshold)
                elif target.exact:
                    matches = plain.rank(text, limit=limit)
                else:
                    full = plain.rank(text)
                    self._full[key] = {m.tid: m.score for m in full}
                    matches = full if limit is None else full[:limit]
                self._expected[key] = [(m.tid, m.score) for m in matches]

    def failures(
        self, workload: Workload, call: Call, answers: Sequence[Answer]
    ) -> int:
        """1 if any query of the call was answered wrongly, else 0."""
        target = workload.targets[call.target]
        if len(answers) != len(call.texts):
            return 1
        for text, answer in zip(call.texts, answers):
            key = _key(target, call, text)
            if not answers_match(
                self._expected[key], answer, target.exact, self._full.get(key)
            ):
                return 1
        return 0

    def digest(self) -> str:
        return digest(self._expected[key] for key in sorted(self._expected))


def answers_match(
    expected: Answer,
    answer: Answer,
    exact: bool,
    full_scores: Optional[Dict[int, float]] = None,
) -> bool:
    """Whether ``answer`` is a correct rendering of ``expected``."""
    if exact:
        return list(answer) == list(expected)
    if len(answer) != len(expected):
        return False
    if len({tid for tid, _ in answer}) != len(answer):
        return False
    scores = full_scores if full_scores is not None else dict(expected)
    for (_, want), (tid, got) in zip(expected, answer):
        own = scores.get(tid)
        if own is None or not _close(got, own) or not _close(got, want):
            return False
    return True


def digest(answers) -> str:
    """SHA-256 over tids and scores at 12 significant digits."""
    sha = hashlib.sha256()
    for answer in answers:
        for tid, score in answer:
            sha.update(f"{tid}:{score:.12g};".encode("ascii"))
        sha.update(b"|")
    return sha.hexdigest()


def golden_path(workload: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "golden", f"{workload}.json")


def load_golden(workload: str) -> Optional[dict]:
    try:
        with open(golden_path(workload), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
