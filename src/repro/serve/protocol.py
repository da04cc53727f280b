"""Wire schema of the serving layer: request parsing and JSON envelopes.

Everything the server speaks is JSON under one version tag
(:data:`SERVE_SCHEMA`, styled after ``repro.obs/1``): query requests come in
as flat dicts, results leave as ``{"kind": "result", ...}`` envelopes whose
``matches`` entries mirror :class:`~repro.core.predicates.base.Match`
field-for-field, and every failure -- parse error, admission rejection,
deadline expiry -- is a ``{"kind": "error", ...}`` envelope carrying the
HTTP status the server responds with.

:class:`QueryRequest` is the validated form of one query.  Its
:meth:`~QueryRequest.batch_key` names the *plan* the request executes under
(corpus, predicate, realization, backend, sharding, operation and operation
parameters); the micro-batcher coalesces only requests whose batch keys are
equal, which is exactly the condition under which
:meth:`~repro.engine.query.Query.run_many` answers them in one execution
with results bit-identical to running each alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predicates.base import Match
from repro.engine import registry
from repro.shard.executors import EXECUTORS

__all__ = [
    "SERVE_SCHEMA",
    "ProtocolError",
    "QueryRequest",
    "parse_query_request",
    "match_to_dict",
    "result_envelope",
    "error_envelope",
]

#: Version tag stamped on every request/response envelope.
SERVE_SCHEMA = "repro.serve/1"

#: Operations a request may name (the engine's single-query terminals).
_OPS = ("rank", "top_k", "select")


class ProtocolError(Exception):
    """A request the server refuses, with the HTTP status it answers with."""

    def __init__(self, message: str, status: int = 400, error: str = "bad_request"):
        super().__init__(message)
        self.status = int(status)
        self.error = error

    def envelope(self) -> dict:
        return error_envelope(self.status, self.error, str(self))


@dataclass(frozen=True)
class QueryRequest:
    """One validated similarity query bound for the engine.

    ``corpus_id`` names a relation previously registered with the service;
    the remaining fields select the plan (predicate / realization / backend /
    shards) and the operation.  ``timeout`` is the per-request deadline in
    seconds covering queue wait *and* execution.
    """

    corpus_id: str
    text: str
    op: str = "top_k"
    k: Optional[int] = None
    threshold: Optional[float] = None
    limit: Optional[int] = None
    predicate: str = "bm25"
    realization: Optional[str] = None
    backend: Optional[str] = None
    num_shards: int = 1
    executor: Optional[str] = None
    timeout: Optional[float] = None
    #: Server-side only (never on the wire): the absolute
    #: :class:`~repro.resilience.retry.Deadline` minted from ``timeout`` when
    #: the request was accepted.  Excluded from equality so identical wire
    #: requests still compare equal; ``batch_key`` enumerates fields
    #: explicitly, so coalescing is unaffected.
    deadline: Optional[object] = field(default=None, compare=False)

    def batch_key(self) -> Tuple:
        """Coalescing key: requests sharing it run as one ``run_many`` batch."""
        return (
            self.corpus_id,
            self.predicate,
            self.realization,
            self.backend,
            self.num_shards,
            self.executor,
            self.op,
            self.k,
            self.threshold,
            self.limit,
        )


def _require(payload: Dict, field: str) -> object:
    value = payload.get(field)
    if value is None:
        raise ProtocolError(f"missing required field {field!r}")
    return value


def _plan_name(payload: Dict, field: str, names, fold: bool = False) -> Optional[str]:
    """An optional plan field: absent, or one of the engine's ``names``
    (``fold``: compared the way the engine does, stripped and lower-cased).

    A typo here is the client's error: left to the engine it would answer
    500 and count against the corpus breaker.
    """
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ProtocolError(f"{field} must be a string")
    if (value.strip().lower() if fold else value) not in names:
        raise ProtocolError(
            f"unknown {field} {value!r}; expected one of {sorted(names)}"
        )
    return value


def parse_query_request(
    payload: object, default_timeout: Optional[float] = None
) -> QueryRequest:
    """Validate one ``POST /query`` body into a :class:`QueryRequest`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(payload) - {
        "corpus_id",
        "text",
        "op",
        "k",
        "threshold",
        "limit",
        "predicate",
        "realization",
        "backend",
        "num_shards",
        "executor",
        "timeout",
    }
    if unknown:
        raise ProtocolError(f"unknown field(s): {sorted(unknown)}")
    corpus_id = _require(payload, "corpus_id")
    text = _require(payload, "text")
    if not isinstance(corpus_id, str):
        raise ProtocolError("corpus_id must be a string")
    if not isinstance(text, str):
        raise ProtocolError("text must be a string")
    op = payload.get("op", "top_k")
    if op not in _OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(_OPS)}")
    k = payload.get("k")
    threshold = payload.get("threshold")
    if op == "top_k" and (
        k is None or not isinstance(k, int) or isinstance(k, bool) or k < 0
    ):
        raise ProtocolError("op='top_k' requires a non-negative integer k")
    if op == "select":
        if threshold is None or isinstance(threshold, bool) or not isinstance(
            threshold, (int, float)
        ):
            raise ProtocolError("op='select' requires a numeric threshold")
        threshold = float(threshold)
    limit = payload.get("limit")
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
        raise ProtocolError("limit must be an integer")
    num_shards = payload.get("num_shards", 1)
    if not isinstance(num_shards, int) or isinstance(num_shards, bool) or num_shards < 1:
        raise ProtocolError("num_shards must be an integer >= 1")
    timeout = payload.get("timeout", default_timeout)
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ProtocolError("timeout must be a number of seconds")
        timeout = float(timeout)
        if timeout <= 0:
            raise ProtocolError("timeout must be positive")
    predicate = payload.get("predicate", "bm25")
    if not isinstance(predicate, str):
        raise ProtocolError("predicate must be a string")
    try:
        registry.canonical_name(predicate)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return QueryRequest(
        corpus_id=corpus_id,
        text=text,
        op=op,
        k=k,
        threshold=threshold,
        limit=limit,
        predicate=predicate,
        realization=_plan_name(payload, "realization", registry.REALIZATIONS),
        backend=_plan_name(payload, "backend", registry.BACKENDS, fold=True),
        num_shards=num_shards,
        executor=_plan_name(payload, "executor", EXECUTORS, fold=True),
        timeout=timeout,
    )


def match_to_dict(match: Match) -> dict:
    """One result row of the wire format (mirrors ``Match`` exactly)."""
    return {"tid": match.tid, "score": match.score, "string": match.string}


def result_envelope(
    request: QueryRequest,
    matches: Sequence[Match],
    batch_size: int,
    seconds: float,
) -> dict:
    """A successful query response."""
    return {
        "schema": SERVE_SCHEMA,
        "kind": "result",
        "status": 200,
        "corpus_id": request.corpus_id,
        "op": request.op,
        "matches": [match_to_dict(match) for match in matches],
        "batch_size": int(batch_size),
        "seconds": float(seconds),
    }


def error_envelope(
    status: int, error: str, message: str, retry_after: Optional[float] = None
) -> dict:
    """A failure response (parse error, rejection, timeout, shutdown...).

    ``retry_after`` (seconds) rides along when the failure is known to be
    temporary -- a draining server or an open circuit breaker -- and the
    server surfaces it as the HTTP ``Retry-After`` header as well.
    """
    envelope = {
        "schema": SERVE_SCHEMA,
        "kind": "error",
        "status": int(status),
        "error": error,
        "message": message,
    }
    if retry_after is not None:
        envelope["retry_after"] = max(0.0, float(retry_after))
    return envelope


def matches_from_payload(rows: Sequence[dict]) -> List[Match]:
    """Rebuild ``Match`` objects from a result envelope (client side)."""
    return [
        Match(tid=row["tid"], score=row["score"], string=row.get("string"))
        for row in rows
    ]
