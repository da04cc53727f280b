"""Similarity-as-a-service: the async serving layer over the engine.

The paper's engine answers one caller at a time; this package turns it into
a long-lived service multiplexing many concurrent clients:

* :mod:`repro.serve.admission` -- bounded queue + concurrency with
  immediate-reject backpressure (429) and deadline timeouts (504);
* :mod:`repro.serve.batcher` -- micro-batching of plan-compatible requests
  into single ``run_many`` executions (bit-identical results): a request
  for an idle corpus is dispatched at once, one for a busy corpus waits for
  company until the engine frees up, capped by ``batch_window``;
* :mod:`repro.serve.service` -- per-corpus engine lifecycle (content-hash
  interning, one built ``Query`` per plan, LRU eviction releasing warm
  state) and the request pipeline (admission -> batch_wait -> batch);
* :mod:`repro.serve.server` -- a stdlib-only asyncio HTTP/1.1 front with
  graceful drain on SIGTERM / ``POST /shutdown``;
* :mod:`repro.serve.client` -- the synchronous reference client, with
  opt-in bounded retries honoring ``Retry-After``;
* :mod:`repro.serve.protocol` -- the ``repro.serve/1`` JSON wire schema.

Degraded-mode behavior (per-corpus circuit breakers, request deadlines
propagated into the engine, fault injection via ``REPRO_FAULTS``) comes
from :mod:`repro.resilience` and is wired through
:class:`~repro.serve.service.SimilarityService`.

Start a server from the CLI (``repro serve --port 8077``) or embed the
service directly::

    from repro.serve import SimilarityService

    service = SimilarityService(max_concurrency=4, batch_window=0.002)
    corpus_id, _, _ = service.register_corpus(rows)
    envelope = await service.handle(
        {"corpus_id": corpus_id, "text": "AT&T", "op": "top_k", "k": 5}
    )
"""

from repro.serve.admission import AdmissionController, AdmissionTimeout, RejectedError
from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    SERVE_SCHEMA,
    ProtocolError,
    QueryRequest,
    parse_query_request,
)
from repro.serve.server import ServeServer, run_server
from repro.serve.service import SimilarityService, corpus_id_for

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "MicroBatcher",
    "ProtocolError",
    "QueryRequest",
    "RejectedError",
    "SERVE_SCHEMA",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "SimilarityService",
    "corpus_id_for",
    "parse_query_request",
    "run_server",
]
