"""A long-lived HTTP/1.1 front for the similarity service (stdlib only).

The server is deliberately small: asyncio streams, a hand-rolled HTTP/1.1
request parser (request line, headers, ``Content-Length`` bodies,
keep-alive) and JSON in both directions -- no web framework, matching the
repository's no-new-dependencies rule.  Routes:

========  ============  ====================================================
method    path          behavior
========  ============  ====================================================
GET       /healthz      liveness + queue/corpus occupancy
GET       /metrics      ``repro.obs/1`` metrics snapshot of the registry
POST      /corpora      register a relation ``{"strings": [...]}``
POST      /query        one similarity query (see ``repro.serve.protocol``)
POST      /shutdown     begin a graceful drain, then stop
========  ============  ====================================================

Graceful shutdown (``POST /shutdown`` or SIGTERM/SIGINT when installed via
:func:`run_server`) follows the standard drain sequence: stop accepting new
connections, answer new requests on kept-alive connections with 503,
finish every admitted request, flush the micro-batcher, then release all
engine warm state (``SimilarityService.close`` -> ``clear_cache`` closes
engine-owned SQL backends and shard pools).  In-flight requests are never
dropped -- the drain test sends SIGTERM mid-request and asserts every
response still arrives.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
from typing import Callable, Dict, Optional, Tuple

from repro.obs.export import metrics_to_json
from repro.serve.protocol import SERVE_SCHEMA, ProtocolError, error_envelope
from repro.serve.service import SimilarityService

__all__ = ["ServeServer", "run_server"]

#: Largest request body the server reads (guards the JSON parser).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServeServer:
    """Binds a :class:`SimilarityService` to a TCP port."""

    def __init__(
        self,
        service: SimilarityService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = asyncio.Event()
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Run until a drain is requested, then shut down cleanly."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.drain()

    def request_stop(self) -> None:
        """Signal-safe trigger for a graceful drain (SIGTERM handler)."""
        self._stopping.set()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, release engine state."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        await self._idle.wait()
        # Idle kept-alive connections sit blocked in readline(); cancel them
        # so the loop shuts down without unhandled-cancellation noise.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        self.service.close()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except ProtocolError as exc:
                    # Where the next request starts is unknown (bad length,
                    # over-long line, refused body), so the stream cannot be
                    # resynchronized: answer and close.
                    await self._write_response(
                        writer, exc.status, exc.envelope(), keep_alive=False
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                self._inflight += 1
                self._idle.clear()
                try:
                    status, payload = await self._dispatch(method, path, body)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Drain cancels idle kept-alive connections; finishing normally
            # (instead of in the cancelled state) keeps asyncio's stream
            # done-callback from logging the cancellation as an error.
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            request_line = await self._read_line(reader)
        except ConnectionError:
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        declared = headers.get("content-length", "0") or "0"
        # isdigit() and not int(): "-5", "+5", "abc" and "1_0" are all
        # refused, and readexactly() never sees a negative size.
        if not (declared.isascii() and declared.isdigit()):
            raise ProtocolError(f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} "
                "byte limit",
                status=413,
                error="payload_too_large",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One request or header line; 431 when it exceeds the stream limit
        (``readline`` reports that as a bare ``ValueError``)."""
        try:
            return await reader.readline()
        except ValueError:
            raise ProtocolError(
                "request line or header line too long",
                status=431,
                error="header_too_large",
            ) from None

    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        """Route one request; never raises (errors become envelopes)."""
        try:
            if path == "/healthz" and method == "GET":
                return 200, self._health_payload()
            if path == "/metrics" and method == "GET":
                return 200, metrics_to_json(self.service.obs.metrics)
            if path == "/corpora" and method == "POST":
                return self._register_corpus(self._parse_json(body))
            if path == "/query" and method == "POST":
                envelope = await self.service.handle(self._parse_json(body))
                return envelope["status"], envelope
            if path == "/shutdown" and method == "POST":
                self.request_stop()
                return 200, {"schema": SERVE_SCHEMA, "kind": "shutdown", "status": 200}
            if path in ("/healthz", "/metrics", "/corpora", "/query", "/shutdown"):
                raise ProtocolError(
                    f"{method} not allowed on {path}",
                    status=405,
                    error="method_not_allowed",
                )
            raise ProtocolError(f"no route {path!r}", status=404, error="not_found")
        except ProtocolError as exc:
            return exc.status, exc.envelope()
        except Exception as exc:  # a bug in a handler must not kill the server
            envelope = error_envelope(500, "internal", f"{type(exc).__name__}: {exc}")
            return 500, envelope

    def _health_payload(self) -> dict:
        service = self.service
        return {
            "schema": SERVE_SCHEMA,
            "kind": "health",
            "status": 200,
            "draining": service.draining,
            "active_requests": service.admission.active,
            "queued_requests": service.admission.waiting,
            "pending_batches": service.batcher.pending,
            "corpora": service.corpus_ids,
        }

    def _register_corpus(self, payload: object) -> Tuple[int, dict]:
        if self.service.draining:
            raise ProtocolError("server is draining", status=503, error="draining")
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        corpus_id, num_tuples, created = self.service.register_corpus(
            payload.get("strings")
        )
        return 200, {
            "schema": SERVE_SCHEMA,
            "kind": "corpus",
            "status": 200,
            "corpus_id": corpus_id,
            "num_tuples": num_tuples,
            "created": created,
        }

    @staticmethod
    def _parse_json(body: bytes) -> object:
        if not body:
            raise ProtocolError("empty request body")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        # Temporary failures (open breaker, draining) carry a retry hint in
        # the envelope; surface it as the standard header too so plain HTTP
        # clients can back off without parsing the body.
        retry_after = payload.get("retry_after") if isinstance(payload, dict) else None
        retry_header = (
            f"Retry-After: {max(1, math.ceil(float(retry_after)))}\r\n"
            if retry_after is not None
            else ""
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def run_server(
    service: SimilarityService,
    host: str = "127.0.0.1",
    port: int = 0,
    install_signal_handlers: bool = True,
    on_listening: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking entry point: serve until SIGTERM/SIGINT or ``POST /shutdown``."""

    async def _main() -> None:
        server = ServeServer(service, host=host, port=port)
        bound_host, bound_port = await server.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(signum, server.request_stop)  # no-op on non-POSIX loops
        if on_listening is not None:
            on_listening(bound_host, bound_port)
        await server.serve_until_stopped()

    asyncio.run(_main())
