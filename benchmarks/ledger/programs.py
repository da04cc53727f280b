"""The program under test, as the perf ledger drives it.

Two adapters turn a generated :class:`~workloads.Workload` into running
software, through public entry points only:

* :class:`LibraryProgram` -- one :class:`~repro.engine.SimilarityEngine` and
  one fluent :class:`~repro.engine.query.Query` per target (direct,
  declarative, sharded, blocked);
* :class:`ServedProgram` -- ``python -m repro.cli serve --port 0`` with
  default flags in a subprocess, the corpus registered over HTTP, one
  keep-alive :class:`~repro.serve.ServeClient` per client thread.

Both expose the same small surface: ``start()`` (what ``setup_s`` times),
``compile(call)`` (a zero-argument callable per call, so the timed loop
holds no dispatch), ``answers(call, raw)`` (normalisation, outside the timed
region), ``pids()`` (the process tree CPU and RSS are read from) and
``close()``.

:class:`TimingBackend` is the timing ``SQLBackend`` proxy of the traced
pass: handed to ``Query.backend(obj)``, it records how long the declarative
realization spends inside the backend.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.engine import SimilarityEngine
from repro.obs import MetricsRegistry, perf_clock
from repro.serve import ServeClient

from check import Answer
from measure import process_tree
from workloads import Call, Target, Workload

__all__ = ["LibraryProgram", "ServedProgram", "TimingBackend", "make_program"]

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _pairs(matches) -> Answer:
    return [(match.tid, match.score) for match in matches]


class TimingBackend(SQLBackend):
    """Transparent ``SQLBackend`` proxy that times every call into ``target``.

    ``intervals`` collects ``(start, end)`` of each backend call and
    ``statements`` the SQL text with parameters (``execute`` / ``query``
    only); the traced pass drains both per call.
    """

    def __init__(self, target: SQLBackend):
        # No super().__init__(): the target already registered the UDFs.
        self.target = target
        self.name = target.name
        self.supports_window_functions = target.supports_window_functions
        self.intervals: List[Tuple[float, float]] = []
        self.statements: List[Tuple[str, Optional[Sequence[object]]]] = []

    def _timed(self, method: Callable, *args, **kwargs):
        start = perf_clock()
        try:
            return method(*args, **kwargs)
        finally:
            self.intervals.append((start, perf_clock()))

    def drain(self) -> Tuple[List[Tuple[float, float]], List[tuple]]:
        intervals, statements = self.intervals, self.statements
        self.intervals, self.statements = [], []
        return intervals, statements

    def execute(self, sql, params=None):
        self.statements.append((sql, params))
        return self._timed(self.target.execute, sql, params)

    def query(self, sql, params=None):
        self.statements.append((sql, params))
        return self._timed(self.target.query, sql, params)

    def create_table(self, name, columns, if_not_exists=False):
        return self._timed(
            self.target.create_table, name, columns, if_not_exists=if_not_exists
        )

    def insert_rows(self, name, rows):
        return self._timed(self.target.insert_rows, name, rows)

    def drop_table(self, name, if_exists=True):
        return self._timed(self.target.drop_table, name, if_exists=if_exists)

    def has_table(self, name):
        return self._timed(self.target.has_table, name)

    def create_index(self, name, table, columns):
        return self._timed(self.target.create_index, name, table, columns)

    def register_function(self, name, num_args, func):
        self.target.register_function(name, num_args, func)

    def close(self):
        self.target.close()


class LibraryProgram:
    """The library, driven in-process through ``SimilarityEngine``/``Query``."""

    def __init__(
        self, workload: Workload, backends: Optional[Dict[str, SQLBackend]] = None
    ):
        self.workload = workload
        #: Backend name -> instance handed to ``Query.backend`` in place of
        #: the name (the traced pass passes :class:`TimingBackend` proxies).
        self.backends = backends or {}
        self.engine: Optional[SimilarityEngine] = None
        self.queries: Dict[str, object] = {}
        #: ``(start, end)`` of each target's ``fitted_predicate()`` in start().
        self.fit_spans: Dict[str, Tuple[float, float]] = {}

    def build_query(self, target: Target):
        """The fluent query of one target, on this program's engine."""
        query = self.engine.from_strings(self.workload.corpora[target.corpus])
        query = query.predicate(target.predicate)
        if target.realization != "direct":
            query = query.realization(target.realization)
        if target.backend is not None:
            query = query.backend(self.backends.get(target.backend, target.backend))
        if target.shards > 1:
            query = query.shards(target.shards, executor=target.executor)
        if target.blocker is not None:
            query = query.blocker(target.blocker)
        return query

    def start(self) -> List[Tuple[Call, List[Answer]]]:
        """Strings in hand -> first answer from every target."""
        # A private registry: counters read back later are this program's.
        self.engine = SimilarityEngine(metrics=MetricsRegistry())
        first: List[Tuple[Call, List[Answer]]] = []
        for name, target in self.workload.targets.items():
            self.queries[name] = self.build_query(target)
            call = next(c for c in self.workload.round_calls if c.target == name)
            started = perf_clock()
            self.queries[name].fitted_predicate(call.threshold)
            self.fit_spans[name] = (started, perf_clock())
            first.append((call, self.answers(call, self.compile(call)())))
        return first

    def compile(self, call: Call) -> Callable[[], object]:
        query = self.queries[call.target]
        if call.op == "run_many":
            texts = list(call.texts)
            return lambda: query.run_many(
                texts, op=call.batch_op, k=call.k,
                threshold=call.threshold, limit=call.limit,
            )
        text = call.texts[0]
        if call.op == "top_k":
            return lambda: query.top_k(text, call.k)
        if call.op == "rank":
            return lambda: query.rank(text, limit=call.limit)
        if call.op == "select":
            return lambda: query.select(text, call.threshold)
        raise ValueError(f"unknown op {call.op!r}")

    @staticmethod
    def answers(call: Call, raw) -> List[Answer]:
        if call.op == "run_many":
            return [_pairs(batch) for batch in raw]
        return [_pairs(raw)]

    def pids(self) -> List[int]:
        return process_tree(os.getpid())

    def close(self) -> None:
        if self.engine is not None:
            self.engine.clear_cache()  # closes SQL backends and shard pools
            self.engine = None
        for backend in self.backends.values():
            backend.close()
        self.queries.clear()


class ServedProgram:
    """``repro.cli serve`` in a subprocess, queried over loopback HTTP."""

    _START_TIMEOUT = 60.0

    def __init__(self, workload: Workload):
        self.workload = workload
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.corpus_id = ""
        self.clients: List[ServeClient] = []

    def client(self) -> ServeClient:
        """A fresh keep-alive connection (one per client thread)."""
        client = ServeClient(self.host, self.port)
        self.clients.append(client)
        return client

    def start(self) -> List[Tuple[Call, List[Answer]]]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.host, self.port = self._await_listening()
        control = self.client()
        (strings,) = self.workload.corpora.values()
        self.corpus_id = control.register_corpus(strings)
        first: List[Tuple[Call, List[Answer]]] = []
        for name in self.workload.targets:
            call = next(c for c in self.workload.round_calls if c.target == name)
            first.append((call, self.answers(call, self.compile(call, control)())))
        return first

    def _await_listening(self) -> Tuple[str, int]:
        deadline = perf_clock() + self._START_TIMEOUT
        stream = self.process.stdout
        while perf_clock() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)
        raise RuntimeError("serve subprocess did not announce a port")

    def compile(self, call: Call, client: Optional[ServeClient] = None) -> Callable:
        if call.op == "run_many":
            raise ValueError("the served workload sends single-query requests")
        client = client if client is not None else self.clients[0]
        options = self.options(call)
        corpus_id, text = self.corpus_id, call.texts[0]
        return lambda: client.query(corpus_id, text, **options)

    def options(self, call: Call) -> dict:
        """The wire options of one call (what ``POST /query`` carries)."""
        options = {
            "op": call.op,
            "predicate": self.workload.targets[call.target].predicate,
        }
        for name in ("k", "threshold", "limit"):
            value = getattr(call, name)
            if value is not None:
                options[name] = value
        return options

    @staticmethod
    def answers(call: Call, raw: dict) -> List[Answer]:
        return [[(row["tid"], row["score"]) for row in raw["matches"]]]

    def metrics(self) -> dict:
        """``GET /metrics`` of the server."""
        return self.clients[0].metrics()

    def pids(self) -> List[int]:
        return process_tree(self.process.pid)

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None and self.clients:
                self.clients[0].shutdown()
            process.wait(timeout=30)
        finally:  # teardown ends the process whatever went wrong above
            if process.poll() is None:
                process.kill()
                process.wait()
            for client in self.clients:
                client.close()
            self.clients.clear()
            if process.stdout is not None:
                process.stdout.close()


def make_program(workload: Workload, backends=None):
    if workload.name == "served-topk":
        return ServedProgram(workload)
    return LibraryProgram(workload, backends)
