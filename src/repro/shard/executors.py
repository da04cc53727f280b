"""Pluggable executors that run per-shard tasks serially or in parallel.

An executor is bound to the fitted shard predicates once
(:meth:`ShardExecutor.bind`) and then asked to run batches of *tasks* --
``(shard_id, op, payload)`` triples resolved by
:func:`repro.shard.predicate.execute_shard_op`.  Three strategies ship:

* :class:`SerialShardExecutor` -- in-process loop; no parallelism, no
  overhead.  The baseline, and the only strategy that can short-circuit
  shards *between* task executions.
* :class:`ThreadShardExecutor` -- a ``ThreadPoolExecutor``.  Python-level
  scoring holds the GIL, so this mainly helps when scoring releases it
  (the numpy kernels do) or for I/O-ish predicates; it exists because the
  executor seam should not hard-code that assumption.
* :class:`ProcessShardExecutor` -- a ``ProcessPoolExecutor``.  On platforms
  with ``fork`` the fitted shards are inherited copy-on-write by the worker
  processes (nothing is pickled per task but the task payloads and result
  rows); without ``fork`` the shard predicate itself is shipped with each
  task, which is correct but slow and memory-hungry -- a warning is emitted
  once.

Executors are deliberately tiny: distribution beyond one machine only needs
a fourth strategy with the same two methods.

**Self-healing.**  Shard tasks are pure functions of (fitted shard, op,
payload) -- the exactness contract the test suite pins -- so a failed task
can always be re-executed without changing the answer.  The executors lean
on that: every task failure is captured per-task (never a bare
``future.result()`` that kills the whole query), transient failures are
retried under a :class:`repro.resilience.RetryPolicy`, a broken worker pool
(e.g. a process worker that died mid-task) is rebuilt **once** and the
unfinished tasks re-run on the fresh pool, and a task that keeps failing is
finally executed serially in-process on the bound shard.  What happened is
recorded in :attr:`ShardExecutor.last_resilience` (a
:class:`~repro.resilience.ResilienceStats`), which the sharded predicate
merges per query and the engine surfaces in ``explain()`` and as
``resilience.*`` counters.  Deadlines (:func:`repro.resilience.check_deadline`)
are checked before each dispatch round so timed-out queries stop early.

Fault injection hooks (:class:`repro.resilience.FaultInjector`) live at two
points: ``shard.task`` decides per-task directives in the *parent* (stamped
into a copy of the payload as ``"_fault"`` and detonated by the worker
entry, so seeded rules stay deterministic regardless of pool scheduling),
and ``executor.pool`` simulates a broken pool at dispatch time.  Retries
and rebuild re-runs always dispatch the clean payload: a consumed one-shot
fault must not refire.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import multiprocessing
import os
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.resilience import (
    NOOP_INJECTOR,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    ResilienceStats,
    RetryPolicy,
    check_deadline,
)

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "EXECUTORS",
    "make_executor",
]

#: One task: (shard id, operation name, payload dict).
ShardTask = Tuple[int, str, dict]

#: Marks a task slot whose result has not been produced yet.
_PENDING = object()


def _run_task(shard, op: str, payload: dict, in_worker_process: bool = False):
    directive = payload.get("_fault")
    if directive is not None:
        payload = {k: v for k, v in payload.items() if k != "_fault"}
        if directive == "crash" and in_worker_process:
            os._exit(13)  # simulate a worker killed mid-task (OOM, SIGKILL)
        # In-process executors demote "crash" to a raised fault: killing
        # the interpreter that owns the query is not an injectable failure.
        raise InjectedFault(f"injected fault at 'shard.task' ({op})")
    check_deadline()
    # Local import: predicate.py imports this module for the executor types.
    from repro.shard.predicate import execute_shard_op

    return execute_shard_op(shard, op, payload)


class ShardExecutor(ABC):
    """Strategy interface: run ``(shard_id, op, payload)`` tasks."""

    name: str = "executor"

    def __init__(self) -> None:
        self._shards: List[object] = []
        self._owner: Optional[object] = None
        self._faults: FaultInjector = NOOP_INJECTOR
        self._retry: RetryPolicy = RetryPolicy()
        #: The resilience record of the most recent :meth:`run` (``None``
        #: before the first run; reset at the start of every run).
        self.last_resilience: Optional[ResilienceStats] = None

    def configure_resilience(
        self,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "ShardExecutor":
        """Install a fault injector and/or retry policy (chainable)."""
        if faults is not None:
            self._faults = faults
        if retry_policy is not None:
            self._retry = retry_policy
        return self

    def bind(self, shards: Sequence[object], owner: Optional[object] = None) -> None:
        """(Re)attach the fitted shard predicates tasks will run against.

        An executor holds per-predicate worker state (the bound shards, and
        for process pools a forked snapshot of them), so one instance cannot
        serve two predicates at once: a second predicate binding a live
        executor would silently redirect the first predicate's queries to
        the wrong shards.  Rebinding is allowed for the same ``owner`` (a
        refit) or after :meth:`close`.
        """
        if (
            owner is not None
            and self._owner is not None
            and self._owner is not owner
        ):
            raise ValueError(
                f"{type(self).__name__} is already bound to another sharded "
                "predicate; executors hold per-predicate worker state and "
                "cannot be shared -- pass an executor name (or a fresh "
                "instance) per predicate"
            )
        self._owner = owner
        self._shards = list(shards)

    @abstractmethod
    def run(self, tasks: Sequence[ShardTask]) -> List[object]:
        """Execute the tasks and return their results in task order."""

    def close(self) -> None:
        """Release pools/processes; the executor may be re-bound afterwards."""
        self._owner = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared self-healing machinery (pooled executors) -----------------

    def _submit(self, pool, shard_id: int, op: str, payload: dict):
        """Submit one task to the live pool (executor-specific)."""
        raise NotImplementedError

    def _rebuild_pool(self) -> None:
        """Tear down a broken pool so the next dispatch builds a fresh one."""
        raise NotImplementedError

    def _ensure_pool(self):
        raise NotImplementedError

    def _fallback_serial(self, index: int, tasks: Sequence[ShardTask], stats):
        """Last resort: run one task in-process on the bound shard."""
        stats.serial_fallbacks += 1
        shard_id, op, payload = tasks[index]
        try:
            return _run_task(self._shards[shard_id], op, payload)
        except Exception:
            stats.task_failures += 1
            raise

    def _resilient_run(self, tasks: Sequence[ShardTask]) -> List[object]:
        """Pool-based execution with capture, retry, rebuild and fallback."""
        stats = ResilienceStats(executor=self.name)
        self.last_resilience = stats
        n = len(tasks)
        results: List[object] = [_PENDING] * n
        # The payload each task dispatches with next.  Fault directives are
        # decided here in the parent (deterministic regardless of pool
        # scheduling) and stamped into a *copy*; every re-dispatch -- retry
        # or rebuild re-run -- goes back to the clean original payload so a
        # consumed one-shot fault cannot refire.
        dispatch: List[dict] = []
        for _shard_id, _op, payload in tasks:
            stats.tasks += 1
            staged = payload
            if self._faults.active:
                directive = self._faults.directive("shard.task")
                if directive is not None:
                    stats.faults_injected += 1
                    staged = dict(payload, _fault=directive)
            dispatch.append(staged)
        attempts = [1] * n
        pending = list(range(n))
        rebuilt = False
        while pending:
            check_deadline()
            broken = False
            if self._faults.active and self._faults.directive("executor.pool"):
                stats.faults_injected += 1
                broken = True
            futures: Dict[int, object] = {}
            if not broken:
                try:
                    pool = self._ensure_pool()
                    for i in pending:
                        shard_id, op, _ = tasks[i]
                        futures[i] = self._submit(pool, shard_id, op, dispatch[i])
                except BrokenExecutor:
                    broken = True
            failed: List[Tuple[int, BaseException]] = []
            if not broken:
                for i, future in futures.items():
                    try:
                        results[i] = future.result()
                    except DeadlineExceeded:
                        raise
                    except BrokenExecutor:
                        broken = True
                        break
                    except Exception as exc:
                        failed.append((i, exc))
            if broken:
                unfinished = [i for i in pending if results[i] is _PENDING]
                for i in unfinished:
                    dispatch[i] = tasks[i][2]
                if not rebuilt:
                    # One rebuild per run: a persistently breaking pool
                    # must not loop forever.
                    rebuilt = True
                    stats.pool_rebuilds += 1
                    self._rebuild_pool()
                    pending = unfinished
                    continue
                for i in unfinished:
                    results[i] = self._fallback_serial(i, tasks, stats)
                break
            retry_next: List[int] = []
            for i, _exc in failed:
                if attempts[i] < self._retry.max_attempts:
                    stats.task_retries += 1
                    dispatch[i] = tasks[i][2]
                    retry_next.append(i)
                else:
                    # Retry budget spent on the pool: try once in-process
                    # before declaring the task dead.
                    results[i] = self._fallback_serial(i, tasks, stats)
            if retry_next:
                self._retry.pause(max(attempts[i] for i in retry_next))
                for i in retry_next:
                    attempts[i] += 1
            pending = retry_next
        return results


class SerialShardExecutor(ShardExecutor):
    """Run every task inline, in order (with per-task retry)."""

    name = "serial"

    def run(self, tasks: Sequence[ShardTask]) -> List[object]:
        stats = ResilienceStats(executor=self.name)
        self.last_resilience = stats
        results: List[object] = []

        def count_retry(_attempt: int, _exc: BaseException) -> None:
            stats.task_retries += 1

        for shard_id, op, payload in tasks:
            stats.tasks += 1
            check_deadline()
            staged = payload
            if self._faults.active:
                directive = self._faults.directive("shard.task")
                if directive is not None:
                    stats.faults_injected += 1
                    staged = dict(payload, _fault=directive)
            box = [staged]

            def attempt(box=box, payload=payload, shard_id=shard_id, op=op) -> object:
                current, box[0] = box[0], payload  # retries run clean
                return _run_task(self._shards[shard_id], op, current)

            try:
                results.append(self._retry.run(attempt, on_retry=count_retry))
            except DeadlineExceeded:
                raise
            except Exception:
                stats.task_failures += 1
                raise
        return results


class ThreadShardExecutor(ShardExecutor):
    """Run tasks on a persistent thread pool (shards shared, not copied)."""

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self._max_workers or max(1, len(self._shards))
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        return self._pool

    def _submit(self, pool: ThreadPoolExecutor, shard_id: int, op: str, payload: dict):
        # Copy the context so the ambient deadline (a contextvar set in the
        # dispatching thread) is visible inside the pool worker.
        context = contextvars.copy_context()
        return pool.submit(
            context.run, _run_task, self._shards[shard_id], op, payload
        )

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def run(self, tasks: Sequence[ShardTask]) -> List[object]:
        return self._resilient_run(tasks)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


#: Fitted shard lists inherited by forked workers, keyed per bind() call.
_FORK_REGISTRY: Dict[int, List[object]] = {}
_FORK_KEYS = itertools.count(1)


def _registry_task(key: int, shard_id: int, op: str, payload: dict):
    """Worker entry on forked pools: shards come from the inherited registry."""
    return _run_task(_FORK_REGISTRY[key][shard_id], op, payload, in_worker_process=True)


class ProcessShardExecutor(ShardExecutor):
    """Run tasks on a persistent process pool (true multi-core scoring)."""

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        self._max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key: Optional[int] = None
        self._fork = "fork" in multiprocessing.get_all_start_methods()
        self._warned_spawn = False

    def bind(self, shards: Sequence[object], owner: Optional[object] = None) -> None:
        # A rebind invalidates the forked snapshot: tear the pool down so
        # the next run forks fresh workers seeing the new shards.  The
        # ownership check must run *before* the teardown, though -- a
        # rejected bind must not kill the current owner's pool.
        if (
            owner is not None
            and self._owner is not None
            and self._owner is not owner
        ):
            super().bind(shards, owner)  # raises
        self.close()
        super().bind(shards, owner)
        if self._fork:
            self._key = next(_FORK_KEYS)
            _FORK_REGISTRY[self._key] = self._shards

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self._max_workers or min(
                max(1, len(self._shards)), os.cpu_count() or 1
            )
            if self._fork:
                context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            else:  # pragma: no cover - non-fork platforms
                if not self._warned_spawn:
                    warnings.warn(
                        "fork is unavailable; the process executor ships the "
                        "fitted shard with every task (correct but slow)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    self._warned_spawn = True
                self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def _submit(self, pool: ProcessPoolExecutor, shard_id: int, op: str, payload: dict):
        if self._fork:
            return pool.submit(_registry_task, self._key, shard_id, op, payload)
        return pool.submit(  # pragma: no cover - non-fork platforms
            _run_task, self._shards[shard_id], op, payload, True
        )

    def _rebuild_pool(self) -> None:
        # Unlike close(), keep the fork-registry key: the snapshot maps to
        # the parent's live shard list, and the replacement pool forks from
        # the parent, so the inherited registry entry stays valid.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def run(self, tasks: Sequence[ShardTask]) -> List[object]:
        if self._fork and self._key is None:
            # Closed (or never forked) with shards still bound: re-register
            # them so the pool created below forks a fresh snapshot instead
            # of looking up a retired registry key.
            self._key = next(_FORK_KEYS)
            _FORK_REGISTRY[self._key] = self._shards
        return self._resilient_run(tasks)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._key is not None:
            _FORK_REGISTRY.pop(self._key, None)
            self._key = None
        super().close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        with contextlib.suppress(Exception):
            self.close()


#: Named executors (``Query.shards(executor=...)``, ``POST /query``).
EXECUTORS = {
    "serial": SerialShardExecutor,
    "thread": ThreadShardExecutor,
    "process": ProcessShardExecutor,
}


def make_executor(executor: Union[str, ShardExecutor, None]) -> ShardExecutor:
    """Resolve an executor spec (name or instance) to an executor.

    Names: ``"serial"``, ``"thread"``, ``"process"`` -- pooled ones size
    themselves from the shards they are bound to.  Instances are used as-is
    (the caller owns their lifecycle, and their pool size).
    """
    if executor is None:
        return SerialShardExecutor()
    if isinstance(executor, ShardExecutor):
        return executor
    key = str(executor).strip().lower()
    if key not in EXECUTORS:
        raise ValueError(
            f"unknown shard executor {executor!r}; available: {sorted(EXECUTORS)}"
        )
    return EXECUTORS[key]()
