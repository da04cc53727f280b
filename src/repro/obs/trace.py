"""Span trees: hierarchical, attributed timings of one query execution.

A :class:`Tracer` hands out context-manager spans that nest into a tree
mirroring the execution layers of the engine::

    engine.query
    ├─ fit | cache_hit
    │  ├─ core.build                     (only the fit that built the corpus core)
    │  └─ shard[i].fit                   (sharded: one per shard, in the parent)
    └─ execute.direct | execute.declarative | execute.sharded
       ├─ shard[i].task                  (sharded: per-shard workers)
       └─ sql.statement                  (declarative: emitted SQL)

Spans carry free-form attributes (predicate name, ``k``, candidate
counters, rendered SQL) and monotonic-clock durations.  The clock is
injectable, so tests assert exact durations instead of sleeping.

Two properties make the tracer safe to leave permanently wired in:

* :data:`NOOP_TRACER` is the default.  Its ``span()`` returns a shared,
  stateless null span whose ``__enter__``/``__exit__``/``set``/``add`` do
  nothing, so the disabled path costs a single method call per span -- the
  benchmark suite asserts the overhead stays within noise of untraced code.
* Spans serialize to plain dicts (:meth:`Span.to_dict` /
  :meth:`Span.from_dict`), which is how shard workers running in other
  processes report their sub-spans back: the worker builds a record, the
  parent re-attaches it under the live execute span.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.clock import perf_clock

__all__ = ["Span", "Tracer", "NullTracer", "NOOP_TRACER", "Observability"]


class Span:
    """One node of a span tree: a named, attributed, timed unit of work."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        end: float = 0.0,
        attributes: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed clock time, in the tracer clock's units (seconds)."""
        return max(0.0, self.end - self.start)

    def set(self, **attributes) -> "Span":
        """Set (or overwrite) attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment a numeric attribute (missing counts as 0)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount
        return self

    def attach(self, child: "Span") -> "Span":
        """Append a completed child span (e.g. one shipped from a worker)."""
        self.children.append(child)
        return child

    # -- queries over the tree ---------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span (depth-first) whose name matches exactly."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, prefix: str) -> List["Span"]:
        """Every span (depth-first) whose name starts with ``prefix``."""
        return [span for span in self.walk() if span.name.startswith(prefix)]

    def sum_attribute(self, key: str) -> float:
        """Sum of a numeric attribute over this span and every descendant."""
        total = 0
        for span in self.walk():
            value = span.attributes.get(key)
            if value is not None:
                total += value
        return total

    # -- serialization (cross-process span propagation) --------------------------

    def to_dict(self) -> dict:
        """Plain-dict record: picklable, JSON-serializable, rebuildable."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        span = cls(
            record["name"],
            start=record.get("start", 0.0),
            end=record.get("end", 0.0),
            attributes=record.get("attributes"),
        )
        for child in record.get("children", ()):
            span.children.append(cls.from_dict(child))
        return span

    # -- rendering ---------------------------------------------------------------

    def describe(self, indent: int = 0) -> str:
        """Human-readable tree (one line per span, durations in ms)."""
        attributes = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.attributes.items())
        )
        line = "  " * indent + (
            f"{self.name}  [{self.duration * 1000.0:.3f} ms]"
            + (f"  {{{attributes}}}" if attributes else "")
        )
        lines = [line]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"attributes={self.attributes!r}, children={len(self.children)})"
        )


class Tracer:
    """Hands out nesting context-manager spans and keeps the finished roots.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonically increasing floats.
        Defaults to :func:`repro.obs.clock.perf_clock`; tests inject a
        counter for deterministic durations.

    The span stack is thread-local, so a tracer shared across threads keeps
    each thread's nesting separate (shard *worker* spans do not rely on this:
    they travel back as records and re-attach in the parent thread).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else perf_clock
        self._local = threading.local()
        #: Root span of the most recently *completed* top-level span.
        self.last_root: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a span as a child of the current one (or as a new root)."""
        node = Span(name, start=self._clock(), attributes=attributes or None)
        stack = self._stack()
        if stack:
            stack[-1].children.append(node)
        stack.append(node)
        try:
            yield node
        finally:
            node.end = self._clock()
            stack.pop()
            if not stack:
                self.last_root = node


class _NullSpan:
    """Shared do-nothing span: the entire cost of disabled tracing."""

    __slots__ = ()

    name = "noop"
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: Dict[str, object] = {}
    children: List[Span] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self

    def attach(self, child: Span) -> Span:
        return child


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: ``span()`` returns one shared null context manager."""

    enabled = False
    current = None
    last_root = None

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN


#: Process-wide disabled tracer; the default everywhere tracing is optional.
NOOP_TRACER = NullTracer()


class Observability:
    """The (tracer, metrics) pair threaded through the execution layers.

    Holds *mutable* references shared between the engine, its recording
    backends and its sharded predicates, so swapping the tracer on the holder
    (``obs.activate(...)``, used by ``Query.trace()`` and ``explain()``)
    reaches every layer without re-wiring anything.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer=None, metrics=None):
        from repro.obs.metrics import GLOBAL_METRICS

        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS

    @contextmanager
    def activate(self, tracer: Tracer) -> Iterator[Tracer]:
        """Temporarily swap the tracer (restored on exit, even on error)."""
        previous = self.tracer
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = previous

    def __reduce__(self):
        # Tracers hold thread-local state and registries hold locks; both are
        # per-process runtime state, so a pickled holder (e.g. inside a saved
        # engine snapshot) restores to the process defaults.
        return (Observability, ())
