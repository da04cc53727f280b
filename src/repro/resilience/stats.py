"""Resilience accounting: what the self-healing machinery actually did.

One :class:`ResilienceStats` record per executor run, summed across the
runs of a query by the sharded predicate (``a + b``) and surfaced two ways
-- in ``explain()`` (so a human sees "the pool broke and was rebuilt" next
to the plan) and as ``resilience.*`` counters in the metrics registry (so a
dashboard sees the rate).  A run with no incidents publishes nothing: the
happy path stays free of counter churn, and ``events`` is falsy, which is
what `explain()` keys on to omit the section entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import CounterRecord, counter_field

__all__ = ["ResilienceStats"]


@dataclass
class ResilienceStats(CounterRecord):
    """Counts of resilience events during shard execution.

    ``tasks`` is the number of shard tasks dispatched (including re-runs);
    the rest count incidents: per-task ``task_retries`` / terminal
    ``task_failures``, broken-pool ``pool_rebuilds``, tasks that fell back
    to in-process serial execution (``serial_fallbacks``), and faults the
    injector deliberately fired (``faults_injected``).
    """

    executor: str = ""
    tasks: int = 0
    task_retries: int = counter_field(
        "resilience.task_retries", span="resilience_retries"
    )
    task_failures: int = counter_field("resilience.task_failures")
    pool_rebuilds: int = counter_field(
        "resilience.pool_rebuilds", span="resilience_pool_rebuilds"
    )
    serial_fallbacks: int = counter_field(
        "resilience.serial_fallbacks", span="resilience_serial_fallbacks"
    )
    faults_injected: int = counter_field("resilience.faults_injected")

    @property
    def events(self) -> int:
        """Total incidents (0 on a clean run -- used as truthiness gate)."""
        return (
            self.task_retries
            + self.task_failures
            + self.pool_rebuilds
            + self.serial_fallbacks
            + self.faults_injected
        )
