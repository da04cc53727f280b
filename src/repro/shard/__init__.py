"""Sharded (data-partitioned) execution of the direct realization.

The paper's predicates all score against *collection-level* statistics (idf,
RS weights, average tuple length), which is exactly what makes naive
data-partitioned parallelism inexact: a shard that computes its own document
frequencies weighs tokens differently from the whole relation.  This package
implements the standard IR/DBMS answer -- document partitioning with
*broadcast global statistics*:

1. the global pass is the relation's :class:`~repro.core.corpus.CorpusCore`:
   the token lists and predicate-independent collection statistics (``N``,
   ``df``, ``cf``, ``avgdl``, ``p̂_avg`` -- everything
   :class:`repro.text.weights.CollectionStatistics` derives), computed once
   -- by the engine for every predicate on that relation, sharded or not --
   and read off the core's one index for a kernelised predicate (the
   word-level combination family counts per-tuple ``Counter`` objects);
2. each shard is fitted -- in the calling process, whatever the executor --
   as a shard-local predicate on ``core.slice(a, b)``, a part of the core
   built once per range and shared by every sharded fit over it, whose
   statistics (:class:`~repro.shard.stats.ShardStatisticsView`) keep
   answering collection-level questions from the whole relation, so every
   tuple receives bit-identical weights -- and therefore bit-identical
   scores -- to an unsharded fit;
3. queries execute per shard through a pluggable executor
   (:mod:`~repro.shard.executors`: serial / thread pool / process pool) and
   merge exactly in the canonical ``(score desc, tid)`` order -- one round
   per operation, ``top_k`` included.

:class:`~repro.shard.predicate.ShardedPredicate` exposes the same protocol
as a direct :class:`~repro.core.predicates.base.Predicate`, so the engine,
joins and deduplication use it as a drop-in replacement
(``SimilarityEngine(num_shards=4, executor="process")``).
"""

from repro.shard.executors import (
    EXECUTORS,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    ThreadShardExecutor,
    make_executor,
)
from repro.shard.predicate import ShardedPredicate, ShardStats, shard_offsets
from repro.shard.stats import ShardStatisticsView

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "EXECUTORS",
    "make_executor",
    "ShardedPredicate",
    "ShardStats",
    "ShardStatisticsView",
    "shard_offsets",
]
