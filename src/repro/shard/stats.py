"""Shard-local statistics over the whole relation's collection-level numbers.

Exactness of sharded execution rests on one observation: every weighting
scheme in the paper factors into a *per-tuple* part (term frequencies, tuple
length) and a *collection-level* part (``N``, ``df``, ``cf``, ``avgdl``,
idf / RS weights, ``p̂_avg``).  :class:`ShardStatisticsView` keeps the
per-tuple part over the shard's own token lists -- so tuple ids stay
shard-local -- while answering every collection-level question from the
:class:`~repro.text.weights.CollectionStatistics` of the *whole* relation.
It is what :meth:`repro.core.corpus.CorpusCore.slice` hands out as the
``stats`` of a shard-local core: a predicate fitted over that slice assigns
each tuple exactly the weights an unsharded fit would, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.text.weights import CollectionStatistics

__all__ = ["ShardStatisticsView"]


class ShardStatisticsView(CollectionStatistics):
    """Shard-local per-tuple statistics over global collection-level ones.

    The collection-level fields are *shared* with the global statistics
    object (same dict instances), so derived tables (idf, RS weights,
    ``p̂_avg``) iterate the same vocabulary in the same order as the
    unsharded computation -- summations stay float-identical, not just
    mathematically equal.  ``token_lists`` is the shard's slice of the whole
    relation's lists, shared by reference; :meth:`term_frequencies` counts
    one tuple per call.
    """

    def __init__(
        self,
        token_lists: Sequence[Sequence[str]],
        global_stats: CollectionStatistics,
    ):
        # Deliberately no ``super().__init__()``: the base constructor would
        # aggregate shard-local df/cf/averages only for them to be replaced
        # by the global answers below.  Only the per-tuple fields are local.
        self._token_lists = token_lists
        self._term_frequencies = None
        self._lengths: List[int] = [len(tokens) for tokens in token_lists]
        self._global = global_stats
        # Collection-level answers come from the global pass (shared dict
        # instances, so derived tables iterate in the global order).
        self._num_tuples = global_stats.num_tuples
        self._document_frequency = global_stats._document_frequency
        self._collection_frequency = global_stats._collection_frequency
        self._collection_size = global_stats.collection_size
        self._average_length = global_stats.average_length

    @property
    def num_local_tuples(self) -> int:
        """Number of tuples in this shard (``num_tuples`` is the global N)."""
        return len(self._token_lists)

    # The derived per-token tables are collection-level: computed by -- and
    # cached on -- the global statistics object, once for all shards.

    def idf_table(self) -> Dict[str, float]:
        return self._global.idf_table()

    def rs_table(self) -> Dict[str, float]:
        return self._global.rs_table()

    def pavg_table(self) -> Dict[str, float]:
        return self._global.pavg_table()
