"""Blocking & candidate pruning for approximate selections, joins and dedup.

The candidate-generation layer between the inverted index and the similarity
predicates.  The seed implementation treated every tuple sharing *any* token
with the query as a candidate; on realistic vocabularies that makes
selections, joins and duplicate detection quadratic in all but name.  This
package provides pluggable blockers behind the common
:class:`~repro.blocking.base.Blocker` interface:

* :class:`~repro.blocking.length.LengthFilter` -- exact token-count bounds
  derived from the similarity threshold;
* :class:`~repro.blocking.prefix.PrefixFilter` -- exact prefix filtering over
  rarest-first ordered tokens (AllPairs/PPJoin-style);
* :class:`~repro.blocking.lsh.MinHashLSH` -- approximate MinHash-LSH banding
  built on :class:`repro.text.minhash.MinHasher`;
* :class:`~repro.blocking.pipeline.BlockingPipeline` -- chains blockers and
  reports per-stage candidate-reduction statistics;
* :func:`~repro.blocking.factory.make_blocker` -- builds any of the above
  from a spec string such as ``"length+prefix"`` (used by the CLI).

Integration points: one host contract,
:class:`~repro.blocking.host.BlockingHost`, which the direct, declarative and
sharded predicates inherit: ``set_blocker`` (the blocker is fitted from the
host's relation, once per relation), ``restrict_candidates``, the threshold
check and the post-scoring allowance.  Each host supplies only its hooks:
``_blocker_core`` (the overlap and edit families hand over their own
:class:`~repro.core.corpus.CorpusCore`; the sharded host asks its
prototype), ``_blocker_query_tokens``, ``is_fitted`` and
``_query_state_changed`` (the declarative score cache).  Whatever a host
answers, ``score`` included, sees the candidates the contract allows.
``ApproximateJoiner(blocker=...)`` / ``Deduplicator(blocker=...)`` and the
CLI's ``--blocker`` / ``--lsh-bands`` flags attach blockers through it.
Candidates come from ``InvertedIndex.candidate_mask(..., blocker)`` -- the
probe and the prune as array operations -- when an overlap scan runs under
an exact blocker, and from the set path ``InvertedIndex.candidates(...,
blocker=...)`` everywhere else: LSH, the edit family and the sharded
pre-partition prune.  The ``blocking`` case of
``benchmarks/paper.py`` measures speedup and recall against the unblocked
baseline.
"""

from repro.blocking.base import Blocker, BlockingStats
from repro.blocking.factory import BLOCKER_NAMES, make_blocker
from repro.blocking.host import BlockingHost
from repro.blocking.length import LengthFilter
from repro.blocking.lsh import MinHashLSH
from repro.blocking.pipeline import BlockingPipeline
from repro.blocking.prefix import PrefixFilter

__all__ = [
    "Blocker",
    "BlockingStats",
    "BlockingHost",
    "LengthFilter",
    "PrefixFilter",
    "MinHashLSH",
    "BlockingPipeline",
    "make_blocker",
    "BLOCKER_NAMES",
]
