"""Composable blocking pipelines.

A :class:`BlockingPipeline` chains several blockers into one: every stage
sees only what the previous stages let through, so the candidate set shrinks
monotonically.  The conventional arrangement runs the cheap exact filters
first (length, then prefix) and the approximate LSH stage last, but any order
works.  Per-stage :class:`~repro.blocking.base.BlockingStats` are kept so the
pipeline can report where the reduction came from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.blocking.base import Blocker, BlockingStats
from repro.core.corpus import CorpusCore

__all__ = ["BlockingPipeline"]


class BlockingPipeline(Blocker):
    """Chain of blockers applied in sequence.

    The pipeline is itself a :class:`Blocker`: it can be handed to predicates,
    joiners and deduplicators anywhere a single blocker is accepted.  It is
    exact iff every stage is exact.
    """

    name = "pipeline"

    def __init__(self, stages: Sequence[Blocker]):
        super().__init__(stages[0].tokenizer if stages else None)
        if not stages:
            raise ValueError("a BlockingPipeline needs at least one stage")
        self.stages: List[Blocker] = list(stages)
        self.exact = all(stage.exact for stage in self.stages)
        self.prunes_arrays = all(stage.prunes_arrays for stage in self.stages)
        self.semantics = (
            "jaccard"
            if any(stage.semantics == "jaccard" for stage in self.stages)
            else "any"
        )
        self.name = "+".join(stage.name for stage in self.stages)

    def _fit(self, core: CorpusCore) -> None:
        for stage in self.stages:
            stage.fit_core(core)

    # -- hooks ----------------------------------------------------------------

    def probe_tokens(self, query_tokens: Set[str]) -> Set[str]:
        """Smallest sufficient probe set across stages.

        Each stage's probe set is sufficient on its own *when computed from
        the full query*, so the pipeline picks the smallest one rather than
        chaining them (a prefix of a prefix would over-prune).
        """
        tokens = query_tokens
        for stage in self.stages:
            candidate = stage.probe_tokens(query_tokens)
            if len(candidate) < len(tokens):
                tokens = candidate
        return tokens

    def _prune(self, query_tokens: Set[str], candidates: Set[int]) -> Set[int]:
        survivors = candidates
        for stage in self.stages:
            if not survivors:
                break
            survivors = stage.prune(query_tokens, survivors)
        return survivors

    def _prune_array(self, query_tokens: Set[str], tids, index):
        survivors = tids
        for stage in self.stages:
            if not survivors.size:
                break
            survivors = stage.prune_array(query_tokens, survivors, index)
        return survivors

    def supports_threshold(self, threshold: float) -> bool:
        return all(stage.supports_threshold(threshold) for stage in self.stages)

    def partners(self, tid: int) -> Optional[Set[int]]:
        block: Optional[Set[int]] = None
        for stage in self.stages:
            stage_block = stage.partners(tid)
            if stage_block is None:
                continue
            block = set(stage_block) if block is None else block & stage_block
            if len(block) <= 1:
                break
        return block

    # -- statistics -----------------------------------------------------------

    def stage_stats(self) -> List[Tuple[str, BlockingStats]]:
        """``(stage name, stats)`` per stage, in pipeline order."""
        return [(stage.name, stage.stats) for stage in self.stages]

    def reset_stats(self) -> None:
        super().reset_stats()
        for stage in self.stages:
            stage.reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockingPipeline({self.name}, n={self._num_tuples})"
