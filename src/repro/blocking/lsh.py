"""MinHash-LSH banding: approximate blocking for similarity self-joins.

Built on :class:`repro.text.minhash.MinHasher`: every tuple's token set gets
a min-hash signature of ``num_bands * rows_per_band`` values; the signature
is cut into bands of ``rows_per_band`` consecutive values and each band is
hashed into a bucket.  Two tuples become candidates iff they collide in at
least one band, which happens with probability

    ``P(candidate) = 1 - (1 - s^rows) ^ bands``

for Jaccard similarity ``s`` -- the classic S-curve.  More rows sharpen the
curve (fewer false candidates), more bands shift it left (fewer false
dismissals).  Unlike the length/prefix filters this blocker is *approximate*:
it can drop true matches, with probability given by the S-curve at the match's
similarity.  :func:`MinHashLSH.candidate_probability` evaluates the curve so
callers can pick parameters for a target recall.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.blocking.base import Blocker
from repro.core.corpus import CorpusCore
from repro.text.minhash import MinHasher, MinHashSignature, stable_token_hash
from repro.text.tokenize import Tokenizer

__all__ = ["MinHashLSH"]

_BandKey = Tuple[int, ...]


class MinHashLSH(Blocker):
    """Locality-sensitive hashing over min-hash signatures (banding scheme).

    Parameters
    ----------
    num_bands, rows_per_band:
        Banding layout; the signature length is their product.  The defaults
        (``16 x 4 = 64`` hashes) put the S-curve threshold around
        ``(1/16)^(1/4) ~ 0.5``, matching the mid-range thresholds used in the
        paper's selection experiments.
    seed:
        Seed for the underlying :class:`MinHasher` (deterministic by default,
        mirroring the paper's stored ``BASE_HASHFUNC`` table).
    """

    name = "lsh"
    exact = False

    def __init__(
        self,
        num_bands: int = 16,
        rows_per_band: int = 4,
        tokenizer: Optional[Tokenizer] = None,
        seed: int = 20070411,
    ):
        super().__init__(tokenizer)
        if num_bands < 1 or rows_per_band < 1:
            raise ValueError("num_bands and rows_per_band must be >= 1")
        self.num_bands = num_bands
        self.rows_per_band = rows_per_band
        self._hasher = MinHasher(num_hashes=num_bands * rows_per_band, seed=seed)
        self._token_hash_cache: Dict[str, int] = {}
        self._buckets: List[Dict[_BandKey, List[int]]] = []
        self._band_keys: List[List[_BandKey]] = []

    @property
    def num_hashes(self) -> int:
        return self._hasher.num_hashes

    def candidate_probability(self, similarity: float) -> float:
        """S-curve: probability a pair at Jaccard ``similarity`` collides."""
        if not 0.0 <= similarity <= 1.0:
            raise ValueError("similarity must be within [0, 1]")
        return 1.0 - (1.0 - similarity**self.rows_per_band) ** self.num_bands

    # -- signatures -----------------------------------------------------------

    def _signature(self, tokens: Iterable[str]) -> MinHashSignature:
        cache = self._token_hash_cache
        hashed = set()
        for token in tokens:
            value = cache.get(token)
            if value is None:
                value = cache[token] = stable_token_hash(token)
            hashed.add(value)
        return self._hasher.signature_from_hashes(hashed)

    def _keys(self, signature: MinHashSignature) -> List[_BandKey]:
        rows = self.rows_per_band
        return [
            tuple(signature[band * rows : (band + 1) * rows])
            for band in range(self.num_bands)
        ]

    # -- fitting --------------------------------------------------------------

    def _fit(self, core: CorpusCore) -> None:
        self._buckets = [{} for _ in range(self.num_bands)]
        self._band_keys = []
        for tid, tokens in enumerate(core.token_sets):
            keys = self._keys(self._signature(tokens))
            self._band_keys.append(keys)
            for band, key in enumerate(keys):
                self._buckets[band].setdefault(key, []).append(tid)

    # -- hooks ----------------------------------------------------------------

    def query_candidates(self, query_tokens: Set[str]) -> Set[int]:
        """All tuples colliding with the query in at least one band."""
        self._require_fitted()
        result: Set[int] = set()
        for band, key in enumerate(self._keys(self._signature(query_tokens))):
            result.update(self._buckets[band].get(key, ()))
        return result

    def _prune(self, query_tokens: Set[str], candidates: Set[int]) -> Set[int]:
        return candidates & self.query_candidates(query_tokens)

    def partners(self, tid: int) -> Optional[Set[int]]:
        self._require_fitted()
        block: Set[int] = {tid}
        for band, key in enumerate(self._band_keys[tid]):
            block.update(self._buckets[band].get(key, ()))
        return block

    def blocks(self) -> Optional[List[List[int]]]:
        """All LSH buckets holding at least two tuples."""
        self._require_fitted()
        return [
            list(tids)
            for buckets in self._buckets
            for tids in buckets.values()
            if len(tids) >= 2
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MinHashLSH(bands={self.num_bands}, rows={self.rows_per_band}, "
            f"n={self._num_tuples})"
        )
