"""Shared corpus state for the declarative realizations.

Historically every declarative predicate re-tokenized the base relation and
re-materialized its own copy of the common statistics tables on every
``preprocess()`` call, and two predicates sharing one SQL backend instance
clobbered each other's fixed-name tables.  This module fixes both: the token
tables and the predicate-independent weight tables are materialized **once
per (backend, relation, tokenizer)** as a *core* and shared across all 13
predicates, so fitting a second predicate on an already-prepared backend is
near-free.

Cores are registered on the backend instance and namespaced by table prefix:
the first core on a backend uses the paper's canonical unprefixed names
(``BASE_TABLE``, ``BASE_TOKENS``, ...), later cores -- a different relation
or a different tokenizer on the same backend -- get ``S1_``, ``S2_``, ...
prefixes, so nothing ever clobbers anything.  Within a core, tables are
*features* materialized on demand (:meth:`SharedTables.require`); features
whose contents depend on predicate parameters carry a signature and are
rebuilt only when the signature changes, which is also how predicates detect
staleness (:meth:`repro.declarative.base.DeclarativePredicate.tables_stale`).

Shared features (all derived purely from the relation + tokenizer):

========== ===================================================================
feature    tables
========== ===================================================================
core       ``BASE_TABLE(tid, string)``, ``BASE_TOKENS(tid, token)``,
           ``BASE_TOKENS_DIST``, ``BASE_TF``, ``BASE_SIZE``, ``BASE_DF``,
           ``BASE_TIDLEN`` (distinct-token count per tuple -- the in-SQL
           length-filter input)
dl         ``BASE_DL(tid, dl)`` -- token count with multiplicity
avgdl      ``BASE_AVGDL(avgdl)``
idf        ``BASE_IDF(token, idf)`` -- ``log(N) - log(df)``
idfavg     ``BASE_IDFAVG(idfavg)``
rsw        ``BASE_RSW(token, weight)`` -- Robertson-Sparck Jones weight
rsweights  ``BASE_RSWEIGHTS(tid, token, weight)``
rsddl      ``BASE_RSDDL(tid, ddl)``
rstokensddl ``BASE_RSTOKENSDDL(tid, token, weight, ddl)``
tokensddl  ``BASE_TOKENSDDL(tid, token, len)``
cosweights ``BASE_COSLENGTH(tid, len)``, ``BASE_COSW(tid, token, weight)``
           -- normalized tf-idf (Cosine over q-grams, SoftTFIDF over words)
pml        ``BASE_PML(tid, token, pml)``
========== ===================================================================

Predicate-specific features (LM chain, HMM weights, BM25 weights, word
q-grams, min-hash signatures, prefix-filter tables) are registered through
the same mechanism with custom builders and signatures.

Index rule (SQLite; the in-memory engine hash-joins and ignores indexes): a
weight table that a scoring statement probes by token carries one
*covering* index ``(token, tid, <the columns the scorer reads>)`` --
``BASE_COSW``, ``BASE_TOKENSDDL``, ``BASE_RSWEIGHTS``, ``BASE_RSTOKENSDDL``
here, ``BASE_BM25W``, ``BASE_PM`` and the HMM weights in their families.
The scoring join then reads the index b-tree alone instead of fetching
every joined row from the table, and the covering index replaces the
token-only one: it serves every lookup that one did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import SQLBackend
from repro.declarative import tokens as token_tables
from repro.text.tokenize import Tokenizer

__all__ = [
    "SharedTables",
    "acquire_core",
    "clear_shared_state",
    "corpus_signature",
    "tokenizer_signature",
]

#: Sentinel feature name of the core token tables.
CORE = "core"

_MISSING = object()


def corpus_signature(strings: Sequence[str]) -> Tuple[int, int]:
    """Cheap content fingerprint of a relation (no string retention)."""
    return (len(strings), hash(tuple(strings)))


def tokenizer_signature(tokenizer: Tokenizer) -> str:
    """Fingerprint of a tokenizer (frozen dataclasses: repr carries params)."""
    return repr(tokenizer)


@dataclass
class SharedTables:
    """One (relation, tokenizer) core of shared tables on a backend.

    The handle is shared by every predicate fitted on the same corpus with
    the same tokenizer; it records which features exist (``sigs``) and which
    tables were created (for :func:`clear_shared_state`).
    """

    prefix: str
    key: tuple
    num_tuples: int
    dead: bool = False
    #: feature name -> signature it was last built with (None = parameterless).
    sigs: Dict[str, object] = field(default_factory=dict)
    #: python-side companions (e.g. the fitted prefix filter).
    meta: Dict[str, object] = field(default_factory=dict)
    #: every table this core created, for teardown.
    tables: List[str] = field(default_factory=list)

    # -- naming ------------------------------------------------------------------

    def name(self, base: str) -> str:
        """The namespaced table name of ``base`` within this core."""
        return self.prefix + base

    # -- materialization ---------------------------------------------------------

    def table(self, backend: SQLBackend, base: str, columns: Sequence[str]) -> str:
        """(Re)create a core-namespaced table and record it for teardown."""
        full = self.name(base)
        backend.recreate_table(full, columns)
        if full not in self.tables:
            self.tables.append(full)
        return full

    def index(self, backend: SQLBackend, base: str, *columns: str) -> None:
        """Create an index over a core table (a no-op on the memory engine)."""
        table = self.name(base)
        backend.create_index(f"IDX_{table}_{'_'.join(columns)}", table, columns)

    def require(
        self,
        backend: SQLBackend,
        feature: str,
        sig: object = None,
        builder: Optional[Callable[[SQLBackend, "SharedTables"], None]] = None,
    ) -> bool:
        """Materialize ``feature`` unless it already exists with ``sig``.

        Returns ``True`` when the feature was (re)built by this call.  A
        signature mismatch rebuilds the feature's tables in place, bumping
        ``sigs[feature]`` -- predicates that recorded the old signature see
        themselves stale and refit.
        """
        if self.sigs.get(feature, _MISSING) == sig:
            return False
        build = builder if builder is not None else _BUILDERS[feature]
        build(backend, self)
        self.sigs[feature] = sig
        return True

    def variant(self, feature: str, sig: object) -> Tuple[str, str]:
        """A per-(feature, sig) feature name and table-name suffix.

        Parameter-dependent features (BM25 weights for a given ``(k1, b)``,
        HMM weights for a given ``a0``, word q-grams for a given ``q``, ...)
        get their *own* tables per parameter signature instead of rebuilding
        one fixed-name table in place -- two predicate states with different
        parameters can then share a backend without refitting each other on
        every alternating query.  The first signature seen keeps the
        canonical unsuffixed table name.
        """
        variants: Dict[str, str] = self.meta.setdefault(f"variants:{feature}", {})
        key = repr(sig)
        if key not in variants:
            variants[key] = "" if not variants else f"_V{len(variants)}"
        suffix = variants[key]
        return f"{feature}{suffix}", suffix


# -- core + standard feature builders -----------------------------------------

#: Indexes of the core token/stat tables (token-join and tid-join columns).
_CORE_INDEXES = [
    ("BASE_TOKENS", ("token",)),
    ("BASE_TOKENS", ("tid",)),
    ("BASE_TOKENS_DIST", ("token",)),
    ("BASE_TOKENS_DIST", ("tid",)),
    ("BASE_TF", ("token",)),
    ("BASE_TF", ("tid",)),
    ("BASE_TIDLEN", ("tid",)),
]


def _build_core(
    backend: SQLBackend,
    core: SharedTables,
    strings: Sequence[str],
    tokenizer: Tokenizer,
) -> None:
    prefix = core.prefix
    token_tables.load_base_table(backend, strings, prefix=prefix)
    token_tables.load_base_tokens(backend, strings, tokenizer, prefix=prefix)
    core.tables.extend([core.name("BASE_TABLE"), core.name("BASE_TOKENS")])
    t = core.name
    core.table(backend, "BASE_TOKENS_DIST", ["tid INTEGER", "token TEXT"])
    backend.execute(
        f"INSERT INTO {t('BASE_TOKENS_DIST')} (tid, token) "
        f"SELECT DISTINCT tid, token FROM {t('BASE_TOKENS')}"
    )
    core.table(backend, "BASE_TF", ["tid INTEGER", "token TEXT", "tf INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_TF')} (tid, token, tf) "
        f"SELECT T.tid, T.token, COUNT(*) FROM {t('BASE_TOKENS')} T GROUP BY T.tid, T.token"
    )
    core.table(backend, "BASE_SIZE", ["size INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_SIZE')} (size) SELECT COUNT(*) FROM {t('BASE_TABLE')}"
    )
    core.table(backend, "BASE_DF", ["token TEXT", "df INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_DF')} (token, df) "
        f"SELECT D.token, COUNT(*) FROM {t('BASE_TOKENS_DIST')} D GROUP BY D.token"
    )
    core.table(backend, "BASE_TIDLEN", ["tid INTEGER", "len INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_TIDLEN')} (tid, len) "
        f"SELECT D.tid, COUNT(*) FROM {t('BASE_TOKENS_DIST')} D GROUP BY D.tid"
    )
    for base, columns in _CORE_INDEXES:
        core.index(backend, base, *columns)


def _build_dl(backend: SQLBackend, core: SharedTables) -> None:
    t = core.name
    core.table(backend, "BASE_DL", ["tid INTEGER", "dl INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_DL')} (tid, dl) "
        f"SELECT T.tid, COUNT(*) FROM {t('BASE_TOKENS')} T GROUP BY T.tid"
    )
    core.index(backend, "BASE_DL", "tid")


def _build_avgdl(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "dl")
    t = core.name
    core.table(backend, "BASE_AVGDL", ["avgdl REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_AVGDL')} (avgdl) SELECT AVG(dl) FROM {t('BASE_DL')}"
    )


def _build_idf(backend: SQLBackend, core: SharedTables) -> None:
    t = core.name
    core.table(backend, "BASE_IDF", ["token TEXT", "idf REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_IDF')} (token, idf) "
        f"SELECT D.token, LOG(S.size) - LOG(D.df) FROM {t('BASE_DF')} D, {t('BASE_SIZE')} S"
    )
    core.index(backend, "BASE_IDF", "token")


def _build_idfavg(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "idf")
    t = core.name
    core.table(backend, "BASE_IDFAVG", ["idfavg REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_IDFAVG')} (idfavg) SELECT AVG(idf) FROM {t('BASE_IDF')}"
    )


def _build_rsw(backend: SQLBackend, core: SharedTables) -> None:
    """RS weight (equation 3.5); also BM25's ``midf`` -- the same formula."""
    t = core.name
    core.table(backend, "BASE_RSW", ["token TEXT", "weight REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_RSW')} (token, weight) "
        f"SELECT D.token, LOG(S.size - D.df + 0.5) - LOG(D.df + 0.5) "
        f"FROM {t('BASE_DF')} D, {t('BASE_SIZE')} S"
    )
    core.index(backend, "BASE_RSW", "token")


def _build_rsweights(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "rsw")
    t = core.name
    core.table(backend, "BASE_RSWEIGHTS", ["tid INTEGER", "token TEXT", "weight REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_RSWEIGHTS')} (tid, token, weight) "
        f"SELECT D.tid, D.token, W.weight "
        f"FROM {t('BASE_TOKENS_DIST')} D, {t('BASE_RSW')} W WHERE D.token = W.token"
    )
    core.index(backend, "BASE_RSWEIGHTS", "token", "tid", "weight")


def _build_rsddl(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "rsweights")
    t = core.name
    core.table(backend, "BASE_RSDDL", ["tid INTEGER", "ddl REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_RSDDL')} (tid, ddl) "
        f"SELECT W.tid, SUM(W.weight) FROM {t('BASE_RSWEIGHTS')} W GROUP BY W.tid"
    )


def _build_rstokensddl(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "rsddl")
    t = core.name
    core.table(
        backend,
        "BASE_RSTOKENSDDL",
        ["tid INTEGER", "token TEXT", "weight REAL", "ddl REAL"],
    )
    backend.execute(
        f"INSERT INTO {t('BASE_RSTOKENSDDL')} (tid, token, weight, ddl) "
        f"SELECT W.tid, W.token, W.weight, D.ddl "
        f"FROM {t('BASE_RSWEIGHTS')} W, {t('BASE_RSDDL')} D WHERE W.tid = D.tid"
    )
    core.index(backend, "BASE_RSTOKENSDDL", "token", "tid", "weight", "ddl")


def _build_tokensddl(backend: SQLBackend, core: SharedTables) -> None:
    t = core.name
    core.table(backend, "BASE_TOKENSDDL", ["tid INTEGER", "token TEXT", "len INTEGER"])
    backend.execute(
        f"INSERT INTO {t('BASE_TOKENSDDL')} (tid, token, len) "
        f"SELECT T.tid, T.token, D.len "
        f"FROM {t('BASE_TOKENS_DIST')} T, {t('BASE_TIDLEN')} D WHERE T.tid = D.tid"
    )
    core.index(backend, "BASE_TOKENSDDL", "token", "tid", "len")


def _build_cosweights(backend: SQLBackend, core: SharedTables) -> None:
    """Normalized tf-idf weights (Cosine / SoftTFIDF document side)."""
    core.require(backend, "idf")
    t = core.name
    core.table(backend, "BASE_COSLENGTH", ["tid INTEGER", "len REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_COSLENGTH')} (tid, len) "
        f"SELECT T.tid, SQRT(SUM(I.idf * I.idf * T.tf * T.tf)) "
        f"FROM {t('BASE_IDF')} I, {t('BASE_TF')} T "
        f"WHERE I.token = T.token GROUP BY T.tid"
    )
    core.table(backend, "BASE_COSW", ["tid INTEGER", "token TEXT", "weight REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_COSW')} (tid, token, weight) "
        f"SELECT T.tid, T.token, I.idf * T.tf / L.len "
        f"FROM {t('BASE_IDF')} I, {t('BASE_TF')} T, {t('BASE_COSLENGTH')} L "
        f"WHERE I.token = T.token AND T.tid = L.tid"
    )
    core.index(backend, "BASE_COSW", "token", "tid", "weight")


def _build_pml(backend: SQLBackend, core: SharedTables) -> None:
    core.require(backend, "dl")
    t = core.name
    core.table(backend, "BASE_PML", ["tid INTEGER", "token TEXT", "pml REAL"])
    backend.execute(
        f"INSERT INTO {t('BASE_PML')} (tid, token, pml) "
        f"SELECT T.tid, T.token, T.tf * 1.0 / D.dl "
        f"FROM {t('BASE_TF')} T, {t('BASE_DL')} D WHERE T.tid = D.tid"
    )
    core.index(backend, "BASE_PML", "token")


_BUILDERS: Dict[str, Callable[[SQLBackend, SharedTables], None]] = {
    "dl": _build_dl,
    "avgdl": _build_avgdl,
    "idf": _build_idf,
    "idfavg": _build_idfavg,
    "rsw": _build_rsw,
    "rsweights": _build_rsweights,
    "rsddl": _build_rsddl,
    "rstokensddl": _build_rstokensddl,
    "tokensddl": _build_tokensddl,
    "cosweights": _build_cosweights,
    "pml": _build_pml,
}


# -- core acquisition ----------------------------------------------------------


def _inner(backend: SQLBackend) -> SQLBackend:
    """The real backend behind recording/proxy wrappers (registry anchor)."""
    return getattr(backend, "inner", backend)


def acquire_core(
    backend: SQLBackend,
    strings: Sequence[str],
    tokenizer: Tokenizer,
) -> SharedTables:
    """The shared core for (backend, relation, tokenizer), built if absent.

    Statements run through ``backend`` (so SQL recorders see them), but the
    core registry anchors on the *inner* backend instance: every wrapper of
    one SQLite database or in-memory engine shares the same cores.
    """
    anchor = _inner(backend)
    registry: Dict[tuple, SharedTables] = anchor.__dict__.setdefault("_decl_cores", {})
    key = (corpus_signature(strings), tokenizer_signature(tokenizer))
    core = registry.get(key)
    if core is None:
        counter = anchor.__dict__.get("_decl_core_counter", 0)
        anchor.__dict__["_decl_core_counter"] = counter + 1
        core = SharedTables(
            prefix="" if counter == 0 else f"S{counter}_",
            key=key,
            num_tuples=len(strings),
        )
        _build_core(backend, core, strings, tokenizer)
        core.sigs[CORE] = None
        registry[key] = core
    return core


def clear_shared_state(backend: SQLBackend) -> None:
    """Drop every shared core on ``backend`` and mark its handles dead.

    Predicates holding a dead handle report themselves stale and refit on
    their next use; long-lived engines call this from ``clear_cache()``.
    """
    anchor = _inner(backend)
    registry = anchor.__dict__.get("_decl_cores")
    if not registry:
        return
    for core in registry.values():
        core.dead = True
        for table in core.tables:
            backend.drop_table(table, if_exists=True)
    registry.clear()
    anchor.__dict__["_decl_core_counter"] = 0
