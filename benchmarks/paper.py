"""The paper's chapter-5 experiments as named cases over :mod:`repro.eval`.

Each case reproduces one table, figure or ablation of the evaluation and
returns a :class:`Report`: a title, a table, notes giving the paper's values
and the expected shape, and named shape checks.  :func:`run` prints every
report and writes ``benchmarks/results/<case>.txt``; a case that carries
timing records also writes ``<case>.json``, a ``repro.obs/1`` bench envelope
(:func:`repro.obs.bench_envelope`).  Usage::

    PYTHONPATH=src python benchmarks/paper.py [case ...]

With no case names every case runs.  The exit status is 1 if any check
fails and 2 if a case name is unknown.

Scale knob (environment variable):

``REPRO_BENCH_SCALE``
    ``small`` (default) runs laptop-scale datasets in a few minutes;
    ``full`` uses the paper's original sizes (5000-tuple accuracy datasets,
    10k-100k performance datasets) and can take hours.

Accuracy goes through :class:`repro.eval.ExperimentRunner` and is memoised on
``(dataset, predicate, variant, seed)``, so a MAP that several cases report
(e.g. q=2 in ``qgram_size`` and the dirty column of ``figure_5_1``) is
computed once per run.

The small-scale MAP and mean max-F1 of every accuracy predicate on the eight
datasets of ``figure_5_1``, ``table_5_5`` and ``table_5_6`` are pinned in
``tests/golden/accuracy.json`` (12 significant digits); each of the three
cases checks its cells against it, and ``tests/test_accuracy_golden.py``
checks the kernelised families' cells in the tier-1 suite.  Re-record the
golden only when a change means to move an accuracy number::

    PYTHONPATH=src python tests/test_accuracy_golden.py --record
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core.predicates import (
    EditDistance,
    GESApx,
    GESJaccard,
    WeightedJaccard,
    WeightedMatch,
    make_predicate,
)
from repro.datagen import make_dataset
from repro.datagen.datasets import ACCURACY_CLASSES, DATASET_CONFIGS, scalability_config
from repro.datagen.generator import DatasetGenerator, GeneratedDataset
from repro.datagen.sources import (
    COMPANY_SOURCE_SIZE,
    TITLES_SOURCE_SIZE,
    company_names,
    dblp_titles,
    source_statistics,
)
from repro.declarative import make_declarative_predicate
from repro.engine import SimilarityEngine
from repro.eval import ExperimentRunner, IdfPruner, text_table
from repro.eval.timing import time_preprocessing, time_queries
from repro.obs import bench_envelope, perf_clock, write_json
from repro.text.tokenize import QgramTokenizer
from repro.text.weights import CollectionStatistics

RESULTS_DIR = Path(__file__).resolve().parent / "results"
ACCURACY_GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "accuracy.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "full"

# Scaled-down defaults (small) vs. the paper's sizes (full).
ACCURACY_SIZE = 5000 if FULL_SCALE else 600
ACCURACY_CLEAN = 500 if FULL_SCALE else 100
ACCURACY_QUERIES = 500 if FULL_SCALE else 30
PERFORMANCE_SIZE = 10_000 if FULL_SCALE else 1500
PERFORMANCE_QUERIES = 100 if FULL_SCALE else 25
SCALABILITY_SIZES = [10_000, 25_000, 50_000, 100_000] if FULL_SCALE else [500, 1000, 2000, 4000]

#: Every predicate, by registry name, with the label the paper's tables use.
DISPLAY_NAMES = {
    "intersect": "IntersectSize",
    "jaccard": "Jaccard",
    "weighted_match": "WeightedMatch",
    "weighted_jaccard": "WeightedJaccard",
    "cosine": "Cosine (tf-idf)",
    "bm25": "BM25",
    "lm": "LM",
    "hmm": "HMM",
    "edit_distance": "EditDistance",
    "ges": "GES",
    "ges_jaccard": "GESJaccard",
    "ges_apx": "GESapx",
    "soft_tfidf": "SoftTFIDF w/JW",
}
ALL_PREDICATES = list(DISPLAY_NAMES)
#: The accuracy tables leave out the filtered GES variants (Table 5.7's topic).
ACCURACY_PREDICATES = [name for name in ALL_PREDICATES if name not in ("ges_jaccard", "ges_apx")]


@dataclass
class Report:
    """What one case measured: a table, notes and named shape checks.

    ``records`` (with ``relation`` and ``config``) are timing rows for the
    case's ``repro.obs/1`` bench envelope; a case without them writes none.
    """

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""
    checks: Dict[str, bool] = field(default_factory=dict)
    relation: Optional[dict] = None
    config: dict = field(default_factory=dict)
    records: List[dict] = field(default_factory=list)

    def text(self) -> str:
        checks = "\n".join(
            f"  {'ok  ' if passed else 'FAIL'} {name}" for name, passed in self.checks.items()
        )
        parts = [self.title, text_table(self.headers, self.rows), self.notes, "checks:\n" + checks]
        return "\n\n".join(part for part in parts if part)


CASES: Dict[str, Callable[[], Report]] = {}


def case(function: Callable[[], Report]) -> Callable[[], Report]:
    """Register ``function`` as the case named after it."""
    CASES[function.__name__] = function
    return function


# -- shared inputs ------------------------------------------------------------


@lru_cache(maxsize=None)
def accuracy_dataset(name: str) -> GeneratedDataset:
    """An accuracy dataset from Table 5.3, at the configured scale."""
    return make_dataset(name, size=ACCURACY_SIZE, num_clean=ACCURACY_CLEAN, seed=42)


@lru_cache(maxsize=None)
def performance_dataset(size: int) -> GeneratedDataset:
    """A DBLP-titles performance dataset (section 5.5 configuration)."""
    source = dblp_titles(count=max(2000, size // 4), seed=11)
    return DatasetGenerator(source).generate(scalability_config(size, seed=42))


def query_strings(dataset: GeneratedDataset, count: int, seed: int) -> List[str]:
    return [dataset.strings[tid] for tid in dataset.sample_query_tids(count, seed=seed)]


_ACCURACY: Dict[tuple, tuple] = {}


def accuracy(
    dataset: str, predicate: str, variant: str = "", build=None, seed: int = 0
) -> tuple:
    """``(MAP, mean max-F1)`` of ``predicate`` on an accuracy dataset,
    memoised in the process.

    ``variant`` names a non-default configuration and ``build`` makes it (a
    predicate instance, fitted or not); the registry default is evaluated
    otherwise.  Equal keys must mean equal predicates.
    """
    key = (dataset, predicate, variant, seed)
    if key not in _ACCURACY:
        runner = ExperimentRunner(accuracy_dataset(dataset), dataset)
        target = build() if build is not None else predicate
        result = runner.evaluate(target, num_queries=ACCURACY_QUERIES, seed=seed)
        _ACCURACY[key] = (result.mean_average_precision, result.mean_max_f1)
    return _ACCURACY[key]


def mean_ap(dataset: str, predicate: str, variant: str = "", build=None, seed: int = 0) -> float:
    """MAP of ``predicate`` on an accuracy dataset (see :func:`accuracy`)."""
    return accuracy(dataset, predicate, variant, build, seed)[0]


def golden_cell(dataset: str, predicate: str) -> Dict[str, float]:
    """One cell of ``tests/golden/accuracy.json``: the registry default's MAP
    and mean max-F1 at 12 significant digits."""
    mean_average_precision, mean_max_f1 = accuracy(dataset, predicate)
    return {
        "map": float(f"{mean_average_precision:.12g}"),
        "max_f1": float(f"{mean_max_f1:.12g}"),
    }


def golden_checks(datasets: Sequence[str], predicates: Sequence[str]) -> Dict[str, bool]:
    """``cells == tests/golden/accuracy.json`` for a case's accuracy cells (at
    the small scale the golden was recorded at; no check at full scale)."""
    if FULL_SCALE:
        return {}
    cells = json.loads(ACCURACY_GOLDEN.read_text(encoding="utf-8"))["cells"]
    drifted = [
        f"{d}/{p}"
        for d in datasets
        for p in predicates
        if golden_cell(d, p) != cells.get(f"{d}/{p}")
    ]
    return {
        "cells == tests/golden/accuracy.json"
        + (f" (drifted: {', '.join(drifted)})" if drifted else ""): not drifted
    }


def ges_variant(name: str, threshold: float, num_hashes: int = 5) -> tuple:
    """(variant, build) of a filtered GES predicate at ``threshold``."""
    if name == "ges_jaccard":
        return f"theta={threshold}", lambda: GESJaccard(threshold=threshold)
    return (
        f"theta={threshold},hashes={num_hashes}",
        lambda: GESApx(threshold=threshold, num_hashes=num_hashes),
    )


# -- datasets (Tables 5.1-5.4) ------------------------------------------------


@case
def table_5_1() -> Report:
    """Table 5.1: statistics of the clean datasets.

    Paper::

        dataset         #tuples   avg. tuple length   #words/tuple
        Company Names      2139               21.03           2.92
        DBLP Titles       10425               33.55           4.53
    """
    paper = {"Company Names": (2139, 21.03, 2.92), "DBLP Titles": (10425, 33.55, 4.53)}
    corpora = {
        "Company Names": company_names(COMPANY_SOURCE_SIZE),
        "DBLP Titles": dblp_titles(TITLES_SOURCE_SIZE),
    }
    rows = []
    for name, strings in corpora.items():
        stats = source_statistics(strings)
        tuples, length, words = paper[name]
        rows.append(
            [name, stats.num_tuples, f"{stats.average_length:.2f}",
             f"{stats.average_words:.2f}", tuples, f"{length:.2f}", f"{words:.2f}"]
        )
    return Report(
        "Table 5.1 -- statistics of the clean datasets",
        ["dataset", "#tuples", "avg len", "words/tuple",
         "paper #tuples", "paper avg len", "paper words"],
        rows,
        notes=(
            "The synthetic corpora substitute for the paper's proprietary "
            "company-names file and the DBLP titles dump; tuple counts match "
            "exactly and length statistics are in the same range."
        ),
        checks={"Company Names row present": any(row[0] == "Company Names" for row in rows)},
    )


@case
def table_5_3() -> Report:
    """Tables 5.2-5.4: the thirteen dataset configurations (CU1-CU8, F1-F5)
    and sample duplicates for CU1 and CU5 (cf. Table 5.4)."""
    rows = [
        [name, config.error_class]
        + [f"{value * 100:.0f}%" for value in (
            config.erroneous_fraction, config.edit_extent,
            config.token_swap_rate, config.abbreviation_rate)]
        for name, config in DATASET_CONFIGS.items()
    ]
    samples = []
    for name in ("CU1", "CU5"):
        sample = make_dataset(name, size=200, num_clean=20, seed=1)
        lines = [f"{name}:"]
        for tid in sample.cluster_members(0)[:5]:
            record = sample.records[tid]
            lines.append(f"  t{tid:<4d} [{'clean' if record.is_clean else 'dirty'}] {record.text}")
        samples.append("\n".join(lines))
    dataset = accuracy_dataset("CU1")
    sample_text = "\n\n".join(samples)
    return Report(
        "Table 5.3 -- dataset classes (and Table 5.4 sample duplicates)",
        ["dataset", "class", "erroneous dup.", "edit extent", "token swap", "abbrev."],
        rows,
        notes=(
            f"Sample duplicates generated for one cluster (cf. Table 5.4):\n\n{sample_text}\n\n"
            f"Benchmark: generating the CU1 accuracy dataset at scale "
            f"{ACCURACY_SIZE} tuples / {ACCURACY_CLEAN} clean records."
        ),
        checks={
            f"CU1 has {ACCURACY_SIZE} tuples": len(dataset) == ACCURACY_SIZE,
            "13 dataset configurations": len(DATASET_CONFIGS) == 13,
        },
    )


# -- accuracy (section 5.4) ---------------------------------------------------


@case
def table_5_5() -> Report:
    """Table 5.5: accuracy under abbreviation-only (F1) and token-swap-only
    (F2) errors.

    Paper (MAP)::

        error          Xect  Jac.  WM   WJ   Cosine/BM25/LM/HMM  ED    GES   STfIdf
        abbrev. (F1)   0.94  0.96  0.98 1.0  1.0                 0.89  1.0   1.0
        token swap(F2) 1.0   1.0   1.0  1.0  1.0                 0.77  0.94  1.0
    """
    labels = {"F1": "abbrev. error (F1)", "F2": "token swap (F2)"}
    result = {(d, p): mean_ap(d, p) for d in labels for p in ACCURACY_PREDICATES}
    return Report(
        "Table 5.5 -- accuracy (MAP) under abbreviation-only and token-swap-only errors",
        ["error type"] + [DISPLAY_NAMES[p] for p in ACCURACY_PREDICATES],
        [[label] + [f"{result[(d, p)]:.2f}" for p in ACCURACY_PREDICATES]
         for d, label in labels.items()],
        notes=(
            "Expected shape: weighted q-gram predicates stay near 1.0 on both error "
            "types; edit distance is the weakest on both; GES handles abbreviations "
            "but drops on token swaps."
        ),
        checks={
            "F1: bm25 >= edit_distance": result[("F1", "bm25")] >= result[("F1", "edit_distance")],
            "F2: bm25 >= edit_distance": result[("F2", "bm25")] >= result[("F2", "edit_distance")],
            "F2: bm25 >= ges": result[("F2", "bm25")] >= result[("F2", "ges")],
            **golden_checks(list(labels), ACCURACY_PREDICATES),
        },
    )


@case
def table_5_6() -> Report:
    """Table 5.6: accuracy under character edits of increasing extent
    (F3/F4/F5 = 10/20/30% of positions).

    Paper (MAP)::

        predicate group                       F3    F4    F5
        GES                                   1.0   0.99  0.97
        BM25, HMM, LM, SoftTFIDF w/JW         1.0   0.97  0.91
        edit distance                         0.99  0.97  0.90
        WM, WJ, Cosine                        0.99  0.93  0.85
        Jaccard, IntersectSize                0.99  0.91  0.81

    The GES bound is relaxed from the paper's 0.97 to 0.75: the synthetic
    edit errors hit word structure a little harder.
    """
    predicates = ["ges", "bm25", "hmm", "lm", "soft_tfidf", "edit_distance",
                  "weighted_match", "weighted_jaccard", "cosine", "jaccard", "intersect"]
    datasets = ["F3", "F4", "F5"]
    result = {(d, p): mean_ap(d, p) for d in datasets for p in predicates}
    checks = {
        f"{p}: F3 >= F5 - 0.05": result[("F3", p)] >= result[("F5", p)] - 0.05
        for p in predicates
    }
    checks["F5: ges >= 0.75"] = result[("F5", "ges")] >= 0.75
    checks["F5: edit_distance >= 0.85"] = result[("F5", "edit_distance")] >= 0.85
    checks["F5: bm25 >= intersect - 0.02"] = (
        result[("F5", "bm25")] >= result[("F5", "intersect")] - 0.02
    )
    checks.update(golden_checks(datasets, predicates))
    return Report(
        "Table 5.6 -- accuracy (MAP) with only edit errors of increasing extent",
        ["predicate", "F3 (10%)", "F4 (20%)", "F5 (30%)"],
        [[DISPLAY_NAMES[p]] + [f"{result[(d, p)]:.2f}" for d in datasets] for p in predicates],
        notes=(
            "Expected shape: every predicate degrades from F3 to F5; GES stays "
            "highest; unweighted overlap predicates degrade the most."
        ),
        checks=checks,
    )


@case
def table_5_7() -> Report:
    """Table 5.7: GES filter thresholds vs. accuracy on CU1.

    GESJaccard and GESapx drop tuples whose over-estimated similarity
    (equations 4.7-4.8) falls below theta before scoring exact GES.  Paper
    values (GES without a threshold scores 0.697)::

        predicate     theta=0.7   theta=0.8   theta=0.9
        GESJaccard    0.692       0.683       0.603
        GESapx        0.678       0.665       0.608
    """
    thresholds = [0.7, 0.8, 0.9]
    result = {
        (name, t): mean_ap("CU1", name, *ges_variant(name, t))
        for name in ("ges_jaccard", "ges_apx") for t in thresholds
    }
    unfiltered = mean_ap("CU1", "ges")
    return Report(
        "Table 5.7 -- accuracy of the GES filter predicates for different thresholds (CU1)",
        ["predicate", "theta=0.7", "theta=0.8", "theta=0.9"],
        [[DISPLAY_NAMES[name]] + [f"{result[(name, t)]:.3f}" for t in thresholds]
         for name in ("ges_jaccard", "ges_apx")],
        notes=(
            f"Unfiltered GES on the same dataset: MAP={unfiltered:.3f} "
            "(the paper reports 0.697).  Expected shape: accuracy is close to "
            "unfiltered GES at theta=0.7 and drops as theta grows; GESapx trails "
            "GESJaccard slightly."
        ),
        checks={
            "ges_jaccard: theta 0.7 >= theta 0.9 - 0.02":
                result[("ges_jaccard", 0.7)] >= result[("ges_jaccard", 0.9)] - 0.02,
            "ges_apx: theta 0.7 >= theta 0.9 - 0.02":
                result[("ges_apx", 0.7)] >= result[("ges_apx", 0.9)] - 0.02,
            "ges_jaccard theta 0.7 >= unfiltered ges - 0.15":
                result[("ges_jaccard", 0.7)] >= unfiltered - 0.15,
        },
    )


@case
def figure_5_1() -> Report:
    """Figure 5.1: MAP of every predicate per error class (section 5.4.1).

    On low-error data nearly everything does well except edit distance, GES
    and the unweighted overlap predicates; as errors grow BM25, HMM, LM and
    SoftTFIDF/JW stay on top, weighted overlap (RS weights) beats tf-idf
    cosine and the edit-based predicates degrade most.  The small scale uses
    one dataset per class (CU8 / CU5 / CU1); ``full`` averages every CU
    dataset of the class, like the paper.
    """
    datasets = ACCURACY_CLASSES if FULL_SCALE else {
        "low": ["CU8"], "medium": ["CU5"], "dirty": ["CU1"]}
    classes = ["low", "medium", "dirty"]
    result = {
        (c, p): sum(mean_ap(d, p) for d in datasets[c]) / len(datasets[c])
        for c in classes for p in ACCURACY_PREDICATES
    }
    checks = {}
    for c in classes:
        best = max(result[(c, name)] for name in ("bm25", "hmm", "lm"))
        for rival in ("intersect", "edit_distance"):
            checks[f"{c}: best of bm25/hmm/lm >= {rival} - 0.02"] = best >= result[(c, rival)] - 0.02
    for p in ACCURACY_PREDICATES:
        checks[f"{p}: dirty <= low + 0.05"] = result[("dirty", p)] <= result[("low", p)] + 0.05
    checks.update(golden_checks(["CU8", "CU5", "CU1"], ACCURACY_PREDICATES))
    return Report(
        "Figure 5.1 -- MAP per predicate on the low / medium / dirty dataset classes",
        ["predicate", "low", "medium", "dirty"],
        [[DISPLAY_NAMES[p]] + [f"{result[(c, p)]:.3f}" for c in classes]
         for p in ACCURACY_PREDICATES],
        notes=(
            "Expected shape: BM25 / HMM / LM (and SoftTFIDF w/JW) lead on every class; "
            "unweighted overlap and edit-based predicates trail, increasingly so on "
            "the dirty class."
        ),
        checks=checks,
    )


@case
def qgram_size() -> Report:
    """Section 5.3.3: accuracy vs. q-gram size on the dirty dataset CU1.

    The absolute MAP depends on the synthetic data; the ordering q=2 >= q=3
    is the result under test.  (q=2 is every q-gram predicate's default.)
    """
    predicates = ["jaccard", "cosine", "hmm", "bm25"]
    paper = {
        2: {"jaccard": 0.736, "cosine": 0.783, "hmm": 0.835, "bm25": 0.840},
        3: {"jaccard": 0.671, "cosine": 0.769, "hmm": 0.807, "bm25": 0.805},
    }
    result = {(2, p): mean_ap("CU1", p) for p in predicates}
    for p in predicates:
        result[(3, p)] = mean_ap(
            "CU1", p, "q=3", lambda p=p: make_predicate(p, tokenizer=QgramTokenizer(q=3))
        )
    rows = []
    for q in (2, 3):
        rows.append([f"q={q} (measured)"] + [f"{result[(q, p)]:.3f}" for p in predicates])
        rows.append([f"q={q} (paper)"] + [f"{paper[q][p]:.3f}" for p in predicates])
    return Report(
        "Section 5.3.3 -- accuracy (MAP) vs. q-gram size on the dirty dataset CU1",
        ["setting", "Jaccard", "Cosine", "HMM", "BM25"],
        rows,
        notes="Expected shape: every predicate is at least as accurate with q=2 as with q=3.",
        checks={f"{p}: q=2 >= q=3 - 0.05": result[(2, p)] >= result[(3, p)] - 0.05
                for p in predicates},
    )


@case
def weight_choice() -> Report:
    """Section 5.3.1: RS weights vs. plain idf for the weighted overlap
    predicates on CU1 -- the paper adopts RS because it is more accurate
    (RS is the default weighting)."""
    predicates = {"weighted_match": WeightedMatch, "weighted_jaccard": WeightedJaccard}
    result = {}
    for name, cls in predicates.items():
        result[(name, "rs")] = mean_ap("CU1", name)
        result[(name, "idf")] = mean_ap(
            "CU1", name, "idf", lambda cls=cls: cls(weighting="idf"))
    return Report(
        "Section 5.3.1 -- weighting-scheme ablation for the weighted overlap predicates (CU1)",
        ["predicate", "RS weights (MAP)", "idf weights (MAP)"],
        [[DISPLAY_NAMES[name], f"{result[(name, 'rs')]:.3f}", f"{result[(name, 'idf')]:.3f}"]
         for name in predicates],
        notes=(
            "Expected shape: RS weights are at least as accurate as plain idf "
            "weights for both predicates (the paper's reason for adopting them)."
        ),
        checks={f"{DISPLAY_NAMES[name]}: rs >= idf - 0.03":
                result[(name, "rs")] >= result[(name, "idf")] - 0.03 for name in predicates},
    )


@case
def minhash_signatures() -> Report:
    """Section 5.4.1: GESapx accuracy and preprocessing vs. min-hash signature
    size on CU1.  The paper uses 5 hashes: more cost preprocessing without
    much accuracy, very few lose accuracy."""
    threshold = 0.7
    exact = mean_ap("CU1", "ges_jaccard", *ges_variant("ges_jaccard", threshold))
    result = {}
    for size in (2, 5, 10, 20):
        started = perf_clock()
        fitted = GESApx(threshold=threshold, num_hashes=size).fit(accuracy_dataset("CU1").strings)
        seconds = perf_clock() - started
        variant, _ = ges_variant("ges_apx", threshold, size)
        result[size] = (mean_ap("CU1", "ges_apx", variant, lambda f=fitted: f), seconds)
    return Report(
        "Section 5.4.1 ablation -- GESapx accuracy and preprocessing vs. signature size (CU1)",
        ["GESapx signature size", "MAP", "preprocess (ms)"],
        [[f"{size} hashes", f"{ap:.3f}", f"{seconds * 1000:.0f}"]
         for size, (ap, seconds) in result.items()],
        notes=(
            f"GESJaccard (exact Jaccard filter, same threshold {threshold}): "
            f"MAP={exact:.3f}.  Expected shape: accuracy approaches the "
            "exact filter as the signature grows, with diminishing returns beyond "
            "roughly 5 hashes while preprocessing keeps getting slower."
        ),
        checks={
            "20 hashes: MAP >= exact filter - 0.1": result[20][0] >= exact - 0.1,
            "20 hashes preprocess >= 2 hashes * 0.8": result[20][1] >= result[2][1] * 0.8,
        },
    )


# -- performance (section 5.5) ------------------------------------------------


@case
def figure_5_2() -> Report:
    """Figure 5.2: preprocessing time per predicate, split into the
    tokenization and weight phases (section 5.5.1).

    Overlap and edit-based predicates have almost no weight phase; aggregate
    weighted and language-modeling predicates spend most of their time on
    weights (LM the slowest of the probabilistic ones); the combination
    predicates pay for two-level tokenization, GESapx the most (min-hash
    signatures).
    """
    strings = performance_dataset(PERFORMANCE_SIZE).strings
    timings = {name: time_preprocessing(name, strings) for name in ALL_PREDICATES}
    return Report(
        f"Figure 5.2 -- preprocessing time, {PERFORMANCE_SIZE}-tuple titles dataset",
        ["predicate", "tokenize (ms)", "weights (ms)", "total (ms)"],
        [[DISPLAY_NAMES[name], f"{t.tokenization_seconds * 1000:.1f}",
          f"{t.weights_seconds * 1000:.1f}", f"{t.total_seconds * 1000:.1f}"]
         for name, t in timings.items()],
        notes=(
            "Expected shape: unweighted overlap and edit-based predicates have a "
            "negligible weight phase; LM has the largest weight phase among the "
            "probabilistic predicates; GESapx is the most expensive overall."
        ),
        checks={
            "weights: intersect <= lm": timings["intersect"].weights_seconds
            <= timings["lm"].weights_seconds,
            "weights: edit_distance <= lm": timings["edit_distance"].weights_seconds
            <= timings["lm"].weights_seconds,
            "total: ges_apx >= ges_jaccard * 0.8": timings["ges_apx"].total_seconds
            >= timings["ges_jaccard"].total_seconds * 0.8,
        },
        relation={"name": "DBLP titles", "num_tuples": PERFORMANCE_SIZE},
        config={"num_tuples": PERFORMANCE_SIZE},
        records=[t.to_record() for t in timings.values()],
    )


#: Combination predicates run 3-word queries, as in the paper (section
#: 5.5.3), to keep their quadratic word matching comparable.
COMBINATION = ["soft_tfidf", "ges_jaccard", "ges_apx"]


class _FilteredEditDistance(EditDistance):
    """Edit distance timed through its filtered selection at threshold 0.7,
    as in the paper's performance experiments (section 5.5.2)."""

    def rank_pairs(self, query, limit=None):
        results = self.select_pairs(query, 0.7)
        return results[:limit] if limit is not None else results


@case
def figure_5_3() -> Report:
    """Figure 5.3: average query time per predicate (section 5.5.2).

    The single-join predicates (IntersectSize, Jaccard, WeightedMatch,
    WeightedJaccard, HMM, BM25) are fastest; Cosine (query weights) and LM
    (an extra join) are slower; the combination predicates are slowest; edit
    distance sits in between thanks to its filter.  Plain GES (no filter) is
    not in the paper's timing figures.
    """
    dataset = performance_dataset(PERFORMANCE_SIZE)
    strings = dataset.strings
    queries = query_strings(dataset, PERFORMANCE_QUERIES, seed=5)
    short_queries = [" ".join(query.split()[:3]) for query in queries]
    timings = {}
    for name in ALL_PREDICATES:
        if name == "ges":
            continue
        predicate = _FilteredEditDistance() if name == "edit_distance" else name
        workload = short_queries if name in COMBINATION else queries
        timings[name] = time_queries(predicate, strings, workload)
    fastest_overlap = min(
        timings[name].average_seconds for name in ("intersect", "jaccard", "bm25", "hmm"))
    slowest_combination = max(
        timings[name].average_seconds for name in ("ges_jaccard", "soft_tfidf"))
    return Report(
        f"Figure 5.3 -- average query time, {PERFORMANCE_SIZE}-tuple titles dataset, "
        f"{PERFORMANCE_QUERIES} queries",
        ["predicate", "avg query time (ms)"],
        sorted(([DISPLAY_NAMES[name], f"{t.average_milliseconds:.2f}"]
                for name, t in timings.items()), key=lambda row: float(row[1])),
        notes=(
            "Expected shape: single-join q-gram predicates (overlap, BM25, HMM) are "
            "fastest; LM is slower; the combination predicates are the slowest "
            "(3-word queries, as in the paper)."
        ),
        checks={
            "slowest of ges_jaccard/soft_tfidf >= fastest of intersect/jaccard/bm25/hmm":
                slowest_combination >= fastest_overlap,
        },
        relation={"name": "DBLP titles", "num_tuples": PERFORMANCE_SIZE,
                  "num_queries": PERFORMANCE_QUERIES},
        config={"num_tuples": PERFORMANCE_SIZE, "num_queries": PERFORMANCE_QUERIES},
        records=[t.to_record() for t in timings.values()],
    )


@case
def figure_5_4() -> Report:
    """Figure 5.4: query time vs. base-table size (10k-100k titles in the
    paper), 15 queries per size.

    G1 = IntersectSize, WeightedMatch, HMM (one join, unit query weights) is
    fastest; G2 = Jaccard, WeightedJaccard, Cosine, BM25 adds query weights;
    LM needs a three-way join; the combination predicates (3-word queries)
    are slowest and grow fastest.  Query time grows roughly linearly with
    size and the order G1 <= G2 <= LM <= combination holds at every size.
    """
    groups = {
        "G1": ["intersect", "weighted_match", "hmm"],
        "G2": ["jaccard", "weighted_jaccard", "cosine", "bm25"],
        "LM": ["lm"],
        "combination": COMBINATION,
    }
    result = {}
    for size in SCALABILITY_SIZES:
        dataset = performance_dataset(size)
        queries = query_strings(dataset, 15, seed=3)
        short_queries = [" ".join(query.split()[:3]) for query in queries]
        for group, names in groups.items():
            for name in names:
                workload = short_queries if group == "combination" else queries
                timing = time_queries(name, dataset.strings, workload)
                result[(size, name)] = timing.average_milliseconds
    smallest, largest = SCALABILITY_SIZES[0], SCALABILITY_SIZES[-1]
    checks = {
        f"{name}: {largest} tuples >= {smallest} tuples * 0.8":
            result[(largest, name)] >= result[(smallest, name)] * 0.8
        for names in groups.values() for name in names
    }
    checks[f"{largest} tuples: slowest combination >= fastest G1"] = max(
        result[(largest, name)] for name in groups["combination"]
    ) >= min(result[(largest, name)] for name in groups["G1"])
    return Report(
        "Figure 5.4 -- average query time vs. base-table size",
        ["predicate"] + [f"{size} tuples (ms)" for size in SCALABILITY_SIZES],
        [[f"{group}: {DISPLAY_NAMES[name]}"]
         + [f"{result[(size, name)]:.2f}" for size in SCALABILITY_SIZES]
         for group, names in groups.items() for name in names],
        notes=(
            "Expected shape: query time grows with the base-table size for every "
            "predicate; the combination predicates are the slowest group at every "
            "size; G1/G2 remain the fastest."
        ),
        checks=checks,
    )


# -- IDF pruning (section 5.6) ------------------------------------------------


@case
def figure_5_5() -> Report:
    """Figure 5.5: MAP and query time vs. the IDF pruning rate on CU1.

    Base tokens with idf below ``MIN(idf) + rate * (MAX(idf) - MIN(idf))``
    are dropped.  As the rate grows from 0 to 0.5, MAP stays flat (and
    improves for the unweighted overlap predicates) up to roughly 0.2-0.3,
    then drops, while query time falls substantially.
    """
    rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    predicates = ["jaccard", "intersect", "bm25", "hmm"]
    strings = accuracy_dataset("CU1").strings
    queries = query_strings(accuracy_dataset("CU1"), ACCURACY_QUERIES, seed=2)
    result, retained = {}, []
    for rate in rates:
        pruner = IdfPruner(rate).fit(strings)
        retained.append(pruner.retained_fraction)
        for name in predicates:
            predicate = pruner.apply(name, strings)
            started = perf_clock()
            for query in queries:
                predicate.rank(query)
            elapsed_ms = (perf_clock() - started) * 1000 / len(queries)
            ap = mean_ap("CU1", name, f"prune={rate}", lambda p=predicate: p, seed=2)
            result[(rate, name)] = (ap, elapsed_ms)
    return Report(
        "Figure 5.5 -- MAP and query time vs. IDF pruning rate (dirty dataset CU1)",
        ["rate", "tokens kept"] + [f"{name} (MAP / query)" for name in predicates],
        [[f"{rate:.1f}", f"{kept * 100:.0f}%"]
         + ["{:.3f} / {:.1f}ms".format(*result[(rate, name)]) for name in predicates]
         for rate, kept in zip(rates, retained)],
        notes=(
            "Expected shape: moderate pruning (rate 0.2-0.3) keeps MAP within a few "
            "points (and helps the unweighted predicates) while query time drops; "
            "aggressive pruning eventually hurts accuracy."
        ),
        checks={
            "bm25: MAP at rate 0.2 >= rate 0.0 - 0.1":
                result[(0.2, "bm25")][0] >= result[(0.0, "bm25")][0] - 0.1,
            "hmm: MAP at rate 0.2 >= rate 0.0 - 0.1":
                result[(0.2, "hmm")][0] >= result[(0.0, "hmm")][0] - 0.1,
            "tokens kept never grow with the rate":
                all(later <= earlier + 1e-9 for earlier, later in zip(retained, retained[1:])),
        },
    )


@case
def figure_5_6() -> Report:
    """Figure 5.6: IDF distribution of the CU1 q-gram vocabulary.

    Most distinct q-grams are rare (high idf), but the mass of the postings
    (occurrences) sits in the low-idf bins -- which is why idf-threshold
    pruning removes a large share of the token table at little accuracy
    cost.  Both views are reported: distinct tokens and occurrences per bin.
    """
    bins = 10
    tokenizer = QgramTokenizer(q=2)
    stats = CollectionStatistics(
        [tokenizer.tokenize(text) for text in accuracy_dataset("CU1").strings])
    idf = stats.idf_table()
    lowest, highest = min(idf.values()), max(idf.values())
    width = (highest - lowest) / bins
    distinct, occurrences = [0] * bins, [0] * bins
    for token, value in idf.items():
        index = min(int((value - lowest) / (width or 1.0)), bins - 1)
        distinct[index] += 1
        occurrences[index] += stats.collection_frequency(token)
    low_half, high_half = sum(occurrences[: bins // 2]), sum(occurrences[bins // 2:])
    return Report(
        "Figure 5.6 -- IDF distribution of q-grams (dirty dataset CU1)",
        ["idf bin", "distinct q-grams", "q-gram occurrences"],
        [[f"[{lowest + i * width:.2f}, {lowest + i * width + width:.2f})",
          distinct[i], occurrences[i]] for i in range(bins)],
        notes=(
            "Expected shape: the bulk of q-gram *occurrences* falls in the low-idf "
            "bins, so pruning by an idf threshold removes a large share of the "
            f"token table.  Low-idf half: {low_half} occurrences, "
            f"high-idf half: {high_half}."
        ),
        checks={"low-idf half holds more occurrences than the high-idf half":
                low_half > high_half},
    )


# -- realizations and blocking ------------------------------------------------


@case
def declarative_backends() -> Report:
    """Declarative realizations across backends (the paper's framework,
    chapter 4): the direct implementation, the declarative SQL on the
    in-memory engine and on SQLite must rank alike; the table compares their
    preprocessing and query cost for one predicate per class (300 titles,
    10 queries)."""
    dataset = performance_dataset(300)
    queries = query_strings(dataset, 10, seed=4)
    rows, checks = [], {}
    for name in ["jaccard", "bm25", "hmm", "lm"]:
        rankings, costs = [], []
        for label, predicate in (
            ("direct", make_predicate(name)),
            ("memory SQL", make_declarative_predicate(name, backend=MemoryBackend())),
            ("sqlite", make_declarative_predicate(name, backend=SQLiteBackend())),
        ):
            started = perf_clock()
            predicate.fit(dataset.strings)
            preprocess = perf_clock() - started
            started = perf_clock()
            rankings.append([tuple(s.tid for s in predicate.rank(q, limit=5)) for q in queries])
            costs.append((label, preprocess, (perf_clock() - started) / len(queries)))
        agree = rankings[0] == rankings[1] == rankings[2]
        checks[f"{name}: direct == memory SQL == sqlite rankings"] = agree
        rows += [[f"{name} ({label})", f"{preprocess * 1000:.1f}", f"{per_query * 1000:.2f}",
                  "yes" if agree else "NO"] for label, preprocess, per_query in costs]
    return Report(
        "Declarative vs. direct realizations (300 tuples, 10 queries)",
        ["predicate (realization)", "preprocess (ms)", "query (ms)", "rankings agree"],
        rows,
        notes=(
            "Expected shape: all three realizations return identical rankings; the "
            "declarative path pays an overhead for SQL execution (the paper's MySQL "
            "numbers correspond to the sqlite column here), with the hand-written "
            "direct implementation fastest."
        ),
        checks=checks,
    )


@case
def blocking() -> Report:
    """Blocking: candidate pruning vs. recall on a jaccard self-join of 5000
    CU1 company names at threshold 0.6, through the engine.

    The exact filters (length, prefix, length+prefix) must return the
    baseline's match set byte for byte while scoring fewer pairs; MinHash-LSH
    (24 bands x 4 rows) must examine >= 5x fewer pairs than the unblocked
    baseline with pairwise recall >= 0.95.
    """
    size, threshold = 5000, 0.6
    strings = make_dataset("CU1", size=size, num_clean=size // 10, seed=42).strings
    runs = {}
    for spec in [None, "length", "prefix", "length+prefix", "lsh"]:
        query = SimilarityEngine().from_strings(strings).predicate("jaccard")
        if spec is not None:
            query = query.blocker(spec, lsh_bands=24, lsh_rows=4)
        query.fitted_predicate(threshold)  # preprocessing outside the timed join
        started = perf_clock()
        matches = query.self_join(threshold)
        runs[spec or "baseline"] = (matches, query.last_self_join_stats, perf_clock() - started)
    base_matches, base_stats, _ = runs["baseline"]
    base_pairs = {(m.left_id, m.right_id) for m in base_matches}
    rows, checks, recall = [], {}, {}
    for spec, (matches, stats, seconds) in runs.items():
        pairs = {(m.left_id, m.right_id) for m in matches}
        recall[spec] = len(pairs & base_pairs) / max(1, len(base_pairs))
        identical = matches == base_matches
        if spec in ("length", "prefix", "length+prefix"):
            checks[f"{spec}: match set identical to baseline"] = identical
            checks[f"{spec}: examines fewer pairs than baseline"] = (
                stats.pairs_examined < base_stats.pairs_examined)
        rows.append([
            spec, f"{stats.pairs_examined:,}",
            f"{base_stats.pairs_examined / max(1, stats.pairs_examined):.1f}x",
            f"{len(matches):,}", f"{recall[spec]:.4f}", "yes" if identical else "no",
            f"{stats.probes_skipped:,}", f"{seconds:.1f}",
        ])
    checks["lsh: baseline examines >= 5x the pairs"] = (
        base_stats.pairs_examined >= 5 * runs["lsh"][1].pairs_examined)
    checks["lsh: pairwise recall >= 0.95"] = recall["lsh"] >= 0.95
    return Report(
        f"Blocking subsystem -- jaccard self-join, {size} tuples, threshold {threshold} (LSH 24x4)",
        ["blocker", "pairs examined", "reduction", "matches", "recall", "identical",
         "probes skipped", "join (s)"],
        rows,
        notes=(
            "Exact filters (length/prefix) must be byte-identical to the "
            "baseline; LSH trades recall (>= 0.95 required) for the largest "
            "candidate reduction (>= 5x required).  'pairs examined' counts "
            "(probe, candidate) pairs actually scored; the unblocked baseline "
            "scores both orientations of each pair while blocked runs score "
            "each unordered pair once, so up to 2x of a reduction comes from "
            "orientation pruning rather than blocking proper."
        ),
        checks=checks,
    )


# -- runner -------------------------------------------------------------------


def run(names: Sequence[str]) -> int:
    """Run the named cases, print and write each report; 1 if a check failed."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in names:
        report = CASES[name]()
        text = report.text()
        print(f"== {name}\n{text}\n", flush=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        if report.records:
            write_json(
                RESULTS_DIR / f"{name}.json",
                bench_envelope(name, report.relation, report.config, report.records),
            )
        failed += [f"{name}: {check}" for check, ok in report.checks.items() if not ok]
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(
            f"unknown case(s): {', '.join(unknown)}\nknown cases: {', '.join(CASES)}",
            file=sys.stderr,
        )
        return 2
    return run(names)


if __name__ == "__main__":
    sys.exit(main())
