"""The paper's accuracy numbers, pinned: MAP and mean max-F1 against a golden.

``tests/golden/accuracy.json`` holds 88 cells: the 11 accuracy predicates of
``benchmarks/paper.py`` on one dataset per error class (CU1 dirty, CU5
medium, CU8 low) and on the five single-error datasets F1-F5, at the small
scale (``size=600, num_clean=100, seed=42``, 30 queries).  Values are kept
at 12 significant digits.  The cells are computed by ``paper.py``'s own
:func:`accuracy` memo, so the golden, the paper cases that check it
(``figure_5_1``, ``table_5_5``, ``table_5_6``) and this test read one
runner.

This test checks the 64 cells of the eight kernelised families; the edit
and combination families cost about 13 s per dataset and are checked by
``python benchmarks/paper.py``.  Re-record only when a change means to move
an accuracy number, and diff the JSON against the parent before committing::

    PYTHONPATH=src python tests/test_accuracy_golden.py --record
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = _ROOT / "tests" / "golden" / "accuracy.json"

DATASETS = ["CU1", "CU5", "CU8", "F1", "F2", "F3", "F4", "F5"]

#: The families that score through the kernels; the other five are checked
#: by the paper cases.
KERNELISED = [
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "lm",
    "hmm",
]


def _paper():
    spec = importlib.util.spec_from_file_location(
        "paper_accuracy_golden", _ROOT / "benchmarks" / "paper.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def cells(predicates):
    paper = _paper()
    return {
        f"{dataset}/{predicate}": paper.golden_cell(dataset, predicate)
        for dataset in DATASETS
        for predicate in predicates
    }


def test_kernelised_accuracy_equals_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]
    assert len(golden) == len(DATASETS) * 11
    assert cells(KERNELISED) == {
        key: golden[key] for key in golden if key.split("/")[1] in KERNELISED
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_accuracy_golden.py --record")
    paper = _paper()
    if paper.FULL_SCALE:
        raise SystemExit("the golden is recorded at the small scale: unset REPRO_BENCH_SCALE")
    document = {
        "config": {
            "size": paper.ACCURACY_SIZE,
            "num_clean": paper.ACCURACY_CLEAN,
            "seed": 42,
            "queries": paper.ACCURACY_QUERIES,
            "digits": 12,
        },
        "cells": cells(paper.ACCURACY_PREDICATES),
    }
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
