"""Vectorized-kernel benchmark -- numpy backend vs the pure-Python scalar path.

Times the kernelized scoring paths of :mod:`repro.core.kernels` under both
backends on a generated UIS-style company-names relation:

* ``top_k(k=10)`` -- ``rank(limit=10)`` on each backend: the scalar
  accumulation plus a bounded heap, the dense scan plus a partition
  selection on numpy.
* ``run_many (rank)`` -- the batch full-scoring workload through the engine;
  the numpy backend accumulates each query's whole candidate set in one
  scatter-add.

Both backends must return **bit-identical** ``(tid, score)`` lists -- the
exactness contract the kernel layer is built around; the benchmark fails on
any divergence.  Writes ``BENCH_vector_kernels.json`` with per-cell timings
and the speedup geomean.

A third section demonstrates the unlocked thread parallelism: numpy releases
the GIL inside the accumulation kernels, so the shard layer's
``executor="thread"`` finally scales.  On single-core containers (like the
recorded bench environment) the measurement is hardware-bound and
self-skips; the skip is noted in the envelope.

Standalone usage (CI runs the smoke variant)::

    PYTHONPATH=src python benchmarks/bench_vector_kernels.py          # full
    PYTHONPATH=src python benchmarks/bench_vector_kernels.py --smoke  # tiny
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for _path in (str(_SRC), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core import kernels  # noqa: E402
from repro.core.predicates import make_predicate  # noqa: E402
from repro.datagen import make_dataset  # noqa: E402
from repro.engine import SimilarityEngine  # noqa: E402
from repro.obs import bench_envelope, perf_clock  # noqa: E402

#: Every kernelized predicate family: the monotone-sum predicates (first
#: three), the language models and the rest of the overlap family (the
#: integer count scan and the array finalizers; here for the bit-identity
#: guard -- their recorded numbers are the perf ledger's).
PREDICATES = [
    "bm25",
    "cosine",
    "weighted_match",
    "lm",
    "hmm",
    "jaccard",
    "intersect",
    "weighted_jaccard",
]
TOP_K = 10
THREAD_SHARDS = 4


def _pairs(ranking):
    return [(match.tid, match.score) for match in ranking]


def _timed(fn):
    started = perf_clock()
    output = fn()
    return output, perf_clock() - started


def bench_predicate(name: str, strings, queries) -> dict:
    predicate = make_predicate(name).fit(strings)
    engine = SimilarityEngine()
    query = engine.from_strings(strings).predicate(name)
    query.run_many(queries[:2], op="rank", limit=TOP_K)  # warm the fitted cache
    result: dict = {"predicate": name}

    # -- top_k(k=10), per-query ----------------------------------------------
    def topk_all():
        return [_pairs(predicate.top_k(text, TOP_K)) for text in queries]

    with kernels.use_backend("python"):
        topk_all()  # warm-up
        python_out, python_seconds = _timed(topk_all)
    with kernels.use_backend("numpy"):
        topk_all()  # warm-up
        numpy_out, numpy_seconds = _timed(topk_all)
    result["top_k"] = {
        "k": TOP_K,
        "python_seconds": python_seconds,
        "numpy_seconds": numpy_seconds,
        "python_qps": len(queries) / python_seconds if python_seconds else None,
        "numpy_qps": len(queries) / numpy_seconds if numpy_seconds else None,
        "speedup": python_seconds / numpy_seconds if numpy_seconds else None,
        "identical_results": python_out == numpy_out,
    }

    # -- run_many (batch rank) ------------------------------------------------
    def run_many():
        return [
            _pairs(ranking)
            for ranking in query.run_many(queries, op="rank", limit=TOP_K)
        ]

    with kernels.use_backend("python"):
        python_batch, python_batch_seconds = _timed(run_many)
    with kernels.use_backend("numpy"):
        numpy_batch, numpy_batch_seconds = _timed(run_many)
    result["run_many"] = {
        "op": "rank",
        "limit": TOP_K,
        "python_seconds": python_batch_seconds,
        "numpy_seconds": numpy_batch_seconds,
        "speedup": (
            python_batch_seconds / numpy_batch_seconds
            if numpy_batch_seconds
            else None
        ),
        "identical_results": python_batch == numpy_batch,
    }
    return result


def bench_threads(strings, queries) -> dict:
    """Thread-executor scaling of sharded run_many under the numpy kernels.

    Python-loop scoring holds the GIL, so threads used to buy nothing; the
    numpy kernels release it inside the accumulation, so shard tasks overlap.
    Hardware-bound: self-skips on single-core machines (note recorded).
    """
    cores = os.cpu_count() or 1
    if cores < 2:
        return {
            "skipped": True,
            "note": (
                f"thread-speedup measurement skipped: only {cores} CPU(s) "
                "available (thread parallelism is hardware-bound); re-run on "
                "a multi-core machine to record it"
            ),
        }
    engine = SimilarityEngine()
    base = engine.from_strings(strings).predicate("bm25")
    serial = base.shards(THREAD_SHARDS, executor="serial")
    threaded = base.shards(THREAD_SHARDS, executor="thread")

    def run(sharded_query):
        return [
            _pairs(ranking)
            for ranking in sharded_query.run_many(queries, op="top_k", k=TOP_K)
        ]

    with kernels.use_backend("numpy"):
        run(serial)  # warm both fitted states
        run(threaded)
        serial_out, serial_seconds = _timed(lambda: run(serial))
        thread_out, thread_seconds = _timed(lambda: run(threaded))
    return {
        "skipped": False,
        "predicate": "bm25",
        "num_shards": THREAD_SHARDS,
        "cpu_count": cores,
        "serial_seconds": serial_seconds,
        "thread_seconds": thread_seconds,
        "thread_speedup": serial_seconds / thread_seconds if thread_seconds else None,
        "identical_results": serial_out == thread_out,
    }


def run(size: int, num_queries: int, seed: int = 42) -> dict:
    dataset = make_dataset("CU1", size=size, num_clean=max(50, size // 10), seed=seed)
    strings = dataset.strings
    step = max(1, len(strings) // num_queries)
    queries = strings[::step][:num_queries]
    results = [bench_predicate(name, strings, queries) for name in PREDICATES]
    speedups = [
        entry[op]["speedup"]
        for entry in results
        for op in ("top_k", "run_many")
        if entry[op]["speedup"]
    ]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else None
    )
    return bench_envelope(
        benchmark="vector_kernels",
        relation={"generator": "UIS company names (CU1)", "size": len(strings)},
        config={
            "top_k": TOP_K,
            "num_queries": len(queries),
            "seed": seed,
            "cpu_count": os.cpu_count(),
        },
        results=results,
        speedup_geomean=geomean,
        threads=bench_threads(strings, queries),
    )


def check(report: dict, require_speedup: float = 0.0) -> list:
    """Guard conditions; returns a list of human-readable failures."""
    failures = []
    for entry in report["results"]:
        name = entry["predicate"]
        for op in ("top_k", "run_many"):
            if not entry[op]["identical_results"]:
                failures.append(
                    f"{name}: {op} numpy results diverged from the scalar path"
                )
    threads = report.get("threads", {})
    if not threads.get("skipped") and not threads.get("identical_results", True):
        failures.append("threaded sharded results diverged from serial")
    if require_speedup:
        geomean = report["speedup_geomean"] or 0.0
        if geomean < require_speedup:
            failures.append(
                f"kernel geomean speedup {geomean:.2f}x "
                f"< required {require_speedup}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, bit-identity guard only (CI perf-smoke job)",
    )
    parser.add_argument("--size", type=int, default=None, help="relation size")
    parser.add_argument("--queries", type=int, default=None, help="number of queries")
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=0.0,
        help="fail unless the numpy-vs-python geomean speedup reaches this factor",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_HERE.parent / "BENCH_vector_kernels.json",
        help="output JSON path (default: repo root BENCH_vector_kernels.json)",
    )
    args = parser.parse_args(argv)

    if not kernels.numpy_available():
        print(
            "numpy unavailable: nothing to compare (the pure-Python fallback "
            "is the only backend); install the 'fast' extra to benchmark"
        )
        return 0

    size = args.size or (500 if args.smoke else 10_000)
    num_queries = args.queries or (10 if args.smoke else 50)
    report = run(size=size, num_queries=num_queries)
    report["smoke"] = bool(args.smoke)

    failures = check(report, require_speedup=args.require_speedup)
    report["failures"] = failures

    for entry in report["results"]:
        top_k = entry["top_k"]
        batch = entry["run_many"]
        print(
            f"{entry['predicate']:>15}  top_k(k={top_k['k']}): "
            f"{top_k['speedup']:.2f}x ({top_k['python_qps']:.0f} -> "
            f"{top_k['numpy_qps']:.0f} q/s)  |  run_many(rank): "
            f"{batch['speedup']:.2f}x  identical="
            f"{top_k['identical_results'] and batch['identical_results']}"
        )
    if report["speedup_geomean"]:
        print(
            f"{'geomean':>15}  numpy kernels {report['speedup_geomean']:.2f}x "
            f"vs pure-Python scalar path"
        )
    threads = report["threads"]
    if threads.get("skipped"):
        print(f"{'threads':>15}  {threads['note']}")
    else:
        print(
            f"{'threads':>15}  {threads['num_shards']} shards on "
            f"{threads['cpu_count']} CPU(s): thread executor "
            f"{threads['thread_speedup']:.2f}x vs serial  "
            f"identical={threads['identical_results']}"
        )

    if not args.smoke:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("numpy kernels bit-identical to the scalar path")
    return 0


def test_vector_kernels(benchmark):
    """Pytest harness entry: small-scale run with the bit-identity guards."""
    if not kernels.numpy_available():
        import pytest

        pytest.skip("numpy unavailable")
    report = benchmark.pedantic(
        lambda: run(size=1500, num_queries=20), rounds=1, iterations=1
    )
    failures = check(report)
    assert not failures, failures
    from _bench_support import format_table, record_report

    rows = [
        [
            entry["predicate"],
            f"{entry['top_k']['speedup']:.2f}x",
            f"{entry['run_many']['speedup']:.2f}x",
        ]
        for entry in report["results"]
    ]
    record_report(
        "vector_kernels",
        f"Vectorized kernels -- {report['relation']['size']} tuples, "
        f"k={TOP_K}, numpy vs pure-Python",
        format_table(["predicate", "top_k speedup", "run_many speedup"], rows),
        notes=(
            "Both backends must return bit-identical (tid, score) lists; "
            "the standalone script writes BENCH_vector_kernels.json at "
            "full scale."
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
