"""Query fast-path benchmark -- old-path vs. fast-path on the direct realization.

Times the three query-execution fast paths this repo's perf track introduced
against the seed behaviour, on a generated UIS-style company-names relation
(the paper's accuracy-benchmark generator at performance scale):

* ``top_k`` -- seed path scores every candidate sharing a q-gram and fully
  sorts the dict; fast path is ``rank(limit=k)`` over precomputed weighted
  postings -- one dense scan + partition.  Results must be identical, tuple
  for tuple and bit for bit.
* ``select`` -- seed path sorts the full candidate set and then filters;
  fast path filters first and sorts survivors only.
* ``join (top_k)`` -- seed path runs a thresholded selection per probe and
  sorts it; fast path probes through the predicate's ``top_k``.

Writes ``BENCH_query_fastpath.json`` (queries/sec, speedups) to the
repository root -- the first point of the repo's benchmark trajectory that
future perf PRs are measured against.

Standalone usage (CI runs the smoke variant)::

    PYTHONPATH=src python benchmarks/bench_query_fastpath.py          # full
    PYTHONPATH=src python benchmarks/bench_query_fastpath.py --smoke  # tiny

The smoke run exits non-zero if any result diverges from the seed path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for _path in (str(_SRC), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.join import ApproximateJoiner  # noqa: E402
from repro.core.predicates.base import Match  # noqa: E402
from repro.core.predicates import make_predicate  # noqa: E402
from repro.datagen import make_dataset  # noqa: E402
from repro.obs import MetricsRegistry, NOOP_TRACER, bench_envelope, perf_clock  # noqa: E402
from repro.text.weights import bm25_document_weights, tfidf_weights  # noqa: E402

#: The monotone-sum predicates the seed paths are rebuilt for.
PREDICATES = ["bm25", "cosine", "weighted_match"]
TOP_K = 10
SELECT_THRESHOLD = 3.0  # score-valued predicates; selective on CU data
JOIN_PROBES = 100


def _seed_doc_weights(predicate):
    """The seed's per-tuple ``token -> document-side weight`` dicts (cosine /
    bm25), rebuilt from the public weight helpers -- the fitted predicate
    keeps only weighted postings; ``None`` for weighted_match."""
    stats = predicate._stats
    tids = range(len(predicate.base_strings))
    if predicate.name == "BM25":
        return [bm25_document_weights(stats, tid, predicate.params) for tid in tids]
    if predicate.name == "Cosine":
        idf = stats.idf_table()
        return [tfidf_weights(stats.term_frequencies(tid), idf) for tid in tids]
    return None


def _seed_scores(predicate, doc_weights, query: str):
    """The seed accumulation: per-posting weight lookups on the raw index.

    Before weighted postings landed, every candidate posting paid a
    ``doc_weights[tid].get(token)`` (aggregate family) or weight-table lookup
    (overlap family) at query time.  Tokens are visited in sorted order --
    the same canonical order the fast paths use -- so scores stay
    bit-identical and only the cost model differs.
    """
    scores = {}
    index = predicate._index
    if doc_weights is not None:  # cosine / bm25
        query_weights = predicate._query_weights(query)
        for token in sorted(query_weights):
            query_weight = query_weights[token]
            if query_weight == 0.0:
                continue
            for tid, _ in index.postings(token):
                doc_weight = doc_weights[tid].get(token, 0.0)
                if doc_weight:
                    scores[tid] = scores.get(tid, 0.0) + query_weight * doc_weight
    else:  # weighted_match
        for token in sorted(predicate._query_tokens(query)):
            weight = predicate._weight(token)
            if weight == 0.0:
                continue
            for tid, _ in index.postings(token):
                scores[tid] = scores.get(tid, 0.0) + weight
    return scores


def _naive_top_k(predicate, doc_weights, query: str, k: int):
    """The seed top-k path: score every candidate, fully sort, slice."""
    scores = _seed_scores(predicate, doc_weights, query)
    ranked = sorted(
        (Match(tid, score) for tid, score in scores.items()),
        key=lambda st: (-st.score, st.tid),
    )
    return ranked[:k], len(scores)


def _naive_select(predicate, doc_weights, query: str, threshold: float):
    """The seed selection path: sort the full candidate set, then filter."""
    scores = _seed_scores(predicate, doc_weights, query)
    ranked = sorted(
        (Match(tid, score) for tid, score in scores.items()),
        key=lambda st: (-st.score, st.tid),
    )
    return [st for st in ranked if st.score >= threshold], len(scores)


def _timed(fn, queries):
    started = perf_clock()
    outputs = [fn(query) for query in queries]
    return outputs, perf_clock() - started


def bench_predicate(name: str, strings, queries) -> dict:
    predicate = make_predicate(name).fit(strings)
    doc_weights = _seed_doc_weights(predicate)
    result: dict = {"predicate": name}

    # -- top_k ---------------------------------------------------------------
    naive_out, naive_seconds = _timed(
        lambda q: _naive_top_k(predicate, doc_weights, q, TOP_K), queries
    )
    fast_out, fast_seconds = _timed(lambda q: predicate.top_k(q, TOP_K), queries)
    identical = all(
        [(st.tid, st.score) for st in fast] == [(st.tid, st.score) for st in naive]
        for fast, (naive, _) in zip(fast_out, naive_out)
    )
    result["top_k"] = {
        "k": TOP_K,
        "naive_seconds": naive_seconds,
        "fast_seconds": fast_seconds,
        "naive_qps": len(queries) / naive_seconds if naive_seconds else None,
        "fast_qps": len(queries) / fast_seconds if fast_seconds else None,
        "speedup": naive_seconds / fast_seconds if fast_seconds else None,
        "identical_results": identical,
    }

    # -- select ---------------------------------------------------------------
    naive_sel, naive_sel_seconds = _timed(
        lambda q: _naive_select(predicate, doc_weights, q, SELECT_THRESHOLD), queries
    )
    fast_sel, fast_sel_seconds = _timed(
        lambda q: predicate.select(q, SELECT_THRESHOLD), queries
    )
    sel_identical = all(
        [(st.tid, st.score) for st in fast] == [(st.tid, st.score) for st in naive]
        for fast, (naive, _) in zip(fast_sel, naive_sel)
    )
    result["select"] = {
        "threshold": SELECT_THRESHOLD,
        "naive_seconds": naive_sel_seconds,
        "fast_seconds": fast_sel_seconds,
        "speedup": naive_sel_seconds / fast_sel_seconds if fast_sel_seconds else None,
        "identical_results": sel_identical,
    }

    # -- join probing via top_k ------------------------------------------------
    probe = queries[:JOIN_PROBES]
    joiner = ApproximateJoiner(strings, predicate=predicate, threshold=SELECT_THRESHOLD)

    def naive_join():
        matches = []
        for probe_id, text in enumerate(probe):
            selected, _ = _naive_select(predicate, doc_weights, text, SELECT_THRESHOLD)
            matches.extend(
                (probe_id, st.tid, st.score) for st in selected[:TOP_K]
            )
        return matches

    started = perf_clock()
    naive_join_matches = naive_join()
    naive_join_seconds = perf_clock() - started
    started = perf_clock()
    fast_join_matches = [
        (m.left_id, m.right_id, m.score)
        for m in joiner.join(probe, threshold=SELECT_THRESHOLD, top_k=TOP_K)
    ]
    fast_join_seconds = perf_clock() - started
    result["join_top_k"] = {
        "probes": len(probe),
        "naive_seconds": naive_join_seconds,
        "fast_seconds": fast_join_seconds,
        "speedup": (
            naive_join_seconds / fast_join_seconds if fast_join_seconds else None
        ),
        "identical_results": naive_join_matches == fast_join_matches,
    }
    return result


def run(size: int, num_queries: int, seed: int = 42) -> dict:
    dataset = make_dataset("CU1", size=size, num_clean=max(50, size // 10), seed=seed)
    strings = dataset.strings
    step = max(1, len(strings) // num_queries)
    queries = strings[::step][:num_queries]
    return bench_envelope(
        benchmark="query_fastpath",
        relation={"generator": "UIS company names (CU1)", "size": len(strings)},
        config={
            "top_k": TOP_K,
            "select_threshold": SELECT_THRESHOLD,
            "num_queries": len(queries),
            "join_probes": min(JOIN_PROBES, len(queries)),
            "seed": seed,
        },
        results=[bench_predicate(name, strings, queries) for name in PREDICATES],
    )


def obs_overhead(size: int, num_queries: int, rounds: int = 5, seed: int = 42) -> dict:
    """Cost of the disabled observability layer around real query work.

    Times the same ``top_k`` workload bare and wrapped the way the engine
    wraps it when tracing is off -- a counter increment, two no-op spans and
    a histogram observation per query -- and reports the best-of-``rounds``
    ratio.  The no-op path must stay within noise (CI asserts <= 5%).
    """
    dataset = make_dataset("CU1", size=size, num_clean=max(50, size // 10), seed=seed)
    strings = dataset.strings
    step = max(1, len(strings) // num_queries)
    queries = strings[::step][:num_queries]
    predicate = make_predicate("cosine").fit(strings)
    metrics = MetricsRegistry()

    def bare() -> None:
        for query in queries:
            predicate.top_k(query, TOP_K)

    def wrapped() -> None:
        for query in queries:
            metrics.inc("queries_total")
            started = perf_clock()
            with NOOP_TRACER.span("engine.query", op="top_k", k=TOP_K), NOOP_TRACER.span(
                "execute.direct"
            ):
                predicate.top_k(query, TOP_K)
            metrics.observe("latency.engine.query", perf_clock() - started)

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = perf_clock()
            fn()
            best = min(best, perf_clock() - started)
        return best

    bare()  # warm caches identically for both measurements
    bare_seconds = best_of(bare)
    wrapped_seconds = best_of(wrapped)
    return {
        "bare_seconds": bare_seconds,
        "wrapped_seconds": wrapped_seconds,
        "overhead_ratio": wrapped_seconds / bare_seconds if bare_seconds else 1.0,
        "rounds": rounds,
        "num_queries": len(queries),
    }


def check(report: dict, require_speedup: float = 0.0) -> list:
    """Guard conditions; returns a list of human-readable failures."""
    failures = []
    for entry in report["results"]:
        name = entry["predicate"]
        top_k = entry["top_k"]
        if not top_k["identical_results"]:
            failures.append(f"{name}: top_k fast path diverged from the naive path")
        if not entry["select"]["identical_results"]:
            failures.append(f"{name}: select fast path diverged from the naive path")
        if not entry["join_top_k"]["identical_results"]:
            failures.append(f"{name}: join top_k fast path diverged")
        if require_speedup and top_k["speedup"] < require_speedup:
            failures.append(
                f"{name}: top_k speedup {top_k['speedup']:.2f}x "
                f"< required {require_speedup}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, correctness guard only (CI perf-smoke job)",
    )
    parser.add_argument("--size", type=int, default=None, help="relation size")
    parser.add_argument("--queries", type=int, default=None, help="number of queries")
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=0.0,
        help="fail unless every predicate's top_k speedup reaches this factor",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="also measure the disabled-tracing overhead (CI asserts <= --obs-overhead-limit)",
    )
    parser.add_argument(
        "--obs-overhead-limit",
        type=float,
        default=1.05,
        help="maximum tolerated wrapped/bare ratio for the no-op tracer path",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_HERE.parent / "BENCH_query_fastpath.json",
        help="output JSON path (default: repo root BENCH_query_fastpath.json)",
    )
    args = parser.parse_args(argv)

    size = args.size or (500 if args.smoke else 10_000)
    num_queries = args.queries or (10 if args.smoke else 50)
    report = run(size=size, num_queries=num_queries)
    report["smoke"] = bool(args.smoke)

    failures = check(report, require_speedup=args.require_speedup)

    if args.obs_overhead:
        overhead = obs_overhead(size=size, num_queries=num_queries)
        report["obs_overhead"] = overhead
        print(
            f"obs overhead (no-op tracer): bare {overhead['bare_seconds']:.4f}s, "
            f"wrapped {overhead['wrapped_seconds']:.4f}s, "
            f"ratio {overhead['overhead_ratio']:.4f} "
            f"(limit {args.obs_overhead_limit})"
        )
        if overhead["overhead_ratio"] > args.obs_overhead_limit:
            failures.append(
                f"no-op tracer overhead {overhead['overhead_ratio']:.4f}x exceeds "
                f"the {args.obs_overhead_limit}x limit"
            )

    report["failures"] = failures

    for entry in report["results"]:
        top_k = entry["top_k"]
        print(
            f"{entry['predicate']:>15}  top_k(k={top_k['k']}): "
            f"{top_k['speedup']:.2f}x ({top_k['naive_qps']:.0f} -> "
            f"{top_k['fast_qps']:.0f} q/s)  |  "
            f"select: {entry['select']['speedup']:.2f}x  |  "
            f"join top_k: {entry['join_top_k']['speedup']:.2f}x"
        )

    if not args.smoke:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all fast paths exact")
    return 0


def test_query_fastpath(benchmark):
    """Pytest harness entry: small-scale run with the exactness guards."""
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
            f"{entry['select']['speedup']:.2f}x",
            f"{entry['join_top_k']['speedup']:.2f}x",
        ]
        for entry in report["results"]
    ]
    record_report(
        "query_fastpath",
        f"Query fast paths -- {report['relation']['size']} tuples, "
        f"k={TOP_K}, threshold {SELECT_THRESHOLD}",
        format_table(
            [
                "predicate",
                "top_k speedup",
                "select speedup",
                "join speedup",
            ],
            rows,
        ),
        notes=(
            "Fast paths must be exact: identical (tid, score) lists.  "
            "The standalone script writes the "
            "BENCH_query_fastpath.json trajectory point at full scale."
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
