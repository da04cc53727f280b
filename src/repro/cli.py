"""Command-line interface for the reproduction library.

Usage (after installation)::

    python -m repro.cli predicates
    python -m repro.cli generate --dataset CU1 --size 500 --output data.tsv
    python -m repro.cli query --base data.tsv --predicate bm25 --query "Morgn Stanley" --top 5
    python -m repro.cli query --base data.tsv --predicate bm25 --query "Morgn Stanley" \
        --realization declarative --backend sqlite --explain
    python -m repro.cli evaluate --dataset CU1 --size 500 --predicates bm25 jaccard --queries 50
    python -m repro.cli dedup --base data.tsv --predicate jaccard --threshold 0.6
    python -m repro.cli dedup --base data.tsv --threshold 0.6 --blocker length+prefix
    python -m repro.cli dedup --base data.tsv --threshold 0.6 --blocker lsh --lsh-bands 24

Every sub-command routes through :class:`repro.engine.SimilarityEngine`, so
the CLI doubles as executable documentation of the unified query API:
``--realization {direct,declarative}`` switches between the in-memory Python
predicates and their pure-SQL realizations, ``--backend {memory,sqlite}``
picks the SQL backend, and ``--blocker`` attaches candidate pruning.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.datagen import make_dataset
from repro.datagen.datasets import DATASET_CONFIGS
from repro.engine import SimilarityEngine, Query
from repro.engine import registry as engine_registry
from repro.eval import ExperimentRunner
from repro.eval.report import ResultSink

__all__ = ["build_parser", "main"]


def _add_engine_arguments(subparser: argparse.ArgumentParser) -> None:
    """Shared realization/backend flags (see :mod:`repro.engine`)."""
    subparser.add_argument(
        "--realization",
        default="direct",
        choices=sorted(engine_registry.REALIZATIONS),
        help="predicate realization: in-memory Python (direct) or pure SQL (declarative)",
    )
    subparser.add_argument(
        "--backend",
        default="memory",
        choices=sorted(engine_registry.BACKENDS),
        help="SQL backend for the declarative realization",
    )


def _add_blocker_arguments(subparser: argparse.ArgumentParser) -> None:
    """Shared candidate-blocking flags (see :mod:`repro.blocking`)."""
    subparser.add_argument(
        "--blocker",
        default="none",
        help=(
            "candidate blocker spec: none, length, prefix, lsh, or a "
            "'+'-separated pipeline such as length+prefix (length/prefix "
            "require a --threshold)"
        ),
    )
    subparser.add_argument(
        "--lsh-bands", type=int, default=16, help="number of MinHash-LSH bands"
    )
    subparser.add_argument(
        "--lsh-rows", type=int, default=4, help="signature rows per LSH band"
    )


def _engine_query(args: argparse.Namespace, strings: List[str]) -> Query:
    """Build the engine query all sub-commands share."""
    query = (
        SimilarityEngine()
        .from_strings(strings)
        .predicate(args.predicate)
        .realization(args.realization)
    )
    if args.realization == "declarative":
        query = query.backend(args.backend)
    if getattr(args, "blocker", "none") != "none":
        query = query.blocker(
            args.blocker, lsh_bands=args.lsh_bands, lsh_rows=args.lsh_rows
        )
    return query


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benchmarking declarative approximate selection predicates",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "predicates",
        help="list the available similarity predicates (realizations and aliases)",
    )

    generate = subparsers.add_parser("generate", help="generate a benchmark dataset")
    generate.add_argument("--dataset", default="CU1", choices=sorted(DATASET_CONFIGS))
    generate.add_argument("--size", type=int, default=1000)
    generate.add_argument("--clean", type=int, default=None, help="number of clean tuples")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", type=Path, default=None, help="write TSV to this path")

    query = subparsers.add_parser("query", help="run one approximate selection")
    query.add_argument("--base", type=Path, required=True, help="TSV file (tid<TAB>string or one string per line)")
    query.add_argument("--predicate", default="bm25")
    query.add_argument("--query", required=True)
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--threshold", type=float, default=None)
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the engine's plan, emitted SQL and blocker statistics",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of the executed query (engine -> shards -> SQL)",
    )
    query.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="METRICS_JSON",
        help="write the engine's metrics registry to this JSON file after the query",
    )
    _add_engine_arguments(query)
    _add_blocker_arguments(query)

    evaluate = subparsers.add_parser("evaluate", help="measure accuracy (MAP / max-F1)")
    evaluate.add_argument("--dataset", default="CU1", choices=sorted(DATASET_CONFIGS))
    evaluate.add_argument("--size", type=int, default=1000)
    evaluate.add_argument("--clean", type=int, default=None)
    evaluate.add_argument("--queries", type=int, default=50)
    evaluate.add_argument("--seed", type=int, default=42)
    evaluate.add_argument("--predicates", nargs="+", default=["bm25"])
    evaluate.add_argument("--output", type=Path, default=None, help="save the report (txt/md/csv)")
    _add_engine_arguments(evaluate)

    dedup = subparsers.add_parser("dedup", help="cluster duplicates in a relation")
    dedup.add_argument("--base", type=Path, required=True)
    dedup.add_argument("--predicate", default="jaccard")
    dedup.add_argument("--threshold", type=float, default=0.6)
    _add_engine_arguments(dedup)
    _add_blocker_arguments(dedup)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived similarity server (see repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8077, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--base",
        type=Path,
        default=None,
        help="TSV file to pre-register as a corpus (its id is printed)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="requests executing at once; more wait in the admission queue",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait; beyond this the server answers 429",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (queue wait + execution)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="longest a request waits for company behind a busy corpus, in "
        "seconds (an idle corpus never waits; 0 never coalesces)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="batch size that flushes at once, busy corpus or not",
    )
    serve.add_argument(
        "--max-corpora",
        type=int,
        default=8,
        help="registered corpora kept warm; least recently used are evicted",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="seconds a graceful drain waits before abandoning in-flight work",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive batch failures that trip a corpus circuit breaker",
    )
    serve.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        help="seconds an open breaker rejects (503) before probing again",
    )
    serve.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec (same grammar as REPRO_FAULTS), e.g. "
        "'shard.task:p=0.02:seed=7'",
    )

    return parser


def _load_strings(path: Path) -> List[str]:
    strings: List[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        strings.append(parts[1] if len(parts) > 1 else parts[0])
    if not strings:
        raise SystemExit(f"no strings found in {path}")
    return strings


def _cmd_predicates(_: argparse.Namespace) -> int:
    for name in engine_registry.available_predicates():
        spec = engine_registry.spec_for(name)
        realizations = "+".join(spec.realizations)
        aliases = ", ".join(spec.aliases) if spec.aliases else "-"
        print(f"{name:18s} {spec.family:20s} {realizations:20s} aliases: {aliases}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    num_clean = args.clean if args.clean is not None else max(1, args.size // 10)
    dataset = make_dataset(args.dataset, size=args.size, num_clean=num_clean, seed=args.seed)
    lines = [f"{record.tid}\t{record.text}\t{record.cluster_id}" for record in dataset]
    output = "\n".join(lines)
    if args.output is not None:
        args.output.write_text(output + "\n", encoding="utf-8")
        print(
            f"wrote {len(dataset)} records ({dataset.num_clusters()} clusters) to {args.output}"
        )
    else:
        print(output)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    strings = _load_strings(args.base)
    query = _engine_query(args, strings)
    try:
        if args.explain:
            # explain() executes the operation once and carries its matches,
            # so the explained run and the printed results are the same run.
            report = query.explain(
                args.query,
                threshold=args.threshold,
                k=None if args.threshold is not None else args.top,
            )
            print(report.describe())
            if args.trace and report.trace is not None:
                print()
                print(report.trace.describe())
            print()
            results = list(report.results or ())
        elif args.trace:
            traced = query.trace(
                args.query,
                threshold=args.threshold,
                k=None if args.threshold is not None else args.top,
            )
            print(traced.describe())
            print()
            results = list(traced.results)
        elif args.threshold is not None:
            results = query.select(args.query, args.threshold)
        else:
            results = query.top_k(args.query, k=args.top)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from error
    for result in results:
        print(f"{result.score:10.4f}\t{result.tid}\t{result.string}")
    if args.metrics_out is not None:
        from repro.obs import metrics_to_json, write_json

        # The CLI process runs exactly one query against a fresh engine, so
        # the process-wide registry holds this invocation's counters only.
        write_json(args.metrics_out, metrics_to_json(query.engine.metrics))
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    num_clean = args.clean if args.clean is not None else max(1, args.size // 10)
    dataset = make_dataset(args.dataset, size=args.size, num_clean=num_clean, seed=args.seed)
    runner = ExperimentRunner(dataset, args.dataset)
    sink = ResultSink(title=f"Accuracy on {args.dataset} ({args.size} tuples, {args.queries} queries)")
    for name in args.predicates:
        result = runner.evaluate(
            name,
            num_queries=args.queries,
            realization=args.realization,
            backend=args.backend,
        )
        sink.add(result.summary_row())
    print(sink.to_text())
    if args.output is not None:
        sink.save(args.output)
        print(f"\nsaved report to {args.output}")
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    strings = _load_strings(args.base)
    query = _engine_query(args, strings)
    try:
        clusters = query.dedup(args.threshold)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from error
    for label, cluster in enumerate(clusters):
        if len(cluster) < 2:
            continue
        print(f"cluster {label} (representative: {cluster.representative})")
        for tid in cluster.members:
            print(f"    {tid}\t{strings[tid]}")
    singletons = sum(1 for cluster in clusters if len(cluster) == 1)
    print(f"\n{len(clusters)} clusters, {singletons} singletons")
    stats = query.last_self_join_stats
    if args.blocker != "none" and stats is not None:
        print(f"blocking[{args.blocker}]: {stats.describe()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience import parse_fault_spec
    from repro.serve import SimilarityService, run_server

    faults = parse_fault_spec(args.faults) if args.faults else None
    service = SimilarityService(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        max_corpora=args.max_corpora,
        faults=faults,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        drain_timeout=args.drain_timeout,
    )
    if args.base is not None:
        corpus_id, num_tuples, _ = service.register_corpus(_load_strings(args.base))
        print(f"registered corpus {corpus_id} ({num_tuples} tuples)", flush=True)

    def announce(host: str, port: int) -> None:
        # The drain test and the benchmark parse this line for the port.
        print(f"listening on {host}:{port}", flush=True)

    run_server(service, host=args.host, port=args.port, on_listening=announce)
    print("drained and stopped", flush=True)
    return 0


_COMMANDS = {
    "predicates": _cmd_predicates,
    "generate": _cmd_generate,
    "query": _cmd_query,
    "evaluate": _cmd_evaluate,
    "dedup": _cmd_dedup,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
