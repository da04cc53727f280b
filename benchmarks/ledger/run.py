"""The perf ledger: one command, five workloads, end-to-end and per-layer.

Usage (from the root of a checkout; ``src`` is put on ``sys.path`` here)::

    python3 benchmarks/ledger/run.py --seed 20070611            # everything
    python3 benchmarks/ledger/run.py --workload lib-topk        # one workload
    python3 benchmarks/ledger/run.py --smoke                    # plumbing only

Without ``--trace`` each workload runs twice: once with tracing off for the
end-to-end metrics, once traced for the per-layer metrics.  The benchmark
driver passes ``--trace 0`` or ``--trace 1`` to get one pass, and
``--seconds`` to set how long the untraced rounds measure.

Every metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  One ``repro.obs/1`` bench envelope is written to
``benchmarks/ledger/out/ledger.json`` and the spans of the traced pass to
``benchmarks/ledger/out/spans.jsonl`` -- at exit, never while measuring.
No gain is claimed by this harness: the envelope says ``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
OUT_DIR = os.path.join(_HERE, "out")

DEFAULT_SEED = 20070611


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", default=None, help="run one workload (default: all)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpora and rounds: plumbing check, never for recorded numbers",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the untraced rounds measure (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end pass only; 1: traced per-layer pass only (default: both)",
    )
    return parser.parse_args(argv)


def _git_revision():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
        print(f"perf ledger: no program to measure ({_SRC}/repro is missing)", file=sys.stderr)
        return 2
    for path in (_SRC, _HERE):
        if path not in sys.path:
            sys.path.insert(0, path)

    try:
        import numpy
    except ImportError:  # the kernels then run their pure-Python backend
        numpy = None

    from repro.obs import bench_envelope, write_json

    import check
    import layers
    import rounds
    from catalog import END_TO_END, PER_LAYER, UNITS
    from measure import SpanLog
    from workloads import WORKLOADS, build

    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perf ledger: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    setup_repeats = rounds.SETUP_REPEATS
    if args.smoke:
        seconds, setup_repeats = min(seconds, 0.5), 1

    log = SpanLog()
    rows = []
    correct = True
    attempted = failed = 0
    digests = {}
    for name in names:
        workload = build(name, args.seed, smoke=args.smoke)
        measured = {}
        if args.trace in (None, 0):
            result = rounds.run(workload, seconds, setup_repeats)
            wanted = [m.name for m in END_TO_END]
            if any(metric not in result.metrics for metric in wanted):
                correct = False  # no round produced a single good answer
            measured.update({m: result.metrics.get(m, 0.0) for m in wanted})
            attempted += result.tally.attempted
            failed += result.tally.failed
            digests[name] = result.reference_digest
            print(f"# {name}: {result.rounds} rounds, "
                  f"{result.tally.attempted} calls attempted, {result.tally.failed} failed, "
                  f"machine slowdown {result.machine_slowdown:.3f}"
                  + (" (divided out)" if workload.calibrated else " (times as measured)"))
        if args.trace in (None, 1):
            values, tally = layers.run(workload, log)
            measured.update({m.name: values[m.name] for m in PER_LAYER})
            attempted += tally.attempted
            failed += tally.failed
            print(f"# {name}: traced pass, {tally.attempted} calls attempted, "
                  f"{tally.failed} failed; child spans come from replays of the same call")
        if name in digests and args.seed == check.GOLDEN_SEED and not args.smoke:
            golden = check.load_golden(name)
            if golden is not None and golden["digest"] != digests[name]:
                print(f"# {name}: reference answers differ from golden/{name}.json")
                correct = False
        for metric, value in measured.items():
            print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
            rows.append(
                {"workload": name, "metric": metric, "value": value, "unit": UNITS[metric]}
            )
    correct = correct and failed == 0

    os.makedirs(OUT_DIR, exist_ok=True)
    write_json(
        os.path.join(OUT_DIR, "ledger.json"),
        bench_envelope(
            benchmark="ledger",
            relation={"dataset": "CU1", "seed": args.seed},
            config={
                "seed": args.seed,
                "seconds": seconds,
                "smoke": args.smoke,
                "trace": args.trace,
                "workloads": names,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__ if numpy is not None else None,
                "git_revision": _git_revision(),
            },
            results=rows,
            correct=correct,
            attempted=attempted,
            failed=failed,
            reference_digests=digests,
            claim=None,
        ),
    )
    if log.records:
        log.write(os.path.join(OUT_DIR, "spans.jsonl"))
    if args.seed == check.GOLDEN_SEED and not args.smoke:
        # Candidates for golden/: copy them there to accept this commit's answers.
        os.makedirs(os.path.join(OUT_DIR, "golden"), exist_ok=True)
        for name, value in digests.items():
            write_json(
                os.path.join(OUT_DIR, "golden", f"{name}.json"),
                {"workload": name, "seed": args.seed, "digest": value},
            )

    single = len(names) == 1
    metrics = {
        (row["metric"] if single else f"{row['workload']}/{row['metric']}"): {
            "value": row["value"], "unit": row["unit"],
        }
        for row in rows
    }
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
