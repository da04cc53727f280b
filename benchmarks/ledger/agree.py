"""Do two sets of runs of the same code agree within the ledger's own bounds?

Three ways to call it (from the root of a checkout)::

    python3 benchmarks/ledger/agree.py                # 2 sets x 1 run per workload
    python3 benchmarks/ledger/agree.py --runs 10      # 2 sets x 10 seeds per workload
    python3 benchmarks/ledger/agree.py A.json B.json  # two saved outputs

A *set* is ``--runs`` untraced runs of every workload, run ``i`` with seed
``--seed + i``.  For every end-to-end metric and workload the report gives
the median of each set, their ratio, whether the second median is worse than
the first by more than the metric's bound in ``BENCHMARK.json``, and -- with
three runs or more -- each set's spread (interquartile distance over the
median, the rule the benchmark driver applies with ten runs).  A saved
output is either a set written by this script (``--save``) or one
``out/ledger.json`` envelope of ``run.py``, which counts as a set of one run.

Exit status is 1 if any metric is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))

#: ``{workload: {metric: [value per run]}}``
Set = Dict[str, Dict[str, List[float]]]


def _contract() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_set(workloads: List[str], runs: int, seed: int, seconds: int) -> Set:
    """One set: ``runs`` untraced runs of every workload."""
    result: Set = {}
    for workload in workloads:
        for index in range(runs):
            done = subprocess.run(
                [
                    sys.executable, os.path.join(_HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed + index),
                    "--seconds", str(seconds), "--trace", "0",
                ],
                cwd=_ROOT, capture_output=True, text=True, check=True,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                raise SystemExit(f"{workload} seed {seed + index}: answers were wrong")
            for metric, entry in line["metrics"].items():
                result.setdefault(workload, {}).setdefault(metric, []).append(entry["value"])
            print(f"  ran {workload} seed {seed + index}", file=sys.stderr)
    return result


def load_set(path: str) -> Set:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") != "bench":
        return data["set"]
    result: Set = {}
    for row in data["results"]:
        result.setdefault(row["workload"], {}).setdefault(row["metric"], []).append(
            row["value"]
        )
    return result


def _spread(values: List[float]) -> str:
    if len(values) < 3:
        return "   -  "
    first, _, third = statistics.quantiles(values, n=4)
    return f"{(third - first) / statistics.median(values):6.3f}"


def compare(first: Set, second: Set, contract: dict) -> bool:
    """Print the comparison table; returns whether every metric agrees."""
    agreed = True
    print(f"{'workload':16s} {'metric':18s} {'first':>10s} {'second':>10s} "
          f"{'ratio':>7s} {'bound':>6s} {'spread1':>7s} {'spread2':>7s}  verdict")
    for workload in first:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in first[workload] or name not in second.get(workload, {}):
                continue
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            inside = worse <= metric["bound"]
            agreed = agreed and inside
            print(
                f"{workload:16s} {name:18s} {a:10.4f} {b:10.4f} {b / a:7.3f} "
                f"{metric['bound']:6.2f} {_spread(first[workload][name]):>7s} "
                f"{_spread(second[workload][name]):>7s}  "
                f"{'inside' if inside else 'OUTSIDE'}"
            )
    return agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="two saved outputs to compare")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set")
    parser.add_argument("--seed", type=int, default=20070611)
    parser.add_argument("--save", default=None, help="prefix: write <prefix>1.json, <prefix>2.json")
    args = parser.parse_args(argv)
    contract = _contract()
    if args.files:
        if len(args.files) != 2:
            parser.error("give exactly two files")
        first, second = (load_set(path) for path in args.files)
    else:
        workloads = [w["name"] for w in contract["workloads"]]
        first = run_set(workloads, args.runs, args.seed, contract["run_seconds"])
        second = run_set(workloads, args.runs, args.seed, contract["run_seconds"])
        if args.save:
            for suffix, data in (("1", first), ("2", second)):
                with open(f"{args.save}{suffix}.json", "w", encoding="utf-8") as handle:
                    json.dump({"set": data}, handle, indent=1)
    return 0 if compare(first, second, contract) else 1


if __name__ == "__main__":
    sys.exit(main())
