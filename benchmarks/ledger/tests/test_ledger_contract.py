"""BENCHMARK.json, the metric catalog and the workloads name the same things."""

import json
import re
from pathlib import Path

import pytest

from catalog import END_TO_END, PER_LAYER
from workloads import WHY, WORKLOADS, build

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_contract_has_exactly_the_agreed_keys(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_every_name_and_unit_is_well_formed_and_used_once(contract):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for entry in contract[key]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")


def test_workloads_mirror_the_generator(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WHY[entry["name"]]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_mirrors_the_catalog_and_bounds_are_legal(contract):
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_per_layer_mirrors_the_catalog(contract):
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert 1 <= len(PER_LAYER) <= 128


def test_every_layer_metric_names_an_existing_metric_and_workload():
    end_to_end = {m.name for m in END_TO_END}
    layers = {
        "text", "core", "blocking", "engine", "declarative", "backends", "dbengine",
        "shard", "serve", "resilience", "obs",
    }
    for metric in PER_LAYER:
        assert metric.moves and set(metric.moves) <= end_to_end, metric.name
        assert metric.workloads and set(metric.workloads) <= set(WORKLOADS), metric.name
        prefix = metric.name.split(".")[0]
        assert prefix in layers or metric.name in (
            "call_p99_ms", "failed_share", "bench.machine_slowdown",
            "trace.overhead_share", "trace.ladder_residual_share",
        ), metric.name


def test_the_same_seed_gives_the_same_inputs():
    first, again, other = (build("lib-scan", seed, smoke=True) for seed in (3, 3, 4))
    assert first.corpora == again.corpora and first.round_calls == again.round_calls
    assert first.corpora != other.corpora


def test_any_prefix_of_a_round_has_the_mix_of_the_whole():
    workload = build("lib-topk", 5, smoke=True)
    targets = [call.target for call in workload.round_calls]
    head = targets[: len(workload.targets)]
    assert sorted(head) == sorted(workload.targets)  # one of each, before any repeats
    for call in workload.round_calls:
        assert call.target in workload.targets
