"""The paper-experiment runner (benchmarks/paper.py): cases, exit codes, files.

Only the cheap cases run here; the full study runs in its own CI job.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PAPER = Path(__file__).resolve().parents[1] / "benchmarks" / "paper.py"


@pytest.fixture(scope="module")
def paper():
    spec = importlib.util.spec_from_file_location("paper_runner", _PAPER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def results(paper, monkeypatch, tmp_path):
    monkeypatch.setattr(paper, "RESULTS_DIR", tmp_path)
    return tmp_path


def test_cheap_cases_pass_and_write_reports(paper, results, capsys):
    names = ["table_5_1", "table_5_3", "figure_5_6"]
    assert paper.main(names) == 0
    for name in names:
        text = (results / f"{name}.txt").read_text(encoding="utf-8")
        assert "checks:" in text and "FAIL" not in text
        assert not (results / f"{name}.json").exists()
    assert "Company Names" in (results / "table_5_1.txt").read_text(encoding="utf-8")
    assert "== figure_5_6" in capsys.readouterr().out


def test_failing_check_exits_1(paper, results, monkeypatch, capsys):
    def broken():
        return paper.Report("t", ["a"], [["x"]], checks={"holds": True, "bound": False})

    monkeypatch.setitem(paper.CASES, "broken", broken)
    assert paper.main(["broken"]) == 1
    assert "FAIL bound" in (results / "broken.txt").read_text(encoding="utf-8")
    assert "broken: bound" in capsys.readouterr().err


def test_unknown_case_exits_2_and_lists_known_cases(paper, results, capsys):
    assert paper.main(["table_5_1", "figure_9_9"]) == 2
    err = capsys.readouterr().err
    assert "figure_9_9" in err
    assert all(name in err for name in paper.CASES)
    assert len(paper.CASES) == 16
    assert not list(results.iterdir())


def test_timing_cases_write_envelopes_with_a_relation_dict(paper, results, monkeypatch):
    monkeypatch.setattr(paper, "PERFORMANCE_SIZE", 40)
    monkeypatch.setattr(paper, "PERFORMANCE_QUERIES", 2)
    # Timing checks at 40 tuples are noise; only the files are under test.
    assert paper.main(["figure_5_2", "figure_5_3"]) in (0, 1)
    for name in ("figure_5_2", "figure_5_3"):
        envelope = json.loads((results / f"{name}.json").read_text(encoding="utf-8"))
        assert envelope["schema"] == "repro.obs/1" and envelope["kind"] == "bench"
        assert envelope["relation"]["name"] == "DBLP titles"
        assert envelope["relation"]["num_tuples"] == 40
        assert {row["num_tuples"] for row in envelope["results"]} == {40}
        assert (results / f"{name}.txt").exists()
    relation = json.loads((results / "figure_5_3.json").read_text(encoding="utf-8"))["relation"]
    assert relation["num_queries"] == 2
