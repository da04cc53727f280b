"""Tests for repro.analysis -- the invariant-aware static analysis suite.

Covers: a good/bad fixture pair per rule (tricky scopes included), the
suppression grammar (reason= is mandatory), baseline add/shrink semantics,
the CLI exit-code contract, the minimal-TOML fallback parser, a self-check
that the shipped tree is clean, and pinned regression tests for the genuine
violations the rules surfaced in src/ (sorted-order float sums in SoftTFIDF
and language modeling, out-of-lock cache reads in the engine and metrics
registry).
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    check_paths,
    check_source,
    load_baseline,
    load_config,
    parse_minimal_toml,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.cli import main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "analysis"

#: FileContext paths placing each rule's fixtures inside the rule's default
#: path scope (the fixture *files* live under tests/, outside every scope).
SCOPED_PATHS = {
    "RPL001": "src/repro/core/fixture.py",
    "RPL002": "src/repro/fixture.py",
    "RPL003": "src/repro/shard/fixture.py",
    "RPL004": "src/repro/fixture.py",
    "RPL005": "src/repro/serve/fixture.py",
}


def run_fixture(rule: str, kind: str):
    source = (FIXTURES / f"{rule.lower()}_{kind}.py").read_text(encoding="utf-8")
    return check_source(source, SCOPED_PATHS[rule], select=[rule])


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert {"RPL001", "RPL002", "RPL003", "RPL004", "RPL005"} <= set(RULES)

    def test_every_rule_states_its_contract(self):
        for rule in RULES.values():
            assert rule.contract, rule.code


class TestFixturePairs:
    """Each rule must fire on its bad fixture and stay quiet on the good one."""

    @pytest.mark.parametrize("rule", sorted(SCOPED_PATHS))
    def test_bad_fixture_fails(self, rule):
        findings = run_fixture(rule, "bad")
        assert findings, f"{rule} missed its bad fixture"
        assert all(f.rule == rule for f in findings)

    @pytest.mark.parametrize("rule", sorted(SCOPED_PATHS))
    def test_good_fixture_passes(self, rule):
        findings = run_fixture(rule, "good")
        assert not findings, "\n".join(f.render() for f in findings)

    @pytest.mark.parametrize("rule", sorted(SCOPED_PATHS))
    def test_findings_are_location_precise(self, rule):
        for finding in run_fixture(rule, "bad"):
            rendered = finding.render()
            path, line, col, rest = rendered.split(":", 3)
            assert path == SCOPED_PATHS[rule]
            assert int(line) > 0 and int(col) > 0
            assert rest.strip().startswith(rule)


class TestRPL001Scopes:
    def test_bad_fixture_hits_loop_and_sum(self):
        findings = run_fixture("RPL001", "bad")
        assert len(findings) == 2
        assert "total" in findings[0].message
        assert "sum()" in findings[1].message

    def test_out_of_scope_path_is_ignored(self):
        source = (FIXTURES / "rpl001_bad.py").read_text(encoding="utf-8")
        findings = check_source(source, "src/repro/text/fixture.py", select=["RPL001"])
        assert not findings

    def test_sorted_alias_suppresses(self):
        source = (
            "def f(words):\n"
            "    ordered = sorted(words)\n"
            "    total = 0.0\n"
            "    for w in ordered:\n"
            "        total += len(w) / 2.0\n"
            "    return total\n"
        )
        assert not check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])

    def test_unordered_alias_is_caught(self):
        source = (
            "def f(words):\n"
            "    bag = set(words)\n"
            "    total = 0.0\n"
            "    for w in bag:\n"
            "        total += len(w) / 2.0\n"
            "    return total\n"
        )
        findings = check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])
        assert len(findings) == 1


class TestRPL002Scopes:
    def test_allow_list_exempts_clock_module(self):
        source = "import time\nperf_clock = time.perf_counter\n"
        assert not check_source(source, "src/repro/obs/clock.py", select=["RPL002"])
        assert check_source(source, "src/repro/obs/other.py", select=["RPL002"])

    def test_docstring_mentions_do_not_fire(self):
        findings = run_fixture("RPL002", "good")
        assert not findings

    def test_alias_and_from_import_fire(self):
        findings = run_fixture("RPL002", "bad")
        messages = "\n".join(f.message for f in findings)
        assert "_clock.monotonic" in messages
        assert "perf_counter" in messages


class TestRPL004Scopes:
    def test_requires_lock_marker_spans_signature(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = object()\n"
            "        self._data = {}  # guarded-by: _lock\n"
            "\n"
            "    def helper(\n"
            "        self, key,\n"
            "    ):  # requires-lock: _lock\n"
            "        return self._data[key]\n"
        )
        assert not check_source(source, "src/repro/x.py", select=["RPL004"])

    def test_unmarked_helper_fires(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = object()\n"
            "        self._data = {}  # guarded-by: _lock\n"
            "\n"
            "    def helper(self, key):\n"
            "        return self._data[key]\n"
        )
        findings = check_source(source, "src/repro/x.py", select=["RPL004"])
        assert len(findings) == 1
        assert "_data" in findings[0].message


class TestSuppressions:
    def test_inline_disable_with_reason(self):
        source = (
            "def f(weights):\n"
            "    total = 0.0\n"
            "    for w in weights.values():\n"
            "        total += w * 1.0  # repro-analysis: disable=RPL001 reason=operands are ints\n"
            "    return total\n"
        )
        assert not check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])

    def test_disable_without_reason_is_rpl000(self):
        source = (
            "def f(weights):\n"
            "    total = 0.0\n"
            "    for w in weights.values():\n"
            "        total += w * 1.0  # repro-analysis: disable=RPL001\n"
            "    return total\n"
        )
        findings = check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])
        codes = sorted(f.rule for f in findings)
        # The reason-less disable does NOT suppress, and is itself flagged.
        assert codes == ["RPL000", "RPL001"]

    def test_standalone_comment_suppresses_next_line(self):
        source = (
            "def f(weights):\n"
            "    total = 0.0\n"
            "    for w in weights.values():\n"
            "        # repro-analysis: disable=RPL001 reason=ints only\n"
            "        total += w * 1.0\n"
            "    return total\n"
        )
        assert not check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])

    def test_syntax_error_reports_rpl000(self):
        findings = check_source("def broken(:\n", "src/repro/x.py")
        assert len(findings) == 1
        assert findings[0].rule == "RPL000"
        assert "parse" in findings[0].message


class TestBaseline:
    def _findings(self):
        source = (FIXTURES / "rpl001_bad.py").read_text(encoding="utf-8")
        return check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])

    def test_roundtrip(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline"
        assert write_baseline(baseline_path, findings) == len(findings)
        baseline = load_baseline(baseline_path)
        new, grandfathered, stale = split_by_baseline(findings, baseline)
        assert not new and not stale
        assert len(grandfathered) == len(findings)

    def test_new_findings_are_not_absorbed(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline"
        write_baseline(baseline_path, findings[:1])
        new, grandfathered, stale = split_by_baseline(
            findings, load_baseline(baseline_path)
        )
        assert len(new) == len(findings) - 1
        assert len(grandfathered) == 1
        assert not stale

    def test_fixed_findings_go_stale(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline"
        write_baseline(baseline_path, findings)
        new, grandfathered, stale = split_by_baseline(
            findings[:1], load_baseline(baseline_path)
        )
        assert not new
        assert len(stale) == len(findings) - 1

    def test_fingerprint_survives_line_drift(self):
        source = (FIXTURES / "rpl001_bad.py").read_text(encoding="utf-8")
        drifted = "# a new leading comment\n\n" + source
        original = check_source(source, SCOPED_PATHS["RPL001"], select=["RPL001"])
        moved = check_source(drifted, SCOPED_PATHS["RPL001"], select=["RPL001"])
        assert [f.fingerprint() for f in original] == [
            f.fingerprint() for f in moved
        ]
        assert [f.line for f in original] != [f.line for f in moved]


def _make_project(tmp_path: Path, bad: bool = True) -> Path:
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-analysis]\n"
        'paths = ["src"]\n'
        'baseline = ".baseline"\n'
        "\n"
        "[tool.repro-analysis.rpl001]\n"
        'paths = ["src"]\n',
        encoding="utf-8",
    )
    package = tmp_path / "src"
    package.mkdir(exist_ok=True)
    iterable = "weights.values()" if bad else "sorted(weights.values())"
    body = (
        "def f(weights):\n"
        "    total = 0.0\n"
        f"    for w in {iterable}:\n"
        "        total += w * 1.0\n"
        "    return total\n"
    )
    (package / "mod.py").write_text(body, encoding="utf-8")
    return tmp_path


class TestCLI:
    def test_violations_exit_1(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "src/mod.py:4" in out

    def test_write_then_clean(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert main(["--root", str(root)]) == 0

    def test_stale_entry_fails_until_updated(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        # Fix the violation: its baseline entry goes stale, which fails...
        _make_project(tmp_path, bad=False)
        assert main(["--root", str(root)]) == 1
        assert "stale" in capsys.readouterr().out
        # ...until --update-baseline shrinks the file.
        assert main(["--root", str(root), "--update-baseline"]) == 0
        assert main(["--root", str(root)]) == 0
        assert load_baseline(root / ".baseline") == {}

    def test_update_baseline_refuses_new_findings(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root), "--update-baseline"]) == 1

    def test_select_and_list_rules(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root), "--select", "RPL002"]) == 0
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(SCOPED_PATHS):
            assert code in out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        assert main(["--root", str(root), "--select", "RPL999"]) == 2
        assert main(["--root", str(root), str(root / "missing")]) == 2


class TestMinimalToml:
    def test_matches_tomllib_on_repo_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        expected = tomllib.loads(text)["tool"]["repro-analysis"]
        parsed = parse_minimal_toml(text)["tool"]["repro-analysis"]
        assert parsed == expected

    def test_subset_features(self):
        parsed = parse_minimal_toml(
            "[tool.x]\n"
            'name = "value"  # trailing comment\n'
            "count = 3\n"
            "ratio = 0.5\n"
            "flag = true\n"
            'items = ["a", "b,c"]  # comma inside quotes\n'
        )
        table = parsed["tool"]["x"]
        assert table == {
            "name": "value",
            "count": 3,
            "ratio": 0.5,
            "flag": True,
            "items": ["a", "b,c"],
        }


class TestShippedTreeClean:
    def test_repo_config_resolves(self):
        config = load_config(REPO)
        assert config.paths == ["src", "benchmarks", "examples"]
        assert config.baseline == ".repro-analysis-baseline"

    def test_checker_is_clean_in_process(self):
        config = load_config(REPO)
        findings = check_paths(
            [REPO / p for p in config.paths], config=config.rules, root=REPO
        )
        baseline = load_baseline(REPO / config.baseline)
        new, _, stale = split_by_baseline(findings, baseline)
        assert not new, "\n".join(f.render() for f in new)
        assert not stale

    def test_module_entry_point_exits_0(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "benchmarks", "examples"],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class _CountingLock:
    """Lock proxy counting acquisitions -- probes that code takes the lock."""

    def __init__(self, inner):
        self._inner = inner
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


class TestSurfacedFixes:
    """Pinned regressions for the genuine findings the rules surfaced."""

    def test_soft_tfidf_score_is_word_order_invariant(self):
        # RPL001 fix in SoftTFIDF._soft_score: the per-word float sum now
        # runs over sorted(query_weights.items()), so permuting the query's
        # words (different dict insertion order) is bit-identical.
        from repro.core.predicates import SoftTFIDF

        corpus = ["bank of america", "bank of american fork", "america first bank"]
        predicate = SoftTFIDF().fit(corpus)
        baseline = predicate.rank("bank of america")
        permuted = predicate.rank("america of bank")
        assert [(m.tid, m.score) for m in baseline] == [
            (m.tid, m.score) for m in permuted
        ]

    def test_language_model_fit_is_token_order_invariant(self):
        # RPL001 fix in LanguageModeling.weight_phase: log_complement_sum
        # now accumulates over sorted term frequencies, so the order tokens
        # were first seen in (dict insertion order) cannot change scores.
        from repro.core.predicates import LanguageModeling
        from repro.text.tokenize import WordTokenizer

        corpus = ["alpha beta gamma delta", "delta beta", "gamma alpha alpha"]
        forward = LanguageModeling(tokenizer=WordTokenizer()).fit(corpus)
        reversed_lists = [
            list(reversed(WordTokenizer().tokenize(row))) for row in corpus
        ]
        backward = LanguageModeling(tokenizer=WordTokenizer()).fit(
            corpus, token_lists=reversed_lists
        )
        assert forward._sum_complement.tolist() == backward._sum_complement.tolist()
        query = "alpha delta"
        assert [(m.tid, m.score) for m in forward.rank(query)] == [
            (m.tid, m.score) for m in backward.rank(query)
        ]

    def test_engine_cache_size_takes_the_lock(self):
        # RPL004 fix: cache_size reads _states under the engine lock.
        from repro.engine import SimilarityEngine
        from repro.obs.metrics import MetricsRegistry

        engine = SimilarityEngine(metrics=MetricsRegistry())
        probe = _CountingLock(engine._lock)
        engine._lock = probe
        assert engine.cache_size == 0
        assert probe.acquisitions == 1

    def test_metrics_snapshot_takes_the_lock(self):
        # RPL004 fix: to_dict iterates the metric dicts under the lock
        # (iteration during a concurrent insert raises RuntimeError).
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("queries_total")
        probe = _CountingLock(registry._lock)
        registry._lock = probe
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {"queries_total": 1}
        assert probe.acquisitions == 1

    def test_metrics_snapshot_consistent_under_writers(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                registry.inc(f"c{i % 97}")
                i += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                registry.to_dict()  # raced RuntimeError before the fix
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_breaker_repr_takes_the_lock(self):
        from repro.resilience.breaker import CircuitBreaker

        breaker = CircuitBreaker()
        probe = _CountingLock(breaker._lock)
        breaker._lock = probe
        assert "closed" in repr(breaker)
        assert probe.acquisitions == 1
