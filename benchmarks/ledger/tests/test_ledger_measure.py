"""Order statistics, the per-round reduction and the self-time reducer."""

import json

import pytest

from measure import (
    Round,
    SpanLog,
    ladder_summary,
    percentile,
    self_times,
    summarize_rounds,
)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.95) == 5.0
    assert percentile(values, 0.2) == 1.0
    assert percentile(values, 0.21) == 2.0
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_rounds_are_reduced_per_round_then_by_median():
    fast = Round(wall_seconds=1.0, latencies=[0.001] * 99 + [0.002], queries=100)
    slow = Round(wall_seconds=2.0, latencies=[0.003] * 99 + [0.100], queries=100)
    middle = Round(wall_seconds=1.25, latencies=[0.002] * 100, queries=100)
    summary = summarize_rounds([fast, slow, middle])
    assert summary["call_p50_ms"] == pytest.approx(2.0)  # median of 1, 3, 2 ms
    assert summary["call_p95_ms"] == pytest.approx(2.0)
    assert summary["throughput_qps"] == pytest.approx(80.0)  # median of 100, 50, 80
    # p99 pools all 300 calls: the single 100 ms outlier is beyond it.
    assert summary["call_p99_ms"] == pytest.approx(3.0)


def test_self_time_is_parent_minus_child_and_sums_to_the_root():
    top = [10.0, 12.0, 11.0]
    middle = [7.0, 8.0, 9.0]
    leaf = [1.0, 2.0, 3.0]
    selfs = self_times([top, middle, leaf])
    assert selfs == [[3.0, 4.0, 2.0], [6.0, 6.0, 6.0], leaf]
    for call in range(3):
        assert sum(depth[call] for depth in selfs) == top[call]


def test_self_times_needs_the_same_calls_at_every_depth():
    with pytest.raises(ValueError):
        self_times([[1.0, 2.0], [1.0]])


def test_ladder_summary_reports_how_far_medians_are_from_summing():
    exact = ladder_summary(("a", "b"), ([10.0, 10.0, 10.0], [4.0, 4.0, 4.0]))
    assert exact["self"] == {"a": 6.0, "b": 4.0}
    assert exact["top"] == 10.0
    assert exact["residual_share"] == 0.0
    skewed = ladder_summary(("a", "b"), ([10.0, 20.0, 30.0], [9.0, 1.0, 2.0]))
    # medians: a = median(1, 19, 28) = 19, b = 2, top = 20
    assert skewed["residual_share"] == pytest.approx(abs(19 + 2 - 20) / 20)


def test_span_log_keeps_spans_in_memory_until_written(tmp_path):
    log = SpanLog()
    result, seconds = log.timed("outer", None, 0, lambda: "answer")
    log.add("inner", "outer", 0, 1.0, 1.5)
    assert result == "answer" and seconds >= 0.0
    path = tmp_path / "spans.jsonl"
    assert not path.exists()
    log.write(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert rows[1] == {"name": "inner", "start": 1.0, "end": 1.5, "parent": "outer", "call_id": 0}
