"""Tests for the benchmark's own statistics and span aggregation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers, run, stats


def test_tail_keeps_ten_samples_beyond_and_states_the_count():
    assert stats.tail(list(range(2000))).quantile == 0.99
    small = stats.tail(list(range(200)))
    assert small.quantile == 0.95 and small.samples == 200
    assert "of 200 samples" in small.describe()
    assert stats.tail(list(range(15))).quantile == 0.5  # too few: the median
    with pytest.raises(ValueError):
        stats.tail([])


def test_geomean():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_throughput_is_over_the_wall_clock_span_not_summed_rates():
    # Two clients time-slicing one CPU each finish one unit in [0, 1]: each
    # alone "sees" 1 unit/s, but the system did 2 units in 1 s, not 4.
    assert stats.throughput([0.0, 0.0], [1.0, 1.0], 2.0) == pytest.approx(2.0)
    assert stats.throughput([0.0, 0.5], [1.0, 2.0], 3.0) == pytest.approx(1.5)


def test_open_loop_latency_counts_the_wait_behind_a_stall():
    # Requests due at 0, 1, 2; the first stalls until 2.5, so the others
    # go out late although the generator itself was on time.
    due = [0.0, 1.0, 2.0]
    ready = [0.0, 2.5, 2.6]
    sent = [0.0, 2.5, 2.7]
    done = [2.5, 2.6, 2.8]
    latency, lateness = stats.due_latencies(due, ready, sent, done)
    assert latency == pytest.approx([2.5, 1.6, 0.8])
    assert lateness == pytest.approx([0.0, 0.0, 0.1])


def test_nearest_median_takes_the_calibrations_closest_in_time():
    times = [0.0, 1.0, 2.0, 3.0, 10.0]
    values = [1.0, 2.0, 9.0, 4.0, 5.0]
    # 1.1: nearest 1, 0, 2 -> median of 2, 1, 9; 9: nearest 10, 3, 2.
    assert list(stats.nearest_median([1.1, 9.0, -5.0], times, values)) == [2.0, 5.0, 2.0]
    with pytest.raises(ValueError):
        stats.nearest_median([0.0], [0.0, 1.0], [1.0, 1.0])


def test_quota_is_proportional_and_sums_to_the_total():
    counts = stats.quota([0.5, 0.3, 0.2], 7)
    assert counts.sum() == 7 and list(counts) == [4, 2, 1]
    assert list(stats.quota([1.0, 1.0, 1.0], 3)) == [1, 1, 1]


def test_self_time_excludes_children(tmp_path: Path):
    ms = 1_000_000
    spans = [
        ["engine.kernel", 2 * ms, 5 * ms, 3 * ms, 3, 2, 1, {"method": "AG", "rects": 10}],
        ["query_service.answer", 1 * ms, 6 * ms, 4 * ms, 2, 1, 1, {"method": "AG"}],
        ["server.request", 0, 8 * ms, 6 * ms, 1, 0, 1, {"status": 200}],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans}))
    loaded = {s.name: s for s in layers.load_spans([path])}
    assert loaded["server.request"].self_wall == pytest.approx(3.0)
    assert loaded["query_service.answer"].self_wall == pytest.approx(2.0)
    assert loaded["query_service.answer"].self_cpu == pytest.approx(1.0)

    metrics = layers.per_layer_metrics(list(loaded.values()), {"answers": 1})
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["engine.kernel_ms.AG"] == pytest.approx(3.0)
    assert metrics["engine.rects"] == 10
    assert metrics["server.errors"] == 0
    assert metrics["engine.kernel_ms.UG"] == 0.0  # not served: no work


def test_benchmark_json_names_every_reported_metric():
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("BENCHMARK.json not present")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {
        "analytics-miss", "dashboard-tenants", "ingest-refresh"}
