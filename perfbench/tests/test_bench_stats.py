"""Percentile rule, throughput and span arithmetic of the benchmark."""

import json
from pathlib import Path

import pytest

from perfbench import run, stats

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_tail_needs_eleven_samples():
    assert stats.tail([1.0] * 10) is None
    value, pct, beyond = stats.tail([float(i) for i in range(11)])
    assert (value, beyond) == (0.0, 10)
    assert pct == pytest.approx(100 / 11)


def test_tail_is_the_sample_with_ten_beyond():
    values = [float(i) for i in range(100, 0, -1)]  # 100 .. 1, unsorted
    value, pct, beyond = stats.tail(values)
    assert value == 90.0
    assert pct == pytest.approx(90.0)
    assert beyond == 10
    assert sum(v > value for v in values) == 10


def _passes(*walls_per_pass, points=(1000, 100)):
    return [{"pass": p, "call": c, "points": points[c], "wall_s": w}
            for p, walls in enumerate(walls_per_pass) for c, w in enumerate(walls)]


def test_call_medians_take_each_calls_median_over_passes():
    records = _passes((2.0, 0.5), (9.0, 0.25), (3.0, 0.75))
    assert stats.call_medians(records) == [(1000, 3.0), (100, 0.5)]


def test_points_per_s_divides_pass_points_by_summed_call_medians():
    # the slow pass (9.0 s) moves neither call's median
    records = _passes((2.0, 0.5), (9.0, 0.25), (3.0, 0.75))
    assert stats.points_per_s(records) == pytest.approx(1100 / 3.5)


def test_cpu_key_reads_cpu_times():
    records = [dict(r, cpu_s=r["wall_s"] / 2) for r in _passes((2.0, 0.5), (9.0, 0.25))]
    assert stats.call_p50(records, "cpu_s") == pytest.approx(stats.call_p50(records) / 2)
    assert stats.points_per_s(records, "cpu_s") == pytest.approx(2 * stats.points_per_s(records))


def test_call_p50_averages_call_medians_over_the_pass():
    records = _passes((2.0, 0.5), (9.0, 0.25), (3.0, 0.75))
    assert stats.call_p50(records) == pytest.approx(3.5 / 2)
    single = _passes((7.0,), (5.0,), (6.0,), (30.0,), points=(1000,))
    assert stats.call_p50(single) == stats.median([7.0, 5.0, 6.0, 30.0])


def test_benchmark_json_lists_every_end_to_end_metric():
    records = [dict(r, cpu_s=r["wall_s"]) for r in _passes((2.0, 0.5), (3.0, 0.75))]
    metrics = run.end_to_end(records, [0.25, 0.5, 0.3], 64.0)
    assert metrics["setup_s"] == (0.3, "s")
    listed = [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())["end_to_end"]]
    assert listed == [(name, unit) for name, (_, unit) in metrics.items()]


def test_pass_times_sum_calls_of_each_pass():
    records = [{"pass": 0, "wall_s": 1.0, "cpu_s": 0.5}, {"pass": 0, "wall_s": 2.0, "cpu_s": 1.0},
               {"pass": 1, "wall_s": 4.0, "cpu_s": 3.0}]
    assert stats.pass_times(records) == [3.0, 4.0]
    assert stats.pass_times(records, "cpu_s") == [1.5, 3.0]


def test_covered_merges_overlapping_children_and_clips():
    assert stats.covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert stats.covered(0.0, 10.0, [(-2, 1), (9, 12)]) == 2.0
    assert stats.covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_union_of_children():
    # two pool threads' children overlap inside the parent
    spans = [
        (1, None, "validate", 0.0, 10.0),
        (2, 1, "jet", 1.0, 4.0),
        (3, 1, "jet", 2.0, 5.0),
        (4, 1, "jet", 6.0, 7.0),
    ]
    index = stats.SpanIndex(spans)
    assert index.busy("validate") == 10.0
    assert index.self_time("validate") == pytest.approx(10.0 - 5.0)
    assert index.calls("jet") == 3
    assert index.busy("jet") == pytest.approx(7.0)


def test_self_time_with_exclude_finds_named_descendants_at_any_depth():
    spans = [
        (1, None, "check.T1", 0.0, 10.0),
        (2, 1, "sup", 0.0, 9.0),
        (3, 2, "session_jets", 1.0, 4.0),
        (4, 3, "jet", 1.5, 2.0),
        (5, 2, "einsum", 5.0, 6.0),
    ]
    index = stats.SpanIndex(spans)
    assert index.self_time("check.T1", exclude={"session_jets"}) == pytest.approx(7.0)
    assert index.self_time("check.T1") == pytest.approx(1.0)


def test_busy_counts_nested_same_name_once():
    spans = [(1, None, "f", 0.0, 4.0), (2, 1, "f", 1.0, 2.0), (3, None, "f", 5.0, 6.0)]
    index = stats.SpanIndex(spans)
    assert index.busy("f") == pytest.approx(5.0)
    assert index.calls("f") == 3
    assert index.has_ancestor(spans[1], {"f"})
