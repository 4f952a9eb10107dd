"""Charts and deterministic sampling."""

import numpy as np
import pytest

from wact.chart import (BaseChart, Chart, SamplePlan, sample, sample_vectors)


def unit_chart(dim=3):
    names = ("x", "y", "z", "u", "v")[:dim]
    return Chart(names, (-1.0,) * dim, (1.0,) * dim)


def test_chart_rejects_even_or_small_dimension():
    with pytest.raises(ValueError):
        Chart(("x", "y"), (-1, -1), (1, 1))
    with pytest.raises(ValueError):
        Chart(("x",), (-1,), (1,))
    BaseChart(("x", "y"), (-1, -1), (1, 1))  # plane charts may be even


def test_chart_rejects_bad_domains_and_names():
    with pytest.raises(ValueError):
        Chart(("x", "y", "z"), (-1, 2, -1), (1, 1, 1))
    with pytest.raises(ValueError):
        Chart(("x", "x", "z"), (-1, -1, -1), (1, 1, 1))
    with pytest.raises(ValueError):
        Chart(("x", "sin", "z"), (-1, -1, -1), (1, 1, 1))
    with pytest.raises(ValueError):
        Chart(("x", "2y", "z"), (-1, -1, -1), (1, 1, 1))


@pytest.mark.parametrize("lo, hi", [
    (-1.0, float("inf")), (float("-inf"), 1.0), (-1e308, 1e308), (-1.7e308, 0.5e308),
])
def test_chart_rejects_infinite_bounds_and_widths(lo, hi):
    # an infinite bound or width sampled NaN points, and `check` said VALID
    for cls, names in ((Chart, ("x", "y", "z")), (BaseChart, ("x", "y"))):
        lows, highs = [-1.0] * len(names), [1.0] * len(names)
        lows[1], highs[1] = lo, hi
        with pytest.raises(ValueError, match="'y' needs finite bounds and a finite width"):
            cls(names, tuple(lows), tuple(highs))
    assert np.isfinite(sample(Chart(("x", "y", "z"), (-1e307,) * 3, (1e307,) * 3))).all()


def test_chart_make_from_domain_map():
    c = Chart.make(["x", "y", "z"], {"x": (-1, 1), "y": (0, 2), "z": (-3, -1)})
    assert c.domain == ((-1.0, 1.0), (0.0, 2.0), (-3.0, -1.0))
    assert c.n == 1


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(margin=0.5)
    with pytest.raises(ValueError):
        SamplePlan(margin=-0.1)


def test_sampling_deterministic():
    chart = unit_chart()
    plan = SamplePlan(count=2, seed=7)
    a = sample(chart, plan)
    b = sample(chart, plan)
    assert np.array_equal(a, b)


def test_sampling_seed_sensitivity():
    chart = unit_chart()
    a = sample(chart, SamplePlan(count=5, seed=7))
    b = sample(chart, SamplePlan(count=5, seed=8))
    assert not np.array_equal(a, b)


def test_sampling_margin_interior():
    chart = unit_chart()
    pts = sample(chart, SamplePlan(count=200, seed=3, margin=0.1))
    assert np.all(pts >= -0.8) and np.all(pts <= 0.8)


def test_sampling_order_independence():
    # point i does not depend on how many points are requested
    chart = unit_chart()
    a = sample(chart, SamplePlan(count=10, seed=42))
    b = sample(chart, SamplePlan(count=3, seed=42))
    assert np.array_equal(a[:3], b)


def test_sampling_respects_domain():
    chart = Chart(("x", "y", "z"), (2.0, -5.0, 0.0), (3.0, -4.0, 10.0))
    pts = sample(chart, SamplePlan(count=50, seed=1, margin=0.0))
    assert np.all(pts[:, 0] >= 2.0) and np.all(pts[:, 0] <= 3.0)
    assert np.all(pts[:, 1] >= -5.0) and np.all(pts[:, 1] <= -4.0)
    assert np.all(pts[:, 2] >= 0.0) and np.all(pts[:, 2] <= 10.0)


def test_vectors_deterministic_and_bounded():
    plan = SamplePlan(count=10, seed=42)
    a = sample_vectors(plan, 4, 5, 3, 5)
    b = sample_vectors(plan, 4, 5, 3, 5)
    assert np.array_equal(a, b)
    assert a.shape == (5, 3, 5)
    assert np.all(np.abs(a) <= 1.0)
    c = sample_vectors(plan, 5, 5, 3, 5)
    assert not np.array_equal(a, c)


def test_vectors_do_not_collide_with_points():
    plan = SamplePlan(count=4, seed=42)
    chart = unit_chart()
    pts = sample(chart, plan)
    vecs = sample_vectors(plan, 0, 2, 3, 3)
    assert not np.allclose(pts[0], vecs[0, 0])
