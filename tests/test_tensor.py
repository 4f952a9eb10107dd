"""Tensor values and expression fields: evaluation, shapes and source round trips."""

import numpy as np
import pytest

from wact.chart import BaseChart, Chart
from wact.tensor import TensorField, TensorValue


def chart3():
    return Chart(("x", "y", "z"), (-1, -1, -1), (1, 1, 1))


# -- evaluation -------------------------------------------------------------

def test_identity_field_evaluates_to_kronecker():
    c = chart3()
    v = TensorField.identity(c).evaluate((0.3, -0.2, 0.9))
    assert np.array_equal(v.data, np.eye(3))


def test_euclidean_metric_field():
    c = chart3()
    g = TensorField.constant((0, 2), np.eye(3), c)
    assert np.array_equal(g.evaluate((0.1, 0.2, 0.3)).data, np.eye(3))


def test_eta_covector_at_sample_point():
    c = chart3()
    eta = TensorField.from_sources((0, 1), ["-y/2", "0", "1/2"], c)
    v = eta.evaluate((0.0, 2.0, 0.0))
    assert np.allclose(v.data, [-1.0, 0.0, 0.5])


def test_tensor_value_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        TensorValue(1, 1, np.zeros(3))
    with pytest.raises(ValueError):
        TensorValue(1, 0, np.array([1.0, np.nan, 0.0]))


# -- sampled values ---------------------------------------------------------

def test_eta_equals_g_xi_for_random_vectors(sasakian_r3, sessions):
    # eta(v) == g(v, xi) on every sampled point, for seeded random v
    ses = sessions(sasakian_r3)
    for index, p in enumerate(ses.points[:25]):
        g = sasakian_r3.g.values(p)
        xi = sasakian_r3.xi.values(p)
        eta = sasakian_r3.eta.values(p)
        for t in range(3):
            v = ses.vectors[index, t, 0]
            assert abs(eta @ v - v @ g @ xi) <= 1e-10


# -- field plumbing -----------------------------------------------------------

def test_field_shape_validation():
    c = chart3()
    with pytest.raises(ValueError):
        TensorField.from_sources((1, 1), [["x", "y"], ["z", "x"]], c)


def test_field_sources_roundtrip():
    c = chart3()
    f = TensorField.from_sources((1, 1), [["0", "1", "0"], ["-1", "0", "0"], ["0", "y", "0"]], c)
    srcs = f.sources()
    again = TensorField.from_sources((1, 1), srcs, c)
    assert again.sources() == srcs


def test_plane_chart_fields():
    plane = BaseChart(("u", "v"), (-1, -1), (1, 1))
    f = TensorField.from_sources((1, 1), [["0", "-2"], ["2", "0"]], plane)
    assert np.array_equal(f.evaluate((0.0, 0.0)).data, [[0, -2], [2, 0]])
