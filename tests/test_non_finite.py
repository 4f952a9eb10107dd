"""A residual that is not a finite number fails; it never passes.

Python's `max` keeps whichever argument comes first when the other is NaN,
so a reduction by `max` over points or blocks can drop a NaN and pass.  Every
reducer goes through `Session.reduce` and `structure.sup_at`, which counts a
NaN as the largest value, and the jets refuse non-finite derivatives of either
order.  Each reduction gives the same value at the same point whatever the
block size: one block, one block per point, or blocks of 10.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import TOL
from wact import structure as st
from wact.chart import SamplePlan
from wact.classify import Session, _implication, _verdict_from
from wact.deform import contact_vector_field
from wact.errors import DomainError
from wact.expr import parse
from wact.fileio import load_bundled
from wact.structure import validate
from wact.tensor import TensorField

PLAN40 = SamplePlan(count=40, seed=42)
PLAN25 = SamplePlan(count=25, seed=42)
BLOCK_SIZES = [1, 10, st.BLOCK_POINTS]
XYZ = ("x", "y", "z")


@pytest.fixture
def session():
    s = validate(load_bundled("sasakian_r3"), PLAN40).raise_for_violations().structure
    return Session(s, PLAN40)


def _nan_after_first(ses, shape=()):
    """Residual that is 0 at sample point 0 and NaN at points 1...39."""
    first = ses.points[0]

    def fn(j):
        at_first = np.all(j.point == first, axis=-1)
        values = np.where(at_first, 0.0, np.nan)
        return np.broadcast_to(values.reshape(values.shape + (1,) * len(shape)),
                               values.shape + shape)
    return fn


def test_sup_at_counts_nan_as_the_largest():
    assert st.sup_at([0.0, 3.0, 1.0]) == (1, 3.0)
    index, value = st.sup_at([0.0, math.nan, 5.0, math.nan])
    assert index == 1 and math.isnan(value)


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
def test_pointwise_reducer_keeps_nan(session, monkeypatch, block_points):
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    assert len(session.jets) == math.ceil(40 / block_points)
    index, value = session.sup_pointwise(_nan_after_first(session, (3, 3)))
    assert index == 1 and math.isnan(value)
    assert not value <= TOL


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
def test_block_of_finds_each_sample_point(session, monkeypatch, block_points):
    # the inverse of the offsets that `Session.reduce` adds to a block's index
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    for index in (0, 9, 10, 25, 39):
        jet, i = session.block_of(index)
        assert np.array_equal(jet.point[i], session.points[index])


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
def test_contracted_reducer_keeps_nan(session, monkeypatch, block_points):
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    index, value = session.sup_contracted(_nan_after_first(session, (3, 3)), 2)
    assert index == 1 and math.isnan(value)


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
def test_lower_bound_row_fails_at_the_first_nan(monkeypatch, block_points):
    # q_nonsingular passes when its smallest value is above the threshold:
    # 1.0 at points 0...14 and NaN from point 15 on must fail, at point 15
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    s = load_bundled("sasakian_r3")
    points = Session(s, PLAN40).points

    def ratio(j):
        index = (j.point[:, None] == points).all(axis=-1).argmax(axis=-1)
        return np.where(index < 15, 1.0, np.nan)
    row = st.RESIDUALS["q_nonsingular"]
    monkeypatch.setitem(st.RESIDUALS, "q_nonsingular", row._replace(fn=ratio))
    result = validate(s, PLAN40).row("q_nonsingular")
    assert math.isnan(result.value) and not result.passed
    assert result.worst_point == tuple(float(v) for v in points[15])


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
def test_q_scalar_on_d_does_not_depend_on_the_block_size(monkeypatch, block_points):
    # Q = diag(1 + x^2, 1, 1) is not scalar on D, and its lambda drifts
    s = load_bundled("sasakian_r3")
    q = s.Q.sources()
    q[0][0] = "1 + x^2"
    s = dataclasses.replace(s, Q=TensorField.from_sources((1, 1), q, s.chart))
    expected = Session(s, PLAN40).q_scalar_on_D
    assert expected[1] > 0.1
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    assert Session(s, PLAN40).q_scalar_on_D == expected


@pytest.mark.parametrize("block_points", BLOCK_SIZES)
@pytest.mark.parametrize("field", ["0;2;2*x", "x;y;z"])
def test_contact_vector_field_does_not_depend_on_the_block_size(monkeypatch, block_points,
                                                                field):
    s = validate(load_bundled("sasakian_r3"), PLAN25).structure
    X = TensorField.from_sources((1, 0), field.split(";"), s.chart)

    def run():
        r = contact_vector_field(s, X, PLAN25)
        return r.residual, r.sigma_sup, r.lie_eta_residual, r.worst_point
    expected = run()
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    assert run() == expected


def test_nan_conclusion_fails_the_check():
    parts = [_implication("finite", 0.0, 0.0, TOL),
             _implication("not_a_number", 0.0, math.nan, TOL)]
    verdict, residual = _verdict_from(parts)
    assert verdict == "fail"
    assert math.isnan(residual)


def test_non_finite_validation_row_fails_with_a_note():
    s = load_bundled("sasakian_r3")
    huge = [[f"1e200*({src})" for src in row] for row in s.phi.sources()]
    broken = st.Structure(s.chart, TensorField.from_sources((1, 1), huge, s.chart),
                          s.Q, s.xi, s.eta, s.g, s.nu, "huge_phi")
    report = validate(broken, PLAN40)  # quietly: a numpy warning fails tier-1
    row = report.row("phi_square")
    assert not math.isfinite(row.value)
    assert not row.passed
    assert "not finite" in row.note
    assert not report.ok


def test_jet2_refuses_an_infinite_hessian():
    e = parse("1e308*x^2", XYZ)
    block = np.array([[0.1, 0.0, 0.0], [0.5, 0.2, 0.3]])
    e.jet1(block)  # value and gradient are finite
    with pytest.raises(DomainError) as info:
        e.jet2(block)
    assert info.value.index == 0
    with pytest.raises(DomainError):
        e.jet2(block[1])
