"""A residual that is not a finite number fails; it never passes.

Python's `max` keeps whichever argument comes first when the other is NaN,
so a reduction by `max` over points or blocks can drop a NaN and pass.  Every
reducer goes through `structure.sup_at`, which counts a NaN as the largest
value, and the jets refuse non-finite derivatives of either order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import TOL
from wact import structure as st
from wact.chart import SamplePlan
from wact.classify import Session, _implication, _verdict_from
from wact.errors import DomainError
from wact.expr import parse
from wact.fileio import load_bundled
from wact.structure import validate
from wact.tensor import TensorField

PLAN40 = SamplePlan(count=40, seed=42)
XYZ = ("x", "y", "z")


@pytest.fixture
def session():
    s = validate(load_bundled("sasakian_r3"), PLAN40).raise_for_violations().structure
    return Session(s, PLAN40, TOL)


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


@pytest.mark.parametrize("block_points", [st.BLOCK_POINTS, 1])
def test_pointwise_reducer_keeps_nan(session, monkeypatch, block_points):
    # one block, and one block per point (40 blocks, so the pool maps them)
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    assert len(session.jets) == (1 if block_points > 1 else 40)
    value = session.sup_pointwise(_nan_after_first(session, (3, 3)))
    assert math.isnan(value)
    assert not value <= TOL


@pytest.mark.parametrize("block_points", [st.BLOCK_POINTS, 1])
def test_contracted_reducer_keeps_nan(session, monkeypatch, block_points):
    monkeypatch.setattr(st, "BLOCK_POINTS", block_points)
    value = session.sup_contracted(_nan_after_first(session, (3, 3)), 2)
    assert math.isnan(value)


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
    with np.errstate(all="ignore"):
        report = validate(broken, PLAN40)
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
