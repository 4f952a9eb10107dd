"""Shared fixtures: bundled structures plus an h != 0 contact metric fixture.

The extra fixture is a classical contact metric structure on a 3-dimensional
chart whose distribution frame rotates with z, so xi is not Killing and the
h tensor is nonzero; its homothetic deformation (factors 3 and 2) is a weak
contact metric structure with Qtilde != 0, h != 0 and N5 != 0, which gives
the identity checks nonvanishing content.
"""

from __future__ import annotations

import numpy as np
import pytest

from wact.chart import Chart, SamplePlan
from wact.classify import Session
from wact.deform import DeformParams, deform
from wact.fileio import load_bundled
from wact.structure import StructureJet, validate
from wact.tensor import TensorField

PLAN = SamplePlan(count=100, seed=42, margin=0.05)
FAST_PLAN = SamplePlan(count=25, seed=42, margin=0.05)
TOL = 1e-6


def _validated(name, plan=PLAN, tol=1e-8):
    report = validate(load_bundled(name), plan, tol)
    report.raise_for_violations()
    return report.structure


@pytest.fixture(scope="session")
def sasakian_r3():
    return _validated("sasakian_r3")


@pytest.fixture(scope="session")
def sasakian_r5():
    return _validated("sasakian_r5")


@pytest.fixture(scope="session")
def weak_sasakian_l2():
    return _validated("weak_sasakian_l2")


@pytest.fixture(scope="session")
def product_cosymplectic():
    return _validated("product_cosymplectic")


def make_contact_h():
    """Non-K-contact classical contact metric structure (h != 0)."""
    chart = Chart(("x", "y", "z"), (-1, -1, -1), (1, 1, 1))
    phi = [["-z", "1+z^2", "0"],
           ["-1", "z", "0"],
           ["-z*y", "y*(1+z^2)", "0"]]
    g = [["(1+y^2)/4", "-z/4", "-y/4"],
         ["-z/4", "(1+z^2)/4", "0"],
         ["-y/4", "0", "1/4"]]
    from wact.structure import Structure
    return Structure(
        chart=chart,
        phi=TensorField.from_sources((1, 1), phi, chart),
        Q=TensorField.identity(chart),
        xi=TensorField.from_sources((1, 0), ["0", "0", "2"], chart),
        eta=TensorField.from_sources((0, 1), ["-y/2", "0", "1/2"], chart),
        g=TensorField.from_sources((0, 2), g, chart),
        nu=1.0,
        name="contact_h",
    )


@pytest.fixture(scope="session")
def contact_h():
    report = validate(make_contact_h(), FAST_PLAN, 1e-8)
    report.raise_for_violations()
    return report.structure


@pytest.fixture(scope="session")
def weak_contact_h(contact_h):
    return deform(contact_h, DeformParams(3.0, 2.0), "inverse", FAST_PLAN, 1e-8)


def make_crossed_r5(conformal: bool = False):
    """5-dimensional almost contact metric structure with N2 != 0.

    phi swaps the two contact blocks while d(eta) weights them differently
    (coefficients 1 and 2), so d(eta)(phi X, Y) is not symmetric.  With
    `conformal` the distribution block of the metric is rescaled by
    1 + x1^2/8, which keeps every axiom exact but makes d(Phi) != 0 as well.
    """
    from wact.structure import Structure

    chart = Chart(("x1", "x2", "y1", "y2", "z"), (-1,) * 5, (1,) * 5)
    phi = [["0", "0", "0", "1", "0"],
           ["0", "0", "1", "0", "0"],
           ["0", "-1", "0", "0", "0"],
           ["-1", "0", "0", "0", "0"],
           ["0", "0", "2*y2", "y1", "0"]]
    eta = ["-y1", "-2*y2", "0", "0", "1"]
    if conformal:
        f = "(1+x1^2/8)"
        delta_D = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        g = [[f"({f})*({delta_D[i][j]:g}) + ({eta[i]})*({eta[j]})"
              for j in range(5)] for i in range(5)]
    else:
        g = [["1+y1^2", "2*y1*y2", "0", "0", "-y1"],
             ["2*y1*y2", "1+4*y2^2", "0", "0", "-2*y2"],
             ["0", "0", "1", "0", "0"],
             ["0", "0", "0", "1", "0"],
             ["-y1", "-2*y2", "0", "0", "1"]]
    return Structure(
        chart=chart,
        phi=TensorField.from_sources((1, 1), phi, chart),
        Q=TensorField.identity(chart),
        xi=TensorField.from_sources((1, 0), ["0", "0", "0", "0", "1"], chart),
        eta=TensorField.from_sources((0, 1), eta, chart),
        g=TensorField.from_sources((0, 2), g, chart),
        nu=1.0,
        name="crossed_conformal_r5" if conformal else "crossed_r5",
    )


@pytest.fixture(scope="session")
def crossed_r5():
    report = validate(make_crossed_r5(), FAST_PLAN, 1e-8)
    report.raise_for_violations()
    return report.structure


@pytest.fixture(scope="session")
def crossed_conformal_r5():
    report = validate(make_crossed_r5(conformal=True), FAST_PLAN, 1e-8)
    report.raise_for_violations()
    return report.structure


@pytest.fixture(scope="session")
def sessions():
    cache = {}

    def get(structure, plan=PLAN) -> Session:
        key = (id(structure), plan)
        if key not in cache:
            cache[key] = Session(structure, plan)
        return cache[key]

    return get


def sup(arr) -> float:
    return float(np.max(np.abs(np.asarray(arr))))


def point_jets(ses: Session, count=None) -> list:
    """Single-point jets at the session's first `count` sample points."""
    return [StructureJet(ses.structure, p) for p in ses.points[:count]]
