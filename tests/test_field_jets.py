"""Field jets: one evaluation per distinct component, the same bits and errors.

`TensorField.jet`/`jet2` evaluate each distinct component object once, and a
component without a coordinate as a float with zero derivatives.  These
tests pin that against the per-component `ScalarExpr.jet1`/`jet2`, pin the
first error's text and exit code for planted faults, and count the
evaluations and parses of one `verify`.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from wact import expr
from wact.chart import SamplePlan, sample
from wact.cli import main
from wact.deform import DeformParams, deform, extract_sasakian, product_construction
from wact.errors import DomainError
from wact.fileio import (bundled_names, bundled_path, load_bundled, plane_from_dict,
                         structure_from_dict, structure_to_dict)
from wact.structure import Session, validate
from wact.tensor import TensorField

FIELDS = ("phi", "Q", "xi", "eta", "g")
PLAN = SamplePlan(count=100, seed=42, margin=0.05)
PLANE = {"coordinates": ["u", "v"], "domain": {"u": [-1, 1], "v": [-2, 2]},
         "phi": [["0", "-2"], ["2", "0"]], "metric": [["1", "0"], ["0", "1"]]}
# the first default sample point of a [-1, 1]^3 chart
POINT = "(0.5231784163217693, -0.8059907065310993, -0.40901046431660093)"


def _reloaded(s):
    return structure_from_dict(json.loads(json.dumps(structure_to_dict(s))))


def _fields():
    """(label, field) for every bundled file, the deform chain and a product plane."""
    out = []
    for name in bundled_names():
        s = load_bundled(name)
        out += [(f"{name}.{f}", getattr(s, f)) for f in FIELDS]
    r3 = validate(load_bundled("sasakian_r3"), PLAN, 1e-8).structure
    weak = deform(r3, DeformParams(2.0, 2.0), "inverse", PLAN, 1e-8)
    weak = validate(_reloaded(weak), PLAN, 1e-8).structure
    classical = extract_sasakian(weak, PLAN, 1e-8)
    phitilde, g_plane = plane_from_dict(PLANE)
    product = product_construction(phitilde, g_plane, 4.0, plan=PLAN, tol=1e-8)
    for label, s in (("weak", weak), ("classical", classical),
                     ("classical-reloaded", _reloaded(classical)), ("product", product)):
        out += [(f"{label}.{f}", getattr(s, f)) for f in FIELDS]
    return out + [("plane.phi", phitilde), ("plane.metric", g_plane)]


def _stacked(field, pts, order):
    """The per-component jets, stacked as `TensorField.jet`/`jet2` lay them out."""
    shape = field.comps.shape
    parts = [field.comps[idx].jet1(pts) if order == 1 else field.comps[idx].jet2(pts)
             for idx in np.ndindex(shape)]
    lead = pts.shape[:-1]
    return tuple(
        np.stack([p[k] for p in parts], axis=len(lead)).reshape(lead + shape + p0.shape[len(lead):])
        for k, p0 in enumerate(parts[0]))


@pytest.mark.parametrize("count", [1, 37, 1024])
def test_field_jets_equal_the_stacked_component_jets(count):
    for label, field in _fields():
        pts = sample(field.chart, SamplePlan(count=count, seed=7, margin=0.05))
        if count == 1:
            pts = pts[0]
        for order, jets in ((1, field.jet(pts, label)), (2, field.jet2(pts, label))):
            expected = _stacked(field, pts, order)
            assert len(jets) == len(expected) == order + 1
            for got, want in zip(jets, expected):
                assert got.shape == want.shape, (label, order)
                assert np.array_equal(got, want), (label, order)


def test_equal_sources_share_one_expression():
    s = load_bundled("product_cosymplectic")
    zeros = {id(c) for f in FIELDS for c in getattr(s, f).comps.flat if c.to_source() == "0"}
    assert len(zeros) == 1
    phitilde, g_plane = plane_from_dict(PLANE)
    assert phitilde.comps[0, 0] is phitilde.comps[1, 1] is g_plane.comps[0, 1]


def test_a_wrong_point_shape_on_a_constant_field_is_a_value_error():
    chart = load_bundled("sasakian_r3").chart
    field = TensorField.identity(chart)
    assert all(c.passive for c in field.comps.flat)
    for bad in ([0.1, 0.2], np.zeros((4, 2)), np.zeros((2, 2, 3)), 0.5):
        for method in (field.jet, field.jet2):
            with pytest.raises(ValueError, match="entries, chart has 3"):
                method(bad)


def test_a_constant_that_is_not_finite_fails_like_a_dual_jet():
    chart = load_bundled("sasakian_r3").chart
    field = TensorField.from_sources((1, 0), ["1", "1e300*1e300", "exp(800)"], chart)
    for pts, index in ((np.zeros(3), None), (np.zeros((5, 3)), 0)):
        for method, what in ((field.jet, "derivative"), (field.jet2, "second derivative")):
            with pytest.raises(DomainError) as err:
                method(pts, "X")
            assert err.value.message == (
                f"X[1]: non-finite {what} in '1e+300*1e+300' at sample point (0.0, 0.0, 0.0)")
            assert err.value.index == index


def _planted(tmp_path, name, edit):
    data = json.loads(bundled_path("sasakian_r3").read_text())
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _set(*changes):
    def edit(data):
        for key, index, value in changes:
            target = data[key]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = value
    return edit


def _q(data):
    data["Q"] = [["1", "0", "0"], ["0", "1/(y-y)", "0"], ["0", "0", "1"]]


def _eta(data):
    # value and gradient stay exact; the hessian is inf - inf
    data["eta"][0] = "(9e307*x^2-9e307*x^2)+" + data["eta"][0]


PROBES = [
    ("log0", _set(("metric", (0, 1), "log(0)"), ("metric", (1, 0), "log(0)")),
     ("check", "classify", "verify"),
     "metric[0][1]: log of non-positive value in 'log' at position 0"),
    ("overflow", _set(("phi", (1, 1), "1e300*1e300")), ("check", "classify", "verify"),
     "phi[1][1]: non-finite derivative in '1e+300*1e+300'"),
    ("divzero", _set(("xi", (0,), "1/(x-x)")), ("check", "classify", "verify"),
     "xi[0]: division by zero at position 1"),
    ("twice", _set(("phi", (0, 2), "log(x-x)"), ("phi", (2, 0), "log(x-x)")),
     ("check", "classify", "verify"),
     "phi[0][2]: log of non-positive value in 'log' at position 0"),
    ("q_after_phi", _q, ("check", "classify", "verify"),
     "Q[1][1]: division by zero at position 1"),
    ("eta_jet2", _eta, ("verify",),
     "eta[0]: non-finite second derivative in '9e+307*x^2-9e+307*x^2+(-y/2)'"),
]


@pytest.mark.parametrize("name, edit, commands, message", PROBES, ids=[p[0] for p in PROBES])
def test_planted_errors_keep_their_text_and_exit_code(tmp_path, capsys, name, edit,
                                                      commands, message):
    path = _planted(tmp_path, name, edit)
    for command in commands:
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"DomainError: {message} at sample point {POINT}\n"
        assert captured.out == ""


def test_eta_failing_only_in_its_second_derivatives_passes_check(tmp_path, capsys):
    path = _planted(tmp_path, "eta_jet2", _eta)
    assert main(["check", path]) == 0
    assert main(["classify", path]) == 0
    assert "VALID" in capsys.readouterr().out


def _counted_verify(monkeypatch, name):
    counts = Counter()

    def counting(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    counting(expr.ScalarExpr, "jet1", "jet1")
    counting(expr.ScalarExpr, "jet2", "jet2")
    counting(expr, "parse", "parse")
    assert main(["verify", str(bundled_path(name)), "--points", "1000"]) == 0
    return counts


@pytest.mark.parametrize("name, jet1, jet2, parse", [
    ("sasakian_r5", 11, 2, 15),            # 85, 5 and 60 with one evaluation per component
    ("product_cosymplectic", 0, 0, 5),     # 33, 3 and 33
])
def test_one_evaluation_per_distinct_component_with_a_coordinate(monkeypatch, capsys, name,
                                                                 jet1, jet2, parse):
    # field evaluations are counted per block: 1 000 dim-5 points make 4
    # blocks, 1 000 dim-3 points one; each load parses once
    blocks = len(Session(load_bundled(name), SamplePlan(count=1000)).blocks)
    counts = _counted_verify(monkeypatch, name)
    capsys.readouterr()
    assert (counts["jet1"], counts["jet2"], counts["parse"]) == (blocks * jet1,
                                                                 blocks * jet2, parse)
