"""Structure file schema, serialization round-trips, bundled data."""

import json

import numpy as np
import pytest

from conftest import FAST_PLAN, sup
from wact.chart import sample
from wact.errors import FileFormatError
from wact.fileio import (bundled_names, bundled_path, load_bundled,
                         load_structure, plane_from_dict, save_structure,
                         structure_from_dict, structure_to_dict)
from wact.structure import validate


def minimal_dict(**overrides):
    data = {
        "name": "cosymplectic_base",
        "dimension": 3,
        "coordinates": ["x", "y", "z"],
        "domain": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1]},
        "nu": 1,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "xi": ["0", "0", "1"],
        "eta": ["0", "0", "1"],
    }
    data.update(overrides)
    return data


def test_bundled_inventory():
    names = bundled_names()
    assert {"sasakian_r3", "sasakian_r5", "weak_sasakian_l2",
            "product_cosymplectic", "broken_phi_square", "broken_eta_xi",
            "broken_q_xi", "broken_phi_invariance", "broken_compatibility",
            "broken_q_singular"} <= set(names)


def test_bundled_path_unknown():
    with pytest.raises(FileFormatError):
        bundled_path("no_such_structure")


def test_load_minimal_structure_and_validate():
    s = structure_from_dict(minimal_dict())
    report = validate(s, FAST_PLAN, tol=1e-10)
    assert report.ok


def test_q_synthesis_matches_identity_for_classical():
    data = minimal_dict()
    del data["Q"]
    s = structure_from_dict(data)
    for p in sample(s.chart, FAST_PLAN)[:10]:
        assert sup(s.Q.values(p) - np.eye(3)) < 1e-12
    assert validate(s, FAST_PLAN, tol=1e-10).ok


def test_q_synthesis_on_bundled_r5(sasakian_r5):
    # the 5-dimensional file omits Q; synthesis must give the identity
    for p in sample(sasakian_r5.chart, FAST_PLAN)[:5]:
        assert sup(sasakian_r5.Q.values(p) - np.eye(5)) < 1e-12


def test_q_omitted_requires_nu():
    data = minimal_dict()
    del data["Q"]
    del data["nu"]
    with pytest.raises(FileFormatError) as err:
        structure_from_dict(data)
    assert "nu" in str(err.value)


@pytest.mark.parametrize("mutation, message_part", [
    ({"dimension": 4}, "odd"),
    ({"dimension": 1}, "odd"),
    ({"coordinates": ["x", "y"]}, "coordinates"),
    ({"nu": -1}, "positive"),
    ({"metric": [["1", "0"], ["0", "1"]]}, "matrix"),
    ({"xi": ["0", "0"]}, "entries"),
    ({"domain": {"x": [-1, 1], "y": [-1, 1]}}, "domain"),
])
def test_schema_violations(mutation, message_part):
    data = minimal_dict(**mutation)
    with pytest.raises(FileFormatError) as err:
        structure_from_dict(data)
    assert message_part in str(err.value)


def test_expression_errors_carry_location():
    data = minimal_dict()
    data["phi"][0][2] = "sin(x"
    with pytest.raises(FileFormatError) as err:
        structure_from_dict(data)
    assert "phi[0][2]" in str(err.value)


def test_unknown_symbol_in_entry():
    data = minimal_dict()
    data["eta"][0] = "w"
    with pytest.raises(FileFormatError) as err:
        structure_from_dict(data)
    assert "eta[0]" in str(err.value)
    assert "w" in str(err.value)


def test_serialize_roundtrip(tmp_path, sasakian_r3):
    path = tmp_path / "out.json"
    save_structure(sasakian_r3, path)
    again = load_structure(path)
    for p in sample(sasakian_r3.chart, FAST_PLAN)[:10]:
        for name in ("phi", "Q", "xi", "eta", "g"):
            a = getattr(sasakian_r3, name).values(p)
            b = getattr(again, name).values(p)
            assert sup(a - b) == 0.0
    # a second serialization is byte-identical (reprinting is stable)
    path2 = tmp_path / "out2.json"
    save_structure(again, path2)
    assert path.read_text() == path2.read_text()


def test_serialized_dict_shape(weak_sasakian_l2):
    data = structure_to_dict(weak_sasakian_l2)
    assert data["dimension"] == 3
    assert data["nu"] == 2.0
    assert len(data["metric"]) == 3
    reparsed = structure_from_dict(data)
    assert reparsed.nu == 2.0


def test_load_structure_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_structure(path)


def test_plane_schema():
    plane = {
        "coordinates": ["u", "v"],
        "domain": {"u": [-1, 1], "v": [-1, 1]},
        "phi": [["0", "-2"], ["2", "0"]],
        "metric": [["1", "0"], ["0", "1"]],
    }
    phit, metric = plane_from_dict(plane)
    assert phit.chart.dim == 2
    with pytest.raises(FileFormatError):
        plane_from_dict({**plane, "coordinates": ["u", "v", "w"]})


def test_every_bundled_file_parses():
    for name in bundled_names():
        s = load_bundled(name)
        assert s.chart.dim in (3, 5)


def test_canonical_text_of_bundled_and_deformed_files_is_unchanged():
    # sha256 of the reprinted files; flat chains are printed without recursion now
    import hashlib
    from wact.chart import SamplePlan
    from wact.deform import DeformParams, deform, extract_sasakian
    from wact.fileio import dump_json
    bundled = hashlib.sha256()
    for name in bundled_names():
        bundled.update(dump_json(structure_to_dict(load_bundled(name))).encode())
    assert bundled.hexdigest() == (
        "c2dc2d9682db8e9f3b637aad2b81e82d641ae2852e793e5ddb0bafb37428a1d9")
    plan = SamplePlan(count=100, seed=42, margin=0.05)
    r3 = validate(load_bundled("sasakian_r3"), plan, 1e-8).structure
    weak = deform(r3, DeformParams(2.0, 2.0), "inverse", plan, 1e-8)
    classical = extract_sasakian(validate(weak, plan, 1e-8).structure, plan, 1e-8)
    r5 = validate(load_bundled("sasakian_r5"), plan, 1e-8).structure
    weak5 = deform(r5, DeformParams(3.0, 0.5), "forward", plan, 1e-8)
    deformed = hashlib.sha256()
    for s in (weak, classical, weak5):
        deformed.update(dump_json(structure_to_dict(s)).encode())
    assert deformed.hexdigest() == (
        "b20a207ea337180990a7525990263c1a3e2cb5a2fdbf90a7252aabefcef37ce4")


PLANES = {
    # perfbench's plane: the speed-2 rotation, flat metric, on a box
    "speed2": ({"coordinates": ["u", "v"], "domain": {"u": [-1.5, 1.5], "v": [-0.75, 0.75]},
                "phi": [["0", "-2"], ["2", "0"]], "metric": [["1", "0"], ["0", "1"]]}, 4.0),
    "speeds2_3": ({"coordinates": ["x1", "x2", "y1", "y2"],
                   "domain": {c: [-1, 1] for c in ("x1", "x2", "y1", "y2")},
                   "phi": [["0", "-2", "0", "0"], ["2", "0", "0", "0"],
                           ["0", "0", "0", "-3"], ["0", "0", "3", "0"]],
                   "metric": [["1" if i == j else "0" for j in range(4)] for i in range(4)]},
                  2.5),
    "conformal": ({"coordinates": ["x", "y"], "domain": {"x": [-1, 1], "y": [-1, 1]},
                   "phi": [["0", "-2"], ["2", "0"]],
                   "metric": [["(1+x^2/4)^2", "0"], ["0", "(1+x^2/4)^2"]]}, 4.0),
}


def test_canonical_text_of_constructed_structures_is_unchanged(sasakian_r3):
    # sha256 of the product files and the printed potential f = eta(X) of
    # the field test, as the construction loops printed them
    import hashlib
    from wact.deform import contact_vector_field, product_construction
    from wact.fileio import dump_json
    from wact.tensor import TensorField
    expected = {
        "speed2":
            "7b0761a7c79d7e03145cb43b04ba9b198d1944c2012104ac179b75988f0eb742",
        "speeds2_3":
            "998c103894dc111a71d3cfad06546018efe5dc7a2139b0e929964f35b069ebb6",
        "conformal":
            "16f1959b4beb226887eb40a1bb05324a7181e1f6e046906aef9654cb575e8cfa",
    }
    for key, (plane, nu) in PLANES.items():
        s = product_construction(*plane_from_dict(plane), nu, plan=FAST_PLAN, tol=1e-8)
        text = dump_json(structure_to_dict(s))
        assert hashlib.sha256(text.encode()).hexdigest() == expected[key], key
    for field, f_source in (("0;2;2*x", "1/2*(2*x)"), ("x;y;z^2", "-y/2*x+1/2*z^2")):
        X = TensorField.from_sources((1, 0), field.split(";"), sasakian_r3.chart)
        assert contact_vector_field(sasakian_r3, X, FAST_PLAN).f_source == f_source


@pytest.mark.parametrize("nu", [True, False, float("inf")])
def test_nu_must_be_a_finite_number_not_a_boolean(nu):
    # "nu": true read as 1.0
    with pytest.raises(FileFormatError, match="'nu' must be a positive number"):
        structure_from_dict(minimal_dict(nu=nu))
