"""The block evaluator against the per-point engine it replaced.

`data/seed_residuals.json` holds every validation row, classification flag
and check result of the per-point engine (one Python pass per sample point),
recorded before evaluation moved to blocks of points.  It covers the 10
bundled files at the 100-point test plan (the 6 broken ones only validate)
and the h != 0 fixture of conftest with its deformation at the 25-point
plan.  Verdicts must be identical and every residual within 1e-14 (relative
to its size above 1), which leaves room for a sum taken in another order;
the block evaluator as written reproduces every value bit for bit.

The other tests here check the pieces the rewrite vectorised: the test
vector draws, a one-point block against the same point inside a large
block, and the location in DomainError messages.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import FAST_PLAN, PLAN, TOL, make_contact_h
from wact.chart import CounterStream, SamplePlan, sample, sample_vectors
from wact.classify import classify, verify
from wact.deform import DeformParams, deform
from wact.errors import DomainError
from wact.fileio import bundled_names, load_bundled
from wact import structure as st
from wact.structure import StructureJet, validate
from wact.tensor import TensorField

SEED = json.loads((Path(__file__).parent / "data" / "seed_residuals.json").read_text())
VALIDATE_TOL = SEED["validate_tol"]
RESIDUAL_TOL = 1e-14


def _current(name: str) -> dict:
    if name == "contact_h":
        raw, plan = make_contact_h(), FAST_PLAN
    elif name == "weak_contact_h":
        base = validate(make_contact_h(), FAST_PLAN, VALIDATE_TOL).raise_for_violations()
        raw = deform(base.structure, DeformParams(3.0, 2.0), "inverse", FAST_PLAN,
                     VALIDATE_TOL)
        plan = FAST_PLAN
    else:
        raw, plan = load_bundled(name), PLAN
    report = validate(raw, plan, VALIDATE_TOL)
    out = {"plan": [plan.count, plan.seed, plan.margin],
           "validation": report.to_json_dict()}
    if report.ok:
        s = report.structure
        ses = report.session
        out["classification"] = classify(s, plan, TOL, session=ses).to_json_dict()
        out["checks"] = verify(s, "all", plan, TOL, session=ses).to_json_dict()
    return out


def _compare(expected, got, path: str, problems: list):
    if isinstance(expected, dict):
        if list(expected) != list(got):
            problems.append(f"{path}: keys {list(got)} != {list(expected)}")
            return
        for key in expected:
            _compare(expected[key], got[key], f"{path}.{key}", problems)
    elif isinstance(expected, list):
        if len(expected) != len(got):
            problems.append(f"{path}: length {len(got)} != {len(expected)}")
            return
        for i, (e, g) in enumerate(zip(expected, got)):
            _compare(e, g, f"{path}[{i}]", problems)
    elif isinstance(expected, float) and not isinstance(got, bool):
        if not abs(got - expected) <= RESIDUAL_TOL * max(1.0, abs(expected)):
            problems.append(f"{path}: {got!r} != {expected!r}")
    elif expected != got:
        problems.append(f"{path}: {got!r} != {expected!r}")


def _without_noise_points(report: dict) -> dict:
    """Drop worst points of rows decided by roundoff, where any point ties."""
    for row in report["validation"]["axioms"]:
        if row["value"] <= 1e-12:
            row.pop("worst_point")
    return report


@pytest.mark.parametrize("name", sorted(SEED["structures"]))
def test_verdicts_and_residuals_match_the_per_point_engine(name):
    expected = _without_noise_points(SEED["structures"][name])
    got = _without_noise_points(_current(name))
    problems: list = []
    _compare(expected, got, name, problems)
    assert not problems, "\n".join(problems[:20])


def test_fixture_covers_every_bundled_structure():
    assert set(bundled_names()) | {"contact_h", "weak_contact_h"} == set(SEED["structures"])


def test_vectorised_draws_equal_the_scalar_counter_stream():
    plan = SamplePlan(count=7, seed=1234)
    count, slots, dim = 5, 3, 5
    stream = CounterStream(plan.seed, stream=1)
    indices = np.arange(40)
    block = sample_vectors(plan, indices, count, slots, dim)
    assert block.shape == (40, count, slots, dim)
    for i in indices:
        scalar = [stream.symmetric(((int(i) * count + t) * slots + s) * dim + c)
                  for t in range(count) for s in range(slots) for c in range(dim)]
        assert block[i].ravel().tolist() == scalar
        assert sample_vectors(plan, int(i), count, slots, dim).tolist() == block[i].tolist()


def test_vectorised_points_equal_the_scalar_counter_stream():
    s = load_bundled("sasakian_r5")
    plan = SamplePlan(count=30, seed=99, margin=0.1)
    stream = CounterStream(plan.seed, stream=0)
    points = sample(s.chart, plan)
    for i in range(plan.count):
        for j, (lo, hi) in enumerate(s.chart.domain):
            width = hi - lo
            lo_m, hi_m = lo + plan.margin * width, hi - plan.margin * width
            assert points[i, j] == lo_m + stream.u01(i * s.dim + j) * (hi_m - lo_m)


JET_ARRAYS = {
    attr: (lambda j, attr=attr: getattr(j, attr))
    for attr in ("phi", "d_phi", "Q", "g", "d_g", "eta_hessian", "g_inv", "gamma",
                 "nabla_phi", "N1", "N2", "N3", "N5", "h_star", "lie_xi_dEta",
                 "nu_at_point")
}
JET_ARRAYS.update({fn.__name__: fn for fn in (
    st.master_identity_residual, st.n2_reduction_residual,
    st.b_phi_identity_residual, st._res_phi_invariant, st._res_compatibility)})


@pytest.mark.parametrize("name", ["sasakian_r5", "weak_sasakian_l2"])
def test_one_point_block_equals_the_point_inside_a_large_block(name):
    s = validate(load_bundled(name), SamplePlan(count=1000), VALIDATE_TOL).structure
    points = sample(s.chart, SamplePlan(count=1000))
    big = StructureJet(s, points)
    for index in (0, 417, 999):
        one = StructureJet(s, points[index:index + 1])
        single = StructureJet(s, points[index])
        for key, fn in JET_ARRAYS.items():
            expected = fn(big)[index]
            assert np.array_equal(fn(one)[0], expected), key
            assert np.array_equal(fn(single), expected), key


def test_domain_error_names_field_component_and_first_point():
    s = load_bundled("sasakian_r3")
    points = sample(s.chart, SamplePlan(count=50))
    # log(x) is undefined where x <= 0: the first such sample names the error
    first = int(np.argmax(points[:, 0] <= 0.0))
    assert points[first, 0] <= 0.0
    field = TensorField.from_sources((0, 2), [["1", "0", "0"], ["0", "log(x)", "0"],
                                              ["0", "0", "1"]], s.chart)
    with pytest.raises(DomainError) as info:
        field.jet(points, "metric")
    message = str(info.value)
    assert message.startswith("metric[1][1]: log of non-positive value")
    coords = ", ".join(repr(float(v)) for v in points[first])
    assert f"at sample point ({coords})" in message
    assert info.value.index == first
    assert re.search(r"at position \d+", message)
