"""Constructive procedures: deformation, extraction, product, contact fields."""

import re

import numpy as np
import pytest

from conftest import FAST_PLAN, PLAN, TOL, sup
from wact.calculus import covariant_derivative
from wact.chart import BaseChart, SamplePlan, sample
from wact.classify import Session, classify
from wact.deform import (CvfResult, DeformParams, contact_vector_field, deform,
                         extract_sasakian, product_construction)
from wact.errors import (DomainError, NotContactMetricError, NotParallelError,
                         NotWeakSasakianError, RankDeficientError,
                         SingularMetricError, ValidationFailedError,
                         WactError)
from wact.tensor import TensorField


def max_component_difference(a, b, points):
    worst = 0.0
    for p in points:
        for name in ("phi", "Q", "xi", "eta", "g"):
            va = getattr(a, name).values(p)
            vb = getattr(b, name).values(p)
            worst = max(worst, sup(va - vb))
    return worst


def test_deform_params_positive():
    with pytest.raises(ValueError):
        DeformParams(0.0, 1.0)
    with pytest.raises(ValueError):
        DeformParams(1.0, -2.0)


def test_identity_deformation(sasakian_r3):
    out = deform(sasakian_r3, DeformParams(1.0, 1.0), "forward", FAST_PLAN, 1e-8)
    pts = sample(sasakian_r3.chart, FAST_PLAN)
    assert max_component_difference(sasakian_r3, out, pts) == 0.0


def test_deform_roundtrip(sasakian_r3):
    params = DeformParams(2.0, 2.0)
    weak = deform(sasakian_r3, params, "inverse", FAST_PLAN, 1e-8)
    back = deform(weak, params, "forward", FAST_PLAN, 1e-8)
    pts = sample(sasakian_r3.chart, PLAN)
    assert max_component_difference(sasakian_r3, back, pts) <= 1e-10


def test_deform_roundtrip_anisotropic_factors(contact_h):
    params = DeformParams(3.0, 2.0)
    weak = deform(contact_h, params, "inverse", FAST_PLAN, 1e-8)
    back = deform(weak, params, "forward", FAST_PLAN, 1e-8)
    pts = sample(contact_h.chart, FAST_PLAN)
    assert max_component_difference(contact_h, back, pts) <= 1e-10


@pytest.mark.parametrize("lam, lam_prime", [(0.5, 0.5), (3.0, 1.0),
                                            (1.5, 4.0), (7.0, 0.25)])
def test_deform_roundtrip_parameter_sweep(sasakian_r3, lam, lam_prime):
    params = DeformParams(lam, lam_prime)
    weak = deform(sasakian_r3, params, "inverse", FAST_PLAN, 1e-8)
    assert abs(weak.nu - lam_prime) < 1e-12
    back = deform(weak, params, "forward", FAST_PLAN, 1e-8)
    pts = sample(sasakian_r3.chart, FAST_PLAN)
    assert max_component_difference(sasakian_r3, back, pts) <= 1e-10


def test_inverse_deform_matches_bundled_file(sasakian_r3, weak_sasakian_l2):
    weak = deform(sasakian_r3, DeformParams(2.0, 2.0), "inverse", FAST_PLAN, 1e-8)
    assert weak.nu == 2.0
    pts = sample(sasakian_r3.chart, PLAN)
    assert max_component_difference(weak, weak_sasakian_l2, pts) <= 1e-12


def test_deformed_weak_structure_classifies_sasakian(weak_sasakian_l2):
    c = classify(weak_sasakian_l2, FAST_PLAN, TOL)
    assert c.is_set("weak_Sasakian")
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 2.0) < 1e-9


# -- extraction -------------------------------------------------------------------

def test_extract_sasakian_roundtrip(sasakian_r3, weak_sasakian_l2):
    out = extract_sasakian(weak_sasakian_l2, PLAN, TOL)
    assert abs(out.nu - 1.0) < 1e-12
    pts = sample(sasakian_r3.chart, PLAN)
    assert max_component_difference(out, sasakian_r3, pts) <= 1e-8
    c = classify(out, PLAN, TOL)
    assert c.is_set("normal")
    assert c.is_set("weak_contact_metric")
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 1.0) < 1e-9
    ses = Session(out, FAST_PLAN)
    assert ses.sup_pointwise(lambda j: j.Q - np.eye(3))[1] <= 1e-8


def test_extract_sasakian_fixed_point_on_classical(sasakian_r3):
    out = extract_sasakian(sasakian_r3, FAST_PLAN, TOL)
    pts = sample(sasakian_r3.chart, FAST_PLAN)
    assert max_component_difference(out, sasakian_r3, pts) <= 1e-12


def test_extract_sasakian_rejects_product(product_cosymplectic):
    with pytest.raises(NotWeakSasakianError) as err:
        extract_sasakian(product_cosymplectic, FAST_PLAN, TOL)
    assert "2-form" in err.value.condition
    assert err.value.residual > 1.0


def test_extract_sasakian_rejects_non_normal(contact_h):
    with pytest.raises(NotWeakSasakianError) as err:
        extract_sasakian(contact_h, FAST_PLAN, TOL)
    assert "normal" in err.value.condition


# -- product construction -----------------------------------------------------------

def euclidean_plane():
    plane = BaseChart(("x", "y"), (-1, -1), (1, 1))
    metric = TensorField.from_sources((0, 2), [["1", "0"], ["0", "1"]], plane)
    return plane, metric


def test_product_with_speed_two_rotation():
    plane, metric = euclidean_plane()
    phit = TensorField.from_sources((1, 1), [["0", "-2"], ["2", "0"]], plane)
    s = product_construction(phit, metric, 4.0, plan=FAST_PLAN, tol=1e-8)
    assert s.chart.coords == ("x", "y", "t")
    assert s.chart.domain[2] == (-1.0, 1.0)
    assert s.nu == 4.0
    # -phitilde^2 = 4 id by the hand oracle for this 2x2 matrix square
    q = s.Q.values((0.1, 0.2, 0.0))
    assert np.allclose(q, np.diag([4.0, 4.0, 4.0]))
    c = classify(s, FAST_PLAN, TOL)
    assert c.is_set("phi_parallel")
    assert c.is_set("weak_cosymplectic")
    assert not c.is_set("weak_contact_metric")


def test_product_classical_case():
    plane, metric = euclidean_plane()
    phit = TensorField.from_sources((1, 1), [["0", "-1"], ["1", "0"]], plane)
    s = product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)
    c = classify(s, FAST_PLAN, TOL)
    assert c.is_set("weak_cosymplectic")
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 1.0) < 1e-10
    ses = Session(s, FAST_PLAN)
    assert ses.sup_pointwise(lambda j: j.Q - np.eye(3))[1] < 1e-12


def test_product_anisotropic_rotations_give_nonscalar_q():
    plane = BaseChart(("x1", "x2", "y1", "y2"), (-1, -1, -1, -1), (1, 1, 1, 1))
    metric = TensorField.constant((0, 2), np.eye(4), plane)
    blocks = [["0", "-2", "0", "0"],
              ["2", "0", "0", "0"],
              ["0", "0", "0", "-3"],
              ["0", "0", "3", "0"]]
    phit = TensorField.from_sources((1, 1), blocks, plane)
    s = product_construction(phit, metric, 2.0, plan=FAST_PLAN, tol=1e-8)
    assert s.chart.dim == 5
    q = s.Q.values((0.0,) * 5)
    assert np.allclose(np.diag(q), [4.0, 4.0, 9.0, 9.0, 2.0])
    c = classify(s, FAST_PLAN, TOL)
    assert c.is_set("weak_cosymplectic")
    assert not c.is_set("Q_scalar_on_D")


def test_product_on_curved_plane_metric():
    # conformal plane metrics keep the speed-2 rotation parallel, so the
    # construction accepts a genuinely position-dependent metric
    plane = BaseChart(("x", "y"), (-1, -1), (1, 1))
    metric = TensorField.from_sources(
        (0, 2), [["(1+x^2/4)^2", "0"], ["0", "(1+x^2/4)^2"]], plane)
    phit = TensorField.from_sources((1, 1), [["0", "-2"], ["2", "0"]], plane)
    s = product_construction(phit, metric, 4.0, plan=FAST_PLAN, tol=1e-8)
    ses = Session(s, FAST_PLAN)
    assert ses.sup_pointwise(lambda j: j.nabla_phi)[1] <= 1e-8
    assert ses.sup_pointwise(lambda j: j.dPhi)[1] <= 1e-8
    assert ses.sup_pointwise(lambda j: j.dEta)[1] <= 1e-8
    c = classify(s, FAST_PLAN, TOL)
    assert c.is_set("weak_cosymplectic")


def test_product_rejects_rank_deficiency():
    plane, metric = euclidean_plane()
    phit = TensorField.from_sources((1, 1), [["0", "0"], ["1", "0"]], plane)
    with pytest.raises(RankDeficientError):
        product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)


def test_product_rejects_non_parallel():
    plane, metric = euclidean_plane()
    phit = TensorField.from_sources((1, 1),
                                    [["0", "-(1+x^2)"], ["1+x^2", "0"]], plane)
    with pytest.raises(NotParallelError):
        product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)


def test_product_rejects_non_skew_plane_tensor():
    plane, metric = euclidean_plane()
    phit = TensorField.from_sources((1, 1), [["0", "-1"], ["2", "0"]], plane)
    with pytest.raises(ValidationFailedError):
        product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)


def test_product_rejects_t_name_collision():
    plane = BaseChart(("t", "y"), (-1, -1), (1, 1))
    metric = TensorField.constant((0, 2), np.eye(2), plane)
    phit = TensorField.from_sources((1, 1), [["0", "-1"], ["1", "0"]], plane)
    with pytest.raises(ValidationFailedError):
        product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)


# Two blocks of plane points.  In this plan the first 1 024 points have
# x - y <= 1.69 and a later one reaches 1.79, so exp(1000 (x - y - 1.74)) has
# a gradient below 1e-20 on the whole first block and is far from parallel
# on part of the second.
PLANE_PLAN = SamplePlan(count=1500, seed=45, margin=0.05)
LATE_BUMP = "(1+exp(1000*(x-y-1.74)))"

PLANES = {
    "speed_two": ([["0", "-2"], ["2", "0"]], [["1", "0"], ["0", "1"]]),
    "conformal": ([["0", "-2"], ["2", "0"]],
                  [["(1+x^2/4)^2", "0"], ["0", "(1+x^2/4)^2"]]),
    "rank_deficient": ([["0", "0"], ["1", "0"]], [["1", "0"], ["0", "1"]]),
    "non_parallel": ([["0", "-(1+x^2)"], ["1+x^2", "0"]], [["1", "0"], ["0", "1"]]),
    "late_non_parallel": ([["0", f"-{LATE_BUMP}"], [LATE_BUMP, "0"]],
                          [["1", "0"], ["0", "1"]]),
    "non_positive": ([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]),
    "singular_metric": ([["0", "-1"], ["1", "0"]], [["1", "1"], ["1", "1"]]),
    "negative_definite": ([["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]),
}


def plane_fields(name):
    plane = BaseChart(("x", "y"), (-1, -1), (1, 1))
    phi, metric = PLANES[name]
    return (TensorField.from_sources((1, 1), phi, plane),
            TensorField.from_sources((0, 2), metric, plane))


def first_plane_failure(phit, metric, plan, tol):
    """(error class, point index) of the first failing plane test, or None.

    Checks one sample point at a time with `calculus.covariant_derivative`,
    in the order full rank, -phitilde^2 self-adjoint, positive, metric
    positive definite, parallel.
    """
    two_n = phit.chart.dim
    for k, p in enumerate(sample(phit.chart, plan)):
        pv = phit.values(p)
        sv = np.linalg.svd(pv, compute_uv=False)
        if np.sum(sv > 1e-8 * sv[0]) != two_n:
            return RankDeficientError, k
        s_op = metric.values(p) @ -(pv @ pv)
        if np.max(np.abs(s_op - s_op.T)) > tol * (1.0 + np.max(np.abs(s_op))):
            return ValidationFailedError, k
        if np.min(np.linalg.eigvalsh(0.5 * (s_op + s_op.T))) <= 0.0:
            return ValidationFailedError, k
        try:
            nabla = covariant_derivative(phit, metric, p)
        except SingularMetricError:
            return SingularMetricError, k
        if np.max(np.abs(nabla.data)) > tol:
            return NotParallelError, k
    return None


@pytest.mark.parametrize("name", sorted(PLANES))
def test_product_plane_checks_match_the_pointwise_oracle(name):
    phit, metric = plane_fields(name)
    expected = first_plane_failure(phit, metric, PLANE_PLAN, 1e-8)
    if expected is None:
        s = product_construction(phit, metric, 4.0, plan=PLANE_PLAN, tol=1e-8)
        assert s.chart.coords == ("x", "y", "t")
        return
    cls, index = expected
    if name == "late_non_parallel":
        assert index >= 1024
    with pytest.raises(WactError) as err:
        product_construction(phit, metric, 1.0, plan=PLANE_PLAN, tol=1e-8)
    assert type(err.value) is cls
    point = tuple(float(v) for v in sample(phit.chart, PLANE_PLAN)[index])
    if cls in (RankDeficientError, NotParallelError):
        assert str(err.value).endswith(f" at {point}")


def test_product_plane_domain_error_names_field_and_point():
    plane = BaseChart(("x", "y"), (-1, -1), (1, 1))
    phit = TensorField.from_sources((1, 1), [["0", "-1"], ["log(x)+1", "0"]], plane)
    metric = TensorField.constant((0, 2), np.eye(2), plane)
    with pytest.raises(DomainError) as err:
        product_construction(phit, metric, 1.0, plan=FAST_PLAN, tol=1e-8)
    message = str(err.value)
    assert message.startswith("phitilde[1][0]: ")
    assert re.search(r"at sample point \(-?[0-9.e-]+, -?[0-9.e-]+\)$", message)


# -- contact vector fields -------------------------------------------------------------

def test_cvf_xi_is_strict(sasakian_r3):
    X = TensorField.from_sources((1, 0), ["0", "0", "2"], sasakian_r3.chart)
    r = contact_vector_field(sasakian_r3, X, FAST_PLAN, TOL)
    assert isinstance(r, CvfResult)
    assert r.is_weak_contact and r.strict
    assert r.residual <= 1e-12
    assert r.sigma_sup <= 1e-12


def test_cvf_solved_field_for_coordinate_potential(sasakian_r3):
    # X = Q^{-1}(-(1/2) phi grad f + nu f xi) with f = x; on this chart the
    # inverse-metric oracle gives grad f = (4, 0, 4y), hence X = (0, 2, 2x).
    s = sasakian_r3
    p = (0.3, -0.5, 0.7)
    g = s.g.values(p)
    grad = np.linalg.inv(g) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(grad, [4.0, 0.0, 4.0 * p[1]])
    X_expected = -0.5 * (s.phi.values(p) @ grad) + 1.0 * p[0] * s.xi.values(p)
    assert np.allclose(X_expected, [0.0, 2.0, 2.0 * p[0]])

    X = TensorField.from_sources((1, 0), ["0", "2", "2*x"], s.chart)
    r = contact_vector_field(s, X, PLAN, TOL)
    assert r.is_weak_contact
    assert r.residual <= 1e-12
    assert r.lie_eta_residual <= 1e-5
    assert r.sigma_sup <= 1e-12  # sigma = xi(f) = 2 d(x)/dz = 0
    assert r.strict


def test_cvf_perturbed_field_fails(sasakian_r3):
    X = TensorField.from_sources((1, 0), ["0", "0.3", "2"], sasakian_r3.chart)
    r = contact_vector_field(sasakian_r3, X, FAST_PLAN, TOL)
    assert not r.is_weak_contact
    assert r.residual > 0.1


def test_cvf_scaling_preserves_verdict(sasakian_r3):
    X = TensorField.from_sources((1, 0), ["0", "2", "2*x"], sasakian_r3.chart)
    X3 = TensorField.from_sources((1, 0), ["0", "6", "6*x"], sasakian_r3.chart)
    r1 = contact_vector_field(sasakian_r3, X, FAST_PLAN, TOL)
    r3 = contact_vector_field(sasakian_r3, X3, FAST_PLAN, TOL)
    assert r1.is_weak_contact and r3.is_weak_contact
    assert r1.strict and r3.strict


def test_cvf_nonstrict_field(sasakian_r3):
    # Solving the characterization for the potential f = z by hand gives
    # X = -(1/2) phi grad(z) + z xi = (0, 2y, 2z), with sigma = xi(z) = 2;
    # a weak contact field that is not strict.
    s = sasakian_r3
    X = TensorField.from_sources((1, 0), ["0", "2*y", "2*z"], s.chart)
    r = contact_vector_field(s, X, FAST_PLAN, TOL)
    assert r.is_weak_contact
    assert not r.strict
    assert abs(r.sigma_sup - 2.0) < 1e-10
    assert r.lie_eta_residual <= 10 * TOL


def test_cvf_xi_scaled_by_potential_fails(sasakian_r3):
    # X = z xi has f = z but drops the phi grad(f) part, so the
    # characterization residual is 2|y| at the worst sample point.
    s = sasakian_r3
    X = TensorField.from_sources((1, 0), ["0", "0", "2*z"], s.chart)
    r = contact_vector_field(s, X, FAST_PLAN, TOL)
    assert not r.is_weak_contact
    assert r.residual > 1.0


def test_cvf_requires_contact_metric(product_cosymplectic):
    X = TensorField.from_sources((1, 0), ["0", "0", "1"],
                                 product_cosymplectic.chart)
    with pytest.raises(NotContactMetricError):
        contact_vector_field(product_cosymplectic, X, FAST_PLAN, TOL)


def test_cvf_seed_robustness(sasakian_r3):
    # verdicts survive the seed change 42 -> 43
    for comps, expected in ((["0", "0", "2"], True), (["0", "0.3", "2"], False)):
        X = TensorField.from_sources((1, 0), comps, sasakian_r3.chart)
        for seed in (42, 43):
            plan = SamplePlan(count=25, seed=seed)
            r = contact_vector_field(sasakian_r3, X, plan, TOL)
            assert r.is_weak_contact == expected
