"""Classification flags and the check registry."""

import dataclasses
import sys

import pytest

from conftest import FAST_PLAN, PLAN, TOL
from wact import structure as st
from wact.chart import SamplePlan
from wact.classify import (CHECK_IDS, CHECKS, FLAGS, RESIDUALS, Session, classify,
                           verify)
from wact.errors import UnknownCheckIdError
from wact.structure import validate
from wact.tensor import TensorField


def test_classify_sasakian_r3(sasakian_r3):
    c = classify(sasakian_r3, PLAN, TOL)
    assert c.is_set("weak_almost_contact_metric")
    assert c.is_set("weak_contact_metric")
    assert c.is_set("normal")
    assert c.is_set("weak_Sasakian")
    assert c.is_set("weak_K_contact")
    assert c.is_set("Q_scalar_on_D")
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 1.0) < 1e-10
    assert not c.is_set("weak_almost_cosymplectic")
    assert not c.is_set("phi_parallel")


def test_classify_weak_l2(weak_sasakian_l2):
    c = classify(weak_sasakian_l2, PLAN, TOL)
    assert c.is_set("weak_Sasakian")
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 2.0) < 1e-10


def test_classify_product(product_cosymplectic):
    c = classify(product_cosymplectic, PLAN, TOL)
    assert c.is_set("weak_almost_cosymplectic")
    assert c.is_set("weak_cosymplectic")
    assert c.is_set("phi_parallel")
    assert not c.is_set("weak_contact_metric")
    # d(eta) = 0 differs from Phi, whose entries reach 2 here
    assert c["weak_contact_metric"].residual > 1.0
    assert abs(c["Q_scalar_on_D"].extra["lambda"] - 4.0) < 1e-10


def test_classify_contact_h(contact_h):
    c = classify(contact_h, FAST_PLAN, TOL)
    assert c.is_set("weak_contact_metric")
    assert not c.is_set("normal")
    assert not c.is_set("weak_K_contact")
    assert not c.is_set("weak_Sasakian")


def test_hierarchy_implications(sasakian_r3, sasakian_r5, weak_sasakian_l2,
                                product_cosymplectic):
    for s in (sasakian_r3, sasakian_r5, weak_sasakian_l2):
        c = classify(s, FAST_PLAN, TOL)
        # weak Sasakian implies weak K-contact and Q scalar on D with
        # the scalar equal to nu
        assert c.is_set("weak_Sasakian")
        assert c.is_set("weak_K_contact")
        assert c.is_set("Q_scalar_on_D")
        assert abs(c["Q_scalar_on_D"].extra["lambda"] - s.nu) < 1e-8
    cp = classify(product_cosymplectic, FAST_PLAN, TOL)
    # parallel phi implies the weak cosymplectic class
    assert cp.is_set("phi_parallel")
    assert cp.is_set("weak_cosymplectic")


def test_classify_deterministic(sasakian_r3):
    a = classify(sasakian_r3, FAST_PLAN, TOL)
    b = classify(sasakian_r3, FAST_PLAN, TOL)
    assert a.to_json_dict() == b.to_json_dict()


def test_classify_point_count_stability(sasakian_r3, product_cosymplectic):
    for s in (sasakian_r3, product_cosymplectic):
        few = classify(s, SamplePlan(count=10), TOL)
        many = classify(s, SamplePlan(count=100), TOL)
        for name in few.flags:
            assert few.is_set(name) == many.is_set(name)


def test_tolerance_below_rounding_floor_flips_verdicts(weak_sasakian_l2):
    """Residual-floor exercise: verdicts are tolerance comparisons, so a
    tolerance below the rounding floor makes true statements fail.

    On this polynomial chart the floor is a few 1e-16 (measured: the
    normality residual is ~4.4e-16), leaving many orders of margin below
    the default 1e-6; pushing the tolerance to 2e-16 flips the verdict.
    """
    healthy = classify(weak_sasakian_l2, FAST_PLAN, 1e-12)
    assert healthy.is_set("normal")  # 1e-12 still above the floor here
    floor = classify(weak_sasakian_l2, FAST_PLAN, 2e-16)
    assert not floor.is_set("normal")
    assert 0.0 < floor["normal"].residual < 1e-12


def test_mismatched_metric_scaling_fails_contact(sasakian_r3):
    """Scaling (phi, Q) without rescaling g|_D stays a valid weak structure
    but loses the contact metric property by about sqrt(2) - 1."""
    chart = sasakian_r3.chart
    root2 = repr(2.0 ** 0.5)
    phi = [[f"({root2})*({e})" for e in row] for row in sasakian_r3.phi.sources()]
    q = [["2" if i == j else "0" for j in range(3)] for i in range(3)]
    s = dataclasses.replace(
        sasakian_r3,
        phi=TensorField.from_sources((1, 1), phi, chart),
        Q=TensorField.from_sources((1, 1), q, chart),
        nu=2.0,
        name="mismatched_scaling",
    )
    report = validate(s, FAST_PLAN, tol=1e-8)
    assert report.ok  # still a weak almost contact metric structure
    c = classify(report.structure, FAST_PLAN, TOL)
    assert not c.is_set("weak_contact_metric")
    residual = c["weak_contact_metric"].residual
    scale = 2.0 ** 0.5 - 1.0
    assert residual > 0.1 * scale  # failure of the expected order


# -- verify -------------------------------------------------------------------


def test_verify_all_sasakian(sasakian_r3):
    report = verify(sasakian_r3, "all", PLAN, TOL)
    verdicts = {r.check_id: r.verdict for r in report.results}
    assert verdicts == {
        "T1": "pass", "P1": "pass", "T2": "pass", "L1": "pass", "L2": "pass",
        "P2": "pass", "S1": "pass", "S2": "pass",
        "C1": "n/a", "C2": "n/a", "C3": "n/a", "C4": "n/a",
    }


def test_verify_all_product(product_cosymplectic):
    report = verify(product_cosymplectic, "all", PLAN, TOL)
    verdicts = {r.check_id: r.verdict for r in report.results}
    for cid in ("C1", "C2", "C3", "C4", "P1", "T1", "L1"):
        assert verdicts[cid] == "pass", cid
    for cid in ("T2", "L2", "P2", "S1", "S2"):
        assert verdicts[cid] == "n/a", cid


def test_verify_weak_l2(weak_sasakian_l2):
    report = verify(weak_sasakian_l2, "all", PLAN, TOL)
    verdicts = {r.check_id: r.verdict for r in report.results}
    for cid in ("P1", "T2", "L1", "L2", "P2", "S1", "S2"):
        assert verdicts[cid] == "pass", cid
    # T1's stated N2 reduction misses the 1/nu weights, which only shows up
    # for nu != 1; the flags expose the corrected variant.
    t1 = report.result("T1")
    assert t1.verdict == "fail"
    assert t1.details["n2_reduction_nu_weighted"] < 1e-6
    assert t1.details["n2_reduction_antisymmetrized"] < 1e-6


def test_verify_contact_h(contact_h):
    report = verify(contact_h, "all", FAST_PLAN, TOL)
    verdicts = {r.check_id: r.verdict for r in report.results}
    # not normal, so T1 is n/a; contact metric identities all apply
    assert verdicts["T1"] == "n/a"
    assert verdicts["P1"] == "pass"
    assert verdicts["T2"] == "pass"
    assert verdicts["L1"] == "pass"
    assert verdicts["L2"] == "pass"
    assert verdicts["S1"] == "n/a"
    # the N5 pairing identity is stated with a 2 phi h term that cannot
    # vanish off the K-contact case; the engine reports the failure honestly.
    assert verdicts["P2"] == "fail"


def test_verify_single_check(sasakian_r3):
    report = verify(sasakian_r3, "T2", FAST_PLAN, TOL)
    assert len(report.results) == 1
    assert report.results[0].check_id == "T2"


def test_verify_unknown_check_id(sasakian_r3):
    with pytest.raises(UnknownCheckIdError):
        verify(sasakian_r3, "Z9", FAST_PLAN, TOL)


def test_verify_registry_complete(sasakian_r3):
    report = verify(sasakian_r3, "all", FAST_PLAN, TOL)
    ids = [r.check_id for r in report.results]
    assert ids == list(CHECK_IDS)
    assert len(set(ids)) == len(ids)


def test_implication_reporting_shape(weak_sasakian_l2):
    report = verify(weak_sasakian_l2, "T2", FAST_PLAN, TOL)
    t2 = report.results[0]
    assert t2.hypothesis["weak_contact_metric"] <= TOL
    names = {part["name"] for part in t2.details["implications"]}
    assert {"n2_vanishes", "n4_vanishes", "d_eta_xi_invariant",
            "killing_implies_n3", "n3_implies_killing"} == names
    for part in t2.details["implications"]:
        assert "hypothesis_residual" in part and "conclusion_residual" in part


def test_killing_equivalence_directions_on_h_fixture(contact_h):
    # xi is not Killing and N3 != 0: both equivalence directions are vacuous,
    # and the engine marks them inapplicable rather than failed.
    report = verify(contact_h, "T2", FAST_PLAN, TOL)
    t2 = report.results[0]
    parts = {p["name"]: p for p in t2.details["implications"]}
    assert not parts["killing_implies_n3"]["applicable"]
    assert not parts["n3_implies_killing"]["applicable"]
    assert parts["n2_vanishes"]["ok"]


def test_every_named_key_is_a_row_and_every_analysis_row_is_named():
    # a misspelled key would otherwise surface only as a KeyError mid-run
    named = set()
    for keys in FLAGS.values():
        named.update(keys)
    for check in CHECKS:
        named.update(check.hypothesis + check.details)
        for imp in check.implications:
            named.update((imp.conclusion,) + imp.also)
    assert named <= set(RESIDUALS) | set(FLAGS)
    analysis = {key for key, row in RESIDUALS.items() if not row.kind}
    assert analysis <= named


def test_validation_rows_come_in_report_order(sasakian_r3):
    order = ["metric_symmetric", "metric_positive_definite", "phi_square", "eta_xi",
             "q_xi_nu", "q_nonsingular", "phi_invariant_D", "compatibility",
             "phi_xi_zero", "eta_phi_zero", "q_phi_commute", "phi_skew_adjoint",
             "q_self_adjoint", "eta_is_g_flat_xi", "phi_rank_2n"]
    assert [key for key, row in RESIDUALS.items() if row.kind] == order
    report = validate(sasakian_r3, FAST_PLAN, TOL)
    assert [row.axiom for row in report.rows] == order
    assert [row.kind for row in report.rows] == ["axiom"] * 8 + ["derived"] * 7


def test_session_requires_resolved_nu(sasakian_r3):
    # a Session accepts an open nu (validate resolves it through one), but
    # no key is reduced, and no classification or check runs, before that
    raw = dataclasses.replace(sasakian_r3, nu=None)
    ses = Session(raw, FAST_PLAN)
    for key in RESIDUALS:
        with pytest.raises(ValueError):
            ses.residual(key)
    with pytest.raises(ValueError):
        classify(raw, FAST_PLAN, TOL)
    with pytest.raises(ValueError):
        verify(raw, "all", FAST_PLAN, TOL)


def test_check_report_json_roundtrip(sasakian_r3):
    import json
    report = verify(sasakian_r3, "all", FAST_PLAN, TOL)
    payload = report.to_json_dict()
    assert payload["schema"] == 1
    text = json.dumps(payload)
    assert json.loads(text) == payload


def test_each_residual_is_reduced_once_per_session(sasakian_r5, monkeypatch):
    # 22 distinct componentwise and 14 distinct contracted residuals feed
    # the flags and the checks; a shared one (N2, N3, N4, d(eta), d(Phi),
    # nabla_xi xi, ...) is reduced the first time it is needed only
    calls = {"sup_pointwise": 0, "sup_contracted": 0}
    for name in calls:
        reducer = getattr(Session, name)

        def counted(self, *args, _name=name, _reducer=reducer):
            calls[_name] += 1
            return _reducer(self, *args)
        monkeypatch.setattr(Session, name, counted)
    ses = Session(sasakian_r5, FAST_PLAN)
    verify(sasakian_r5, "all", FAST_PLAN, TOL, session=ses)
    classify(sasakian_r5, FAST_PLAN, TOL, session=ses)
    assert calls["sup_pointwise"] <= 22
    assert calls["sup_contracted"] <= 14


def test_t1_builds_the_n2_reduction_once_per_block(sasakian_r5, monkeypatch):
    # T1 reduces the stated N2 reduction and its antisymmetric part; both
    # read the array cached on the block jet.  Calls are counted by code
    # object, so a reference to the function held anywhere is seen.
    monkeypatch.setattr(st, "BLOCK_POINTS", 10)
    code = st.n2_reduction_residual.__code__
    builds = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            builds.append(len(frame.f_locals["j"].point))
    ses = Session(sasakian_r5, FAST_PLAN)
    sys.setprofile(profile)
    try:
        result = verify(sasakian_r5, "T1", FAST_PLAN, TOL, session=ses).result("T1")
    finally:
        sys.setprofile(None)
    assert builds == [10, 10, 5]
    assert "n2_reduction_antisymmetrized" in result.details
