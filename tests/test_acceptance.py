"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Default plan everywhere: 100 points, seed 42, margin 0.05,
tolerance 1e-6 unless the criterion states otherwise.
"""

import json

import numpy as np
import pytest

from conftest import PLAN, TOL, point_jets, sup
from wact import structure as st
from wact.chart import BaseChart, CounterStream, SamplePlan, sample
from wact.classify import Session, classify, verify
from wact.cli import main
from wact.deform import contact_vector_field, extract_sasakian, product_construction
from wact.fileio import bundled_names, bundled_path, load_bundled
from wact.structure import validate
from wact.tensor import TensorField

WCM_EXAMPLES = ("sasakian_r3", "sasakian_r5", "weak_sasakian_l2")
ALL_VALID = WCM_EXAMPLES + ("product_cosymplectic",)

BROKEN_TARGETS = {
    "broken_phi_square": "phi_square",
    "broken_eta_xi": "eta_xi",
    "broken_q_xi": "q_xi_nu",
    "broken_phi_invariance": "phi_invariant_D",
    "broken_compatibility": "compatibility",
    "broken_q_singular": "q_nonsingular",
}


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_axiom_suite(sasakian_r3, sasakian_r5):
    for s in (sasakian_r3, sasakian_r5):
        result = validate(s, PLAN, tol=1e-8)
        assert result.ok, s.name
        for row in result.rows:
            if row.comparison == "<=":
                assert row.value <= 1e-8, (s.name, row.axiom, row.value)
    for name, target in BROKEN_TARGETS.items():
        result = validate(load_bundled(name), PLAN, tol=TOL)
        failing_axioms = [r.axiom for r in result.axiom_rows if not r.passed]
        assert failing_axioms == [target], (name, failing_axioms)
    report(1, "classical structures validate at 1e-8; every broken file "
              "fails exactly its targeted axiom")


def test_criterion_2_contact_metric_tensors(sessions, request):
    for name in WCM_EXAMPLES:
        ses = sessions(request.getfixturevalue(name))
        assert ses.flag_residuals["weak_contact_metric"] <= TOL, name
        assert ses.sup_pointwise(lambda j: j.N2)[1] <= 1e-6, name
        assert ses.sup_pointwise(lambda j: j.N4)[1] <= 1e-6, name
        killing = ses.flag_residuals["weak_K_contact"]
        n3 = ses.sup_pointwise(lambda j: j.N3)[1]
        if killing <= 1e-6:
            assert n3 <= 1e-5, name
        if n3 <= 1e-5:
            assert killing <= 1e-6, name
    report(2, "N2 and N4 vanish on the contact metric examples and the "
              "Killing/N3 equivalence holds in both directions")


def test_criterion_3_master_identity(sessions, request):
    for name in ALL_VALID:
        ses = sessions(request.getfixturevalue(name))
        assert ses.sup_contracted(st.master_identity_residual, 3)[1] <= 1e-6, name
        if ses.flag_residuals["weak_contact_metric"] <= TOL:
            assert ses.sup_contracted(st.contact_identity_residual, 3)[1] <= 1e-6
            assert ses.sup_contracted(st.xi_direction_identity_residual, 2)[1] <= 1e-6

    # lambda = 2 deformation: the trilinear tensor against the closed form
    # for Q restricted to the distribution equal to lambda times the identity.
    ses = sessions(request.getfixturevalue("weak_sasakian_l2"))
    lam = 2.0
    for jet in point_jets(ses):
        H, c = jet._proj_metric
        dc = (np.einsum("mk,mn->nk", jet.d_xi, jet.g)
              + np.einsum("m,mnk->nk", jet.xi, jet.d_g))
        dH = (jet.d_g - np.einsum("ak,n->ank", jet.d_eta_partials, c)
              - np.einsum("a,nk->ank", jet.eta, dc))
        t1 = np.einsum("kc,abk->abc", jet.phi, dH)
        t2 = -np.einsum("kb,ack->abc", jet.phi, dH)
        t3 = np.einsum("mca,mb->abc", jet.d_phi, H)
        t4 = -np.einsum("mba,mc->abc", jet.d_phi, H)
        w5 = np.einsum("mcb->mbc", jet.d_phi) - jet.d_phi
        t5 = np.einsum("mbc,ma->abc", w5, H)
        closed = (lam - 1.0) * (t1 + t2 + t3 + t4 + t5)
        assert sup(jet.N5 - closed) <= 1e-6 * (1.0 + sup(closed))
    report(3, "the six-term expansion of nabla(phi) and its contact "
              "reductions hold at 1e-6 on every bundled structure; N5 "
              "matches its scalar-Q closed form on the deformed example")


def test_criterion_4_h_suite(sessions, request):
    for name in WCM_EXAMPLES:
        ses = sessions(request.getfixturevalue(name))
        assert ses.sup_pointwise(lambda j: st.matvec(j.h, j.xi))[1] <= 1e-6, name
        assert ses.sup_contracted(st.h_adjoint_identity_residual, 2)[1] <= 1e-6
        assert ses.sup_contracted(st.h_anticommutator_identity_residual, 2)[1] <= 1e-6
        assert ses.sup_contracted(st.q_nabla_xi_identity_residual, 2)[1] <= 1e-6
        assert ses.sup_contracted(st.b_phi_identity_residual, 2)[1] <= 1e-6
        # the bundled contact metric examples are all weak Sasakian => h = 0
        assert ses.sup_pointwise(lambda j: j.h)[1] <= 1e-7, name
    report(4, "h-tensor relations hold at 1e-6 on the contact metric "
              "examples and h vanishes at 1e-7 on the weak Sasakian ones")


def test_criterion_5_rigidity_pipeline(sasakian_r3, weak_sasakian_l2):
    out = extract_sasakian(weak_sasakian_l2, PLAN, TOL)
    result = validate(out, PLAN, tol=1e-8)
    assert result.ok
    pts = sample(out.chart, PLAN)
    worst_q = 0.0
    worst_roundtrip = 0.0
    for p in pts:
        worst_q = max(worst_q, sup(out.Q.values(p) - np.eye(3)))
        for name in ("phi", "Q", "xi", "eta", "g"):
            a = getattr(out, name).values(p)
            b = getattr(sasakian_r3, name).values(p)
            worst_roundtrip = max(worst_roundtrip, sup(a - b))
    assert worst_q <= 1e-8
    assert worst_roundtrip <= 1e-8
    c = classify(out, PLAN, TOL)
    assert c.is_set("normal") and c.is_set("weak_contact_metric")
    report(5, "extraction from the deformed file recovers the stored "
              "classical structure to 1e-8 and classifies Sasakian")


def test_criterion_6_cosymplectic_suite():
    plane = BaseChart(("x", "y"), (-1.0, -1.0), (1.0, 1.0))
    phit = TensorField.from_sources((1, 1), [["0", "-2"], ["2", "0"]], plane)
    metric = TensorField.constant((0, 2), np.eye(2), plane)
    s = product_construction(phit, metric, 4.0, plan=PLAN, tol=1e-8)
    ses = Session(s, PLAN)
    assert ses.sup_pointwise(lambda j: j.nabla_phi)[1] <= 1e-8
    assert ses.sup_pointwise(lambda j: j.dEta)[1] <= 1e-8
    assert ses.sup_pointwise(lambda j: j.dPhi)[1] <= 1e-8
    assert ses.sup_pointwise(lambda j: j.N5)[1] <= 1e-7
    assert ses.sup_pointwise(lambda j: j.nijenhuis_phi)[1] <= 1e-7
    assert ses.sup_pointwise(lambda j: j.nabla_xi_xi)[1] <= 1e-8
    checks = verify(s, "all", PLAN, TOL, session=ses)
    for cid in ("C1", "C2", "C3", "C4"):
        assert checks.result(cid).verdict == "pass", cid
    report(6, "the speed-two product is parallel, closed, torsion-free, "
              "kills N5, and passes C1-C4")


def test_criterion_7_contact_vector_fields(sasakian_r3):
    xi_field = TensorField.from_sources((1, 0), ["0", "0", "2"], sasakian_r3.chart)
    r = contact_vector_field(sasakian_r3, xi_field, PLAN, TOL)
    assert r.is_weak_contact and r.strict and r.sigma_sup <= 1e-12

    perturbed = TensorField.from_sources((1, 0), ["0", "0.3", "2"],
                                         sasakian_r3.chart)
    r_bad = contact_vector_field(sasakian_r3, perturbed, PLAN, TOL)
    assert not r_bad.is_weak_contact
    assert r_bad.residual > TOL  # reported, nonzero

    # f = x: solving the characterization through Q^{-1} (here Q = id) with
    # grad f = g^{-1} df = (4, 0, 4y) gives X = (0, 2, 2x).
    solved = TensorField.from_sources((1, 0), ["0", "2", "2*x"],
                                      sasakian_r3.chart)
    r_f = contact_vector_field(sasakian_r3, solved, PLAN, TOL)
    assert r_f.is_weak_contact
    assert r_f.lie_eta_residual <= 1e-5
    assert r_f.sigma_sup <= 1e-12  # sigma = xi(x) = 0 on this chart
    report(7, "xi passes strictly, the perturbed field fails with a "
              "reported residual, and the solved potential field passes")


def test_criterion_8_differentiation_kernel():
    exprs = []
    for name in bundled_names():
        s = load_bundled(name)
        for field in (s.phi, s.Q, s.xi, s.eta, s.g):
            for idx in np.ndindex(field.comps.shape):
                exprs.append((field.comps[idx], s.chart))
    assert len(exprs) >= 300
    stream = CounterStream(2025, stream=12)
    h = 1e-5
    checked = 0
    counter = 0
    while checked < 1000:
        expr, chart = exprs[int(stream.u01(counter) * len(exprs)) % len(exprs)]
        counter += 1
        point = []
        for lo, hi in chart.domain:
            width = hi - lo
            point.append(lo + 0.05 * width
                         + stream.u01(counter) * 0.9 * width)
            counter += 1
        ad = expr.eval_dual(point).d
        for i in range(chart.dim):
            up = list(point)
            dn = list(point)
            up[i] += h
            dn[i] -= h
            fd = (expr.evaluate(up) - expr.evaluate(dn)) / (2 * h)
            assert abs(ad[i] - fd) <= 1e-6 * (1.0 + abs(ad[i])), (
                str(expr), point, i)
        checked += 1

    # d(d(.)) = 0 at 1e-8 for the bundled 1-forms
    from wact.calculus import d_field, exterior_derivative
    for name in ("sasakian_r3", "sasakian_r5", "weak_sasakian_l2"):
        s = load_bundled(name)
        d_eta = d_field(s.eta)
        for p in sample(s.chart, SamplePlan(count=20))[:20]:
            dd = exterior_derivative(d_eta, p)
            assert sup(dd.data) <= 1e-8
    report(8, "dual-number partials agree with central differences on 1000 "
              "bundled (expression, point) pairs; d of d vanishes at 1e-8")


def test_criterion_9_determinism(tmp_path):
    for name in ("sasakian_r3", "product_cosymplectic"):
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        path = str(bundled_path(name))
        assert main(["verify", path, "--json", str(a)]) == 0
        assert main(["verify", path, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
        payload = json.loads(a.read_text())
        assert payload["plan"] == {"count": 100, "seed": 42, "margin": 0.05}
    report(9, "repeated verify runs produce byte-identical reports")
