"""Differential operators against independent oracles.

Oracles here never reuse the dual-number path they check: finite differences
for partials and metric compatibility, a hand-computed Koszul formula for a
diagonal metric, and a flow-pullback difference quotient for the Lie
derivative.
"""

import numpy as np
import pytest

from conftest import sup
from wact.calculus import (Connection, affine_vector_field, christoffel,
                           constant_vector_field, covariant_derivative,
                           d_field, exterior_derivative, field_jet,
                           gradient_field, lie_bracket, lie_derivative,
                           nijenhuis)
from wact.chart import Chart, CounterStream, SamplePlan, sample
from wact.errors import NotAntisymmetricError, UnsupportedValenceError
from wact.structure import StructureJet
from wact.tensor import TensorField


def chart3(lows=(-1, -1, -1), highs=(1, 1, 1)):
    return Chart(("x", "y", "z"), lows, highs)


PLAN25 = SamplePlan(count=25, seed=42)


# -- christoffel ---------------------------------------------------------------

def test_christoffel_euclidean_is_zero():
    c = chart3()
    g = TensorField.constant((0, 2), np.eye(3), c)
    gamma = christoffel(g, (0.2, 0.3, -0.5))
    assert sup(gamma) == 0.0


def test_christoffel_diagonal_metric_hand_oracle():
    # g = diag(1, x^2, 1) on x > 0: Koszul by hand gives
    # Gamma^2_{12} = Gamma^2_{21} = 1/x and Gamma^1_{22} = -x, all others 0.
    c = chart3(lows=(0.5, -1, -1), highs=(2.0, 1, 1))
    g = TensorField.from_sources((0, 2), [["1", "0", "0"],
                                          ["0", "x^2", "0"],
                                          ["0", "0", "1"]], c)
    x = 1.3
    gamma = christoffel(g, (x, 0.0, 0.0))
    expected = np.zeros((3, 3, 3))
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / x
    expected[0, 1, 1] = -x
    assert sup(gamma - expected) < 1e-12


def test_christoffel_symmetric_in_lower_indices(sasakian_r3):
    gamma = christoffel(sasakian_r3.g, (0.3, -0.6, 0.1))
    assert sup(gamma - np.swapaxes(gamma, 1, 2)) == 0.0


def test_metric_compatibility_fd_oracle(sasakian_r3, sessions):
    # nabla g = 0: check FD partials of g against the Gamma corrections.
    ses = sessions(sasakian_r3)
    h = 1e-5
    worst = 0.0
    for p in ses.points:
        gamma = christoffel(sasakian_r3.g, p)
        gval = sasakian_r3.g.values(p)
        for k in range(3):
            up = np.array(p, dtype=float)
            dn = up.copy()
            up[k] += h
            dn[k] -= h
            fd = (sasakian_r3.g.values(up) - sasakian_r3.g.values(dn)) / (2 * h)
            corr = (np.einsum("aki,aj->ij", gamma, gval)[:, :]
                    + np.einsum("akj,ia->ij", gamma, gval))
            # one k-slice at a time
            corr = (np.einsum("ai,aj->ij", gamma[:, k, :], gval)
                    + np.einsum("aj,ia->ij", gamma[:, k, :], gval))
            worst = max(worst, sup(fd - corr))
    assert worst < 1e-9


def test_connection_object(sasakian_r3):
    conn = Connection(sasakian_r3.g)
    assert conn.metric_compatibility_residual((0.4, 0.1, -0.3)) < 1e-12


# -- covariant derivative -------------------------------------------------------

def test_nabla_g_is_zero(sasakian_r3, sessions):
    ses = sessions(sasakian_r3)
    for p in ses.points[:10]:
        nabla = covariant_derivative(sasakian_r3.g, sasakian_r3.g, p)
        assert (nabla.r, nabla.s) == (0, 3)
        assert sup(nabla.data) < 1e-12


def test_nabla_constant_field_euclidean():
    c = chart3()
    g = TensorField.constant((0, 2), np.eye(3), c)
    t = TensorField.constant((1, 1), [[1, 2, 0], [0, 1, 0], [3, 0, 1]], c)
    nabla = covariant_derivative(t, g, (0.1, 0.2, 0.3))
    assert sup(nabla.data) == 0.0


def test_nabla_xi_xi_vanishes_sasakian(sasakian_r3, sessions):
    ses = sessions(sasakian_r3)
    for p in ses.points[:10]:
        nabla = covariant_derivative(sasakian_r3.xi, sasakian_r3.g, p)
        xi = sasakian_r3.xi.values(p)
        assert sup(nabla.data @ xi) < 1e-12


def test_jet_layer_matches_calculus_ops(weak_contact_h, sessions):
    # the pointwise kernel must agree with the field-layer operators
    s = weak_contact_h
    stream = CounterStream(77, stream=2)
    pts = sample(s.chart, SamplePlan(count=5, seed=9))
    for p in pts:
        j = StructureJet(s, p)
        gamma = christoffel(s.g, p)
        assert sup(gamma - j.gamma) < 1e-12
        nphi = covariant_derivative(s.phi, s.g, p)
        assert sup(nphi.data - j.nabla_phi) < 1e-12
        d_eta = exterior_derivative(s.eta, p)
        assert sup(d_eta.data - j.dEta) < 1e-12
        n3 = lie_derivative(s.xi, s.phi, p)
        assert sup(n3.data - j.N3) < 1e-12
        lg = lie_derivative(s.xi, s.g, p)
        assert sup(lg.data - j.lie_xi_g) < 1e-12
        X = np.array([stream.symmetric(3 * int(10 * p[0]) + i) for i in range(3)])
        Y = np.array([stream.symmetric(100 + i) for i in range(3)])
        nij = nijenhuis(s.phi, X, Y, p)
        jet_nij = np.einsum("ijk,j,k->i", j.nijenhuis_phi, X, Y)
        assert sup(nij.data - jet_nij) < 1e-10


# -- brackets -------------------------------------------------------------------

def test_bracket_antisymmetry():
    c = chart3()
    X = TensorField.from_sources((1, 0), ["y", "x*z", "1"], c)
    assert sup(lie_bracket(X, X, (0.3, 0.4, 0.5)).data) == 0.0


def test_bracket_textbook_example():
    # [d/dx, x d/dy] = d/dy
    c = chart3()
    X = TensorField.from_sources((1, 0), ["1", "0", "0"], c)
    Y = TensorField.from_sources((1, 0), ["0", "x", "0"], c)
    out = lie_bracket(X, Y, (0.7, -0.1, 0.2))
    assert np.allclose(out.data, [0.0, 1.0, 0.0])


def test_bracket_agrees_with_torsion_free_connection(sasakian_r3, sessions):
    c = sasakian_r3.chart
    X = TensorField.from_sources((1, 0), ["y", "z^2", "x*y"], c)
    Y = TensorField.from_sources((1, 0), ["sin(x)", "1", "y"], c)
    ses = sessions(sasakian_r3)
    for p in ses.points[:15]:
        br = lie_bracket(X, Y, p).data
        nX = covariant_derivative(X, sasakian_r3.g, p).data
        nY = covariant_derivative(Y, sasakian_r3.g, p).data
        xv, yv = X.values(p), Y.values(p)
        alt = np.einsum("ik,k->i", nY, xv) - np.einsum("ik,k->i", nX, yv)
        assert sup(br - alt) < 1e-9


# -- Lie derivatives ------------------------------------------------------------

def test_lie_derivative_along_symmetry_direction():
    c = chart3()
    xi = TensorField.from_sources((1, 0), ["0", "0", "1"], c)
    t = TensorField.from_sources((1, 1), [["x", "y", "0"],
                                          ["0", "x*y", "0"],
                                          ["1", "0", "x^2"]], c)
    out = lie_derivative(xi, t, (0.2, 0.5, -0.4))
    assert sup(out.data) == 0.0


def test_lie_derivative_valence_guard(sasakian_r3):
    with pytest.raises(UnsupportedValenceError):
        lie_derivative(sasakian_r3.xi, sasakian_r3.xi, (0.1, 0.1, 0.1))


def _rk4_flow(xi_field, p, t, steps=8):
    x = np.array(p, dtype=object)
    h = t / steps
    def f(pt):
        raw = xi_field.at(list(pt))
        return np.array(list(raw), dtype=object)
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_lie_xi_g_flow_pullback_oracle(sasakian_r3):
    """Brute-force oracle at one point: differentiate the flow pullback.

    The flow is integrated with RK4 over dual numbers, which also produces
    the exact Jacobian of the numerical flow; the t-derivative is a central
    difference.
    """
    from wact.dual import Dual, real_part

    s = sasakian_r3
    p = (0.31, -0.42, 0.12)
    t = 5e-4

    def pullback(tt):
        seeds = [Dual(float(p[i]), tuple(1.0 if k == i else 0.0 for k in range(3)))
                 for i in range(3)]
        end = _rk4_flow(s.xi, seeds, tt)
        jac = np.array([[d for d in e.d] for e in end], dtype=float)
        base = [real_part(e) for e in end]
        gval = s.g.values(base)
        return np.einsum("ai,bj,ab->ij", jac, jac, gval)

    fd = (pullback(t) - pullback(-t)) / (2 * t)
    engine = lie_derivative(s.xi, s.g, p).data
    assert sup(fd - engine) < 1e-6


def test_lie_x_g_flow_pullback_oracle_nonconstant_field(sasakian_r3):
    # same oracle with a genuinely position-dependent field
    from wact.dual import Dual, real_part

    s = sasakian_r3
    X = TensorField.from_sources((1, 0), ["y", "-x", "x*y"], s.chart)
    p = (0.2, 0.4, -0.3)
    t = 5e-4

    def pullback(tt):
        seeds = [Dual(float(p[i]), tuple(1.0 if k == i else 0.0 for k in range(3)))
                 for i in range(3)]
        end = _rk4_flow(X, seeds, tt)
        jac = np.array([[d for d in e.d] for e in end], dtype=float)
        base = [real_part(e) for e in end]
        gval = s.g.values(base)
        return np.einsum("ai,bj,ab->ij", jac, jac, gval)

    fd = (pullback(t) - pullback(-t)) / (2 * t)
    engine = lie_derivative(X, s.g, p).data
    assert sup(fd - engine) < 1e-6


def test_lie_xi_eta_vanishes_on_contact_examples(sasakian_r3, weak_sasakian_l2, sessions):
    for s in (sasakian_r3, weak_sasakian_l2):
        ses = sessions(s)
        for p in ses.points[:10]:
            out = lie_derivative(s.xi, s.eta, p)
            assert sup(out.data) < 1e-12


def test_killing_operator_equivalence(sasakian_r3, weak_contact_h, sessions):
    # Lie_xi g equals the symmetrized covariant derivative of the lowered field
    from wact.calculus import DerivedField

    for s in (sasakian_r3, weak_contact_h):
        def lowered(env, s=s):
            gv = s.g.at(env)
            xv = s.xi.at(env)
            out = np.empty(3, dtype=object)
            for i in range(3):
                acc = gv[i, 0] * xv[0]
                for a in range(1, 3):
                    acc = acc + gv[i, a] * xv[a]
                out[i] = acc
            return out

        flat = DerivedField((0, 1), s.chart, lowered)
        for p in sample(s.chart, SamplePlan(count=8, seed=5)):
            nabla = covariant_derivative(flat, s.g, p).data
            sym = nabla + nabla.T
            lg = lie_derivative(s.xi, s.g, p).data
            assert sup(sym - lg) < 1e-8


# -- exterior derivative ---------------------------------------------------------

def test_d_of_df_is_zero():
    c = chart3()
    from wact.expr import parse
    f = parse("x^2*y", c.coords)
    df = gradient_field(f, c)
    ddf = exterior_derivative(df, (0.4, -0.2, 0.8))
    assert sup(ddf.data) < 1e-13


def test_d_eta_quarter(sasakian_r3):
    # hand/FD oracle for d(eta)(d/dx, d/dy) = 1/4 with eta = (dz - y dx)/2
    s = sasakian_r3
    p = (0.25, -0.65, 0.1)
    out = exterior_derivative(s.eta, p)
    assert abs(out.data[0, 1] - 0.25) < 1e-14
    h = 1e-5
    up, dn = (p[0], p[1] + h, p[2]), (p[0], p[1] - h, p[2])
    fd = 0.5 * (-(s.eta.values(up)[0] - s.eta.values(dn)[0]) / (2 * h))
    assert abs(out.data[0, 1] - fd) < 1e-9


def test_iota_xi_d_eta_zero_on_contact_examples(sasakian_r3, weak_sasakian_l2, sessions):
    for s in (sasakian_r3, weak_sasakian_l2):
        ses = sessions(s)
        for p in ses.points[:10]:
            deta = exterior_derivative(s.eta, p)
            xi = s.xi.values(p)
            assert sup(xi @ deta.data) < 1e-12


def test_d_two_form_antisymmetry_guard(sasakian_r3):
    sym = TensorField.from_sources((0, 2), [["1", "0", "0"],
                                            ["0", "1", "0"],
                                            ["0", "0", "1"]], sasakian_r3.chart)
    with pytest.raises(NotAntisymmetricError):
        exterior_derivative(sym, (0.1, 0.1, 0.1))


def test_dd_zero_on_random_one_forms():
    c = chart3()
    sources = [
        ["x*y", "sin(z)", "y^2"],
        ["exp(x/2)", "x*z", "cos(y)"],
        ["z^3", "x+y", "x*y*z"],
    ]
    for comps in sources:
        omega = TensorField.from_sources((0, 1), comps, c)
        d_omega = d_field(omega)
        for p in sample(c, SamplePlan(count=6, seed=13)):
            dd = exterior_derivative(d_omega, p)
            assert sup(dd.data) < 1e-8


def test_d_phi_form_matches_jet(weak_contact_h):
    # derived Phi field differentiated with the closure layer vs the jet kernel
    from wact.calculus import DerivedField

    s = weak_contact_h

    def phi_form(env):
        gv = s.g.at(env)
        pv = s.phi.at(env)
        out = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                acc = gv[i, 0] * pv[0, j]
                for a in range(1, 3):
                    acc = acc + gv[i, a] * pv[a, j]
                out[i, j] = acc
        return out

    Phi = DerivedField((0, 2), s.chart, phi_form)
    for p in sample(s.chart, SamplePlan(count=5, seed=3)):
        j = StructureJet(s, p)
        d_Phi = exterior_derivative(Phi, p)
        assert sup(d_Phi.data - j.dPhi) < 1e-11


def test_lie_xi_d_eta_closure_vs_jet(weak_contact_h):
    s = weak_contact_h
    d_eta = d_field(s.eta)
    for p in sample(s.chart, SamplePlan(count=5, seed=6)):
        j = StructureJet(s, p)
        closure = lie_derivative(s.xi, d_eta, p).data
        assert sup(closure - j.lie_xi_dEta) < 1e-11


# -- Nijenhuis torsion -------------------------------------------------------------

def test_nijenhuis_of_identity_vanishes():
    c = chart3()
    phi = TensorField.identity(c)
    out = nijenhuis(phi, np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0]),
                    (0.2, 0.2, 0.2))
    assert sup(out.data) == 0.0


def test_nijenhuis_nabla_form(sasakian_r3, sessions):
    # agreement with the covariant-derivative form of the torsion
    ses = sessions(sasakian_r3)
    for index, p in enumerate(ses.points[:10]):
        j = StructureJet(sasakian_r3, p)
        assert sup(j.nijenhuis_phi - j.nijenhuis_phi_nabla_form) < 1e-10
        X = ses.vectors[index, 0, 0]
        Y = ses.vectors[index, 0, 1]
        direct = nijenhuis(sasakian_r3.phi, X, Y, p).data
        via_nabla = np.einsum("ijk,j,k->i", j.nijenhuis_phi_nabla_form, X, Y)
        assert sup(direct - via_nabla) < 1e-10


def test_nijenhuis_xi_slot_expansion(sasakian_r3, weak_contact_h, sessions):
    # [phi,phi](X, xi) = phi (nabla_xi phi) X + phi^2 nabla_X xi - phi nabla_{phi X} xi,
    # the Y = xi specialization of the covariant-derivative form.
    for s in (sasakian_r3, weak_contact_h):
        ses = sessions(s)
        for p in ses.points[:8]:
            j = StructureJet(s, p)
            lhs = np.einsum("ijk,k->ij", j.nijenhuis_phi, j.xi)
            rhs = (np.einsum("im,mak,k->ia", j.phi, j.nabla_phi, j.xi)
                   + np.einsum("im,ma->ia", j.phi2, j.nabla_xi)
                   - np.einsum("im,mk,ka->ia", j.phi, j.nabla_xi, j.phi))
            assert sup(lhs - rhs) < 1e-10


def test_nijenhuis_xi_slot_sasakian_reduction(sasakian_r3, sessions):
    # On the Sasakian chart every xi-slot term vanishes, so the simpler
    # combination phi (nabla_xi phi) X + nabla_{phi X} xi - phi nabla_X xi
    # also reproduces [phi,phi](X, xi) there.
    ses = sessions(sasakian_r3)
    for p in ses.points[:8]:
        j = StructureJet(sasakian_r3, p)
        lhs = np.einsum("ijk,k->ij", j.nijenhuis_phi, j.xi)
        rhs = (np.einsum("im,mak,k->ia", j.phi, j.nabla_phi, j.xi)
               + np.einsum("ik,ka->ia", j.nabla_xi, j.phi)
               - np.einsum("im,ma->ia", j.phi, j.nabla_xi))
        assert sup(lhs - rhs) < 1e-10


def test_nijenhuis_tensoriality_under_extensions(weak_contact_h):
    # constant vs affine extensions with matching pointwise values agree
    s = weak_contact_h
    p = np.array([0.3, -0.2, 0.4])
    stream = CounterStream(404, stream=1)
    X = np.array([stream.symmetric(i) for i in range(3)])
    Y = np.array([stream.symmetric(10 + i) for i in range(3)])
    jac_x = np.array([[stream.symmetric(20 + 3 * i + j) for j in range(3)]
                      for i in range(3)])
    jac_y = np.array([[stream.symmetric(40 + 3 * i + j) for j in range(3)]
                      for i in range(3)])
    const = nijenhuis(s.phi, X, Y, p).data
    affine = nijenhuis(s.phi,
                       affine_vector_field(X, jac_x, p, s.chart),
                       affine_vector_field(Y, jac_y, p, s.chart), p).data
    scale = 1.0 + sup(const)
    assert sup(const - affine) <= 1e-8 * scale


def test_constant_field_jet():
    c = chart3()
    f = constant_vector_field(np.array([1.0, 2.0, 3.0]), c)
    val, grad = field_jet(f, (0.1, 0.2, 0.3))
    assert np.array_equal(val, [1.0, 2.0, 3.0])
    assert sup(grad) == 0.0
