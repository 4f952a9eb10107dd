"""Constructive procedures on structures.

* homothetic deformation by a pair of positive factors, and its inverse;
* extraction of the classical Sasakian structure hidden in a weak Sasakian one;
* the product construction of weak cosymplectic structures on plane x line;
* the weak contact vector field test.

Deformations act on component expressions through the splitting
X = X^T + eta(X) xi, so the blockwise definition extends to a total map on
the tangent bundle; outputs are re-validated before they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .calculus import covariant_derivative
from .chart import Chart, DEFAULT_PLAN, SamplePlan, sample
from .classify import Session
from .errors import (EngineInconsistencyError, NotContactMetricError,
                     NotParallelError, NotWeakSasakianError, RankDeficientError,
                     ValidationFailedError)
from .structure import (DEFAULT_TOL, RANK_RTOL, Structure, ValidationReport,
                        matvec, sup_at, validate)
from .tensor import TensorField


@dataclass(frozen=True)
class DeformParams:
    """Positive scale pair (lambda, lambda') of a homothetic deformation."""

    lam: float
    lam_prime: float

    def __post_init__(self):
        if not (self.lam > 0.0 and self.lam_prime > 0.0):
            raise ValueError("deformation factors must be strictly positive")


def _nodes(field: TensorField) -> np.ndarray:
    out = np.empty(field.comps.shape, dtype=object)
    for idx in np.ndindex(field.comps.shape):
        out[idx] = field.comps[idx].node
    return out


def _field(valence, nodes, chart) -> TensorField:
    comps = np.empty(nodes.shape, dtype=object)
    for idx in np.ndindex(nodes.shape):
        comps[idx] = ex.from_node(nodes[idx], chart.coords)
    return TensorField(valence, comps, chart)


def _scale_nodes(nodes: np.ndarray, factor: float) -> np.ndarray:
    out = np.empty(nodes.shape, dtype=object)
    for idx in np.ndindex(nodes.shape):
        out[idx] = ex.make_mul(ex.make_num(factor), nodes[idx])
    return out


def _forward(s: Structure, lam: float, lam_prime: float, name: str,
             plan: SamplePlan, tol: float) -> ValidationReport:
    """One direction of the deformation; the inverse uses reciprocal factors.

    Returns the passing validation report of the deformed structure.
    """
    dim = s.chart.dim
    phi = _nodes(s.phi)
    Q = _nodes(s.Q)
    xi = _nodes(s.xi)
    eta = _nodes(s.eta)
    g = _nodes(s.g)
    nu = s.nu

    phi_out = _scale_nodes(phi, 1.0 / math.sqrt(lam))

    # (Q xi)^i and c_j = g(xi, e_j), gxx = g(xi, xi) as expressions
    q_xi = np.empty(dim, dtype=object)
    c = np.empty(dim, dtype=object)
    for i in range(dim):
        acc = ex.make_num(0.0)
        for a in range(dim):
            acc = ex.make_add(acc, ex.make_mul(Q[i, a], xi[a]))
        q_xi[i] = acc
    for jx in range(dim):
        acc = ex.make_num(0.0)
        for m in range(dim):
            acc = ex.make_add(acc, ex.make_mul(g[m, jx], xi[m]))
        c[jx] = acc
    gxx = ex.make_num(0.0)
    for jx in range(dim):
        gxx = ex.make_add(gxx, ex.make_mul(c[jx], xi[jx]))

    # Q'(X) = (1/lam) Q(X - eta(X) xi) + (nu / lam') eta(X) xi
    q_out = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for jx in range(dim):
            block = ex.make_sub(Q[i, jx], ex.make_mul(eta[jx], q_xi[i]))
            part1 = ex.make_mul(ex.make_num(1.0 / lam), block)
            part2 = ex.make_mul(ex.make_num(nu / lam_prime),
                                ex.make_mul(eta[jx], xi[i]))
            q_out[i, jx] = ex.make_add(part1, part2)

    # g' = g + (sqrt(lam) - 1) * g(P . , P . )
    factor = math.sqrt(lam) - 1.0
    g_out = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for jx in range(dim):
            block = ex.make_sub(g[i, jx], ex.make_mul(eta[i], c[jx]))
            block = ex.make_sub(block, ex.make_mul(eta[jx], c[i]))
            block = ex.make_add(block, ex.make_mul(ex.make_mul(eta[i], eta[jx]), gxx))
            g_out[i, jx] = ex.make_add(g[i, jx],
                                       ex.make_mul(ex.make_num(factor), block))

    out = Structure(
        chart=s.chart,
        phi=_field((1, 1), phi_out, s.chart),
        Q=_field((1, 1), q_out, s.chart),
        xi=s.xi,
        eta=s.eta,
        g=_field((0, 2), g_out, s.chart),
        nu=nu / lam_prime,
        name=name,
    )
    return validate(out, plan, tol).raise_for_violations()


def deform(s: Structure, params: DeformParams, direction: str = "forward",
           plan: SamplePlan = DEFAULT_PLAN, tol: float = DEFAULT_TOL) -> Structure:
    """Homothetic deformation of a validated structure.

    `forward` divides the scales out of (phi, Q) and scales the metric's
    distribution block up; `inverse` is the reciprocal map.  The result is
    validated before being returned.
    """
    if s.nu is None:
        raise ValueError("structure must be validated before deforming")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    lam, lam_prime = params.lam, params.lam_prime
    if direction == "inverse":
        lam, lam_prime = 1.0 / lam, 1.0 / lam_prime
    name = f"{s.name}_deformed_{direction}_{params.lam:g}_{params.lam_prime:g}"
    return _forward(s, lam, lam_prime, name, plan, tol).structure


def extract_sasakian(s: Structure, plan: SamplePlan = DEFAULT_PLAN,
                     tol: float = DEFAULT_TOL) -> Structure:
    """Recover the classical Sasakian structure from a weak Sasakian one.

    Requires the weak Sasakian flags and the internal test Q|_D = nu * id
    (the test is run, not assumed); the output must classify as classical
    Sasakian or an engine-level inconsistency is raised.
    """
    if s.nu is None:
        raise ValueError("structure must be validated before extraction")
    ses = Session(s, plan, tol)
    contact = ses.flag_residuals["weak_contact_metric"]
    if contact > tol:
        raise NotWeakSasakianError("fundamental 2-form equals d(eta)", contact)
    normal = ses.flag_residuals["normal"]
    if normal > tol:
        raise NotWeakSasakianError("N1 vanishes (normality)", normal)
    q_res = ses.residual("q_is_nu_on_D")
    if q_res > tol:
        raise NotWeakSasakianError("Q restricted to D is nu * id", q_res)

    report = _forward(s, s.nu, s.nu, f"{s.name}_sasakian", plan, tol)
    out = report.structure

    out_ses = Session(out, plan, tol, jets=report.jets)
    q_id = out_ses.sup_pointwise(lambda j: j.Q - j.identity)
    out_contact = out_ses.flag_residuals["weak_contact_metric"]
    out_normal = out_ses.flag_residuals["normal"]
    slack = 10.0 * tol
    if q_id > slack or out_contact > slack or out_normal > slack:
        raise EngineInconsistencyError(
            "extraction output is not classical Sasakian: "
            f"|Q - id| = {q_id:.3e}, contact residual {out_contact:.3e}, "
            f"normality residual {out_normal:.3e}")
    return out


# --------------------------------------------------------------------------
# Product construction
# --------------------------------------------------------------------------

def product_construction(phitilde: TensorField, g_plane: TensorField, nu: float,
                         t_domain=(-1.0, 1.0), name: str = "product",
                         plan: SamplePlan = DEFAULT_PLAN,
                         tol: float = DEFAULT_TOL) -> Structure:
    """Weak cosymplectic structure on (plane chart) x (line with coordinate t).

    Requires the plane tensor to have full rank, to be parallel for the plane
    metric, and to pair with it so that -phitilde^2 is self-adjoint positive.
    """
    plane = phitilde.chart
    two_n = plane.dim
    if two_n % 2 != 0:
        raise ValidationFailedError(f"plane chart must be even-dimensional, got {two_n}")
    if tuple(phitilde.valence) != (1, 1) or tuple(g_plane.valence) != (0, 2):
        raise ValidationFailedError("plane fields must have valences (1,1) and (0,2)")
    if "t" in plane.coords:
        raise ValidationFailedError("plane chart already uses the coordinate name 't'")

    points = sample(plane, plan)
    for p in points:
        pv = phitilde.values(p)
        sv = np.linalg.svd(pv, compute_uv=False)
        rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
        if rank != two_n:
            raise RankDeficientError(
                f"plane tensor has rank {rank} < {two_n} at {tuple(float(v) for v in p)}")
        gv = g_plane.values(p)
        s_op = gv @ (-(pv @ pv))
        if np.max(np.abs(s_op - s_op.T)) > tol * (1.0 + np.max(np.abs(s_op))):
            raise ValidationFailedError(
                "-phitilde^2 is not self-adjoint for the plane metric")
        if np.min(np.linalg.eigvalsh(0.5 * (s_op + s_op.T))) <= 0.0:
            raise ValidationFailedError(
                "-phitilde^2 is not positive for the plane metric")
        nabla = covariant_derivative(phitilde, g_plane, p)
        if np.max(np.abs(nabla.data)) > tol:
            raise NotParallelError(
                f"plane tensor is not parallel: |nabla phitilde| = "
                f"{np.max(np.abs(nabla.data)):.3e} at {tuple(float(v) for v in p)}")

    dim = two_n + 1
    chart = Chart(plane.coords + ("t",), plane.lows + (float(t_domain[0]),),
                  plane.highs + (float(t_domain[1]),))

    phi_nodes = np.full((dim, dim), None, dtype=object)
    q_nodes = np.full((dim, dim), None, dtype=object)
    g_nodes = np.full((dim, dim), None, dtype=object)
    zero = ex.make_num(0.0)
    pt_nodes = _nodes(phitilde)
    gp_nodes = _nodes(g_plane)
    for i in range(dim):
        for jx in range(dim):
            phi_nodes[i, jx] = zero
            q_nodes[i, jx] = zero
            g_nodes[i, jx] = zero
    minus_sq = np.empty((two_n, two_n), dtype=object)
    for i in range(two_n):
        for jx in range(two_n):
            acc = ex.make_num(0.0)
            for a in range(two_n):
                acc = ex.make_add(acc, ex.make_mul(pt_nodes[i, a], pt_nodes[a, jx]))
            minus_sq[i, jx] = ex.make_neg(acc)
    for i in range(two_n):
        for jx in range(two_n):
            phi_nodes[i, jx] = pt_nodes[i, jx]
            q_nodes[i, jx] = minus_sq[i, jx]
            g_nodes[i, jx] = gp_nodes[i, jx]
    q_nodes[two_n, two_n] = ex.make_num(float(nu))
    g_nodes[two_n, two_n] = ex.make_num(1.0)

    xi_nodes = np.array([zero] * two_n + [ex.make_num(1.0)], dtype=object)
    eta_nodes = np.array([zero] * two_n + [ex.make_num(1.0)], dtype=object)

    out = Structure(
        chart=chart,
        phi=_field((1, 1), phi_nodes, chart),
        Q=_field((1, 1), q_nodes, chart),
        xi=_field((1, 0), xi_nodes, chart),
        eta=_field((0, 1), eta_nodes, chart),
        g=_field((0, 2), g_nodes, chart),
        nu=float(nu),
        name=name,
    )
    report = validate(out, plan, tol)
    try:
        report.raise_for_violations()
    except Exception as err:
        raise ValidationFailedError(f"constructed product failed validation: {err}") from err
    return report.structure


# --------------------------------------------------------------------------
# Weak contact vector fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CvfResult:
    """Outcome of the weak contact vector field test."""

    is_weak_contact: bool
    strict: bool
    residual: float
    sigma_sup: float
    lie_eta_residual: float
    f_source: str
    worst_point: tuple
    tol: float


def contact_vector_field(s: Structure, X: TensorField,
                         plan: SamplePlan = DEFAULT_PLAN,
                         tol: float = DEFAULT_TOL) -> CvfResult:
    """Test whether X generates a (strict) weak contact transformation.

    Evaluates the characterization Q X = -(1/2) phi grad(f) + nu f xi with
    f = eta(X), reports sigma = xi(f), and cross-checks Lie_X(eta) = sigma eta
    when the characterization holds.
    """
    if s.nu is None:
        raise ValueError("structure must be validated before the field test")
    if tuple(X.valence) != (1, 0):
        raise ValueError("X must be a vector field")
    ses = Session(s, plan, tol)
    contact = ses.flag_residuals["weak_contact_metric"]
    if contact > tol:
        raise NotContactMetricError(
            f"structure is not weak contact metric (residual {contact:.3e})")

    nu = s.nu
    residuals, sigmas, lie_res = [], [], []
    for j in ses.jets:
        xv, xd = X.jet(j.point, "field")
        f = np.einsum("...i,...i->...", j.eta, xv)
        df = (np.einsum("...ik,...i->...k", j.d_eta_partials, xv)
              + np.einsum("...i,...ik->...k", j.eta, xd))
        grad_f = matvec(j.g_inv, df)
        resid = matvec(j.Q, xv) + 0.5 * matvec(j.phi, grad_f) - nu * f[:, None] * j.xi
        residuals.append(np.max(np.abs(resid), axis=-1))
        sigma = np.einsum("...i,...i->...", j.xi, df)
        sigmas.append(np.abs(sigma))
        lie_eta = (np.einsum("...a,...ia->...i", xv, j.d_eta_partials)
                   + np.einsum("...a,...ai->...i", j.eta, xd))
        lie_res.append(np.max(np.abs(lie_eta - sigma[:, None] * j.eta)))
    index, worst = sup_at(np.concatenate(residuals))
    worst_point = tuple(float(v) for v in ses.points[index])
    sigma_sup = sup_at(np.concatenate(sigmas))[1]
    lie_res = sup_at(lie_res)[1]

    f_nodes = ex.make_num(0.0)
    eta_nodes = _nodes(s.eta)
    x_nodes = _nodes(X)
    for a in range(s.chart.dim):
        f_nodes = ex.make_add(f_nodes, ex.make_mul(eta_nodes[a], x_nodes[a]))
    f_source = ex.from_node(f_nodes, s.chart.coords).to_source()

    return CvfResult(
        is_weak_contact=worst <= tol,
        strict=(worst <= tol and sigma_sup <= tol),
        residual=worst,
        sigma_sup=sigma_sup,
        lie_eta_residual=lie_res,
        f_source=f_source,
        worst_point=worst_point,
        tol=tol,
    )
