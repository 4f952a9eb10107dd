"""Constructive procedures on structures.

* homothetic deformation by a pair of positive factors, and its inverse;
* extraction of the classical Sasakian structure hidden in a weak Sasakian one;
* the product construction of weak cosymplectic structures on plane x line;
* the weak contact vector field test.

Deformations act on component expressions through the splitting
X = X^T + eta(X) xi, so the blockwise definition extends to a total map on
the tangent bundle; outputs are re-validated before they are returned.
The constructions are written as array algebra on AST nodes (`@`,
broadcasting, slice assignment on numpy object arrays; see `expr.Node`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .chart import Chart, DEFAULT_PLAN, SamplePlan, sample
from .errors import (EngineInconsistencyError, NotContactMetricError,
                     NotParallelError, NotWeakSasakianError, RankDeficientError,
                     SingularMetricError, ValidationFailedError)
from .structure import (DEFAULT_TOL, Session, Structure, ValidationReport,
                        _point_sup, blocks, cholesky_defect, christoffel,
                        matvec, nabla_11, numeric_rank, sup_at, transpose,
                        validate)
from .tensor import TensorField


@dataclass(frozen=True)
class DeformParams:
    """Positive scale pair (lambda, lambda') of a homothetic deformation."""

    lam: float
    lam_prime: float

    def __post_init__(self):
        if not (self.lam > 0.0 and self.lam_prime > 0.0):
            raise ValueError("deformation factors must be strictly positive")


def _field(valence, nodes, chart) -> TensorField:
    return TensorField(valence, ex.expr_array(nodes, chart.coords), chart)


def _forward(s: Structure, lam: float, lam_prime: float, name: str,
             plan: SamplePlan, tol: float) -> ValidationReport:
    """One direction of the deformation; the inverse uses reciprocal factors.

    Returns the passing validation report of the deformed structure.
    """
    phi, Q, xi, eta, g = (ex.node_array(f.comps) for f in (s.phi, s.Q, s.xi, s.eta, s.g))
    nu = s.nu

    phi_out = ex.make_num(1.0 / math.sqrt(lam)) * phi

    # (Q xi)^i and c_j = g(xi, e_j), gxx = g(xi, xi) as expressions
    q_xi = Q @ xi
    c = g.T @ xi
    gxx = c @ xi
    eta_i, eta_j = eta[:, None], eta[None, :]

    # Q'(X) = (1/lam) Q(X - eta(X) xi) + (nu / lam') eta(X) xi
    q_out = (ex.make_num(1.0 / lam) * (Q - eta_j * q_xi[:, None])
             + ex.make_num(nu / lam_prime) * (eta_j * xi[:, None]))

    # g' = g + (sqrt(lam) - 1) * g(P . , P . )
    block = g - eta_i * c[None, :] - eta_j * c[:, None] + eta_i * eta_j * gxx
    g_out = g + ex.make_num(math.sqrt(lam) - 1.0) * block

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
                     tol: float = DEFAULT_TOL,
                     session: Session | None = None) -> Structure:
    """Recover the classical Sasakian structure from a weak Sasakian one.

    Requires the weak Sasakian flags and the internal test Q|_D = nu * id
    (the test is run, not assumed); the output must classify as classical
    Sasakian or an engine-level inconsistency is raised.  A `session` over
    the same plan, such as a validation report's, saves building the block
    jets and reducing its flags again.
    """
    if s.nu is None:
        raise ValueError("structure must be validated before extraction")
    ses = session or Session(s, plan)
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

    out_ses = report.session
    q_id = out_ses.sup_pointwise(lambda j: j.Q - j.identity)[1]
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

def _check_plane_block(points, phi, d_phi, g, d_g, tol: float):
    """Raise at the first point of the block that fails a plane test.

    At that point the tests run in order: full rank, then -phitilde^2
    self-adjoint and positive for the metric, then the metric positive
    definite, then phitilde parallel.  A NaN fails its test.
    """
    def pointwise_max(a):
        return np.abs(a).reshape(len(a), -1).max(axis=-1)

    two_n = phi.shape[-1]
    ranks = numeric_rank(phi)
    s_op = g @ (-(phi @ phi))
    asym = pointwise_max(s_op - transpose(s_op))
    bound = tol * (1.0 + pointwise_max(s_op))
    min_eig = np.linalg.eigvalsh(0.5 * (s_op + transpose(s_op)))[:, 0]
    metric_ok = cholesky_defect(g) == 0.0
    # a metric that fails its test is not inverted: one singular matrix
    # would fail the inverse of the whole block
    g_inv = np.linalg.inv(np.where(metric_ok[:, None, None], g, np.eye(two_n)))
    nabla = pointwise_max(nabla_11(phi, d_phi, christoffel(g_inv, d_g)))

    def where(k):
        return tuple(float(v) for v in points[k])

    tests = (
        (ranks != two_n, lambda k: RankDeficientError(
            f"plane tensor has rank {ranks[k]} < {two_n} at {where(k)}")),
        (~(asym <= bound), lambda k: ValidationFailedError(
            "-phitilde^2 is not self-adjoint for the plane metric")),
        (~(min_eig > 0.0), lambda k: ValidationFailedError(
            "-phitilde^2 is not positive for the plane metric")),
        (~metric_ok, lambda k: SingularMetricError(
            "metric is singular at the requested point")),
        (~(nabla <= tol), lambda k: NotParallelError(
            f"plane tensor is not parallel: |nabla phitilde| = "
            f"{nabla[k]:.3e} at {where(k)}")),
    )
    failed = np.logical_or.reduce([bad for bad, _ in tests])
    if failed.any():
        k = int(np.argmax(failed))
        raise next(error(k) for bad, error in tests if bad[k])


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

    for block in blocks(sample(plane, plan)):
        _check_plane_block(block, *phitilde.jet(block, "phitilde"),
                           *g_plane.jet(block, "metric"), tol)

    dim = two_n + 1
    chart = Chart(plane.coords + ("t",), plane.lows + (float(t_domain[0]),),
                  plane.highs + (float(t_domain[1]),))

    zero = ex.make_num(0.0)
    phi_nodes, q_nodes, g_nodes = (np.full((dim, dim), zero, dtype=object)
                                   for _ in range(3))
    pt_nodes = ex.node_array(phitilde.comps)
    phi_nodes[:two_n, :two_n] = pt_nodes
    q_nodes[:two_n, :two_n] = -(pt_nodes @ pt_nodes)
    g_nodes[:two_n, :two_n] = ex.node_array(g_plane.comps)
    q_nodes[two_n, two_n] = ex.make_num(float(nu))
    g_nodes[two_n, two_n] = ex.make_num(1.0)
    t_axis = np.full(dim, zero, dtype=object)  # xi = d/dt and eta = dt
    t_axis[two_n] = ex.make_num(1.0)

    out = Structure(
        chart=chart,
        phi=_field((1, 1), phi_nodes, chart),
        Q=_field((1, 1), q_nodes, chart),
        xi=_field((1, 0), t_axis, chart),
        eta=_field((0, 1), t_axis, chart),
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
                         tol: float = DEFAULT_TOL,
                         session: Session | None = None) -> CvfResult:
    """Test whether X generates a (strict) weak contact transformation.

    Evaluates the characterization Q X = -(1/2) phi grad(f) + nu f xi with
    f = eta(X), reports sigma = xi(f), and cross-checks Lie_X(eta) = sigma eta
    when the characterization holds.  A `session` over the same plan, such as
    a validation report's, saves building the block jets again.
    """
    if s.nu is None:
        raise ValueError("structure must be validated before the field test")
    if tuple(X.valence) != (1, 0):
        raise ValueError("X must be a vector field")
    ses = session or Session(s, plan)
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
        residuals.append(_point_sup(np.abs(resid)))
        sigma = np.einsum("...i,...i->...", j.xi, df)
        sigmas.append(np.abs(sigma))
        lie_eta = (np.einsum("...a,...ia->...i", xv, j.d_eta_partials)
                   + np.einsum("...a,...ai->...i", j.eta, xd))
        lie_res.append(np.max(np.abs(lie_eta - sigma[:, None] * j.eta)))
    index, worst = ses._over_blocks(residuals)
    worst_point = tuple(float(v) for v in ses.points[index])
    sigma_sup = sup_at(np.concatenate(sigmas))[1]
    lie_res = sup_at(lie_res)[1]

    f = ex.node_array(s.eta.comps) @ ex.node_array(X.comps)
    f_source = ex.ScalarExpr(f, s.chart.coords).to_source()

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
