"""Differential operators on fields over a chart, one point at a time.

This is the per-point reference that the tests compare the block engine
(`structure.StructureJet` and the plane checks of `deform`) against; no
command of the CLI calls it.

All first derivatives come from dual-number evaluation; derived fields (such
as an exterior derivative used as the input of another operator) lift their
environment one dual level, so nesting gives exact higher derivatives with no
step-size tuning.  Pointwise vector arguments are extended to
constant-coefficient coordinate fields before derivative formulas apply; the
target objects are tensorial, so the result does not depend on the extension.

Exterior derivative conventions: d on 1-forms carries the factor 1/2, on
2-forms the factor 1/3 (the same normalization every identity in the package
relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual as dm
from .chart import BaseChart
from .errors import (NotAntisymmetricError, SingularMetricError,
                     UnsupportedValenceError)
from .tensor import TensorField, TensorValue


@dataclass(frozen=True)
class DerivedField:
    """Tensor field given by a computation instead of parsed expressions."""

    valence: tuple
    chart: BaseChart
    fn: Callable

    def at(self, env) -> np.ndarray:
        return self.fn(env)


def constant_vector_field(value, chart: BaseChart) -> DerivedField:
    """Constant-coefficient extension of a pointwise vector."""
    vec = np.asarray(value.data if isinstance(value, TensorValue) else value, dtype=float)

    def comps(env):
        out = np.empty(chart.dim, dtype=object)
        for i in range(chart.dim):
            out[i] = vec[i]
        return out

    return DerivedField((1, 0), chart, comps)


def affine_vector_field(value, jacobian, base_point, chart: BaseChart) -> DerivedField:
    """Extension X + J.(x - p) agreeing with `value` at `base_point`."""
    vec = np.asarray(value.data if isinstance(value, TensorValue) else value, dtype=float)
    jac = np.asarray(jacobian, dtype=float)
    p = np.asarray(base_point, dtype=float)

    def comps(env):
        out = np.empty(chart.dim, dtype=object)
        for i in range(chart.dim):
            acc = vec[i]
            for j in range(chart.dim):
                acc = acc + jac[i, j] * (env[j] - p[j])
            out[i] = acc
        return out

    return DerivedField((1, 0), chart, comps)


def _as_vector_field(X, chart: BaseChart):
    if isinstance(X, (TensorField, DerivedField)):
        return X
    return constant_vector_field(X, chart)


def _lift_env(env, dim):
    return [dm.Dual(env[i], tuple(1.0 if j == i else 0.0 for j in range(dim)))
            for i in range(dim)]


def field_jet(field, point):
    """(values, gradients) of a field-like object; derivative axis last."""
    dim = field.chart.dim
    env = _lift_env([float(x) for x in point], dim)
    raw = field.at(env)
    val = np.empty(raw.shape, dtype=float)
    grad = np.empty(raw.shape + (dim,), dtype=float)
    for idx in np.ndindex(raw.shape):
        entry = raw[idx]
        if isinstance(entry, dm.Dual):
            val[idx] = dm.real_part(entry.val)
            grad[idx] = [dm.real_part(a) for a in entry.d]
        else:
            val[idx] = entry
            grad[idx] = 0.0
    return val, grad


# --------------------------------------------------------------------------
# Levi-Civita connection
# --------------------------------------------------------------------------

def christoffel(g: TensorField, point) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the metric at a point."""
    gval, gd = g.jet(point)
    try:
        np.linalg.cholesky(0.5 * (gval + gval.T))
    except np.linalg.LinAlgError as err:
        raise SingularMetricError("metric is singular at the requested point") from err
    g_inv = np.linalg.inv(gval)
    # A[i, j, l] = d_i g_{jl}
    A = np.einsum("jli->ijl", gd)
    B = A + np.einsum("jil->ijl", A) - np.einsum("lij->ijl", A)
    return 0.5 * np.einsum("kl,ijl->kij", g_inv, B)


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection of a metric field (torsion-free by construction)."""

    g: TensorField

    def christoffel(self, point) -> np.ndarray:
        return christoffel(self.g, point)

    def metric_compatibility_residual(self, point) -> float:
        """Sup-norm of nabla g at the point (zero for Levi-Civita)."""
        gval, gd = self.g.jet(point)
        gamma = christoffel(self.g, point)
        nabla = (np.einsum("ijk->kij", gd)
                 - np.einsum("aki,aj->kij", gamma, gval)
                 - np.einsum("akj,ia->kij", gamma, gval))
        return float(np.max(np.abs(nabla)))


def covariant_derivative(t, g: TensorField, point) -> TensorValue:
    """Covariant derivative of a tensor field; the direction slot is appended last.

    For valence (r, s) input the result has valence (r, s+1) with
    data[..., k] = (nabla_k t)[...].
    """
    r, s = t.valence
    gamma = christoffel(g, point)
    val, grad = (t.jet(point) if isinstance(t, TensorField) else field_jet(t, point))
    d = grad.copy()
    for ax in range(r):
        term = np.tensordot(val, gamma, axes=(ax, 2))  # axes: rest..., upper, k
        d += np.moveaxis(term, -2, ax)
    for ax in range(r, r + s):
        term = np.tensordot(val, gamma, axes=(ax, 0))  # axes: rest..., k, lower
        d -= np.moveaxis(term, -1, ax)
    return TensorValue(r, s + 1, d)


# --------------------------------------------------------------------------
# Brackets and Lie derivatives
# --------------------------------------------------------------------------

def lie_bracket(X, Y, point=None) -> TensorValue:
    """[X, Y] of two vector fields at a point (connection-free formula)."""
    Xv, Xd = (X.jet(point) if isinstance(X, TensorField) else field_jet(X, point))
    Yv, Yd = (Y.jet(point) if isinstance(Y, TensorField) else field_jet(Y, point))
    out = np.einsum("a,ia->i", Xv, Yd) - np.einsum("a,ia->i", Yv, Xd)
    return TensorValue(1, 0, out)


def lie_derivative(xi, t, point) -> TensorValue:
    """Lie derivative along xi of a (1,1), (0,1) or (0,2) field at a point."""
    xv, xd = (xi.jet(point) if isinstance(xi, TensorField) else field_jet(xi, point))
    tv, td = (t.jet(point) if isinstance(t, TensorField) else field_jet(t, point))
    valence = tuple(t.valence)
    if valence == (1, 1):
        out = (np.einsum("a,ija->ij", xv, td)
               - np.einsum("aj,ia->ij", tv, xd)
               + np.einsum("ia,aj->ij", tv, xd))
        return TensorValue(1, 1, out)
    if valence == (0, 1):
        out = np.einsum("a,ia->i", xv, td) + np.einsum("a,ai->i", tv, xd)
        return TensorValue(0, 1, out)
    if valence == (0, 2):
        out = (np.einsum("a,ija->ij", xv, td)
               + np.einsum("aj,ai->ij", tv, xd)
               + np.einsum("ia,aj->ij", tv, xd))
        return TensorValue(0, 2, out)
    raise UnsupportedValenceError(f"lie_derivative does not support valence {valence}")


# --------------------------------------------------------------------------
# Exterior derivative
# --------------------------------------------------------------------------

def gradient_field(f, chart: BaseChart) -> DerivedField:
    """df of a scalar expression, as a (0,1) derived field."""

    def comps(env):
        dim = chart.dim
        lifted = _lift_env(env, dim)
        value = f._fn(lifted) if hasattr(f, "_fn") else f(lifted)
        out = np.empty(dim, dtype=object)
        for i in range(dim):
            out[i] = value.d[i] if isinstance(value, dm.Dual) else 0.0
        return out

    return DerivedField((0, 1), chart, comps)


def d_field(omega) -> DerivedField:
    """Exterior derivative of a 1-form or antisymmetric 2-form, as a field."""
    valence = tuple(omega.valence)
    chart = omega.chart
    dim = chart.dim

    if valence == (0, 1):
        def comps(env):
            lifted = _lift_env(env, dim)
            w = omega.at(lifted)
            out = np.empty((dim, dim), dtype=object)
            for i in range(dim):
                for j in range(dim):
                    di_wj = w[j].d[i] if isinstance(w[j], dm.Dual) else 0.0
                    dj_wi = w[i].d[j] if isinstance(w[i], dm.Dual) else 0.0
                    out[i, j] = 0.5 * (di_wj - dj_wi)
            return out
        return DerivedField((0, 2), chart, comps)

    if valence == (0, 2):
        def comps(env):
            lifted = _lift_env(env, dim)
            w = omega.at(lifted)
            scale = 1.0
            for i in range(dim):
                for j in range(dim):
                    sym = dm.real_part(w[i, j]) + dm.real_part(w[j, i])
                    scale = max(scale, abs(dm.real_part(w[i, j])))
                    if abs(sym) > 1e-10 * scale:
                        raise NotAntisymmetricError(
                            f"2-form is not antisymmetric at entry ({i},{j})")

            def partial(k, i, j):
                return w[i, j].d[k] if isinstance(w[i, j], dm.Dual) else 0.0

            out = np.empty((dim, dim, dim), dtype=object)
            for i in range(dim):
                for j in range(dim):
                    for k in range(dim):
                        out[i, j, k] = (partial(i, j, k) + partial(j, k, i)
                                        + partial(k, i, j)) / 3.0
            return out
        return DerivedField((0, 3), chart, comps)

    raise UnsupportedValenceError(f"exterior derivative of valence {valence} is out of scope")


def exterior_derivative(omega, point) -> TensorValue:
    """d(omega) at a point, with the 1/2 (1-form) and 1/3 (2-form) factors."""
    derived = d_field(omega)
    raw = derived.at([float(x) for x in point])
    out = np.empty(raw.shape, dtype=float)
    for idx in np.ndindex(raw.shape):
        out[idx] = dm.real_part(raw[idx])
    r, s = derived.valence
    return TensorValue(r, s, out)


# --------------------------------------------------------------------------
# Nijenhuis torsion
# --------------------------------------------------------------------------

def _apply_field(phi: TensorField, X) -> DerivedField:
    """phi(X) as a vector field (components evaluable over duals)."""
    chart = phi.chart

    def comps(env):
        pm = phi.at(env)
        xv = X.at(env)
        dim = chart.dim
        out = np.empty(dim, dtype=object)
        for i in range(dim):
            acc = pm[i, 0] * xv[0]
            for a in range(1, dim):
                acc = acc + pm[i, a] * xv[a]
            out[i] = acc
        return out

    return DerivedField((1, 0), chart, comps)


def nijenhuis(phi: TensorField, X, Y, point) -> TensorValue:
    """Nijenhuis torsion [phi, phi](X, Y) at a point.

    X and Y may be pointwise vectors (extended to constant fields) or any
    vector-field-like objects; tensoriality makes the result
    extension-independent.
    """
    chart = phi.chart
    Xf = _as_vector_field(X, chart)
    Yf = _as_vector_field(Y, chart)
    phiX = _apply_field(phi, Xf)
    phiY = _apply_field(phi, Yf)
    pval = phi.values(point)

    bXY = lie_bracket(Xf, Yf, point).data
    bpXpY = lie_bracket(phiX, phiY, point).data
    bpXY = lie_bracket(phiX, Yf, point).data
    bXpY = lie_bracket(Xf, phiY, point).data

    out = pval @ (pval @ bXY) + bpXpY - pval @ bpXY - pval @ bXpY
    return TensorValue(1, 0, out)
