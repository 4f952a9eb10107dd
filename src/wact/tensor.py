"""Dense small-dimension tensor values and expression-valued tensor fields.

Storage is dense row-major with all contravariant slots first; with chart
dimensions of 3 or 5 there is nothing to gain from sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import BaseChart
from .errors import DomainError, SingularMetricError, SlotMismatchError
from .expr import ScalarExpr, parse

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class TensorValue:
    """Pointwise tensor of valence (r, s): r contravariant slots, then s covariant."""

    r: int
    s: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != self.r + self.s:
            raise ValueError(
                f"valence ({self.r},{self.s}) needs {self.r + self.s} axes, "
                f"got shape {arr.shape}")
        if arr.ndim > 0 and len(set(arr.shape)) > 1:
            raise ValueError(f"all axes must share the chart dimension, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor value contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0] if self.data.ndim else 0

    @property
    def nslots(self) -> int:
        return self.r + self.s

    def scalar(self) -> float:
        if self.nslots != 0:
            raise ValueError("not a scalar tensor")
        return float(self.data)

    def is_contravariant(self, slot: int) -> bool:
        if not 0 <= slot < self.nslots:
            raise SlotMismatchError(f"slot {slot} out of range for valence ({self.r},{self.s})")
        return slot < self.r


def contract(a: TensorValue, slot_a: int, b: TensorValue, slot_b: int) -> TensorValue:
    """Single contraction pairing a contravariant slot with a covariant one.

    Remaining slots keep their order within each factor; the result is stored
    canonically (a's then b's contravariant slots, then a's then b's covariant
    slots).
    """
    a_up = a.is_contravariant(slot_a)
    b_up = b.is_contravariant(slot_b)
    if a_up == b_up:
        kind = "contravariant" if a_up else "covariant"
        raise SlotMismatchError(f"cannot contract two {kind} slots")
    raw = np.tensordot(a.data, b.data, axes=(slot_a, slot_b))
    # tensordot output axes: a's remaining slots in order, then b's.
    tags = []
    for k in range(a.nslots):
        if k != slot_a:
            tags.append(k < a.r)
    for k in range(b.nslots):
        if k != slot_b:
            tags.append(k < b.r)
    perm = [i for i, up in enumerate(tags) if up] + [i for i, up in enumerate(tags) if not up]
    data = np.transpose(raw, perm) if perm else raw
    new_r = a.r + b.r - 1
    new_s = a.s + b.s - 1
    return TensorValue(new_r, new_s, data)


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    sym = 0.5 * (g + g.T)
    if np.max(np.abs(g - g.T)) > 1e-9 * (1.0 + np.max(np.abs(g))):
        raise SingularMetricError("metric value is not symmetric")
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as err:
        raise SingularMetricError("metric value is not positive definite") from err
    return np.linalg.inv(sym)


def music(g_at_p: TensorValue, t: TensorValue, slot: int, direction: str) -> TensorValue:
    """Raise or lower one slot of `t` with the metric value `g_at_p`.

    A raised slot joins the end of the contravariant group; a lowered slot
    joins the end of the covariant group.
    """
    if (g_at_p.r, g_at_p.s) != (0, 2):
        raise SlotMismatchError("metric argument must have valence (0, 2)")
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    up = t.is_contravariant(slot)
    if direction == "raise":
        if up:
            raise SlotMismatchError("slot is already contravariant")
        g_inv = _metric_inverse(g_at_p.data)
        raw = np.tensordot(t.data, g_inv, axes=(slot, 0))
        data = np.moveaxis(raw, -1, t.r)
        return TensorValue(t.r + 1, t.s - 1, data)
    if not up:
        raise SlotMismatchError("slot is already covariant")
    _metric_inverse(g_at_p.data)  # SPD sanity check
    raw = np.tensordot(t.data, g_at_p.data, axes=(slot, 0))
    return TensorValue(t.r - 1, t.s + 1, raw)


def project_D(v: TensorValue, xi_at_p: TensorValue, eta_at_p: TensorValue) -> TensorValue:
    """Projection X - eta(X) xi of a vector onto the contact distribution."""
    if (v.r, v.s) != (1, 0) or (xi_at_p.r, xi_at_p.s) != (1, 0) or (eta_at_p.r, eta_at_p.s) != (0, 1):
        raise SlotMismatchError("project_D expects vector, vector, covector")
    scale = float(eta_at_p.data @ v.data)
    return TensorValue(1, 0, v.data - scale * xi_at_p.data)


@dataclass(frozen=True)
class TensorField:
    """Tensor field whose components are scalar expressions on a chart."""

    valence: tuple
    comps: np.ndarray
    chart: BaseChart

    def __post_init__(self):
        r, s = self.valence
        arr = np.asarray(self.comps, dtype=object)
        expected = (self.chart.dim,) * (r + s)
        if arr.shape != expected:
            raise ValueError(f"component array has shape {arr.shape}, expected {expected}")
        object.__setattr__(self, "valence", (int(r), int(s)))
        object.__setattr__(self, "comps", arr)

    @classmethod
    def from_sources(cls, valence, sources, chart: BaseChart) -> "TensorField":
        """Parse a nested list of expression strings into a field."""
        src = np.asarray(sources, dtype=object)
        flat = np.empty(src.shape, dtype=object)
        for idx in np.ndindex(src.shape):
            entry = src[idx]
            if isinstance(entry, ScalarExpr):
                flat[idx] = entry
            else:
                flat[idx] = parse(str(entry), chart.coords)
        return cls(tuple(valence), flat, chart)

    @classmethod
    def constant(cls, valence, values, chart: BaseChart) -> "TensorField":
        """Field with constant numeric components."""
        vals = np.asarray(values, dtype=float)
        flat = np.empty(vals.shape, dtype=object)
        for idx in np.ndindex(vals.shape):
            flat[idx] = parse(_float_source(vals[idx]), chart.coords)
        return cls(tuple(valence), flat, chart)

    @classmethod
    def identity(cls, chart: BaseChart) -> "TensorField":
        return cls.constant((1, 1), np.eye(chart.dim), chart)

    # -- evaluation ---------------------------------------------------------

    def at(self, env) -> np.ndarray:
        """Componentwise evaluation over an environment of floats or duals."""
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = self.comps[idx]._fn(env)
        return out

    def values(self, point) -> np.ndarray:
        """Float components at a point."""
        out = np.empty(self.comps.shape, dtype=float)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = self.comps[idx].evaluate(point)
        return out

    def jet(self, points, name: str = "field"):
        """(values, gradients) at one point or a (P, dim) block of points.

        Block results carry the point axis first; the derivative axis is
        appended last.  A DomainError names the field, the component and the
        first offending point.
        """
        pts = np.asarray(points, dtype=float)
        lead = pts.shape[:-1]
        val = np.empty(lead + self.comps.shape)
        grad = np.empty(lead + self.comps.shape + (self.chart.dim,))
        for idx in np.ndindex(self.comps.shape):
            try:
                v, d = self.comps[idx].jet1(pts)
            except DomainError as err:
                raise _located(err, name, idx, pts) from None
            val[(...,) + idx] = v
            grad[(...,) + idx + (slice(None),)] = d
        return val, grad

    def jet2(self, points, name: str = "field"):
        """(values, gradients, hessians); hessian axes appended last."""
        pts = np.asarray(points, dtype=float)
        lead = pts.shape[:-1]
        dim = self.chart.dim
        val = np.empty(lead + self.comps.shape)
        grad = np.empty(lead + self.comps.shape + (dim,))
        hess = np.empty(lead + self.comps.shape + (dim, dim))
        for idx in np.ndindex(self.comps.shape):
            try:
                v, d, h = self.comps[idx].jet2(pts)
            except DomainError as err:
                raise _located(err, name, idx, pts) from None
            val[(...,) + idx] = v
            grad[(...,) + idx + (slice(None),)] = d
            hess[(...,) + idx + (slice(None), slice(None))] = h
        return val, grad, hess

    def evaluate(self, point) -> TensorValue:
        return TensorValue(self.valence[0], self.valence[1], self.values(point))

    def sources(self):
        """Nested lists of canonical component sources (for serialization)."""
        def walk(arr):
            if isinstance(arr, ScalarExpr):
                return arr.to_source()
            return [walk(arr[i]) for i in range(arr.shape[0])]
        return walk(self.comps)


def _located(err: DomainError, name: str, idx: tuple, pts: np.ndarray) -> DomainError:
    """The error of one component, naming the field, the component and the point."""
    point = pts[err.index or 0] if pts.ndim == 2 else pts
    where = name + "".join(f"[{i}]" for i in idx)
    coords = ", ".join(repr(float(v)) for v in point)
    return DomainError(f"{where}: {err.message} at sample point ({coords})", err.index)


def _float_source(v: float) -> str:
    if v == int(v) and abs(v) <= 1e15:
        return str(int(v))
    return repr(float(v))

