"""Dense small-dimension tensor values and expression-valued tensor fields.

Storage is dense row-major with all contravariant slots first; with chart
dimensions of 3 or 5 there is nothing to gain from sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import BaseChart
from .errors import DomainError
from .expr import ScalarExpr, as_points, expr_array, make_num, parse


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
        nodes = np.frompyfunc(make_num, 1, 1)(np.asarray(values, dtype=float))
        return cls(tuple(valence), expr_array(nodes, chart.coords), chart)

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
        first offending point.  Each distinct component object is evaluated
        once, and one without a coordinate as a float with zero derivatives.
        """
        return self._jets(points, name, 1)

    def jet2(self, points, name: str = "field"):
        """(values, gradients, hessians); hessian axes appended last."""
        return self._jets(points, name, 2)

    def _jets(self, points, name: str, order: int):
        pts = as_points(points, self.chart.dim)
        shape = pts.shape[:-1] + self.comps.shape
        dim = self.chart.dim
        outs = [np.empty(shape)] + [np.zeros(shape + (dim,) * k) for k in range(1, order + 1)]
        done = {}
        for idx in np.ndindex(self.comps.shape):
            comp = self.comps[idx]
            parts = done.get(id(comp))
            if parts is None:
                try:
                    if comp.passive:
                        parts = (comp.passive_value(pts.ndim == 2, order),)
                    else:
                        parts = comp.jet1(pts) if order == 1 else comp.jet2(pts)
                except DomainError as err:
                    raise _located(err, name, idx, pts) from None
                done[id(comp)] = parts
            for k, part in enumerate(parts):
                outs[k][(...,) + idx + (slice(None),) * k] = part
        return tuple(outs)

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
