"""Coordinate charts and reproducible interior sampling.

Sampling uses a splitmix64-style counter stream: every drawn number is a pure
function of (seed, stream id, counter), so point generation is
order-independent and parallelizable, and identical across platforms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .expr import RESERVED_NAMES

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    """splitmix64 finalizer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays; the wraparound is native."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class CounterStream:
    """Deterministic uniform stream indexed by a counter."""

    def __init__(self, seed: int, stream: int = 0):
        self.base = _mix((seed & _MASK) ^ _mix((stream + 1) * _GOLDEN))

    def u01(self, counter: int) -> float:
        """Uniform draw in [0, 1) for the given counter."""
        return _mix(self.base + (counter + 1) * _GOLDEN) / 2.0 ** 64

    def symmetric(self, counter: int) -> float:
        """Uniform draw in [-1, 1)."""
        return 2.0 * self.u01(counter) - 1.0

    def u01_array(self, counters: np.ndarray) -> np.ndarray:
        """`u01` of every counter in an array, bit for bit."""
        steps = counters.astype(np.uint64) + np.uint64(1)
        return _mix_u64(np.uint64(self.base) + steps * np.uint64(_GOLDEN)) / 2.0 ** 64


@dataclass(frozen=True)
class BaseChart:
    """Rectangular coordinate chart of any dimension >= 1."""

    coords: tuple
    lows: tuple
    highs: tuple

    def __post_init__(self):
        names = tuple(self.coords)
        object.__setattr__(self, "coords", names)
        object.__setattr__(self, "lows", tuple(float(v) for v in self.lows))
        object.__setattr__(self, "highs", tuple(float(v) for v in self.highs))
        if len(names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise ValueError(f"coordinate names are not distinct: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"coordinate name {name!r} is reserved")
        if not (len(self.lows) == len(self.highs) == len(names)):
            raise ValueError("domain does not match the coordinate list")
        for name, lo, hi in zip(names, self.lows, self.highs):
            if not lo < hi:
                raise ValueError(f"empty domain [{lo}, {hi}] for coordinate {name!r}")
            if not math.isfinite(hi - lo):  # an infinite bound or width samples NaN
                raise ValueError(f"domain [{lo}, {hi}] of coordinate {name!r} "
                                 "needs finite bounds and a finite width")

    @classmethod
    def make(cls, coords, domain):
        """Build from coordinate names and a {name: (lo, hi)} map or pair list."""
        coords = list(coords)
        if isinstance(domain, dict):
            missing = [c for c in coords if c not in domain]
            if missing:
                raise ValueError(f"domain missing coordinates {missing}")
            pairs = [domain[c] for c in coords]
        else:
            pairs = list(domain)
        lows = [p[0] for p in pairs]
        highs = [p[1] for p in pairs]
        return cls(tuple(coords), tuple(lows), tuple(highs))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def domain(self) -> tuple:
        return tuple(zip(self.lows, self.highs))


@dataclass(frozen=True)
class Chart(BaseChart):
    """Chart of odd dimension 2n+1 >= 3, the carrier of a structure."""

    def __post_init__(self):
        super().__post_init__()
        if self.dim < 3 or self.dim % 2 == 0:
            raise ValueError(f"structure chart dimension must be odd and >= 3, got {self.dim}")

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2


@dataclass(frozen=True)
class SamplePlan:
    """How many interior points to draw, from which seed, at which margin."""

    count: int = 100
    seed: int = 42
    margin: float = 0.05

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sample count must be positive, got {self.count}")
        if not 0.0 <= self.margin < 0.5:
            raise ValueError(f"margin must lie in [0, 0.5), got {self.margin}")


DEFAULT_PLAN = SamplePlan()

_POINT_STREAM = 0
_VECTOR_STREAM = 1


def sample(chart: BaseChart, plan: SamplePlan = DEFAULT_PLAN) -> np.ndarray:
    """Deterministic interior sample points, shape (count, dim).

    Each coordinate is uniform on the domain shrunk toward its center by the
    fraction `margin` per side.
    """
    stream = CounterStream(plan.seed, _POINT_STREAM)
    lows = np.array(chart.lows)
    highs = np.array(chart.highs)
    width = highs - lows
    lo_m = lows + plan.margin * width
    hi_m = highs - plan.margin * width
    counters = np.arange(plan.count * chart.dim).reshape(plan.count, chart.dim)
    return lo_m + stream.u01_array(counters) * (hi_m - lo_m)


def sample_vectors(plan: SamplePlan, point_index, count: int, slots: int,
                   dim: int) -> np.ndarray:
    """Deterministic test vectors with components in [-1, 1].

    Returns shape (count, slots, dim) for one point index, with the shape of
    an index array prepended for many; the draw is a pure function of
    (plan.seed, point_index, count, slots, position).
    """
    stream = CounterStream(plan.seed, _VECTOR_STREAM)
    index = np.asarray(point_index, dtype=np.uint64)
    per_point = count * slots * dim
    counters = index[..., None] * np.uint64(per_point) + np.arange(per_point, dtype=np.uint64)
    draws = 2.0 * stream.u01_array(counters) - 1.0
    return draws.reshape(index.shape + (count, slots, dim))
