"""Summary statistics of one workload run.

Every function here is pure: it takes per-call records or span tuples and
returns numbers, so the unit tests can feed it synthetic data.
"""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond), or None when there are fewer
    than eleven samples.  Sorted ascending, the sample at index n - 11 has
    exactly ten samples after it; it is the 100 * (n - 10) / n percentile.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return None
    ordered = sorted(values)
    index = n - TAIL_MIN_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n - 1 - index


def call_medians(records, key: str = "wall_s") -> list[tuple[int, float]]:
    """(plan points, median time over the passes) of each call of the pass.

    `key` names the time: "wall_s" or "cpu_s".  Each call of a pass is the
    same call on every pass, so its median is robust to a pass the host
    happened to slow down.
    """
    times: dict[int, list[float]] = {}
    points: dict[int, int] = {}
    for r in records:
        times.setdefault(r["call"], []).append(r[key])
        points[r["call"]] = r["points"]
    return [(points[k], median(times[k])) for k in sorted(times)]


def call_p50(records, key: str = "wall_s") -> float:
    """Each call's median time, averaged over the calls of the pass.

    With one call per pass it is the median call time.  Averaging over a
    pass of different calls keeps it from resting on whichever single call
    sits in the middle of their sorted times.
    """
    medians = call_medians(records, key)
    return sum(t for _, t in medians) / len(medians)


def points_per_s(records, key: str = "wall_s") -> float:
    """Plan points of one pass divided by the summed median times of its calls."""
    medians = call_medians(records, key)
    return sum(points for points, _ in medians) / sum(t for _, t in medians)


def fail_ratio(records) -> float:
    return sum(1 for r in records if r["problems"]) / len(records)


def pass_times(records, key: str = "wall_s") -> list[float]:
    """Time of each complete pass (a pass is the workload's call list)."""
    times: dict[int, float] = {}
    for r in records:
        times[r["pass"]] = times.get(r["pass"], 0.0) + r[key]
    return [times[k] for k in sorted(times)]


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanIndex:
    """Spans as (id, parent id or None, name, start, end) tuples.

    A span's parent is the span that caused it, possibly in another thread,
    so children of one parent may overlap in time.
    """

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict = {}
        self.by_name: dict = {}
        for s in self.spans:
            self.children.setdefault(s[1], []).append(s)
            self.by_name.setdefault(s[2], []).append(s)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def has_ancestor(self, span, names) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        """Summed duration of `name` spans not nested in another `name` span."""
        return sum(s[4] - s[3] for s in self.named(name)
                   if not self.has_ancestor(s, {name}))

    def self_time(self, name: str, exclude=None) -> float:
        """Summed duration of `name` spans minus the time their children cover.

        With `exclude`, only descendant spans with one of those names are
        subtracted, found at any depth; otherwise every direct child is.
        """
        total = 0.0
        for s in self.named(name):
            if self.has_ancestor(s, {name}):
                continue
            if exclude is None:
                inner = [(c[3], c[4]) for c in self.children.get(s[0], ())]
            else:
                inner = [(c[3], c[4]) for c in self._descendants(s, exclude)]
            total += (s[4] - s[3]) - covered(s[3], s[4], inner)
        return total

    def _descendants(self, span, names) -> list:
        found, stack = [], list(self.children.get(span[0], ()))
        while stack:
            s = stack.pop()
            if s[2] in names:
                found.append(s)
            else:
                stack.extend(self.children.get(s[0], ()))
        return found
