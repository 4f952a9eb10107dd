"""Map over the blocks of sample points.

Each item is a whole block of at most `structure.BLOCK_POINTS` points, and
the blocks run one after another in input order.  `worker_count` is always 1.
Both names stay because the benchmark's per-layer tracer wraps `parallel_map`
and reports `worker_count`.
"""

from __future__ import annotations


def worker_count() -> int:
    return 1


def parallel_map(fn, items: list) -> list:
    """Apply `fn` to each item, preserving order."""
    return [fn(item) for item in items]
