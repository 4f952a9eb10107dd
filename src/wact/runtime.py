"""Worker-pool helper for the independent blocks of sample points.

Each item is a whole block of at most `structure.BLOCK_POINTS` points, and
fewer than 32 items run serially, so plans below 32 blocks never start a
thread.  The WACT_THREADS environment variable caps the worker count
(default: hardware parallelism).  Results are always returned in input order
and every reduction used on them is order-insensitive, so the outcome is
identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_ENV_VAR = "WACT_THREADS"
_MIN_PARALLEL_ITEMS = 32


def worker_count() -> int:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
        return max(1, n)
    return max(1, os.cpu_count() or 1)


def parallel_map(fn, items: list) -> list:
    """Apply `fn` to each item, preserving order."""
    workers = worker_count()
    if workers == 1 or len(items) < _MIN_PARALLEL_ITEMS:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
