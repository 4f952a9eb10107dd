"""Map over the blocks of sample points.

`Session.read`'s one pass maps each block index to the block's reductions:
the block jet is built, every named reduction is evaluated on it, and the jet
is dropped before the next block.  The blocks run one after another in input
order, so at most one block's arrays are held at a time.  `worker_count` is
always 1.  Both names stay because the benchmark's per-layer tracer wraps
`parallel_map` and reports `worker_count`.
"""

from __future__ import annotations


def worker_count() -> int:
    return 1


def parallel_map(fn, items: list) -> list:
    """Apply `fn` to each item, preserving order."""
    return [fn(item) for item in items]
