"""Every target of the benchmark's per-layer tracer resolves in the program.

`perfbench.trace.layer_metrics` leaves out the metrics of a target that no
longer exists, so renaming or deleting a traced function, method, cached
property or registry silently drops per-layer metrics that BENCHMARK.json
names.  This test turns that loss into a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])  # perfbench/ lives at the repository root
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import TARGETS, Tracer  # noqa: E402


def test_every_traced_target_resolves():
    missing = []
    for target in TARGETS:
        tracer = Tracer()
        try:
            tracer.install([target])
        finally:
            tracer.uninstall()
        if target.name not in tracer.resolved:
            missing.append(f"{target.name} ({target.module}.{target.attr})")
    assert not missing, f"unresolved trace targets: {missing}"

