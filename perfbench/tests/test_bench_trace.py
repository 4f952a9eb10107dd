"""Tracer: resolution by name, patching of importers, absent targets."""

import json
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from pathlib import Path

import pytest

from perfbench import trace
from perfbench.stats import SpanIndex
from perfbench.trace import COUNT, PROPAGATE, REGISTRY, Target, Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture
def fake_package(monkeypatch):
    """`benchfake` with a module `alias` that imported `work` by name."""
    pkg = types.ModuleType("benchfake")

    def work(x):
        return pkg.leaf(x) + 1

    def leaf(x):
        return x * 2

    def pool_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    class Box:
        def method(self):
            return 3

        @cached_property
        def cached(self):
            return pkg.work(1)

    pkg.work, pkg.leaf, pkg.pool_map, pkg.Box = work, leaf, pool_map, Box
    pkg.REGISTRY = (("A", lambda: pkg.leaf(1)), ("B", lambda: 0))
    alias = types.ModuleType("benchfake.alias")
    alias.work = work
    monkeypatch.setitem(sys.modules, "benchfake", pkg)
    monkeypatch.setitem(sys.modules, "benchfake.alias", alias)
    return pkg, alias


def test_wraps_target_in_every_module_that_imported_it(fake_package):
    pkg, alias = fake_package
    tracer = Tracer(package="benchfake")
    tracer.install([Target("work", "benchfake", "work"),
                    Target("leaf", "benchfake", "leaf", COUNT)])
    assert alias.work(1) == 3 and pkg.work(2) == 5
    tracer.uninstall()
    assert alias.work(1) == 3
    index = SpanIndex(tracer.spans)
    assert index.calls("work") == 2
    assert tracer.count("leaf") == 2
    assert alias.work is pkg.work and alias.work.__name__ == "work"


def test_missing_target_is_absent_not_an_error(fake_package):
    tracer = Tracer(package="benchfake")
    tracer.install([Target("gone", "benchfake", "parallel_map"),
                    Target("nomod", "benchfake.nothere", "f"),
                    Target("work", "benchfake", "work")])
    tracer.uninstall()
    assert tracer.resolved == {"work"}


def test_layer_metrics_leave_out_unresolved_targets():
    tracer = Tracer()
    tracer.resolved = {"structure.validate"}
    metrics = trace.layer_metrics(tracer)
    assert "structure.validate_s" in metrics
    assert "runtime.parallel_map_s" not in metrics
    assert "tensor.field_jet_calls" not in metrics


def test_methods_cached_properties_and_registry(fake_package):
    pkg, _ = fake_package
    tracer = Tracer(package="benchfake")
    tracer.install([Target("method", "benchfake", "Box.method"),
                    Target("cached", "benchfake", "Box.cached"),
                    Target("work", "benchfake", "work"),
                    Target("check", "benchfake", "REGISTRY", REGISTRY)])
    box = pkg.Box()
    assert box.method() == 3 and box.cached == 3 and box.cached == 3
    assert [fn() for _, fn in pkg.REGISTRY] == [2, 0]
    tracer.uninstall()
    index = SpanIndex(tracer.spans)
    assert index.calls("method") == 1
    assert index.calls("cached") == 1
    (work,) = index.named("work")
    assert index.by_id[work[1]][2] == "cached"
    assert index.calls("check.A") == 1 and index.calls("check.B") == 1
    assert [cid for cid, _ in pkg.REGISTRY] == ["A", "B"]


def test_pool_work_is_a_child_of_the_propagating_span(fake_package):
    pkg, _ = fake_package
    tracer = Tracer(package="benchfake")
    tracer.install([Target("map", "benchfake", "pool_map", PROPAGATE),
                    Target("work", "benchfake", "work")])
    assert pkg.pool_map(lambda x: pkg.work(x), list(range(8))) == [2 * x + 1 for x in range(8)]
    tracer.uninstall()
    index = SpanIndex(tracer.spans)
    (parent,) = index.named("map")
    assert all(s[1] == parent[0] for s in index.named("work"))
    assert index.self_time("map") <= index.busy("map")


def test_benchmark_json_lists_every_layer_metric():
    tracer = Tracer()
    tracer.resolved = {t.name for t in trace.TARGETS}
    names = list(trace.layer_metrics(tracer, workers=2)) + ["trace.overhead_ratio"]
    listed = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert listed == names
