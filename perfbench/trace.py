"""Per-layer tracing from outside the program.

The tracer wraps public functions of the `wact` modules and records a span
(id, parent, name, start, end) for each call, or only counts the calls for
the hottest scalar entry points.  Targets are resolved by module and
attribute name when tracing starts, and every loaded `wact` module that
imported a target by name gets the wrapper too, so `cli` and `deform` see
the traced `validate`.  A target that no longer exists is skipped, and the
metrics that need it are reported as absent.

Spans are kept in memory and reduced to metrics when the run ends.  The
parent of a span is the innermost open span of its thread; work handed to
`runtime.parallel_map` gets the `parallel_map` span as its parent, so
self-time subtraction sees it even though it runs on pool threads.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property, wraps

from .stats import SpanIndex

SPAN, COUNT, BYTES, PROPAGATE, REGISTRY = "span", "count", "bytes", "propagate", "registry"


@dataclass(frozen=True)
class Target:
    name: str      # span or counter name
    module: str
    attr: str      # dotted attribute path inside the module
    kind: str = SPAN


TARGETS = (
    Target("cli.main", "wact.cli", "main"),
    Target("fileio.load", "wact.fileio", "load_structure"),
    Target("fileio.load", "wact.fileio", "load_plane"),
    Target("fileio.save", "wact.fileio", "save_structure"),
    Target("fileio.dump", "wact.fileio", "dump_json", BYTES),
    Target("chart.sample", "wact.chart", "sample"),
    Target("chart.vectors", "wact.chart", "sample_vectors"),
    Target("expr.jet1", "wact.expr", "ScalarExpr.jet1", COUNT),
    Target("expr.jet2", "wact.expr", "ScalarExpr.jet2", COUNT),
    Target("tensor.field_jet", "wact.tensor", "TensorField.jet"),
    Target("tensor.field_jet", "wact.tensor", "TensorField.jet2"),
    Target("structure.jet_build", "wact.structure", "StructureJet.__init__"),
    Target("structure.validate", "wact.structure", "validate"),
    Target("classify.session_jets", "wact.classify", "Session.jets"),
    Target("classify.sup_pointwise", "wact.classify", "Session.sup_pointwise"),
    Target("classify.sup_contracted", "wact.classify", "Session.sup_contracted"),
    Target("classify.flags", "wact.classify", "Session.flag_residuals"),
    Target("classify.flags", "wact.classify", "Session.q_scalar_on_D"),
    Target("classify.classify", "wact.classify", "classify"),
    Target("classify.check", "wact.classify", "REGISTRY", REGISTRY),
    Target("numpy.einsum", "numpy", "einsum", COUNT),
    Target("runtime.parallel_map", "wact.runtime", "parallel_map", PROPAGATE),
    Target("deform.deform", "wact.deform", "deform"),
    Target("deform.extract", "wact.deform", "extract_sasakian"),
    Target("deform.product", "wact.deform", "product_construction"),
    Target("deform.cvf", "wact.deform", "contact_vector_field"),
    Target("calculus.covariant_derivative", "wact.calculus", "covariant_derivative"),
)

CHECK_IDS = ("T1", "P1", "T2", "L1", "L2", "P2", "S1", "S2", "C1", "C2", "C3", "C4")
DEFORM_SPANS = ("deform.deform", "deform.extract", "deform.product", "deform.cvf")
# Lazily built, shared Session caches (jets, flags, test vectors): a check
# span excludes their build, which falls to whichever check needs them first.
SHARED_BUILDS = ("classify.session_jets", "classify.flags", "chart.vectors")


class Tracer:
    """Installs wrappers on `install`, records into memory, restores on `uninstall`.

    `package` names the top-level package whose modules are searched for
    names imported from a target's module.
    """

    def __init__(self, package: str = "wact"):
        self.package = package
        self.spans: list = []
        self.resolved: set = set()
        self._counters: list = []   # one dict per thread, summed by count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent_id, name, start, end))
        return traced

    def _counter(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._counters.append(counts)
        return counts

    def count(self, name: str) -> int:
        with self._lock:
            return sum(c.get(name, 0) for c in self._counters)

    def _count(self, name: str, fn):
        counter = self._counter

        @wraps(fn)
        def counted(*args, **kwargs):
            counts = counter()
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _bytes(self, name: str, fn):
        """Sums the length of the text a serializer returns."""
        counter = self._counter

        @wraps(fn)
        def measured(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts = counter()
            counts[name] = counts.get(name, 0) + len(text.encode())
            return text
        return measured

    def _propagating(self, name: str, fn):
        """Span whose callable argument runs as its child on any thread."""
        tracer = self

        @wraps(fn)
        def traced(func, *args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)

            def child(*a, **k):
                inner = tracer._stack()
                inner.append(span_id)
                try:
                    return func(*a, **k)
                finally:
                    inner.pop()

            start = time.perf_counter()
            try:
                return fn(child if callable(func) else func, *args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent_id, name, start, end))
        return traced

    # -- patching -----------------------------------------------------------------

    def install(self, targets=TARGETS):
        for target in targets:
            if self._patch(target):
                self.resolved.add(target.name)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, target: Target, fn):
        if target.kind == COUNT:
            return self._count(target.name, fn)
        if target.kind == BYTES:
            return self._bytes(target.name, fn)
        if target.kind == PROPAGATE:
            return self._propagating(target.name, fn)
        return self._span(target.name, fn)

    def _patch(self, target: Target) -> bool:
        try:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return False
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if target.kind == REGISTRY:
            return self._patch_registry(target, owner, attr, raw)
        if isinstance(raw, cached_property):
            self._set(raw, "func", self._wrap(target, raw.func))
            return True
        if not callable(raw):
            return False
        wrapped = self._wrap(target, raw)
        self._set(owner, attr, wrapped)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", None) or ""
                if module is owner or name.split(".")[0] != self.package:
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapped)
        return True

    def _patch_registry(self, target: Target, owner, attr: str, raw) -> bool:
        """Wrap each (check id, function) entry of a registry tuple."""
        try:
            entries = [(str(cid), fn) for cid, fn in raw]
        except (TypeError, ValueError):
            return False
        if not all(callable(fn) for _, fn in entries):
            return False
        self._set(owner, attr, type(raw)(
            (cid, self._span(f"{target.name}.{cid}", fn)) for cid, fn in entries))
        return True


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, workers=None) -> dict:
    """Reduce recorded spans and counts to {metric: (value, unit)}.

    A metric whose target was not resolved is left out.
    """
    index = SpanIndex(tracer.spans)
    have = tracer.resolved
    out: dict = {}

    def put(name, value, unit, needs):
        if all(n in have for n in needs):
            out[name] = (value, unit)

    def span_metrics(prefix, span, calls=True):
        put(f"{prefix}_s", index.busy(span), "s", [span])
        if calls:
            put(f"{prefix}_calls", index.calls(span), "count", [span])

    span_metrics("tensor.field_jet", "tensor.field_jet")
    put("expr.jet1_evals", tracer.count("expr.jet1"), "count", ["expr.jet1"])
    put("expr.jet2_evals", tracer.count("expr.jet2"), "count", ["expr.jet2"])
    put("structure.jets_built", index.calls("structure.jet_build"), "count",
        ["structure.jet_build"])
    put("structure.jet_build_s", index.busy("structure.jet_build"), "s",
        ["structure.jet_build"])
    span_metrics("structure.validate", "structure.validate")
    put("structure.validate_self_s", index.self_time("structure.validate"), "s",
        ["structure.validate"])

    span_metrics("classify.sup_pointwise", "classify.sup_pointwise")
    span_metrics("classify.sup_contracted", "classify.sup_contracted")
    put("classify.flags_s", index.busy("classify.flags"), "s", ["classify.flags"])
    put("classify.classify_s", index.busy("classify.classify"), "s",
        ["classify.classify"])
    put("classify.session_jets_s", index.busy("classify.session_jets"), "s",
        ["classify.session_jets"])
    for cid in CHECK_IDS:
        span = f"classify.check.{cid}"
        put(f"{span}_s", index.self_time(span, exclude=SHARED_BUILDS), "s",
            ["classify.check"])
    put("numpy.einsum_calls", tracer.count("numpy.einsum"), "count",
        ["numpy.einsum"])

    span_metrics("runtime.parallel_map", "runtime.parallel_map")
    if workers is not None:
        out["runtime.workers"] = (workers, "count")

    put("chart.sample_s", index.busy("chart.sample"), "s", ["chart.sample"])
    put("chart.vectors_s", index.busy("chart.vectors"), "s", ["chart.vectors"])
    put("chart.vector_draws", index.calls("chart.vectors"), "count", ["chart.vectors"])

    put("deform.deform_s", index.busy("deform.deform"), "s", ["deform.deform"])
    put("deform.extract_s", index.busy("deform.extract"), "s", ["deform.extract"])
    put("deform.product_s", index.busy("deform.product"), "s", ["deform.product"])
    put("deform.cvf_s", index.busy("deform.cvf"), "s", ["deform.cvf"])
    put("deform.revalidate_calls",
        sum(1 for s in index.named("structure.validate")
            if index.has_ancestor(s, DEFORM_SPANS)),
        "count", ["structure.validate", *DEFORM_SPANS])
    span_metrics("calculus.covariant_derivative", "calculus.covariant_derivative")

    put("fileio.load_s", index.busy("fileio.load"), "s", ["fileio.load"])
    put("fileio.save_s", index.busy("fileio.save"), "s", ["fileio.save"])
    put("fileio.bytes_written", tracer.count("fileio.dump"), "B",
        ["fileio.dump"])
    put("cli.main_s", index.busy("cli.main"), "s", ["cli.main"])
    return out
