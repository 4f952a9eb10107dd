"""Workload process: runs one workload in a closed loop through `wact.cli.main`.

Started by `run.py` in a fresh interpreter, so imports and memory belong to
this workload alone.  Prints one JSON object with a record per call, the
peak resident set size and, in a traced run, the per-layer metrics.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --src CHECKOUT/src
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from . import expected, stats, workloads
from .trace import Tracer, layer_metrics


def _read(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        return None


class Loop:
    """Runs passes of calls and checks every call's outcome."""

    def __init__(self, main, calls):
        self.main = main
        self.calls = calls
        self.records: list = []
        self.digests: dict = {}   # call index -> sha256 of its first report
        self.passes = 0

    def run_pass(self, phase: str):
        for index, call in enumerate(self.calls):
            for path in (call.report, call.output):
                if path:
                    Path(path).unlink(missing_ok=True)
            sink = io.StringIO()
            code, problems = None, []
            # Start from a collected heap, as a fresh `wact` process would, so
            # the garbage of one call is not in the next call's time or memory.
            gc.collect()
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.main(list(call.argv))
            except Exception as err:  # a raising call is a failed call
                problems.append(f"raised {type(err).__name__}: {err}")
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if code is not None:
                problems += self.check(index, call, code)
            self.records.append({
                "phase": phase, "pass": self.passes, "call": index,
                "command": call.command, "subject": call.subject,
                "points": call.points, "wall_s": wall, "cpu_s": cpu,
                "problems": problems,
            })
        self.passes += 1

    def check(self, index: int, call, code: int) -> list[str]:
        report, output = _read(call.report), _read(call.output)
        try:
            seen = expected.observe(code, report, output)
        except (ValueError, KeyError, TypeError) as err:
            return [f"unreadable output: {err}"]
        if call.output and output is None:
            seen["wrote"] = False
        problems = expected.compare(expected.expected(call.command, call.subject), seen)
        if call.report:
            if report is None:
                problems.append("no --json report written")
            else:
                digest = hashlib.sha256(report.encode()).hexdigest()
                first = self.digests.setdefault(index, digest)
                if digest != first:
                    problems.append("report differs from the same call's first report")
        return problems

    def run_for(self, seconds: float, phase: str):
        """Whole passes while the next one is due to end within `seconds`.

        At least one pass runs; the next pass is assumed to take as long as
        the longest so far, so a run overshoots its time by little.
        """
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            self.run_pass(phase)
            now = time.perf_counter()
            longest = max(longest, now - began)
            if now + longest > start + seconds:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True, help="directory holding the wact package")
    args = parser.parse_args(argv)

    import numpy
    import wact
    from wact import cli
    src = Path(args.src).resolve()
    if Path(wact.__file__).resolve().parent != src / "wact":
        print(f"error: imported wact from {wact.__file__}, not from {src}", file=sys.stderr)
        return 1

    calls = workloads.build(args.workload, args.seed, src / "wact" / "data", Path(args.work))
    # Look `main` up on every call, so the traced phase calls the wrapper.
    loop = Loop(lambda a: cli.main(a), calls)
    out = {"numpy": numpy.__version__}
    if args.trace:
        loop.run_for(args.seconds / 2, "plain")
        tracer = Tracer()
        tracer.install()
        try:
            loop.run_for(args.seconds / 2, "traced")
        finally:
            tracer.uninstall()
        try:
            from wact import runtime
            workers = runtime.worker_count()
        except (ImportError, AttributeError):
            workers = None
        plain = [r for r in loop.records if r["phase"] == "plain"]
        traced = [r for r in loop.records if r["phase"] == "traced"]
        layers = layer_metrics(tracer, workers)
        layers["trace.overhead_ratio"] = (
            stats.median(stats.pass_times(traced, "cpu_s"))
            / stats.median(stats.pass_times(plain, "cpu_s")),
            "ratio")
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        loop.run_for(args.seconds, "plain")
    out["records"] = loop.records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
