"""Benchmark of the `wact` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/wact`.  The workload runs
in a fresh interpreter (`perfbench/worker.py`), one client in a closed loop
through `wact.cli.main`, with `WACT_THREADS` removed so the program's
default thread pool is measured.  Every call's exit code and verdicts are
checked against `perfbench/expected.py`.

With `--trace 0` the end-to-end metrics are measured, in CPU time because
wall time on a shared VM swings with the host (see README.md); `setup_s` is
the median CPU time of a fresh interpreter importing `wact.cli`.  With `--trace 1`
half the time runs untraced and half traced, and the per-layer metrics come
from the traced half.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import stats, workloads  # noqa: E402

SETUP_SAMPLES = 11
DEADLINE_S = 170.0   # the whole run, imports and workload included
SHOWN_PROBLEMS = 10


def child_env(*paths: Path) -> dict:
    env = dict(os.environ)
    env.pop("WACT_THREADS", None)
    # Let imports cache bytecode in the checkout, as an installed package has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(env: dict) -> tuple[list[float], list[float]]:
    """CPU and wall times of fresh interpreters importing `wact.cli`.

    One warm-up import, which writes the bytecode cache, is left out.
    """
    cmd = [sys.executable, "-c", "import wact.cli"]
    cpu, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        cpu_start, start = children_cpu(), time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        wall.append(time.perf_counter() - start)
        cpu.append(children_cpu() - cpu_start)
    return cpu[1:], wall[1:]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "WACT_THREADS": "unset",
    }


def run_worker(args, src: Path, deadline: float) -> dict:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--src", str(src)]
    try:
        proc = subprocess.run(cmd, env=child_env(src, ROOT), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(records, setup_cpu, rss_mb) -> dict:
    """The gated metrics, all but memory in CPU time (see README.md)."""
    return {
        "setup_s": (stats.median(setup_cpu), "s"),
        "call_cpu_s": (stats.call_p50(records, "cpu_s"), "s"),
        "points_per_cpu_s": (stats.points_per_s(records, "cpu_s"), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def report_lines(records, setup, metrics) -> list[str]:
    """The gated metrics, then the wall-clock figures, each with how it was taken."""
    setup_cpu, setup_wall = setup
    walls = [r["wall_s"] for r in records]
    passes = len({r["pass"] for r in records})
    calls = len(walls) // passes
    per_call = f"each call's median over {passes} passes, averaged over {calls} calls a pass"
    notes = {
        "setup_s": f"CPU, median of {len(setup_cpu)} fresh imports of wact.cli",
        "call_cpu_s": per_call,
        "points_per_cpu_s": f"{sum(r['points'] for r in records) // passes} plan points a pass",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    rows = [(name, value, unit, notes[name]) for name, (value, unit) in metrics.items()]
    rows += [
        ("setup_wall_s", stats.median(setup_wall), "s", "wall, not gated"),
        ("call_p50_s", stats.call_p50(records), "s", f"wall, not gated; {per_call}"),
        ("points_per_s", stats.points_per_s(records), "1/s", "wall, not gated"),
    ]
    lines = [f"{name:<16} {value:.6g} {unit:<5} {note}" for name, value, unit, note in rows]
    t = stats.tail(walls)
    if t is None:
        lines.append(f"{'call_tail_s':<16} omitted: {len(walls)} calls, fewer than 11")
    else:
        value, pct, beyond = t
        lines.append(f"{'call_tail_s':<16} {value:.6g} s     wall, not gated; p{pct:.1f}, "
                     f"{beyond} of {len(walls)} calls beyond")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Exit by exception on SIGTERM, so `subprocess.run` kills and waits for
    # the child it is running and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "wact" / "cli.py").is_file():
        print(f"error: {src / 'wact'} is missing; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    try:
        setup = ([], []) if args.trace else setup_times(child_env(src))
        result = run_worker(args, src, deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    records = result["records"]
    failed = [r for r in records if r["problems"]]
    print(f"workload {args.workload} seed {args.seed}: {workloads.WORKLOADS[args.workload]}")
    print("env " + json.dumps(environment(result["numpy"])))
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
        for name, (value, unit) in metrics.items():
            print(f"{name:<34} {value:.6g} {unit}")
    else:
        metrics = end_to_end(records, setup[0], result["peak_rss_mb"])
        for line in report_lines(records, setup, metrics):
            print(line)
    print(f"{'fail_ratio':<16} {stats.fail_ratio(records):.4f}       "
          f"{len(failed)} of {len(records)} calls failed")
    for r in failed[:SHOWN_PROBLEMS]:
        print(f"FAILED pass {r['pass']} call {r['call']} {r['command']} "
              f"{r['subject']}: {'; '.join(r['problems'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
