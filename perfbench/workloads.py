"""The workloads: generated inputs and the list of CLI calls of one pass.

Every workload is one client in a closed loop: it repeats its pass, and each
call starts when the previous one has returned.  All inputs are written into
a work directory from the workload seed: the bundled structures are copied
there, the product construction's plane file is generated there, and the
deformation chain writes its intermediate files there.  Each call gets its
own `--seed`, drawn from the workload seed, and keeps it on every pass, so
repeated passes are identical calls whose reports must be byte-identical.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

VERIFY_POINTS = 1000
DEFAULT_POINTS = 100  # the CLI's default plan

WORKLOADS = {
    "verify-r5": "verify sasakian_r5 at 1000 points: field jets and StructureJet "
                 "assembly of the longest expressions",
    "verify-flat3": "verify product_cosymplectic at 1000 points: constant jets, so "
                    "reducers, per-point einsum and the pool dominate",
    "cli-default": "19 calls at the default 100 points: check, classify, the "
                   "deform chain, product and cvf; fixed per-call costs",
}


@dataclass(frozen=True)
class Call:
    command: str
    subject: str            # input name, the key of the expected outcome
    argv: tuple             # arguments to wact.cli.main
    points: int             # sample plan size
    report: str | None      # --json path
    output: str | None      # -o path


def _call(command, subject, args, points, seed, work: Path, index: int,
          report=True, output=None) -> Call:
    report_path = str(work / f"report-{index:02d}.json") if report else None
    argv = [command, *args, "--points", str(points), "--seed", str(seed)]
    if report_path:
        argv += ["--json", report_path]
    if output:
        argv += ["-o", output]
    return Call(command, subject, tuple(argv), points, report_path, output)


def _plane(rng: random.Random) -> dict:
    """A plane with the speed-2 rotation and flat metric on a seeded box."""
    half = [round(rng.uniform(0.5, 2.0), 3) for _ in range(2)]
    return {
        "coordinates": ["u", "v"],
        "domain": {"u": [-half[0], half[0]], "v": [-half[1], half[1]]},
        "phi": [["0", "-2"], ["2", "0"]],
        "metric": [["1", "0"], ["0", "1"]],
    }


def build(workload: str, seed: int, data_dir: Path, work: Path) -> list[Call]:
    """Write the workload's inputs into `work` and return one pass of calls."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    names = sorted(p.stem for p in data_dir.glob("*.json"))
    for name in names:
        shutil.copyfile(data_dir / f"{name}.json", inputs / f"{name}.json")

    def path(name):
        return str(inputs / f"{name}.json")

    def seed_flag():
        return rng.randrange(1, 2**31)

    if workload in ("verify-r5", "verify-flat3"):
        subject = "sasakian_r5" if workload == "verify-r5" else "product_cosymplectic"
        return [_call("verify", subject, (path(subject), "--check", "all"),
                      VERIFY_POINTS, seed_flag(), work, 0)]

    calls: list[Call] = []

    def add(command, subject, args, **kw):
        calls.append(_call(command, subject, args, DEFAULT_POINTS, seed_flag(),
                           work, len(calls), **kw))

    for name in names:
        add("check", name, (path(name),))
    for name in names:
        if not name.startswith("broken_"):
            add("classify", name, (path(name),))
    weak, classical = path("weak"), path("classical")
    add("deform", "sasakian_r3",
        (path("sasakian_r3"), "--lambda", "2", "--lambda-prime", "2", "--inverse"),
        report=False, output=weak)
    add("extract-sasakian", "weak", (weak,), report=False, output=classical)
    add("classify", "classical", (classical,))
    (inputs / "plane.json").write_text(json.dumps(_plane(rng)))
    add("product", "plane", ("--phitilde", path("plane"), "--nu", "4"),
        report=False, output=path("product"))
    add("cvf", "sasakian_r3", (path("sasakian_r3"), "--field", "0;2;2*x"))
    return calls
