"""One pass over memory-budgeted blocks: bounded memory, layout-free outputs.

A command names every reduction it reads before validation, and the Session
reduces them all in one pass: each block jet is built, reduced and dropped.
So at most two jets are alive at once, whatever the plan, and the whole
output of a command (exit code, stdout, stderr and every report file) does
not depend on how the sample points are cut into blocks.  An error of the
analysis is raised only when the command reads it, so an invalid structure
is reported first, as if the analysis had never run.
"""

from __future__ import annotations

import contextlib
import io
import json
import weakref
from pathlib import Path

import pytest

from wact import structure
from wact.chart import SamplePlan
from wact.cli import main
from wact.fileio import bundled_path, load_bundled
from wact.structure import BLOCK_ENTRIES, Session

R5 = str(bundled_path("sasakian_r5"))
BROKEN = str(bundled_path("broken_phi_square"))
DEFAULT = structure.BLOCK_POINTS
LAYOUTS = (1, 7, DEFAULT)


def test_at_most_two_block_jets_are_alive(monkeypatch, capsys):
    # 25 points in blocks of 10: the jet of the block before the one being
    # built may still be alive, never an earlier one
    monkeypatch.setattr(structure, "BLOCK_POINTS", 10)
    jets, alive = [], []
    init = structure.StructureJet.__init__

    def tracked(self, *args, **kwargs):
        jets.append(weakref.ref(self))
        alive.append(sum(ref() is not None for ref in jets))
        init(self, *args, **kwargs)
    monkeypatch.setattr(structure.StructureJet, "__init__", tracked)
    assert main(["verify", R5, "--check", "all", "--points", "25"]) == 0
    assert len(jets) == 3
    assert max(alive) <= 2, alive


@pytest.mark.parametrize("name, count", [("sasakian_r5", 4), ("product_cosymplectic", 1)])
def test_the_memory_budget_sizes_the_blocks(name, count):
    ses = Session(load_bundled(name), SamplePlan(count=1000))
    dim = ses.structure.dim
    assert len(ses.blocks) == len(ses.jets) == count
    assert sum(map(len, ses.blocks)) == 1000
    assert all(len(block) * dim ** 3 <= BLOCK_ENTRIES for block in ses.blocks)


def _outcome(argv, files) -> tuple:
    """Exit code, stdout, stderr without the timing line, and each file's bytes."""
    for path in files:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if not line.startswith("wall time")]
    return (code, out.getvalue(), errors,
            [Path(path).read_bytes() if Path(path).exists() else None for path in files])


FIELDS = {3: ("0;2;2*x", "x;y;z"), 5: ("0;0;0;0;2", "x1;x2;y1;y2;z")}


def _battery(work: Path) -> dict:
    report, deformed, classical = (str(work / name) for name in
                                   ("report.json", "deformed.json", "classical.json"))
    plan = ["--points", "100"]
    calls = {}
    for name in ("sasakian_r3", "sasakian_r5", "product_cosymplectic", "weak_sasakian_l2"):
        path = str(bundled_path(name))
        for command in (["check"], ["classify"], ["verify", "--check", "all"]):
            calls[(name, *command)] = (command[:1] + [path] + command[1:] + plan
                                       + ["--json", report], [report])
        for field in FIELDS[load_bundled(name).dim]:
            calls[(name, "cvf", field)] = (["cvf", path, "--field", field, *plan,
                                            "--json", report], [report])
        calls[(name, "deform")] = (["deform", path, "--lambda", "2", "--lambda-prime", "2",
                                    "--inverse", "-o", deformed, *plan], [deformed])
        calls[(name, "extract-sasakian")] = (["extract-sasakian", deformed, "-o", classical,
                                              *plan], [classical])
        calls[(name, "classify", "classical")] = (["classify", classical, *plan,
                                                   "--json", report], [report])
    return calls


def test_whole_outputs_do_not_depend_on_the_block_layout(tmp_path, monkeypatch):
    calls = _battery(tmp_path)
    seen = {}
    for block_points in LAYOUTS:
        monkeypatch.setattr(structure, "BLOCK_POINTS", block_points)
        seen[block_points] = {key: _outcome(*call) for key, call in calls.items()}
    default = seen[DEFAULT]
    assert default[("sasakian_r5", "classify", "classical")][0] == 0  # the chain ran through
    for block_points in LAYOUTS:
        for key, outcome in default.items():
            assert seen[block_points][key] == outcome, (block_points, key)


@pytest.mark.parametrize("block_points", LAYOUTS)
def test_an_invalid_structure_is_reported_before_anything_else(monkeypatch, block_points):
    # the analysis that validation's pass reduced as well is never read, and
    # a malformed --field (wrong component count) waits for validation too
    monkeypatch.setattr(structure, "BLOCK_POINTS", block_points)
    lines = set()
    for argv in (["classify", BROKEN], ["verify", BROKEN],
                 ["cvf", BROKEN, "--field", "0;1"], ["cvf", BROKEN, "--field", "0;1;("]):
        code, out, errors, _ = _outcome(argv + ["--points", "100"], [])
        assert (code, out, len(errors)) == (2, "", 1), argv
        lines.add(errors[0])
    assert len(lines) == 1
    assert lines.pop().startswith("AxiomViolationError: ")


@pytest.mark.parametrize("block_points", LAYOUTS)
def test_a_domain_error_does_not_depend_on_the_block_layout(tmp_path, monkeypatch,
                                                            block_points):
    # at 400 points phi[0][0] first leaves its domain at sample point 373,
    # the metric at point 3: one block of the whole plan names phi, the
    # field it evaluates first, and so does every other layout
    data = json.loads(Path(R5).read_text())
    data["phi"][0][0] = "0 * log(0.88 - x2)"
    data["metric"][4][4] = "1 + log(x1 + 0.6)"
    path = tmp_path / "two_domains.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(structure, "BLOCK_POINTS", block_points)
    for command in ("check", "verify"):
        code, out, errors, _ = _outcome([command, str(path), "--points", "400"], [])
        assert (code, out, len(errors)) == (2, "", 1)
        assert errors[0].startswith("DomainError: phi[0][0]: log of non-positive value")
