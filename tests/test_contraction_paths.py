"""Planned contraction paths for the multi-operand einsums of the block engine.

`structure.einsum` contracts 2 or more operands pairwise along numpy's
greedy path, planned once per subscripts and operand shapes.  Its sums run
in another order than plain `np.einsum`'s single loop nest, so the results
are compared within a bound set by float64 rounding: 1e-13 of the sum of
the absolute values of the terms.  One operand, and every validation row,
stays on plain `np.einsum`.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

from conftest import FAST_PLAN, TOL
from wact import structure as st
from wact.classify import Session, verify
from wact.cli import main
from wact.fileio import bundled_names, bundled_path, load_bundled
from wact.structure import validate

VALID = ("sasakian_r3", "sasakian_r5", "product_cosymplectic", "weak_sasakian_l2")


def _contractions(monkeypatch) -> set:
    """(subscripts, shapes) of every `structure.einsum` call of `verify --check all`."""
    seen = set()
    planned = st.einsum

    def recording(subscripts, *operands):
        seen.add((subscripts, tuple(np.shape(op) for op in operands)))
        return planned(subscripts, *operands)
    monkeypatch.setattr(st, "einsum", recording)
    for name in VALID:
        report = validate(load_bundled(name), FAST_PLAN, 1e-8).raise_for_violations()
        ses = Session(report.structure, FAST_PLAN, TOL, jets=report.jets)
        verify(report.structure, "all", FAST_PLAN, TOL, session=ses)
    monkeypatch.undo()
    return seen


def test_planned_contractions_match_plain_einsum(monkeypatch):
    seen = {(sub, shapes) for sub, shapes in _contractions(monkeypatch) if len(shapes) >= 2}
    subscripts = {sub for sub, _ in seen}
    # the costliest contractions of N5, the master identity and the reducer,
    # and two-operand ones of Phi, the Christoffel symbols and nabla(phi)
    assert {"...mbc,...mn,...na->...abc", "...abc,...aj,...b,...ck->...jk",
            "...abc,...ta,...tb,...tc->...t", "...ia,...aj->...ij",
            "...kl,...ijl->...kij", "...ika,...aj->...ijk"} <= subscripts
    rng = np.random.default_rng(17)
    for sub, shapes in sorted(seen):
        assert all(shape[0] == FAST_PLAN.count for shape in shapes), (sub, shapes)
        for points in (1, 37, 1024):
            operands = [rng.standard_normal((points,) + shape[1:]) for shape in shapes]
            planned = st.einsum(sub, *operands)
            plain = np.einsum(sub, *operands)
            scale = np.einsum(sub, *map(np.abs, operands))
            assert planned.shape == plain.shape, (sub, points)
            assert np.all(np.abs(planned - plain) <= 1e-13 * scale), (sub, points)


def test_one_operand_calls_are_plain_einsum(monkeypatch):
    seen = {(sub, shapes[0]) for sub, shapes in _contractions(monkeypatch)
            if len(shapes) == 1}
    assert "...jki->...ijk" in {sub for sub, _ in seen}
    rng = np.random.default_rng(5)
    for sub, shape in sorted(seen):
        operand = rng.standard_normal(shape)
        assert np.array_equal(st.einsum(sub, operand), np.einsum(sub, operand)), sub


def test_validation_makes_no_planned_contraction(monkeypatch):
    # the validation rows and nu keep numpy's single loop, so `check`
    # reports do not depend on a contraction path
    def refuse(subscripts, *operands):
        raise AssertionError(f"validation planned {subscripts}")
    monkeypatch.setattr(st, "einsum", refuse)
    names = bundled_names()
    assert len(names) == 10
    for name in names:
        validate(load_bundled(name), FAST_PLAN, TOL)


def test_a_second_verify_plans_no_contraction(monkeypatch, capsys):
    plans = []
    plan = np.einsum_path

    def counted(*args, **kwargs):
        plans.append(args[0])
        return plan(*args, **kwargs)
    monkeypatch.setattr(np, "einsum_path", counted)
    st._contraction_path.cache_clear()
    argv = ["verify", str(bundled_path("sasakian_r5")), "--check", "all"]
    assert main(argv) == 0
    assert plans, "the first call plans its contractions"
    first = capsys.readouterr().out
    plans.clear()
    assert main(argv) == 0
    assert plans == []
    assert capsys.readouterr().out == first


IDENTITY_BANNER = "# Identity residual tensors"


def _single_loop_contractions(source: str) -> list:
    """(function, line) of each `np.einsum` call with 2 or more operands in a
    `StructureJet` method other than `nu_at_point`, in `christoffel` or
    `nabla_11`, or in a function after the identity-residual banner."""
    banner = next(i for i, line in enumerate(source.splitlines(), 1)
                  if line.startswith(IDENTITY_BANNER))
    tree = ast.parse(source)
    guarded = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "StructureJet":
            guarded += [f for f in node.body
                        if isinstance(f, ast.FunctionDef) and f.name != "nu_at_point"]
        elif isinstance(node, ast.FunctionDef) and (
                node.name in ("christoffel", "nabla_11") or node.lineno > banner):
            guarded.append(node)
    found = []
    for fn in guarded:
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "einsum"
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
                    and (len(call.args) >= 3
                         or any(isinstance(a, ast.Starred) for a in call.args))):
                found.append((fn.name, call.lineno))
    return found


def test_block_contractions_stay_planned():
    assert _single_loop_contractions(inspect.getsource(st)) == []


@pytest.mark.parametrize("planted", [
    "class StructureJet:\n    def Phi(self):\n        return np.einsum('...ia,...aj->...ij', a, b)\n",
    "def christoffel(g_inv, d_g):\n    return np.einsum('...kl,...ijl->...kij', g_inv, d_g)\n",
    f"{IDENTITY_BANNER}\ndef r(j):\n    return np.einsum('...a,...a->...', j.xi, j.eta)\n",
])
def test_the_guard_sees_a_single_loop_contraction(planted):
    allowed = ("class StructureJet:\n    def nu_at_point(self):\n"
               "        return np.einsum('...i,...ij,...j->...', a, b, c)\n"
               "def _res_row(j):\n    return np.einsum('...i,...i->...', j.eta, j.xi)\n"
               f"{IDENTITY_BANNER}\n"
               "def r(j):\n    return np.einsum('...jki->...ijk', j.d)\n")
    assert _single_loop_contractions(allowed) == []
    assert len(_single_loop_contractions(planted + f"\n{IDENTITY_BANNER}\n")) == 1
