"""Planned contractions of the block engine, and the test-vector reducer.

`structure.einsum` runs 2 or more operands as a step program planned once
per subscripts and operand shapes: numpy's greedy pairwise path, each pair
one batched matmul or broadcast multiply.  `Session.sup_contracted` reduces
a residual with one batched matmul and a per-tuple contraction per further
slot.  Both sum in another order than plain `np.einsum`'s single loop nest,
so the results are compared within a bound set by float64 rounding: 1e-13
of the sum of the absolute values of the terms.  One operand, and every
validation row, stays on plain `np.einsum`.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

from conftest import FAST_PLAN, TOL
from wact import structure as st
from wact.chart import SamplePlan
from wact.classify import RESIDUALS, verify
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
        verify(report.structure, "all", FAST_PLAN, TOL, session=report.session)
    monkeypatch.undo()
    return seen


def test_planned_contractions_match_plain_einsum(monkeypatch):
    seen = {(sub, shapes) for sub, shapes in _contractions(monkeypatch) if len(shapes) >= 2}
    subscripts = {sub for sub, _ in seen}
    # the costliest contractions of N5 and the N5 pairing, and two-operand
    # ones of Phi, the Christoffel symbols and nabla(phi)
    assert {"...mbc,...mn,...na->...abc", "...abc,...aj,...b,...ck->...jk",
            "...ia,...aj->...ij", "...kl,...ijl->...kij",
            "...ika,...aj->...ijk"} <= subscripts
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


@pytest.mark.parametrize("subscripts, shapes", [
    ("...ak,...n->...ank", [(7, 3, 3), (7, 3)]),    # an outer-product step
    ("...ak,...n->...an", [(7, 3, 4), (7, 5)]),     # ... summing k away first
    ("...ab,...bc->...a", [(7, 3, 4), (7, 4, 5)]),  # c summed in one operand only
    ("...bc,...ab->...a", [(7, 4, 5), (7, 3, 4)]),  # ... the other operand
    ("...ia,...aj->...ij", [(3, 4), (4, 5)]),       # one point, no leading axis
    ("...abc,...aj,...b,...ck->...jk", [(7, 5, 5, 5), (7, 5, 4), (7, 5), (7, 5, 3)]),
    ("...a,...b,...c->...abc", [(7, 3), (7, 4), (7, 5)]),  # one step of 3 terms
])
def test_step_program_edge_cases_match_plain_einsum(subscripts, shapes):
    rng = np.random.default_rng(11)
    operands = [rng.standard_normal(shape) for shape in shapes]
    planned = st.einsum(subscripts, *operands)
    plain = np.einsum(subscripts, *operands)
    scale = np.einsum(subscripts, *map(np.abs, operands))
    assert planned.shape == plain.shape
    assert np.all(np.abs(planned - plain) <= 1e-13 * scale)


@pytest.mark.parametrize("subscripts, shapes", [
    ("...aa,...a->...a", ((7, 3, 3), (7, 3))),  # an index repeated within one operand
    ("...ab,...b->...a", ((7, 3, 3), (3,))),    # leading point axes that differ
])
def test_uncovered_subscripts_raise_when_planned(subscripts, shapes):
    with pytest.raises(ValueError):
        st._contraction_path(subscripts, shapes)


CONTRACTED = {2: "...ab,...ta,...tb->...t", 3: "...abc,...ta,...tb,...tc->...t"}


@pytest.mark.parametrize("points", [1, 37, 1024])
def test_contracted_reducer_matches_plain_einsum(points):
    plan = SamplePlan(points, FAST_PLAN.seed, FAST_PLAN.margin)
    contracted = {key: row for key, row in RESIDUALS.items() if row.slots}
    for name in VALID:
        ses = validate(load_bundled(name), plan, 1e-8).raise_for_violations().session
        for key, row in contracted.items():
            fn, slots = row.fn, row.slots
            residual = np.concatenate([fn(j) for j in ses.jets])
            vectors = [ses.vectors[:, :, k] for k in range(slots)]
            plain = np.einsum(CONTRACTED[slots], residual, *vectors)
            scale = np.einsum(CONTRACTED[slots], np.abs(residual), *map(np.abs, vectors))
            assert (abs(ses.sup_contracted(fn, slots)[1] - np.max(np.abs(plain)))
                    <= 1e-13 * np.max(scale)), (name, key, points)


def test_residuals_reach_neither_numpys_planner_nor_its_multi_operand_loop(monkeypatch):
    # after validation, no residual key may contract through `np.einsum`'s
    # per-call path planner (`optimize`) or its single loop over 3 or more
    # operands; two operands without a plan (`matvec`, the reducer's
    # per-tuple slot) stay plain `np.einsum`
    reports = [validate(load_bundled(name), FAST_PLAN, 1e-8).raise_for_violations()
               for name in ("sasakian_r5", "product_cosymplectic")]
    plain = np.einsum

    def refuse(subscripts, *operands, **kwargs):
        if len(operands) >= 3 or (len(operands) >= 2 and kwargs.get("optimize")):
            raise AssertionError(f"np.einsum contracted {subscripts}")
        return plain(subscripts, *operands, **kwargs)
    monkeypatch.setattr(np, "einsum", refuse)
    for report in reports:
        for key in RESIDUALS:
            assert report.session.residual(key) >= 0.0, key


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
