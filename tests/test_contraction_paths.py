"""Planned contraction paths for the multi-operand einsums of the block engine.

`structure.einsum` contracts 3 or more operands pairwise along numpy's
greedy path, planned once per subscripts and operand shapes.  Its sums run
in another order than plain `np.einsum`'s single loop nest, so the results
are compared within a bound set by float64 rounding: 1e-13 of the sum of
the absolute values of the terms.
"""

from __future__ import annotations

import numpy as np

from conftest import FAST_PLAN, TOL
from wact import structure as st
from wact.classify import Session, verify
from wact.cli import main
from wact.fileio import bundled_path, load_bundled
from wact.structure import validate

VALID = ("sasakian_r3", "sasakian_r5", "product_cosymplectic", "weak_sasakian_l2")


def _planned_contractions(monkeypatch) -> set:
    """(subscripts, shapes) of every 3+ operand einsum of `verify --check all`."""
    seen = set()
    planned = st.einsum

    def recording(subscripts, *operands):
        if len(operands) >= 3:
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
    seen = _planned_contractions(monkeypatch)
    subscripts = {sub for sub, _ in seen}
    # the costliest contractions of N5, the master identity and the reducer
    assert {"...mbc,...mn,...na->...abc", "...abc,...aj,...b,...ck->...jk",
            "...abc,...ta,...tb,...tc->...t"} <= subscripts
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


def test_fewer_than_three_operands_take_plain_einsum():
    a, b = np.arange(12.0).reshape(2, 2, 3), np.arange(6.0).reshape(2, 3)
    assert np.array_equal(st.einsum("...ij,...j->...i", a, b),
                          np.einsum("...ij,...j->...i", a, b))


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
