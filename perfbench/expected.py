"""Expected outcome of every benchmark call, and the comparison against it.

The tables were recorded from the program as first imported, on two
sampling seeds.  A call's outcome is its exit code plus its verdict set:
validation rows for `check`, the 9 classification flags for `classify` and
`verify`, the 12 check verdicts for `verify`, the two booleans of `cvf`, and
for commands with `-o` whether a structure file was written.  Verdicts are
read from the `--json` report by key, so extra fields or a new schema number
do not count as a mismatch; only a different or missing verdict does.
"""

from __future__ import annotations

import json

_MISSING = object()

AXIOM_ROWS = (
    "metric_symmetric", "metric_positive_definite", "phi_square", "eta_xi",
    "q_xi_nu", "q_nonsingular", "phi_invariant_D", "compatibility",
    "phi_xi_zero", "eta_phi_zero", "q_phi_commute", "phi_skew_adjoint",
    "q_self_adjoint", "eta_is_g_flat_xi", "phi_rank_2n",
)

# Rows that fail on each broken file; every other row passes.
BROKEN_ROWS = {
    "broken_compatibility": ("compatibility", "phi_skew_adjoint"),
    "broken_eta_xi": ("eta_xi", "phi_xi_zero", "eta_phi_zero",
                      "phi_skew_adjoint", "eta_is_g_flat_xi", "phi_rank_2n"),
    "broken_phi_invariance": ("phi_invariant_D", "eta_phi_zero",
                              "q_phi_commute", "phi_skew_adjoint",
                              "q_self_adjoint"),
    "broken_phi_square": ("phi_square", "q_phi_commute", "q_self_adjoint"),
    "broken_q_singular": ("q_nonsingular", "phi_rank_2n"),
    "broken_q_xi": ("q_xi_nu",),
}

_SASAKIAN_FLAGS = {
    "weak_almost_contact_metric": "pass", "weak_contact_metric": "pass",
    "weak_K_contact": "pass", "normal": "pass", "weak_Sasakian": "pass",
    "weak_almost_cosymplectic": "fail", "weak_cosymplectic": "fail",
    "phi_parallel": "fail", "Q_scalar_on_D": "pass",
}
_COSYMPLECTIC_FLAGS = {
    "weak_almost_contact_metric": "pass", "weak_contact_metric": "fail",
    "weak_K_contact": "pass", "normal": "pass", "weak_Sasakian": "fail",
    "weak_almost_cosymplectic": "pass", "weak_cosymplectic": "pass",
    "phi_parallel": "pass", "Q_scalar_on_D": "pass",
}
FLAGS = {
    "sasakian_r3": _SASAKIAN_FLAGS,
    "sasakian_r5": _SASAKIAN_FLAGS,
    "weak_sasakian_l2": _SASAKIAN_FLAGS,
    "classical": _SASAKIAN_FLAGS,  # extract-sasakian of the deformed r3
    "product_cosymplectic": _COSYMPLECTIC_FLAGS,
}

CHECKS = {
    "sasakian_r5": {
        "T1": "pass", "P1": "pass", "T2": "pass", "L1": "pass", "L2": "pass",
        "P2": "pass", "S1": "pass", "S2": "pass",
        "C1": "n/a", "C2": "n/a", "C3": "n/a", "C4": "n/a",
    },
    "product_cosymplectic": {
        "T1": "pass", "P1": "pass", "T2": "n/a", "L1": "pass", "L2": "n/a",
        "P2": "n/a", "S1": "n/a", "S2": "n/a",
        "C1": "pass", "C2": "pass", "C3": "pass", "C4": "pass",
    },
}


def expected(command: str, subject: str) -> dict:
    """Expected outcome of `wact <command>` on the input named `subject`."""
    if command == "check":
        failing = BROKEN_ROWS.get(subject, ())
        return {
            "exit": 2 if failing else 0,
            "valid": not failing,
            "axioms": {row: "fail" if row in failing else "pass" for row in AXIOM_ROWS},
        }
    if command == "classify":
        return {"exit": 0, "flags": FLAGS[subject]}
    if command == "verify":
        return {"exit": 0, "checks": CHECKS[subject], "flags": FLAGS[subject]}
    if command == "cvf":
        return {"exit": 0, "is_weak_contact": True, "strict": True}
    if command in ("deform", "extract-sasakian", "product"):
        return {"exit": 0, "wrote": True}
    raise KeyError(f"no expected outcome for {command} {subject}")


def observe(code: int, report: str | None, output: str | None) -> dict:
    """Outcome of one call from its exit code, report text and output file.

    `report` is the `--json` report or None; `output` is the `-o` file or
    None when the call has none.  Raises ValueError on unreadable JSON.
    """
    seen: dict = {"exit": code}
    if report is not None:
        data = json.loads(report)
        if "axioms" in data:
            seen["valid"] = data.get("valid")
            seen["axioms"] = {row["id"]: row["verdict"] for row in data["axioms"]}
        if "checks" in data:
            seen["checks"] = {c["id"]: c["verdict"] for c in data["checks"]}
        if isinstance(data.get("classification"), dict):
            seen["flags"] = {name: flag["verdict"]
                             for name, flag in data["classification"].items()}
        for key in ("is_weak_contact", "strict"):
            if key in data:
                seen[key] = data[key]
    if output is not None:
        seen["wrote"] = "name" in json.loads(output)
    return seen


def compare(want: dict, seen: dict, where: str = "") -> list[str]:
    """Mismatches between expected and observed outcomes, as text lines."""
    problems = []
    for key, value in want.items():
        got = seen.get(key, _MISSING)
        if isinstance(value, dict):
            if not isinstance(got, dict):
                problems.append(f"{where}{key}: missing")
            else:
                problems += compare(value, got, f"{where}{key}.")
        elif got is _MISSING:
            problems.append(f"{where}{key}: missing")
        elif type(got) is not type(value) or got != value:
            problems.append(f"{where}{key}: expected {value!r}, got {got!r}")
    return problems
