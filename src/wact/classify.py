"""Classification flags and the named residual checks, as tables over one Session.

Every residual is a key of `structure.RESIDUALS`, and `structure.Session`
reduces each key once per run, in one pass over the blocks of sample points
when the command names its keys before validation: `CLASSIFY_READS` for the
flags, `check_reads` for the checks.  A flag in `FLAGS` is the worst of its
keys.  A check in `CHECKS` is one row: claim, hypothesis keys,
implications and detail keys, and `Check.run` turns it into a `CheckResult`.
Equivalences are split into one-directional implications: a direction whose
hypothesis residual exceeds the tolerance is reported as n/a, and a satisfied
hypothesis must push the conclusion residual below 10x the tolerance.  An
identity needs no hypothesis slack: its residual must stay below the
tolerance itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .chart import DEFAULT_PLAN, SamplePlan
from .errors import UnknownCheckIdError
from .structure import (DEFAULT_TOL, FLAGS, Q_SCALAR_ON_D, RESIDUALS, Session, Structure,
                        sup_at)

IMPLICATION_FACTOR = 10.0


@dataclass(frozen=True)
class FlagResult:
    name: str
    residual: float
    tol: float
    ok: bool
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Classification:
    structure_name: str
    plan: SamplePlan
    tol: float
    flags: dict

    def __getitem__(self, name: str) -> FlagResult:
        return self.flags[name]

    def is_set(self, name: str) -> bool:
        return self.flags[name].ok

    def to_json_dict(self) -> dict:
        return {
            name: {
                "residual": fr.residual,
                "tol": fr.tol,
                "verdict": "pass" if fr.ok else "fail",
                **fr.extra,
            }
            for name, fr in self.flags.items()
        }


# what `classify` reads: every flag, and the test Q|_D = lambda id
CLASSIFY_READS = (*FLAGS, Q_SCALAR_ON_D)


def classify(s: Structure, plan: SamplePlan = DEFAULT_PLAN,
             tol: float = DEFAULT_TOL, session: Session | None = None) -> Classification:
    """Evaluate every classification flag of a validated structure."""
    ses = session or Session(s, plan)
    ses.read(CLASSIFY_READS)
    flags = {name: FlagResult(name, residual, tol, residual <= tol)
             for name, residual in ses.flag_residuals.items()}
    lam, residual = ses.q_scalar_on_D
    flags["Q_scalar_on_D"] = FlagResult("Q_scalar_on_D", residual, tol, residual <= tol,
                                        {"lambda": lam})
    return Classification(s.name, ses.plan, tol, flags)


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    verdict: str  # 'pass' | 'fail' | 'n/a'
    residual: float | None
    tol: float
    hypothesis: dict
    details: dict
    premise: float  # the hypothesis residual the implications rest on; not in the JSON

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "verdict": self.verdict,
            "residual": self.residual,
            "tol": self.tol,
            "hypothesis": self.hypothesis,
            "details": self.details,
        }


@dataclass(frozen=True)
class CheckReport:
    structure_name: str
    plan: SamplePlan
    tol: float
    results: tuple

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    @property
    def failed(self) -> list:
        return [r for r in self.results if r.verdict == "fail"]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "structure": self.structure_name,
            "plan": asdict(self.plan),
            "tol": self.tol,
            "checks": [r.to_json_dict() for r in self.results],
        }


IMPLIES, IDENTITY, ALWAYS = "implies", "identity", "always"


def _implication(name: str, hyp_residual: float, concl_residual: float,
                 tol: float, kind: str = IMPLIES) -> dict:
    """One implication; an identity's conclusion must stay below `tol` itself."""
    holds = kind == ALWAYS or hyp_residual <= tol
    ok = (concl_residual <= tol if kind != IMPLIES
          else (not holds) or concl_residual <= IMPLICATION_FACTOR * tol)
    return {"name": name, "hypothesis_residual": hyp_residual,
            "conclusion_residual": concl_residual,
            "applicable": holds, "ok": ok}


def _verdict_from(parts) -> tuple:
    """Combine implication sub-results into (verdict, residual)."""
    live = [p for p in parts if p["applicable"]]
    if not live:
        return "n/a", None
    residual = sup_at([p["conclusion_residual"] for p in live])[1]
    verdict = "pass" if all(p["ok"] for p in live) else "fail"
    return verdict, residual


class Implication(NamedTuple):
    """Hypothesis (the check's premise, worst with `also`) => conclusion key.

    An IDENTITY is listed only when its hypothesis holds; an ALWAYS identity
    has hypothesis residual 0 and is always listed.
    """
    name: str
    conclusion: str
    also: tuple = ()
    kind: str = IMPLIES


@dataclass(frozen=True)
class Check:
    id: str
    claim: str
    hypothesis: tuple      # keys reported as the hypothesis; the first is the premise
    implications: tuple
    details: tuple = ()    # keys reported beside the implications
    either: bool = False   # the premise holds when any hypothesis key holds
    with_nu: bool = False  # report the structure's nu beside the hypothesis

    @property
    def reads(self) -> tuple:
        """Every key or flag `run` can read, an identity's conclusion included."""
        return (*self.hypothesis, *(key for imp in self.implications
                                    for key in (*imp.also, imp.conclusion)),
                *self.details)

    def run(self, ses: Session, tol: float) -> CheckResult:
        hypothesis = {key: ses.residual(key) for key in self.hypothesis}
        premise = (float(np.fmin.reduce(list(hypothesis.values()))) if self.either
                   else hypothesis[self.hypothesis[0]])
        if self.with_nu:
            hypothesis["nu"] = ses.structure.nu
        parts = []
        for imp in self.implications:
            hyp = (0.0 if imp.kind == ALWAYS
                   else sup_at([premise, *map(ses.residual, imp.also)])[1])
            if imp.kind == IDENTITY and not hyp <= tol:
                continue
            parts.append(_implication(imp.name, hyp, ses.residual(imp.conclusion), tol,
                                      imp.kind))
        verdict, residual = _verdict_from(parts)
        details = {"implications": parts, **{key: ses.residual(key) for key in self.details}}
        return CheckResult(self.id, self.claim, verdict, residual, tol, hypothesis, details,
                           premise)


_KILLING_IFF_N3 = (
    Implication("killing_implies_n3", "n3", ("killing",)),
    Implication("n3_implies_killing", "killing", ("n3",)),
)

CHECKS = (
    Check("T1", "normality (N1 = 0) forces N3 = 0 and N4 = 0 and reduces N2 to its "
                "Qtilde-commutator form",
          ("normal",),
          (Implication("n3_vanishes", "n3"),
           Implication("n4_vanishes", "n4"),
           Implication("n2_reduction", "n2_reduction")),
          details=("n2_reduction_antisymmetrized", "n2_reduction_nu_weighted")),
    Check("P1", "contact metric or normal case: xi-curves are geodesics and the "
                "xi-contraction of d(eta) vanishes",
          ("weak_contact_metric", "normal"),
          (Implication("xi_geodesic", "nabla_xi_xi"),
           Implication("iota_xi_d_eta", "iota_xi_d_eta"),
           Implication("lie_xi_eta", "lie_xi_eta")),
          either=True),
    Check("T2", "contact metric case: N2 = N4 = 0; xi is Killing exactly when N3 = 0; "
                "d(eta) is invariant along xi",
          ("weak_contact_metric", "killing", "n3"),
          (Implication("n2_vanishes", "n2"),
           Implication("n4_vanishes", "n4"),
           Implication("d_eta_xi_invariant", "lie_xi_d_eta"),
           *_KILLING_IFF_N3)),
    Check("L1", "the covariant derivative of phi matches its six-term expansion, and "
                "its contact metric reduction including the xi-direction form",
          ("weak_contact_metric",),
          (Implication("master_identity", "master_identity", kind=ALWAYS),
           Implication("contact_reduction", "contact_reduction", kind=IDENTITY),
           Implication("xi_direction", "xi_direction", kind=IDENTITY))),
    Check("L2", "h-tensor relations: adjoint defect, anticommutator defect, h xi = 0, "
                "and the Q-weighted derivative of xi",
          ("weak_contact_metric",),
          (Implication("h_adjoint_defect", "h_adjoint_defect"),
           Implication("h_anticommutator_defect", "h_anticommutator_defect"),
           Implication("q_weighted_nabla_xi", "q_weighted_nabla_xi"),
           Implication("h_xi_zero", "h_xi"))),
    Check("P2", "N5 pairing identity linking (h* - h) phi and 2 phi h",
          ("weak_contact_metric",),
          (Implication("n5_pairing", "n5_pairing"),)),
    Check("S1", "Sasakian-type closed form of the covariant derivative of phi",
          ("weak_Sasakian",),
          (Implication("nabla_phi_closed_form", "sasakian_nabla_phi"),)),
    Check("S2", "rigidity: on a weak Sasakian structure Q restricted to the contact "
                "distribution is nu times the identity",
          ("weak_Sasakian",),
          (Implication("q_is_nu_on_D", "q_is_nu_on_D"),),
          with_nu=True),
    Check("C1", "closed forms: N2 = N4 = 0, N1 reduces to the Nijenhuis torsion, "
                "and xi is Killing exactly when N3 = 0",
          ("weak_almost_cosymplectic", "killing", "n3"),
          (Implication("n2_vanishes", "n2"),
           Implication("n4_vanishes", "n4"),
           Implication("n1_is_torsion", "n1_torsion"),
           *_KILLING_IFF_N3)),
    Check("C2", "closed forms: the integral curves of xi are geodesics",
          ("weak_almost_cosymplectic",),
          (Implication("xi_geodesic", "nabla_xi_xi"),)),
    Check("C3", "cosymplectic identities for nabla phi, d(Phi), and the Nijenhuis "
                "torsion in terms of N5",
          ("weak_cosymplectic",),
          (Implication("nabla_phi_is_half_n5", "cosymplectic_nabla_phi"),
           Implication("d_phi_cyclic_n5", "cosymplectic_d_phi"),
           Implication("torsion_cyclic_n5", "cosymplectic_torsion"))),
    Check("C4", "parallel phi forces the weak cosymplectic class and kills N5",
          ("phi_parallel",),
          (Implication("d_eta_closed", "d_eta"),
           Implication("d_phi_closed", "d_phi"),
           Implication("normal", "n1"),
           Implication("n5_vanishes", "n5"))),
)

REGISTRY = tuple((check.id, check.run) for check in CHECKS)

CHECK_IDS = tuple(check_id for check_id, _ in REGISTRY)


def check_reads(which: str = "all") -> tuple:
    """Every key or flag the checks `verify(which)` runs can read; none for an unknown id."""
    return tuple(key for check in CHECKS if which in ("all", check.id) for key in check.reads)


def verify(s: Structure, which: str = "all", plan: SamplePlan = DEFAULT_PLAN,
           tol: float = DEFAULT_TOL, session: Session | None = None) -> CheckReport:
    """Run one registered check (by id) or all of them."""
    ses = session or Session(s, plan)
    if which == "all":
        selected = REGISTRY
    else:
        selected = [(cid, fn) for cid, fn in REGISTRY if cid == which]
        if not selected:
            raise UnknownCheckIdError(
                f"unknown check id {which!r}; known: {', '.join(CHECK_IDS)} or 'all'")
    ses.read(check_reads(which))
    results = tuple(fn(ses, tol) for _, fn in selected)
    return CheckReport(s.name, ses.plan, tol, results)
