"""Classification flags and the named residual-check registry, as tables.

`RESIDUALS` maps each residual key to a function of a block jet and to how
its array is reduced: componentwise (the sup of |entries| over the sample
points) or contracted over 2 or 3 slots with 5 deterministic test-vector
tuples per point (the sup over points and tuples).  `Session.residual`
reduces each key once per Session.  A flag in `FLAGS` is the worst of its
keys.  A check in `CHECKS` is one row: claim, hypothesis keys, implications
and detail keys, and `Check.run` turns it into a `CheckResult`.
Equivalences are split into one-directional implications: a direction whose
hypothesis residual exceeds the tolerance is reported as n/a, and a satisfied
hypothesis must push the conclusion residual below 10x the tolerance.  An
identity needs no hypothesis slack: its residual must stay below the
tolerance itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import structure as st
from .chart import DEFAULT_PLAN, SamplePlan, sample, sample_vectors
from .errors import UnknownCheckIdError
from .runtime import parallel_map
from .structure import Structure

IMPLICATION_FACTOR = 10.0

_TUPLES_PER_POINT = 5
_SLOTS = 3
_CONTRACTIONS = {
    1: "...a,...ta->...t",
    2: "...ab,...ta,...tb->...t",
    3: "...abc,...ta,...tb,...tc->...t",
}


def _worst(*values) -> float:
    """Largest residual; a NaN is the worst value and is never dropped."""
    return st.sup_at(values)[1]


def _antisymmetric_part(m):
    return 0.5 * (m - st.transpose(m))


# key -> (function of a block jet, test-vector slots contracted; 0 = componentwise)
RESIDUALS = {
    "phi_square": (st._res_phi_square, 0),
    "eta_xi": (st._res_eta_xi, 0),
    "q_xi_alignment": (st._res_q_xi_alignment, 0),
    "phi_invariant": (st._res_phi_invariant, 0),
    "compatibility": (st._res_compatibility, 0),
    "contact": (lambda j: j.Phi - j.dEta, 0),
    "killing": (lambda j: j.lie_xi_g, 0),
    "n1": (lambda j: j.N1, 0),
    "d_eta": (lambda j: j.dEta, 0),
    "d_phi": (lambda j: j.dPhi, 0),
    "nabla_phi": (lambda j: j.nabla_phi, 0),
    "n2": (lambda j: j.N2, 0),
    "n3": (lambda j: j.N3, 0),
    "n4": (lambda j: j.N4, 0),
    "n5": (lambda j: j.N5, 0),
    "n1_torsion": (lambda j: j.N1 - j.nijenhuis_phi, 0),
    "nabla_xi_xi": (lambda j: j.nabla_xi_xi, 0),
    "iota_xi_d_eta": (lambda j: st.matvec(j.dEta, j.xi), 0),
    "lie_xi_eta": (lambda j: j.lie_xi_eta, 0),
    "lie_xi_d_eta": (lambda j: j.lie_xi_dEta, 0),
    "h_xi": (lambda j: st.matvec(j.h, j.xi), 0),
    "q_is_nu_on_D": (lambda j: (j.Q @ j.projector) - j.nu * j.projector, 0),
    "n2_reduction": (st.n2_reduction_residual, 2),
    # the stated reduction is not antisymmetric for nu != 1: its symmetric
    # part, and the nu-weighted variant that is, are reported beside it
    "n2_reduction_antisymmetrized":
        (lambda j: _antisymmetric_part(st.n2_reduction_residual(j)), 2),
    "n2_reduction_nu_weighted": (st.n2_reduction_residual_nu_weighted, 2),
    "master_identity": (st.master_identity_residual, 3),
    "contact_reduction": (st.contact_identity_residual, 3),
    "xi_direction": (st.xi_direction_identity_residual, 2),
    "h_adjoint_defect": (st.h_adjoint_identity_residual, 2),
    "h_anticommutator_defect": (st.h_anticommutator_identity_residual, 2),
    "q_weighted_nabla_xi": (st.q_nabla_xi_identity_residual, 2),
    "n5_pairing": (st.b_phi_identity_residual, 2),
    "sasakian_nabla_phi": (st.sasakian_nabla_phi_residual, 3),
    "cosymplectic_nabla_phi": (st.cosymplectic_nabla_phi_residual, 3),
    "cosymplectic_d_phi": (st.cosymplectic_dphi_residual, 3),
    "cosymplectic_torsion": (st.cosymplectic_torsion_residual, 3),
}

# flag -> the residual keys it takes the worst of
FLAGS = {
    "weak_almost_contact_metric":
        ("phi_square", "eta_xi", "q_xi_alignment", "phi_invariant", "compatibility"),
    "weak_contact_metric": ("contact",),
    "weak_K_contact": ("killing",),
    "normal": ("n1",),
    "weak_Sasakian": ("n1", "contact"),
    "weak_almost_cosymplectic": ("d_eta", "d_phi"),
    "weak_cosymplectic": ("d_eta", "d_phi", "n1"),
    "phi_parallel": ("nabla_phi",),
}


class Session:
    """Shared per-run cache: sample points, block jets, test vectors, sups.

    `jets` may be handed over from `validate` over the same plan, so the
    field jets are evaluated once per run.
    """

    def __init__(self, s: Structure, plan: SamplePlan = DEFAULT_PLAN,
                 tol: float = st.DEFAULT_TOL, jets=None):
        if s.nu is None:
            raise ValueError("structure must be validated (nu resolved) before analysis")
        self.structure = s
        self.plan = plan
        self.tol = tol
        self.points = sample(s.chart, plan)
        self._sups = {}
        if jets is not None:
            self.jets = list(jets)

    @cached_property
    def jets(self) -> list:
        """One StructureJet per block of sample points."""
        return st.block_jets(self.structure, self.points)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Shape (points, tuples, slots, dim), components in [-1, 1]."""
        dim = self.structure.chart.dim
        return sample_vectors(self.plan, np.arange(len(self.points)),
                              _TUPLES_PER_POINT, _SLOTS, dim)

    # -- residual reducers -----------------------------------------------------

    def sup_pointwise(self, fn) -> float:
        """Sup over points of a componentwise-residual function of the jet."""
        return _worst(*parallel_map(lambda j: np.max(np.abs(fn(j))), self.jets))

    def sup_contracted(self, fn, slots: int) -> float:
        """Sup over points and vector tuples of a contracted residual tensor."""

        def per_block(item):
            jet, vec = item
            args = [vec[:, :, k] for k in range(slots)]
            return np.max(np.abs(np.einsum(_CONTRACTIONS[slots], fn(jet), *args)))

        ends = np.cumsum([len(j.point) for j in self.jets])[:-1]
        blocks = zip(self.jets, np.split(self.vectors, ends))
        return _worst(*parallel_map(per_block, list(blocks)))

    def residual(self, key: str) -> float:
        """Sup of a `RESIDUALS` key, or a flag's residual; each is reduced once."""
        if key in FLAGS:
            return self.flag_residuals[key]
        if key not in self._sups:
            fn, slots = RESIDUALS[key]
            self._sups[key] = (self.sup_contracted(fn, slots) if slots
                               else self.sup_pointwise(fn))
        return self._sups[key]

    # -- flags ------------------------------------------------------------------

    @cached_property
    def flag_residuals(self) -> dict:
        return {name: _worst(*map(self.residual, keys)) for name, keys in FLAGS.items()}

    @cached_property
    def q_scalar_on_D(self) -> tuple:
        """(lambda, residual) of the test Q|_D = lambda * id."""
        two_n = self.structure.chart.dim - 1
        lambdas = []
        deviations = []
        for j in self.jets:
            qp = j.Q @ j.projector
            lam = np.trace(qp, axis1=-2, axis2=-1) / two_n
            lambdas.append(lam)
            deviations.append(np.max(np.abs(qp - lam[:, None, None] * j.projector)))
        lambdas = np.concatenate(lambdas)
        lam0 = float(lambdas[0])
        return lam0, _worst(*deviations, np.max(np.abs(lambdas - lam0)))


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


def classify(s: Structure, plan: SamplePlan = DEFAULT_PLAN,
             tol: float = st.DEFAULT_TOL, session: Session | None = None) -> Classification:
    """Evaluate every classification flag of a validated structure."""
    ses = session or Session(s, plan, tol)
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
            "plan": {"count": self.plan.count, "seed": self.plan.seed,
                     "margin": self.plan.margin},
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
    residual = _worst(*(p["conclusion_residual"] for p in live))
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

    def run(self, ses: Session, tol: float) -> CheckResult:
        hypothesis = {key: ses.residual(key) for key in self.hypothesis}
        premise = (float(np.fmin.reduce(list(hypothesis.values()))) if self.either
                   else hypothesis[self.hypothesis[0]])
        if self.with_nu:
            hypothesis["nu"] = ses.structure.nu
        parts = []
        for imp in self.implications:
            hyp = 0.0 if imp.kind == ALWAYS else _worst(premise, *map(ses.residual, imp.also))
            if imp.kind == IDENTITY and not hyp <= tol:
                continue
            parts.append(_implication(imp.name, hyp, ses.residual(imp.conclusion), tol,
                                      imp.kind))
        verdict, residual = _verdict_from(parts)
        details = {"implications": parts, **{key: ses.residual(key) for key in self.details}}
        return CheckResult(self.id, self.claim, verdict, residual, tol, hypothesis, details)


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


def verify(s: Structure, which: str = "all", plan: SamplePlan = DEFAULT_PLAN,
           tol: float = st.DEFAULT_TOL, session: Session | None = None) -> CheckReport:
    """Run one registered check (by id) or all of them."""
    ses = session or Session(s, plan, tol)
    if which == "all":
        selected = REGISTRY
    else:
        selected = [(cid, fn) for cid, fn in REGISTRY if cid == which]
        if not selected:
            raise UnknownCheckIdError(
                f"unknown check id {which!r}; known: {', '.join(CHECK_IDS)} or 'all'")
    results = tuple(fn(ses, tol) for _, fn in selected)
    return CheckReport(s.name, ses.plan, tol, results)
