"""Classification flags and the named residual-check registry.

Every check contracts its residual tensor with 5 deterministic test-vector
tuples per sample point and reports the sup over points and tuples.
Equivalences are split into one-directional implications: a direction whose
hypothesis residual exceeds the tolerance is reported as n/a, and a satisfied
hypothesis must push the conclusion residual below 10x the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


class Session:
    """Shared per-run cache: sample points, block jets, and test vectors.

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

    # -- flags ------------------------------------------------------------------

    @cached_property
    def flag_residuals(self) -> dict:
        axioms = _worst(
            self.sup_pointwise(st._res_phi_square),
            self.sup_pointwise(st._res_eta_xi),
            self.sup_pointwise(st._res_q_xi_alignment),
            self.sup_pointwise(st._res_phi_invariant),
            self.sup_pointwise(st._res_compatibility),
        )
        contact = self.sup_pointwise(lambda j: j.Phi - j.dEta)
        killing = self.sup_pointwise(lambda j: j.lie_xi_g)
        normal = self.sup_pointwise(lambda j: j.N1)
        d_eta = self.sup_pointwise(lambda j: j.dEta)
        d_phi_form = self.sup_pointwise(lambda j: j.dPhi)
        parallel = self.sup_pointwise(lambda j: j.nabla_phi)
        return {
            "weak_almost_contact_metric": axioms,
            "weak_contact_metric": contact,
            "weak_K_contact": killing,
            "normal": normal,
            "weak_Sasakian": _worst(normal, contact),
            "weak_almost_cosymplectic": _worst(d_eta, d_phi_form),
            "weak_cosymplectic": _worst(d_eta, d_phi_form, normal),
            "phi_parallel": parallel,
        }

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

    def is_set(self, flag: str) -> bool:
        return self.flag_residuals[flag] <= self.tol


FLAG_ORDER = (
    "weak_almost_contact_metric",
    "weak_contact_metric",
    "weak_K_contact",
    "normal",
    "weak_Sasakian",
    "weak_almost_cosymplectic",
    "weak_cosymplectic",
    "phi_parallel",
    "Q_scalar_on_D",
)


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
    flags = {}
    for name in FLAG_ORDER:
        if name == "Q_scalar_on_D":
            lam, residual = ses.q_scalar_on_D
            flags[name] = FlagResult(name, residual, tol, residual <= tol,
                                     {"lambda": lam})
        else:
            residual = ses.flag_residuals[name]
            flags[name] = FlagResult(name, residual, tol, residual <= tol)
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


def _implication(name: str, hyp_residual: float, concl_residual: float,
                 tol: float) -> dict:
    holds = hyp_residual <= tol
    ok = (not holds) or concl_residual <= IMPLICATION_FACTOR * tol
    return {"name": name, "hypothesis_residual": hyp_residual,
            "conclusion_residual": concl_residual,
            "applicable": holds, "ok": ok}


def _verdict_from(parts, applicable: bool) -> tuple:
    """Combine implication sub-results into (verdict, residual)."""
    if not applicable:
        return "n/a", None
    live = [p for p in parts if p["applicable"]]
    if not live:
        return "n/a", None
    residual = _worst(*(p["conclusion_residual"] for p in live))
    verdict = "pass" if all(p["ok"] for p in live) else "fail"
    return verdict, residual


def _antisymmetric_part(m):
    return 0.5 * (m - st.transpose(m))


def _check_t1(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["normal"]
    n3 = ses.sup_pointwise(lambda j: j.N3)
    n4 = ses.sup_pointwise(lambda j: j.N4)
    n2_form = ses.sup_contracted(st.n2_reduction_residual, 2)
    # flags: the symmetric part of the stated reduction (it is not
    # antisymmetric for nu != 1) and the nu-weighted variant that is.
    n2_antisym = ses.sup_contracted(
        lambda j: _antisymmetric_part(st.n2_reduction_residual(j)), 2)
    n2_nu = ses.sup_contracted(st.n2_reduction_residual_nu_weighted, 2)
    parts = [
        _implication("n3_vanishes", hyp, n3, tol),
        _implication("n4_vanishes", hyp, n4, tol),
        _implication("n2_reduction", hyp, n2_form, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "T1",
        "normality (N1 = 0) forces N3 = 0 and N4 = 0 and reduces N2 to its "
        "Qtilde-commutator form",
        verdict, residual, tol, {"normal": hyp},
        {"implications": parts,
         "n2_reduction_antisymmetrized": n2_antisym,
         "n2_reduction_nu_weighted": n2_nu})


def _check_p1(ses: Session, tol: float) -> CheckResult:
    wcm = ses.flag_residuals["weak_contact_metric"]
    normal = ses.flag_residuals["normal"]
    hyp = float(np.fmin(wcm, normal))  # either class suffices; NaN only if both are
    geodesic = ses.sup_pointwise(lambda j: j.nabla_xi_xi)
    interior = ses.sup_pointwise(lambda j: st.matvec(j.dEta, j.xi))
    lie_eta = ses.sup_pointwise(lambda j: j.lie_xi_eta)
    parts = [
        _implication("xi_geodesic", hyp, geodesic, tol),
        _implication("iota_xi_d_eta", hyp, interior, tol),
        _implication("lie_xi_eta", hyp, lie_eta, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "P1",
        "contact metric or normal case: xi-curves are geodesics and the "
        "xi-contraction of d(eta) vanishes",
        verdict, residual, tol,
        {"weak_contact_metric": wcm, "normal": normal},
        {"implications": parts})


def _check_t2(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_contact_metric"]
    n2 = ses.sup_pointwise(lambda j: j.N2)
    n4 = ses.sup_pointwise(lambda j: j.N4)
    killing = ses.flag_residuals["weak_K_contact"]
    n3 = ses.sup_pointwise(lambda j: j.N3)
    lie_deta = ses.sup_pointwise(lambda j: j.lie_xi_dEta)
    applicable = hyp <= tol
    parts = [
        _implication("n2_vanishes", hyp, n2, tol),
        _implication("n4_vanishes", hyp, n4, tol),
        _implication("d_eta_xi_invariant", hyp, lie_deta, tol),
        _implication("killing_implies_n3", _worst(hyp, killing), n3, tol),
        _implication("n3_implies_killing", _worst(hyp, n3), killing, tol),
    ]
    verdict, residual = _verdict_from(parts, applicable)
    return CheckResult(
        "T2",
        "contact metric case: N2 = N4 = 0; xi is Killing exactly when N3 = 0; "
        "d(eta) is invariant along xi",
        verdict, residual, tol,
        {"weak_contact_metric": hyp, "killing": killing, "n3": n3},
        {"implications": parts})


def _check_l1(ses: Session, tol: float) -> CheckResult:
    master = ses.sup_contracted(st.master_identity_residual, 3)
    wcm = ses.flag_residuals["weak_contact_metric"]
    parts = [{"name": "master_identity", "hypothesis_residual": 0.0,
              "conclusion_residual": master, "applicable": True,
              "ok": master <= tol}]
    if wcm <= tol:
        reduced = ses.sup_contracted(st.contact_identity_residual, 3)
        xi_dir = ses.sup_contracted(st.xi_direction_identity_residual, 2)
        parts.append(_implication("contact_reduction", wcm, reduced, tol))
        parts[-1]["ok"] = reduced <= tol  # identity, not implication slack
        parts.append(_implication("xi_direction", wcm, xi_dir, tol))
        parts[-1]["ok"] = xi_dir <= tol
    verdict, residual = _verdict_from(parts, True)
    return CheckResult(
        "L1",
        "the covariant derivative of phi matches its six-term expansion, and "
        "its contact metric reduction including the xi-direction form",
        verdict, residual, tol, {"weak_contact_metric": wcm},
        {"implications": parts})


def _check_l2(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_contact_metric"]
    adj = ses.sup_contracted(st.h_adjoint_identity_residual, 2)
    anti = ses.sup_contracted(st.h_anticommutator_identity_residual, 2)
    qnab = ses.sup_contracted(st.q_nabla_xi_identity_residual, 2)
    hxi = ses.sup_pointwise(lambda j: st.matvec(j.h, j.xi))
    parts = [
        _implication("h_adjoint_defect", hyp, adj, tol),
        _implication("h_anticommutator_defect", hyp, anti, tol),
        _implication("q_weighted_nabla_xi", hyp, qnab, tol),
        _implication("h_xi_zero", hyp, hxi, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "L2",
        "h-tensor relations: adjoint defect, anticommutator defect, h xi = 0, "
        "and the Q-weighted derivative of xi",
        verdict, residual, tol, {"weak_contact_metric": hyp},
        {"implications": parts})


def _check_p2(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_contact_metric"]
    res = ses.sup_contracted(st.b_phi_identity_residual, 2)
    parts = [_implication("n5_pairing", hyp, res, tol)]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "P2",
        "N5 pairing identity linking (h* - h) phi and 2 phi h",
        verdict, residual, tol, {"weak_contact_metric": hyp},
        {"implications": parts})


def _check_s1(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_Sasakian"]
    res = ses.sup_contracted(st.sasakian_nabla_phi_residual, 3)
    parts = [_implication("nabla_phi_closed_form", hyp, res, tol)]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "S1",
        "Sasakian-type closed form of the covariant derivative of phi",
        verdict, residual, tol, {"weak_Sasakian": hyp},
        {"implications": parts})


def _check_s2(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_Sasakian"]
    nu = ses.structure.nu
    res = ses.sup_pointwise(lambda j: (j.Q @ j.projector) - nu * j.projector)
    parts = [_implication("q_is_nu_on_D", hyp, res, tol)]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "S2",
        "rigidity: on a weak Sasakian structure Q restricted to the contact "
        "distribution is nu times the identity",
        verdict, residual, tol, {"weak_Sasakian": hyp, "nu": nu},
        {"implications": parts})


def _check_c1(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_almost_cosymplectic"]
    n2 = ses.sup_pointwise(lambda j: j.N2)
    n4 = ses.sup_pointwise(lambda j: j.N4)
    n1_torsion = ses.sup_pointwise(lambda j: j.N1 - j.nijenhuis_phi)
    killing = ses.flag_residuals["weak_K_contact"]
    n3 = ses.sup_pointwise(lambda j: j.N3)
    parts = [
        _implication("n2_vanishes", hyp, n2, tol),
        _implication("n4_vanishes", hyp, n4, tol),
        _implication("n1_is_torsion", hyp, n1_torsion, tol),
        _implication("killing_implies_n3", _worst(hyp, killing), n3, tol),
        _implication("n3_implies_killing", _worst(hyp, n3), killing, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "C1",
        "closed forms: N2 = N4 = 0, N1 reduces to the Nijenhuis torsion, "
        "and xi is Killing exactly when N3 = 0",
        verdict, residual, tol,
        {"weak_almost_cosymplectic": hyp, "killing": killing, "n3": n3},
        {"implications": parts})


def _check_c2(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_almost_cosymplectic"]
    res = ses.sup_pointwise(lambda j: j.nabla_xi_xi)
    parts = [_implication("xi_geodesic", hyp, res, tol)]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "C2",
        "closed forms: the integral curves of xi are geodesics",
        verdict, residual, tol, {"weak_almost_cosymplectic": hyp},
        {"implications": parts})


def _check_c3(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["weak_cosymplectic"]
    nabla = ses.sup_contracted(st.cosymplectic_nabla_phi_residual, 3)
    dphi = ses.sup_contracted(st.cosymplectic_dphi_residual, 3)
    torsion = ses.sup_contracted(st.cosymplectic_torsion_residual, 3)
    parts = [
        _implication("nabla_phi_is_half_n5", hyp, nabla, tol),
        _implication("d_phi_cyclic_n5", hyp, dphi, tol),
        _implication("torsion_cyclic_n5", hyp, torsion, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "C3",
        "cosymplectic identities for nabla phi, d(Phi), and the Nijenhuis "
        "torsion in terms of N5",
        verdict, residual, tol, {"weak_cosymplectic": hyp},
        {"implications": parts})


def _check_c4(ses: Session, tol: float) -> CheckResult:
    hyp = ses.flag_residuals["phi_parallel"]
    d_eta = ses.sup_pointwise(lambda j: j.dEta)
    d_phi_form = ses.sup_pointwise(lambda j: j.dPhi)
    n1 = ses.flag_residuals["normal"]
    n5 = ses.sup_pointwise(lambda j: j.N5)
    parts = [
        _implication("d_eta_closed", hyp, d_eta, tol),
        _implication("d_phi_closed", hyp, d_phi_form, tol),
        _implication("normal", hyp, n1, tol),
        _implication("n5_vanishes", hyp, n5, tol),
    ]
    verdict, residual = _verdict_from(parts, hyp <= tol)
    return CheckResult(
        "C4",
        "parallel phi forces the weak cosymplectic class and kills N5",
        verdict, residual, tol, {"phi_parallel": hyp},
        {"implications": parts})


REGISTRY = (
    ("T1", _check_t1),
    ("P1", _check_p1),
    ("T2", _check_t2),
    ("L1", _check_l1),
    ("L2", _check_l2),
    ("P2", _check_p2),
    ("S1", _check_s1),
    ("S2", _check_s2),
    ("C1", _check_c1),
    ("C2", _check_c2),
    ("C3", _check_c3),
    ("C4", _check_c4),
)

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
