"""Weak almost contact metric structures: axiom validation and derived tensors.

A structure bundles (phi, Q, xi, eta, g) on an odd-dimensional chart with a
positive constant nu satisfying Q xi = nu xi.  Values and first partials of
the five fields at a sample point, or at a block of them with the point axis
first (a `StructureJet`), feed closed-form assemblies of every derived object:

    dEta, Phi, dPhi, Christoffel, nabla(phi), nabla(xi),
    Nijenhuis torsion of phi, N1..N4, the trilinear N5,
    h = (1/2) Lie_xi(phi), its metric adjoint, A = h phi + phi h, B = h* - h,
    Lie_xi of g, eta, and d(eta).

Index conventions: component arrays are [upper..., lower...]; partial
derivatives append the differentiation axis last (d_phi[i, j, k] is the
k-partial of phi^i_j).

`RESIDUALS` is the one table of residuals: the axioms and their derived
consequences that `validate` reports, then the flag and identity residuals
of the analysis, each a function of a block jet with its reduction.  A
`Session` reduces each key once per run to (point index, sup): the largest
entry of each block, then the worst block, both by `sup_at`, where a NaN
counts as the largest.

Every contraction of two or more block arrays (the jet's tensors, the
Christoffel symbols and the identity residuals) goes through `einsum`, which
runs a step program planned once per subscripts and operand shapes: numpy's
greedy pairwise path, each pair one batched `np.matmul` (or a broadcast
multiply) with its sums, transposes and reshapes fixed at plan time.  Each
pair is laid out as numpy 2's path-optimized `einsum` lays it out, so the
sums run in the same order and the results agree bit for bit with that
`np.einsum(..., optimize=path)`.  The validation rows, nu and `matvec` keep
numpy's single-loop `np.einsum`, so validation reports do not depend on the
path; flag and identity residuals may move in the last bit or two against
that order, and verdicts do not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .chart import Chart, DEFAULT_PLAN, SamplePlan, sample, sample_vectors
from .errors import AxiomViolationError
from .runtime import parallel_map
from .tensor import TensorField

DEFAULT_TOL = 1e-6

RANK_RTOL = 1e-8  # relative singular-value threshold for numeric rank

BLOCK_POINTS = 1024  # sample points evaluated together; bounds the memory of a block


@dataclass(frozen=True)
class Structure:
    """Immutable field bundle; `nu` may be None before validation resolves it."""

    chart: Chart
    phi: TensorField
    Q: TensorField
    xi: TensorField
    eta: TensorField
    g: TensorField
    nu: float | None = None
    name: str = "structure"

    def __post_init__(self):
        expected = {
            "phi": (1, 1), "Q": (1, 1), "xi": (1, 0), "eta": (0, 1), "g": (0, 2),
        }
        for attr, valence in expected.items():
            field = getattr(self, attr)
            if tuple(field.valence) != valence:
                raise ValueError(f"{attr} must have valence {valence}, got {field.valence}")
            if field.chart is not self.chart and field.chart.coords != self.chart.coords:
                raise ValueError(f"{attr} lives on a different chart")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def with_nu(self, nu: float) -> "Structure":
        return dataclasses.replace(self, nu=float(nu))


class StructureJet:
    """All pointwise data of a structure at one point or a block of points.

    `point` has shape (dim,) or (P, dim); with a block every array carries
    the point axis first, and the `...` in each einsum subscript lets the
    same formula serve both.
    """

    def __init__(self, s: Structure, point):
        self.structure = s
        self.point = np.asarray(point, dtype=float)
        self.dim = s.chart.dim
        self.phi, self.d_phi = s.phi.jet(self.point, "phi")
        self.Q, self.d_Q = s.Q.jet(self.point, "Q")
        self.xi, self.d_xi = s.xi.jet(self.point, "xi")
        self.eta, self.d_eta_partials = s.eta.jet(self.point, "eta")
        self.g, self.d_g = s.g.jet(self.point, "metric")

    # -- base helpers --------------------------------------------------------

    @cached_property
    def eta_hessian(self):
        """hess[m, i, k] = d_k d_i eta_m."""
        _, _, hess = self.structure.eta.jet2(self.point, "eta")
        return hess

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def identity(self):
        return np.eye(self.dim)

    @cached_property
    def Qxi(self):
        return matvec(self.Q, self.xi)

    @cached_property
    def nu_at_point(self):
        """g(Q xi, xi) / g(xi, xi) at each point."""
        # single-loop np.einsum, like the validation rows: every report carries nu
        num = np.einsum("...i,...ij,...j->...", self.Qxi, self.g, self.xi)
        den = np.einsum("...i,...ij,...j->...", self.xi, self.g, self.xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    @property
    def nu(self):
        value = self.structure.nu
        return self.nu_at_point if value is None else value

    @cached_property
    def Qtilde(self):
        return self.Q - self.identity

    @cached_property
    def projector(self):
        """P[i, j] = delta^i_j - xi^i eta_j."""
        return self.identity - outer(self.xi, self.eta)

    @cached_property
    def phi2(self):
        return self.phi @ self.phi

    # -- exterior derivatives --------------------------------------------------

    @cached_property
    def dEta(self):
        """(d eta)_{ij} with the 1/2 normalization."""
        d = self.d_eta_partials  # d[j, i] = d_i eta_j
        return 0.5 * (transpose(d) - d)

    @cached_property
    def Phi(self):
        """Fundamental 2-form Phi_{ij} = g(e_i, phi e_j)."""
        return einsum("...ia,...aj->...ij", self.g, self.phi)

    @cached_property
    def dPhi(self):
        """(d Phi)_{ijk} with the 1/3 normalization."""
        pd = (einsum("...iak,...aj->...ijk", self.d_g, self.phi)
              + einsum("...ia,...ajk->...ijk", self.g, self.d_phi))  # d_k Phi_ij
        return (einsum("...jki->...ijk", pd) + einsum("...kij->...ijk", pd) + pd) / 3.0

    @cached_property
    def d_dEta(self):
        """partials[i, j, k] = d_k (dEta)_{ij} (needs the eta hessian)."""
        h = self.eta_hessian  # h[m, i, k] = d_k d_i eta_m
        return 0.5 * (einsum("...jik->...ijk", h) - h)

    # -- connection ------------------------------------------------------------

    @cached_property
    def gamma(self):
        """Christoffel symbols gamma[k, i, j]."""
        return christoffel(self.g_inv, self.d_g)

    @cached_property
    def nabla_phi(self):
        """nabla_phi[i, j, k] = (nabla_k phi)^i_j."""
        return nabla_11(self.phi, self.d_phi, self.gamma)

    @cached_property
    def nabla_xi(self):
        """nabla_xi[i, k] = (nabla_k xi)^i."""
        return self.d_xi + einsum("...ika,...a->...ik", self.gamma, self.xi)

    @cached_property
    def nabla_xi_xi(self):
        return einsum("...ik,...k->...i", self.nabla_xi, self.xi)

    # -- torsions and the N-tensors ---------------------------------------------

    @cached_property
    def nijenhuis_phi(self):
        """[phi, phi]^i_{jk} on coordinate extensions."""
        return (einsum("...lj,...ikl->...ijk", self.phi, self.d_phi)
                - einsum("...lk,...ijl->...ijk", self.phi, self.d_phi)
                - einsum("...il,...lkj->...ijk", self.phi, self.d_phi)
                + einsum("...il,...ljk->...ijk", self.phi, self.d_phi))

    @cached_property
    def nijenhuis_phi_nabla_form(self):
        """Same torsion assembled from nabla(phi) instead of raw partials."""
        np_ = self.nabla_phi
        return (einsum("...im,...mjk->...ijk", self.phi, np_)
                - einsum("...lk,...ijl->...ijk", self.phi, np_)
                - einsum("...im,...mkj->...ijk", self.phi, np_)
                + einsum("...lj,...ikl->...ijk", self.phi, np_))

    @cached_property
    def N1(self):
        """N1[i, j, k] = [phi,phi]^i_{jk} + 2 (dEta)_{jk} (Q xi)^i."""
        return self.nijenhuis_phi + 2.0 * einsum("...jk,...i->...ijk", self.dEta, self.Qxi)

    @cached_property
    def N2(self):
        """N2[j, k] = 2 dEta(phi e_j, e_k) - 2 dEta(phi e_k, e_j)."""
        m = einsum("...aj,...ak->...jk", self.phi, self.dEta)
        return 2.0 * (m - transpose(m))

    @cached_property
    def N2_lie_form(self):
        """N2 from the Lie-derivative definition (cross-check route)."""
        t = (einsum("...aj,...ka->...jk", self.phi, self.d_eta_partials)
             + einsum("...m,...mjk->...jk", self.eta, self.d_phi))
        return t - transpose(t)

    @cached_property
    def N3(self):
        """N3[i, j] = (Lie_xi phi)^i_j."""
        return (einsum("...a,...ija->...ij", self.xi, self.d_phi)
                - einsum("...aj,...ia->...ij", self.phi, self.d_xi)
                + einsum("...ia,...aj->...ij", self.phi, self.d_xi))

    @cached_property
    def N4(self):
        """N4[j] = 2 dEta(xi, e_j)."""
        return 2.0 * einsum("...a,...aj->...j", self.xi, self.dEta)

    @cached_property
    def _proj_metric(self):
        """H[m, n] = g(e_m - eta_m xi, e_n)."""
        c = einsum("...m,...mn->...n", self.xi, self.g)
        return self.g - outer(self.eta, c), c

    @cached_property
    def N5(self):
        """Full (0,3) array of the trilinear tensor, on coordinate extensions."""
        H, c = self._proj_metric
        Qt = self.Qtilde
        dc = (einsum("...mk,...mn->...nk", self.d_xi, self.g)
              + einsum("...m,...mnk->...nk", self.xi, self.d_g))
        dH = (self.d_g
              - einsum("...ak,...n->...ank", self.d_eta_partials, c)
              - einsum("...a,...nk->...ank", self.eta, dc))
        ds = (einsum("...ank,...nb->...abk", dH, Qt)
              + einsum("...an,...nbk->...abk", H, self.d_Q))
        t1 = einsum("...kc,...abk->...abc", self.phi, ds)
        t2 = -einsum("...kb,...ack->...abc", self.phi, ds)
        t3 = einsum("...mca,...mn,...nb->...abc", self.d_phi, H, Qt)
        t4 = -einsum("...mba,...mn,...nc->...abc", self.d_phi, H, Qt)
        w5 = einsum("...mcb->...mbc", self.d_phi) - self.d_phi
        t5 = einsum("...mbc,...mn,...na->...abc", w5, H, Qt)
        return t1 + t2 + t3 + t4 + t5

    # -- terms shared by the identity residuals ----------------------------------

    @cached_property
    def g_nabla_phi(self):
        """g((nabla_X phi) Y, Z), index order [X, Y, Z]."""
        return einsum("...mba,...mc->...abc", self.nabla_phi, self.g)

    @cached_property
    def contact_terms(self):
        """g(N1(Y, Z), phi X) + 2 dEta(phi Y, X) eta(Z) - 2 dEta(phi Z, X) eta(Y).

        The terms of the six-term expansion that survive, besides N5, on a
        weak contact metric structure; index order [X, Y, Z].
        """
        return (einsum("...mbc,...mn,...na->...abc", self.N1, self.g, self.phi)
                + 2.0 * einsum("...mb,...ma,...c->...abc", self.phi, self.dEta, self.eta)
                - 2.0 * einsum("...mc,...ma,...b->...abc", self.phi, self.dEta, self.eta))

    @cached_property
    def n2_reduction(self):
        """T1's stated N2 reduction residual; its symmetric part is reported too."""
        return n2_reduction_residual(self)

    # -- the h tensor and friends -------------------------------------------------

    @cached_property
    def h(self):
        return 0.5 * self.N3

    @cached_property
    def h_star(self):
        """Metric adjoint (h*)^i_j = g^{ia} h^m_a g_{mj}."""
        return einsum("...ia,...ma,...mj->...ij", self.g_inv, self.h, self.g)

    @cached_property
    def A_op(self):
        return self.h @ self.phi + self.phi @ self.h

    @cached_property
    def B_op(self):
        return self.h_star - self.h

    # -- Lie derivatives along xi ---------------------------------------------------

    @cached_property
    def lie_xi_g(self):
        return (einsum("...a,...ija->...ij", self.xi, self.d_g)
                + einsum("...aj,...ai->...ij", self.g, self.d_xi)
                + einsum("...ia,...aj->...ij", self.g, self.d_xi))

    @cached_property
    def lie_xi_eta(self):
        return (einsum("...a,...ia->...i", self.xi, self.d_eta_partials)
                + einsum("...a,...ai->...i", self.eta, self.d_xi))

    @cached_property
    def lie_xi_dEta(self):
        return (einsum("...a,...ija->...ij", self.xi, self.d_dEta)
                + einsum("...aj,...ai->...ij", self.dEta, self.d_xi)
                + einsum("...ia,...aj->...ij", self.dEta, self.d_xi))


def blocks(points: np.ndarray) -> list:
    """Consecutive blocks of at most BLOCK_POINTS sample points."""
    return [points[i:i + BLOCK_POINTS] for i in range(0, len(points), BLOCK_POINTS)]


def block_jets(s: Structure, points: np.ndarray) -> list:
    """One StructureJet per block of at most BLOCK_POINTS sample points."""
    return parallel_map(lambda block: StructureJet(s, block), blocks(points))


# --------------------------------------------------------------------------
# Pointwise array helpers and the residual reducer
# --------------------------------------------------------------------------

def einsum(subscripts: str, *operands):
    """`np.einsum`, run as a step program planned once when 2 or more operands meet.

    The greedy path (Smith & Gray, "opt_einsum", JOSS 2018) contracts pairs,
    and keeps every intermediate no larger than the largest operand or the
    result, where a plain `np.einsum` runs one loop nest over every index at
    once.  Each pair is one batched `np.matmul` over the point axis, or a
    broadcast multiply when nothing is contracted, with every sum, transpose
    and reshape around it fixed at plan time.  The program is cached by
    subscripts and operand shapes.  One operand (a permutation) is plain
    `np.einsum`.
    """
    if len(operands) < 2:
        return np.einsum(subscripts, *operands)
    operands = [np.asarray(op) for op in operands]
    for first, second, left, right, shape, perm in _contraction_path(
            subscripts, tuple(op.shape for op in operands)):
        a = _arrange(operands.pop(first), left)
        b = _arrange(operands.pop(second), right)
        if shape is None:  # nothing is contracted
            operands.append(a * b)
        else:
            operands.append(np.matmul(a, b).reshape(shape).transpose(perm))
    return operands[0]


def _arrange(x, layout):
    """Apply a `_layout`: sum axes away, transpose, fuse."""
    summed, perm, shape = layout
    if summed:
        x = x.sum(axis=summed)
    return x.transpose(perm).reshape(shape)


def _layout(term: str, groups: tuple, sizes: dict) -> tuple:
    """Sum away the indices of `term` in no group, then fuse each group to one axis."""
    kept = [ix for group in groups for ix in group]
    rest = [ix for ix in term if ix in kept]
    summed = tuple(axis for axis, ix in enumerate(term) if ix not in kept)
    return (summed, tuple(rest.index(ix) for ix in kept),
            tuple(math.prod(sizes[ix] for ix in group) for group in groups))


def _pair(a: str, b: str, out: str, sizes: dict) -> tuple:
    """The step `a,b->out` as (left, right, shape, perm).

    `einsum` arranges the two operands by the `left` and `right` layouts and
    appends their product: the matmul (batch, kept, contracted) @ (batch,
    contracted, kept), reshaped to `shape` and transposed by `perm`, or the
    broadcast product when nothing is contracted (`shape` None).  Each group
    keeps the order of its term, as numpy's own pairwise einsum does, so the
    sums run in numpy's order.
    """
    batch = [ix for ix in a if ix in b and ix in out]
    contracted = [ix for ix in a if ix in b and ix not in out]
    if not contracted:
        return (_layout(a, tuple([ix] if ix in a else [] for ix in out), sizes),
                _layout(b, tuple([ix] if ix in b else [] for ix in out), sizes),
                None, None)
    kept_a = [ix for ix in a if ix not in b and ix in out]
    kept_b = [ix for ix in b if ix not in a and ix in out]
    lead = (batch,) if batch else ()
    produced = batch + kept_a + kept_b
    return (_layout(a, lead + (kept_a, contracted), sizes),
            _layout(b, lead + (contracted, kept_b), sizes),
            tuple(sizes[ix] for ix in produced),
            tuple(produced.index(ix) for ix in out))


@lru_cache(maxsize=1024)
def _contraction_path(subscripts: str, shapes: tuple) -> tuple:
    """`einsum`'s step program: numpy's greedy path, with each pair's axes fixed.

    A step pops the operands at positions `first`, then `second`, and
    appends their `_pair` product.  Every operand must carry the same
    leading point axes (the `...`), and no index may repeat within one
    operand; other subscripts raise ValueError.
    """
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    leads = {shape[:len(shape) - len(term.replace("...", ""))]
             for term, shape in zip(terms, shapes)}
    if len(leads) != 1:
        raise ValueError(f"einsum {subscripts!r}: the operands' leading point axes "
                         f"differ: {shapes}")
    spare = [ix for ix in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if ix not in subscripts]
    points = "".join(spare[:len(leads.pop())])
    terms = [term.replace("...", points) for term in terms]
    output = output.replace("...", points)
    if any(len(set(term)) < len(term) for term in terms):
        raise ValueError(f"einsum {subscripts!r}: an index repeats within one operand")
    sizes = {ix: n for term, shape in zip(terms, shapes) for ix, n in zip(term, shape)}
    path = np.einsum_path(",".join(terms) + "->" + output,
                          *(np.broadcast_to(0.0, shape) for shape in shapes),
                          optimize="greedy")[0][1:]
    pairs, count = [], len(terms)
    for positions in path:
        rest = sorted(positions, reverse=True)
        while len(rest) > 1:  # numpy leaves an outer product of 3 or more terms whole
            pairs.append(tuple(rest[:2]))
            count -= 1
            rest = [count - 1] + rest[2:]
    steps = []
    for n, (first, second) in enumerate(pairs):
        a, b = terms.pop(first), terms.pop(second)
        out = output
        if n < len(pairs) - 1:  # an intermediate keeps what later terms need, by size
            needed = set(output).union(*terms)
            out = "".join(sorted(set(a + b) & needed, key=lambda ix: (sizes[ix], ix)))
        terms.append(out)
        steps.append((first, second) + _pair(a, b, out, sizes))
    return tuple(steps)


def christoffel(g_inv, d_g):
    """Christoffel symbols gamma[k, i, j] of a metric from its inverse and partials."""
    A = einsum("...jli->...ijl", d_g)  # A[i,j,l] = d_i g_{jl}
    B = A + einsum("...jil->...ijl", A) - einsum("...lij->...ijl", A)
    return 0.5 * einsum("...kl,...ijl->...kij", g_inv, B)


def nabla_11(t, d_t, gamma):
    """Covariant derivative of a (1,1) tensor: out[i, j, k] = (nabla_k t)^i_j."""
    return (d_t
            + einsum("...ika,...aj->...ijk", gamma, t)
            - einsum("...akj,...ia->...ijk", gamma, t))


def numeric_rank(m):
    """Numeric rank of each matrix: singular values above RANK_RTOL times the largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    rank = np.sum(sv > RANK_RTOL * sv[..., :1], axis=-1)
    return np.where(sv[..., 0] > 0.0, rank, 0)


def transpose(a):
    """Swap the last two axes (the matrix transpose at every point)."""
    return np.swapaxes(a, -1, -2)


def matvec(a, v):
    return np.einsum("...ij,...j->...i", a, v)


def outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _point_sup(a) -> tuple:
    """(point, value) of the largest entry of a (points, ...) array, by `sup_at`.

    The axes after the first are visited in memory order, so a transposed
    result of `einsum`, whose points are outermost in memory, is searched in
    place instead of copied; the point found is the same in any order.
    """
    inner = sorted(range(1, a.ndim), key=lambda axis: -a.strides[axis])
    index, value = sup_at(a.transpose(0, *inner))
    return index // (a.size // len(a)), value


def sup_at(values) -> tuple:
    """(index, value) of the largest entry.

    A NaN counts as the largest, so a residual that is not a number is the
    worst value and can never pass.
    """
    values = np.ravel(values)
    index = int(np.argmax(values))
    return index, float(values[index])


# --------------------------------------------------------------------------
# Axiom residuals (arrays whose sup over the components is the residual)
# --------------------------------------------------------------------------

def cholesky_defect(g):
    """0 where the symmetric part of g is positive definite, > 0 elsewhere."""
    # factorization success is the test; the eigenvalue magnitude is only
    # reported where it fails
    sym = 0.5 * (g + transpose(g))
    flat = sym.reshape((-1,) + sym.shape[-2:])
    out = np.zeros(len(flat))
    try:
        np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        for i, m in enumerate(flat):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                out[i] = max(1e-300, -float(np.min(np.linalg.eigvalsh(m))))
    return out.reshape(sym.shape[:-2])


def _res_q_xi_alignment(j: StructureJet):
    return j.Qxi - np.asarray(j.nu)[..., None] * j.xi


def _res_q_xi_nu(j: StructureJet):
    """Q xi = nu xi with nu constant: the alignment, or nu's drift if larger."""
    return np.maximum(np.abs(_res_q_xi_alignment(j)).max(axis=-1),
                      np.abs(j.nu_at_point - j.nu))


def _res_phi_invariant(j: StructureJet):
    """eta(phi w) over an exact basis of ker(eta) at each point."""
    _, _, vh = np.linalg.svd(j.eta[..., None, :])
    kernel = vh[..., 1:, :]  # rows span ker eta
    return (kernel @ transpose(j.phi)) @ j.eta[..., None]


def _res_compatibility(j: StructureJet):
    # single-loop np.einsum: validation reports stay independent of the path
    lhs = np.einsum("...ai,...bj,...ab->...ij", j.phi, j.phi, j.g)
    rhs = (np.einsum("...ia,...aj->...ij", j.g, j.Q)
           - np.einsum("...i,...a,...aj->...ij", j.eta, j.eta, j.Q))
    return lhs - rhs


def _q_singular_ratio(j: StructureJet):
    sv = np.linalg.svd(j.Q, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sv[..., 0] > 0.0, sv[..., -1] / sv[..., 0], 0.0)


def _adjoint_defect(a, g, sign: float):
    """g(a e_i, e_j) + sign g(a e_j, e_i): a skew-adjoint for sign 1, self-adjoint for -1."""
    m = np.einsum("...ai,...aj->...ij", a, g)
    return m + sign * transpose(m)


# --------------------------------------------------------------------------
# Identity residual tensors (consumed by the check registry)
# --------------------------------------------------------------------------

def master_identity_terms(j: StructureJet):
    """(LHS, RHS) arrays of the six-term expansion of 2 g((nabla_X phi) Y, Z).

    Index order is [X, Y, Z].
    """
    r1 = 3.0 * einsum("...amn,...mb,...nc->...abc", j.dPhi, j.phi, j.phi)
    r2 = -3.0 * j.dPhi
    r4 = einsum("...bc,...a->...abc", j.N2, j.eta)
    return 2.0 * j.g_nabla_phi, r1 + r2 + r4 + j.contact_terms + j.N5


def master_identity_residual(j: StructureJet) -> np.ndarray:
    lhs, rhs = master_identity_terms(j)
    return lhs - rhs


def contact_identity_residual(j: StructureJet) -> np.ndarray:
    """Reduction of the master identity for weak contact metric structures."""
    return 2.0 * j.g_nabla_phi - (j.contact_terms + j.N5)


def xi_direction_identity_residual(j: StructureJet) -> np.ndarray:
    """2 g((nabla_xi phi) Y, Z) - N5(xi, Y, Z), as a (dim, dim) array."""
    lhs = 2.0 * einsum("...mba,...mc,...a->...bc", j.nabla_phi, j.g, j.xi)
    rhs = einsum("...abc,...a->...bc", j.N5, j.xi)
    return lhs - rhs


def n2_reduction_residual(j: StructureJet) -> np.ndarray:
    """N2(X, Y) minus the Qtilde-commutator form of the normality reduction.

    This is the form with the projected first argument and the g(Qtilde xi, xi)
    weight; it fails to be antisymmetric for nu != 1 (see the nu-weighted
    variant below), so the residual's symmetric part is reported as a flag
    rather than silently corrected.
    """
    Qt = j.Qtilde
    Qtxi = matvec(Qt, j.xi)
    # U_a = Qtilde(e_a - eta_a xi), as a field built on coordinate extensions
    U = Qt - outer(Qtxi, j.eta)
    dQtxi = (einsum("...mnk,...n->...mk", j.d_Q, j.xi)
             + einsum("...mn,...nk->...mk", Qt, j.d_xi))
    dU = (j.d_Q
          - einsum("...ak,...m->...mak", j.d_eta_partials, Qtxi)
          - einsum("...a,...mk->...mak", j.eta, dQtxi))
    bracket = (einsum("...ka,...ibk->...iab", U, j.d_phi)
               - einsum("...kb,...iak->...iab", j.phi, dU))
    f1 = einsum("...i,...iab->...ab", j.eta, bracket)
    ctil = einsum("...i,...ij,...j->...", Qtxi, j.g, j.xi)[..., None, None]
    f2 = -ctil * einsum("...m,...mab->...ab", j.eta, j.d_phi)
    return j.N2 - f1 - f2


def n2_reduction_residual_nu_weighted(j: StructureJet) -> np.ndarray:
    """N2(X, Y) minus (1/nu) eta([Qtilde X, phi Y]) + ((nu-1)/nu) eta([X, phi Y]).

    Derived by pairing the normality hypothesis applied to phi X with xi and
    eliminating eta([xi, phi .]) = 0; reduces to the unweighted form when
    nu = 1 and vanishes on every normal example at machine precision.
    """
    nu = np.asarray(j.nu)[..., None, None]
    br_qt = (einsum("...ka,...mbk->...mab", j.Qtilde, j.d_phi)
             - einsum("...kb,...mak->...mab", j.phi, j.d_Q))
    eta_qt = einsum("...m,...mab->...ab", j.eta, br_qt)
    # eta([e_a, phi e_b]) on coordinate extensions
    eta_x_phiy = einsum("...m,...mba->...ab", j.eta, j.d_phi)
    return j.N2 - (eta_qt / nu) + ((nu - 1.0) / nu) * eta_x_phiy


def h_adjoint_identity_residual(j: StructureJet) -> np.ndarray:
    """g((h - h*) X, Y) minus its bracket expansion."""
    H, _ = j._proj_metric
    lhs = einsum("...ma,...mb->...ab", j.h - j.h_star, j.g)
    K = (einsum("...k,...mbk->...mb", j.xi, j.d_phi)
         - einsum("...kb,...mk->...mb", j.phi, j.d_xi))
    rhs = (einsum("...mb,...mn,...na->...ab", K, H, j.Qtilde)
           - einsum("...ma,...mn,...nb->...ab", K, H, j.Qtilde))
    return lhs - rhs


def h_anticommutator_identity_residual(j: StructureJet) -> np.ndarray:
    """(h phi + phi h) X minus (1/2)([Qtilde X, xi] - Qtilde [X, xi])."""
    rhs = 0.5 * (einsum("...ka,...mk->...ma", j.Qtilde, j.d_xi)
                 - einsum("...k,...mak->...ma", j.xi, j.d_Q)
                 - einsum("...mk,...ka->...ma", j.Qtilde, j.d_xi))
    return j.A_op - rhs


def q_nabla_xi_identity_residual(j: StructureJet) -> np.ndarray:
    """g(Q nabla_X xi, Z) minus g((phi + h phi) Z, Q X) + (1/2) N5(X, xi, phi Z)."""
    lhs = einsum("...mk,...ka,...mb->...ab", j.Q, j.nabla_xi, j.g)
    op = j.phi + j.h @ j.phi
    rhs = (einsum("...mb,...na,...mn->...ab", op, j.Q, j.g)
           - 0.5 * einsum("...akm,...k,...mb->...ab", j.N5, j.xi, j.phi))
    return lhs - rhs


def b_phi_identity_residual(j: StructureJet) -> np.ndarray:
    """N5(phi^2 Y, xi, X) - N5(phi X, xi, phi Y) - 2 g(((h*-h)phi + 2 phi h) X, Y)."""
    t1 = einsum("...abj,...ak,...b->...jk", j.N5, j.phi2, j.xi)
    t2 = -einsum("...abc,...aj,...b,...ck->...jk", j.N5, j.phi, j.xi, j.phi)
    op = j.B_op @ j.phi + 2.0 * (j.phi @ j.h)
    rhs = 2.0 * einsum("...mj,...mk->...jk", op, j.g)
    return t1 + t2 - rhs


def sasakian_nabla_phi_residual(j: StructureJet) -> np.ndarray:
    """g((nabla_X phi) Y, Z) minus the Sasakian-type closed form."""
    lhs = j.g_nabla_phi
    QG = einsum("...ma,...mb->...ab", j.Q, j.g)
    rhs = (einsum("...ab,...c->...abc", QG, j.eta)
           - einsum("...ac,...b->...abc", QG, j.eta)
           + 0.5 * j.N5)
    return lhs - rhs


def cosymplectic_nabla_phi_residual(j: StructureJet) -> np.ndarray:
    """2 g((nabla_X phi) Y, Z) - N5(X, Y, Z)."""
    return 2.0 * j.g_nabla_phi - j.N5


def cosymplectic_dphi_residual(j: StructureJet) -> np.ndarray:
    """6 dPhi(X, Y, Z) minus the cyclic N5 sum."""
    cyc = j.N5 + einsum("...bca->...abc", j.N5) + einsum("...cab->...abc", j.N5)
    return 6.0 * j.dPhi - cyc


def cosymplectic_torsion_residual(j: StructureJet) -> np.ndarray:
    """2 g([phi,phi](X, Y), Z) minus the phi-shifted cyclic N5 sum."""
    lhs = 2.0 * einsum("...mab,...mc->...abc", j.nijenhuis_phi, j.g)
    rhs = (einsum("...mbc,...ma->...abc", j.N5, j.phi)
           + einsum("...mca,...mb->...abc", j.N5, j.phi)
           + einsum("...mab,...mc->...abc", j.N5, j.phi))
    return lhs - rhs


def _antisymmetric_part(m):
    return 0.5 * (m - transpose(m))


# --------------------------------------------------------------------------
# The residual table, its flags, and the Session that reduces them
# --------------------------------------------------------------------------

AXIOM, DERIVED = "axiom", "derived"


class Residual(NamedTuple):
    """A row of `RESIDUALS`: a function of a block jet and its reduction.

    `slots` 0 reduces the array componentwise, to the sup of |entries|; 2
    or 3 contracts that many slots with the Session's test vectors, to the
    sup over the tuples.  Either sup runs over all sample points, and the
    point where it lies is kept.  A row with a `kind` is a validation row:
    it passes when its sup is `<=` its threshold, or, for a lower bound
    (`>`), when its smallest value is above it.  A threshold of None is the
    run's tolerance.
    """
    fn: Callable
    slots: int = 0
    kind: str = ""  # AXIOM | DERIVED for a validation row
    comparison: str = "<="
    threshold: float | None = None


# key -> Residual: the validation rows in report order, then the analysis rows
RESIDUALS = {
    "metric_symmetric": Residual(lambda j: j.g - transpose(j.g), kind=AXIOM),
    "metric_positive_definite": Residual(lambda j: cholesky_defect(j.g), kind=AXIOM),
    "phi_square": Residual(lambda j: j.phi2 + j.Q - outer(j.Qxi, j.eta), kind=AXIOM),
    "eta_xi": Residual(lambda j: np.einsum("...i,...i->...", j.eta, j.xi) - 1.0, kind=AXIOM),
    "q_xi_nu": Residual(_res_q_xi_nu, kind=AXIOM),
    "q_nonsingular": Residual(_q_singular_ratio, kind=AXIOM, comparison=">",
                              threshold=RANK_RTOL),
    "phi_invariant_D": Residual(_res_phi_invariant, kind=AXIOM),
    "compatibility": Residual(_res_compatibility, kind=AXIOM),
    "phi_xi_zero": Residual(lambda j: matvec(j.phi, j.xi), kind=DERIVED),
    "eta_phi_zero": Residual(lambda j: np.einsum("...i,...ij->...j", j.eta, j.phi),
                             kind=DERIVED),
    "q_phi_commute": Residual(lambda j: j.Q @ j.phi - j.phi @ j.Q, kind=DERIVED),
    "phi_skew_adjoint": Residual(lambda j: _adjoint_defect(j.phi, j.g, 1.0), kind=DERIVED),
    "q_self_adjoint": Residual(lambda j: _adjoint_defect(j.Q, j.g, -1.0), kind=DERIVED),
    "eta_is_g_flat_xi": Residual(lambda j: j.eta - matvec(j.g, j.xi), kind=DERIVED),
    "phi_rank_2n": Residual(lambda j: numeric_rank(j.phi) - (j.dim - 1), kind=DERIVED,
                            threshold=0.0),
    "q_xi_alignment": Residual(_res_q_xi_alignment),
    "contact": Residual(lambda j: j.Phi - j.dEta),
    "killing": Residual(lambda j: j.lie_xi_g),
    "n1": Residual(lambda j: j.N1),
    "d_eta": Residual(lambda j: j.dEta),
    "d_phi": Residual(lambda j: j.dPhi),
    "nabla_phi": Residual(lambda j: j.nabla_phi),
    "n2": Residual(lambda j: j.N2),
    "n3": Residual(lambda j: j.N3),
    "n4": Residual(lambda j: j.N4),
    "n5": Residual(lambda j: j.N5),
    "n1_torsion": Residual(lambda j: j.N1 - j.nijenhuis_phi),
    "nabla_xi_xi": Residual(lambda j: j.nabla_xi_xi),
    "iota_xi_d_eta": Residual(lambda j: matvec(j.dEta, j.xi)),
    "lie_xi_eta": Residual(lambda j: j.lie_xi_eta),
    "lie_xi_d_eta": Residual(lambda j: j.lie_xi_dEta),
    "h_xi": Residual(lambda j: matvec(j.h, j.xi)),
    "q_is_nu_on_D": Residual(lambda j: (j.Q @ j.projector) - j.nu * j.projector),
    "n2_reduction": Residual(lambda j: j.n2_reduction, 2),
    # the stated reduction is not antisymmetric for nu != 1: its symmetric
    # part, and the nu-weighted variant that is, are reported beside it
    "n2_reduction_antisymmetrized": Residual(lambda j: _antisymmetric_part(j.n2_reduction), 2),
    "n2_reduction_nu_weighted": Residual(n2_reduction_residual_nu_weighted, 2),
    "master_identity": Residual(master_identity_residual, 3),
    "contact_reduction": Residual(contact_identity_residual, 3),
    "xi_direction": Residual(xi_direction_identity_residual, 2),
    "h_adjoint_defect": Residual(h_adjoint_identity_residual, 2),
    "h_anticommutator_defect": Residual(h_anticommutator_identity_residual, 2),
    "q_weighted_nabla_xi": Residual(q_nabla_xi_identity_residual, 2),
    "n5_pairing": Residual(b_phi_identity_residual, 2),
    "sasakian_nabla_phi": Residual(sasakian_nabla_phi_residual, 3),
    "cosymplectic_nabla_phi": Residual(cosymplectic_nabla_phi_residual, 3),
    "cosymplectic_d_phi": Residual(cosymplectic_dphi_residual, 3),
    "cosymplectic_torsion": Residual(cosymplectic_torsion_residual, 3),
}

# flag -> the residual keys it takes the worst of
FLAGS = {
    "weak_almost_contact_metric":
        ("phi_square", "eta_xi", "q_xi_alignment", "phi_invariant_D", "compatibility"),
    "weak_contact_metric": ("contact",),
    "weak_K_contact": ("killing",),
    "normal": ("n1",),
    "weak_Sasakian": ("n1", "contact"),
    "weak_almost_cosymplectic": ("d_eta", "d_phi"),
    "weak_cosymplectic": ("d_eta", "d_phi", "n1"),
    "phi_parallel": ("nabla_phi",),
}

_TUPLES_PER_POINT = 5
_SLOTS = 3


class Session:
    """One run over a sample plan: its points, block jets, test vectors and sups.

    `validate` builds it, resolves nu and reduces the validation rows through
    it; `classify`, `verify` and the constructions reduce the analysis rows
    and the flags through the same Session, so each block jet is built once
    and each key of `RESIDUALS` is reduced once per run.  A structure whose
    nu is not resolved yet is accepted, but reducing any key needs nu.
    """

    def __init__(self, s: Structure, plan: SamplePlan = DEFAULT_PLAN):
        self.structure = s
        self.plan = plan
        self.points = sample(s.chart, plan)
        self._sups = {}

    @cached_property
    def jets(self) -> list:
        """One StructureJet per block of sample points."""
        return block_jets(self.structure, self.points)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Shape (points, tuples, slots, dim), components in [-1, 1]."""
        dim = self.structure.chart.dim
        return sample_vectors(self.plan, np.arange(len(self.points)),
                              _TUPLES_PER_POINT, _SLOTS, dim)

    # -- residual reducers -----------------------------------------------------

    def _over_blocks(self, sups: list) -> tuple:
        """(point index, sup) of the worst of the blocks' (point, sup) pairs."""
        block = sup_at([value for _, value in sups])[0]
        offset = sum(len(j.point) for j in self.jets[:block])
        return offset + sups[block][0], sups[block][1]

    def sup_pointwise(self, fn) -> tuple:
        """(point index, sup) of |fn(jet)| over the components and the sample points."""
        return self._over_blocks(parallel_map(lambda j: _point_sup(np.abs(fn(j))), self.jets))

    def sup_contracted(self, fn, slots: int) -> tuple:
        """(point index, sup) of a contracted residual tensor over points and vector tuples.

        The first slot is one batched matmul over the points, (tuples, dim) @
        (dim, dim^(slots-1)); each later slot, last first, contracts one more
        axis per tuple, so no array grows beyond (points, tuples, dim^2).
        """

        def per_block(item):
            jet, vec = item
            points, tuples, _, dim = vec.shape
            y = vec[:, :, 0] @ fn(jet).reshape(points, dim, -1)
            for k in range(slots - 1, 0, -1):
                y = np.einsum("...ij,...j->...i", y.reshape(points, tuples, -1, dim),
                              vec[:, :, k])
            return _point_sup(np.abs(y))

        ends = np.cumsum([len(j.point) for j in self.jets])[:-1]
        blocks = zip(self.jets, np.split(self.vectors, ends))
        return self._over_blocks(parallel_map(per_block, list(blocks)))

    def sup(self, key: str) -> tuple:
        """(point index, sup) of a `RESIDUALS` key, reduced once per Session.

        A lower-bound row reports its smallest value, and where it is, instead.
        """
        if key not in self._sups:
            if self.structure.nu is None:
                raise ValueError("structure must be validated (nu resolved) before analysis")
            row = RESIDUALS[key]
            if row.comparison == ">":
                values = np.concatenate([row.fn(j) for j in self.jets])
                index = sup_at(-values)[0]
                self._sups[key] = index, float(values[index])
            else:
                self._sups[key] = (self.sup_contracted(row.fn, row.slots) if row.slots
                                   else self.sup_pointwise(row.fn))
        return self._sups[key]

    def residual(self, key: str) -> float:
        """Sup of a `RESIDUALS` key, or a flag's residual."""
        return self.flag_residuals[key] if key in FLAGS else self.sup(key)[1]

    # -- flags ------------------------------------------------------------------

    @cached_property
    def flag_residuals(self) -> dict:
        return {name: sup_at([self.residual(key) for key in keys])[1]
                for name, keys in FLAGS.items()}

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
        return lam0, sup_at([*deviations, np.max(np.abs(lambdas - lam0))])[1]


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomRow:
    """One validation check: residual semantics depend on `comparison`."""

    axiom: str
    kind: str  # AXIOM | DERIVED
    value: float
    threshold: float
    comparison: str  # '<=' (residual) or '>' (lower bound, e.g. singular values)
    worst_point: tuple
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.value <= self.threshold
        return self.value > self.threshold


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of every axiom over the sample plan, and the Session behind them."""

    name: str
    plan: SamplePlan
    tol: float
    rows: tuple
    nu: float | None
    structure: Structure | None
    session: Session | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def axiom_rows(self):
        return [r for r in self.rows if r.kind == AXIOM]

    def row(self, axiom: str) -> AxiomRow:
        for r in self.rows:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def raise_for_violations(self):
        failures = [(r.axiom, r.worst_point, r.value) for r in self.rows if not r.passed]
        if failures:
            raise AxiomViolationError(failures)
        return self

    def to_json_dict(self) -> dict:
        return {
            "structure": self.name,
            "plan": {"count": self.plan.count, "seed": self.plan.seed,
                     "margin": self.plan.margin},
            "tol": self.tol,
            "nu": self.nu,
            "valid": self.ok,
            "axioms": [
                {"id": r.axiom, "kind": r.kind, "value": r.value,
                 "threshold": r.threshold, "comparison": r.comparison,
                 "worst_point": list(r.worst_point),
                 "verdict": "pass" if r.passed else "fail",
                 **({"note": r.note} if r.note else {})}
                for r in self.rows
            ],
        }


def validate(s: Structure, plan: SamplePlan = DEFAULT_PLAN,
             tol: float = DEFAULT_TOL) -> ValidationReport:
    """Reduce every validation row of `RESIDUALS`; resolve nu if not supplied.

    An open nu is resolved to g(Q xi, xi) / g(xi, xi) at the first sample
    point before any row, and the `q_xi_nu` row then checks that it is
    constant and positive.  The report's `structure` carries the resolved nu
    (also when rows fail, so callers can inspect), and its `session` is the
    Session that reduced the rows: `classify`, `verify` and the constructions
    take it and reuse its block jets and sups.
    """
    ses = Session(s, plan)
    if s.nu is None:
        ses.structure = s.with_nu(ses.jets[0].nu_at_point[0])
        for j in ses.jets:
            j.structure = ses.structure  # let jets see the resolved constant
    nu = ses.structure.nu
    rows = []
    for key, row in RESIDUALS.items():
        if not row.kind:
            continue
        index, value = ses.sup(key)
        note = ""
        if key == "q_xi_nu" and nu <= 0.0:
            note, value = f"nu = {nu} is not positive", float(np.maximum(value, 1.0 + abs(nu)))
        elif key == "phi_rank_2n":
            block, i = divmod(index, BLOCK_POINTS)
            note = f"rank {numeric_rank(ses.jets[block].phi[i])} vs 2n = {s.dim - 1}"
        if not np.isfinite(value):
            note = "; ".join(filter(None, (note, "residual is not finite")))
        rows.append(AxiomRow(key, row.kind, value,
                             tol if row.threshold is None else row.threshold,
                             row.comparison, tuple(float(v) for v in ses.points[index]),
                             note))
    return ValidationReport(s.name, plan, tol, tuple(rows), float(nu), ses.structure, ses)
