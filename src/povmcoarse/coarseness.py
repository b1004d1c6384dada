"""Deciding whether one measurement is a coarse-graining of another.

A measurement ``C2`` is *coarser* than ``C1`` when every element of ``C2`` is a
fixed stochastic mixture of ``C1``'s elements: ``Π^(2)_j = sum_i P_ji Π^(1)_i``
for some left stochastic ``P``. The same relation restricted to a subspace
``G`` sees each element only through ``P_G Π P_G``, quantifies only over the
outcomes possible in ``G``, and adds the volume inequality
``V^(2)_j >= sum_i P_ji V^(1)_i``. On bare ``(p, V)`` data the elements are
the pairs ``(p_i, V_i)``.

The operator checks first look at the span of the fine elements' real
components (one QR of the ``(D, n)`` component matrix). A coarse element
farther than ``10 * tol`` from that span is ``infeasible`` with no LP. When
the fine elements are linearly independent and every coarse element lies in
the span within ``tol``, ``P`` is unique; it is solved for directly and, if it
is non-negative, meets the volume rows and passes the verdict rule below, the
verdict is ``feasible``. Neither decision runs the LP, so both leave
``phase1_optimum`` ``nan``. Every other input (a gap in the band between, a
dependent fine side, a negative or rejected unique solution) goes to one
linear feasibility problem over the entries of ``P``, laid out by
:func:`_processing_system`.

Both sides are complete, so the LP eliminates the last coarse outcome: its row
is ``P_{m-1,i} = 1 - sum_{j<m-1} P_ji`` and its ``D`` component rows follow
from the others. The variables are the first ``m - 1`` rows of ``P``, ``P_ji``
at ``j * n + i``; the equalities are one block of ``D`` rows per coarse
outcome ``j < m - 1`` (the ``D`` real components of its element); the column
sums are ``n`` inequalities ``sum_{j<m-1} P_ji <= 1``, whose slacks are the
last row, so phase 1 starts from ``P_{m-1,.} = 1`` with no artificial variable
on them; the subspace check appends one volume inequality per coarse outcome,
the last one written as ``-sum_{j<m-1} sum_i P_ji V_i <= V'_{m-1} - sum_i
V_i``. The eliminated rows hold only when the components' sums agree, and any
left stochastic ``P`` leaves block residuals that sum to ``sum_j c_j - sum_i
f_i``; the norm ``g`` of that vector bounds the phase-1 optimum from below, as
the span gap does. A ``g`` above ``10 * tol`` is ``infeasible`` with no LP,
and the LP's verdict is the band of ``max(phase-1 optimum, g)``.

Hermitian operators contribute ``d^2`` real components each: the diagonal
plus real and imaginary parts of the strict upper triangle, which drops the
redundant conjugate constraints. The subspace check compares the ``r x r``
blocks ``B† Π B`` in an orthonormal basis ``B`` of a rank-``r`` subspace, so
its elements contribute ``r^2`` components each.

On bare ``(p, V)`` data the relation is Blackwell's order on dichotomies, and
relative majorization (Ruch, Schranner & Seligman, J. Chem. Phys. 69, 386
(1978); Renes, J. Math. Phys. 57, 122202 (2016)) decides it without pivots
(:func:`majorization_verdicts`): with ``q = V / sum(V)``, ``P`` exists iff
the volume totals agree and ``sum_i (p_i - t q_i)_+ >= sum_j (p'_j - t q'_j)_+``
for every threshold ``t >= 0``. The classical check solves the LP, on the
scale-free rows ``(p_i, V_i / sum(V))``, only to produce the witness of a
``feasible`` verdict.

One verdict rule (:func:`_witness_verdict`) turns a candidate ``P``, from the
span solve or from the LP, into a :class:`CoarsenessCertificate`: the
candidate, clipped at zero, must be left stochastic, and its residual
(the largest per-outcome norm of ``sum_i P_ji Π^(1)_i - Π^(2)_j``, the
eliminated outcome included) must be at most ``max(tol, 1e-7)``; a witness
that fails either test gives ``ambiguous``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import StochasticMatrix, WeightedDistribution, as_stochastic, push_forward
from .errors import (
    BrokenColumnSumError,
    DimensionMismatchError,
    EmptyOutcomeSetError,
    NotProjectiveError,
    NotStochasticError,
    ShapeMismatchError,
    ZeroElementError,
)
from .measurements import GeneralizedMeasurement, validate_measurement
from .operators import DEFAULT_ATOL, Subspace, frobenius
from .simplex import _check_tol, _verdict_band, lp_feasible

DEFAULT_FEAS_TOL = 1e-8

OutcomeSet = tuple[int, ...]
Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Separation:
    """Where a classical pair comes closest to violating relative majorization.

    ``slack`` is ``sum_i (p_i - t q_i)_+ - sum_j (p'_j - t q'_j)_+`` at the
    threshold ``t`` that minimizes it, with ``q = V / sum(V)`` and
    ``q' = V' / sum(V')``; ``volume_gap`` is ``|sum(V') - sum(V)| / sum(V)``.
    A negative slack below ``-tol``, or a gap above ``tol``, separates the pair.
    """

    threshold: float
    slack: float
    volume_gap: float


@dataclass(frozen=True)
class CoarsenessCertificate:
    """Feasibility verdict for a coarse-graining relation.

    ``witness`` is present exactly when the verdict is ``feasible``;
    ``residual`` is then the largest per-outcome violation of the defining
    equalities recomputed from the witness: the Frobenius norm on operators,
    the Euclidean norm over the scale-free ``(p_j, V_j / sum(V))`` pairs for
    the classical check. ``phase1_optimum`` is the LP's phase-1 optimum,
    raised to the completeness gap when that is larger, and ``nan`` when no
    LP ran.
    ``volume_slack`` and the outcome sets are populated by the subspace
    variant; ``extension`` is the witness padded to the full outcome sets (left
    stochastic by construction). ``separation`` is set by the classical check
    on a verdict that is not ``feasible``.
    """

    verdict: str  # "feasible" | "infeasible" | "ambiguous"
    witness: StochasticMatrix | None
    residual: float
    phase1_optimum: float
    volume_slack: np.ndarray | None = None
    coarse_outcomes: OutcomeSet | None = None
    fine_outcomes: OutcomeSet | None = None
    extension: StochasticMatrix | None = field(default=None, repr=False)
    separation: Separation | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


@functools.lru_cache(maxsize=None)
def _upper_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a ``d x d`` matrix, read-only."""
    rows, cols = np.triu_indices(d, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _component_rows(mats) -> np.ndarray:
    """Flatten a stack of ``n`` Hermitian matrices into ``(n, d^2)`` real components."""
    stack = np.asarray(mats)
    rows, cols = _upper_indices(stack.shape[-1])
    upper = stack[:, rows, cols]
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    return np.concatenate([diag, upper.real, upper.imag], axis=1)


def _processing_system(comp_fine, comp_coarse, v_fine=None, v_coarse=None):
    """Linear system of ``comp_coarse[j] = sum_i P_ji comp_fine[i]``, ``P`` left stochastic.

    ``comp_fine`` is ``(n, D)`` and ``comp_coarse`` is ``(m, D)``. The last
    coarse outcome is eliminated (``P_{m-1,i} = 1 - sum_{j<m-1} P_ji``), so
    ``(a_eq, b_eq, a_ub, b_ub)`` is over the ``(m - 1) * n`` variables
    ``P_ji``, ``j < m - 1``, at ``j * n + i``: ``m - 1`` blocks of ``D``
    equality rows, then ``n`` column sums ``sum_{j<m-1} P_ji <= 1``. With
    volumes, ``m`` inequality rows follow: ``sum_i P_ji v_fine[i] <=
    v_coarse[j]`` for ``j < m - 1``, and for the last outcome
    ``-sum_{j<m-1} sum_i P_ji v_fine[i] <= v_coarse[m-1] - sum(v_fine)``.
    """
    n, D = comp_fine.shape
    k = comp_coarse.shape[0] - 1
    diag = np.arange(k)
    a_eq = np.zeros((k * D, k * n))
    # block (j, j), viewed as (k, D, k, n), is comp_fine.T
    a_eq.reshape(k, D, k, n)[diag, :, diag, :] = comp_fine.T
    b_eq = comp_coarse[:k].ravel()
    rows = n if v_fine is None else n + k + 1
    a_ub = np.zeros((rows, k * n))
    # the column-sum rows are k identity blocks side by side
    a_ub[:n].reshape(n, k, n)[:] = np.eye(n)[:, None, :]
    b_ub = np.ones(rows)
    if v_fine is not None:
        volume = a_ub[n:].reshape(k + 1, k, n)
        volume[diag, diag] = v_fine
        volume[k] = -v_fine
        b_ub[n:] = v_coarse
        b_ub[-1] -= v_fine.sum()
    return a_eq, b_eq, a_ub, b_ub


def _residual(mat: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> float:
    """Largest per-outcome norm of ``sum_i mat[j, i] fine[i] - coarse[j]``, elements flattened."""
    diff = mat @ fine.reshape(len(fine), -1) - coarse.reshape(len(coarse), -1)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def _witness_verdict(mat, fine, coarse, tol, phase1_optimum) -> CoarsenessCertificate:
    """The verdict rule: a candidate ``(m, n)`` matrix is a witness or gives ``ambiguous``.

    The candidate is clipped at zero, must be left stochastic within
    ``max(DEFAULT_FEAS_TOL, tol)``, and must reproduce every coarse element
    within ``max(tol, 1e-7)``.
    """
    try:
        witness = StochasticMatrix(np.clip(mat, 0.0, None), col_tol=max(DEFAULT_FEAS_TOL, tol))
    except NotStochasticError:
        return CoarsenessCertificate("ambiguous", None, math.inf, phase1_optimum)
    residual = _residual(witness.matrix, fine, coarse)
    if residual > max(tol, 1e-7):
        return CoarsenessCertificate("ambiguous", None, residual, phase1_optimum)
    return CoarsenessCertificate("feasible", witness, residual, phase1_optimum)


def _span_decision(comp_fine, comp_coarse, fine, coarse, tol, v_fine, v_coarse):
    """The certificate that the span of the fine components settles without an LP, or ``None``.

    With ``F = QR`` the thin QR of the ``(D, n)`` fine component matrix, a
    coarse row ``c_j`` at distance ``g`` from the span of ``Q`` leaves every
    ``P`` a component residual of Euclidean norm at least ``g``, so the LP's
    L1 phase-1 optimum is at least ``g``: a gap above ``10 * tol`` is
    ``infeasible``. When the fine components are independent and every gap is
    at most ``tol``, ``P = R^-1 Q^T C`` is the only candidate; it is returned
    when no entry is below ``-tol``, it meets the volume rows within ``tol``
    and it passes :func:`_witness_verdict`. Anything else is left to the LP.
    """
    n, big_d = comp_fine.shape
    if n > big_d:  # Q would span all of R^D
        return None
    q, r = np.linalg.qr(comp_fine.T)
    coords = comp_coarse @ q
    gap = float(np.max(np.linalg.norm(comp_coarse - coords @ q.T, axis=1)))
    band = _verdict_band(gap, tol)
    if band == "infeasible":
        return CoarsenessCertificate("infeasible", None, math.inf, math.nan)
    scale = np.abs(np.diag(r))
    if band != "feasible" or scale.min() <= 1e-10 * scale.max():
        return None
    mat = np.linalg.solve(r, coords.T).T
    if mat.min() < -tol:
        return None
    if v_fine is not None and np.max(np.clip(mat, 0.0, None) @ v_fine - v_coarse) > tol:
        return None
    cert = _witness_verdict(mat, fine, coarse, tol, math.nan)
    return cert if cert.feasible else None


def _decide(fine, coarse, tol, v_fine=None, v_coarse=None) -> CoarsenessCertificate:
    """Decide ``coarse = P @ fine`` for two element stacks: by their span, else by the LP.

    The stacks hold operators, ``(n, d, d)`` and ``(m, d, d)``, or rows of
    ``(p_i, V_i)`` pairs, ``(n, 2)`` and ``(m, 2)``, which are their own
    components. Before the LP, the completeness gap (module docstring)
    decides ``infeasible`` when it is above ``10 * tol``; the LP's candidate
    is the top ``m - 1`` rows of ``P``, completed by ``1 - top.sum(0)``.
    """
    _check_tol(tol)
    if fine.ndim == 2:
        comp_fine, comp_coarse = fine, coarse
    else:
        comp_fine, comp_coarse = _component_rows(fine), _component_rows(coarse)
    decided = _span_decision(comp_fine, comp_coarse, fine, coarse, tol, v_fine, v_coarse)
    if decided is not None:
        return decided
    # the block residuals of any left stochastic P sum to this vector; the
    # eliminated outcome's rows follow from the others only where it is zero
    gap = float(np.linalg.norm(comp_coarse.sum(axis=0) - comp_fine.sum(axis=0)))
    if _verdict_band(gap, tol) == "infeasible":
        return CoarsenessCertificate("infeasible", None, math.inf, math.nan)
    k, n = len(coarse) - 1, len(fine)
    system = _processing_system(comp_fine, comp_coarse, v_fine, v_coarse)
    result = lp_feasible(*system, n_vars=k * n, tol=tol)
    optimum = max(result.phase1_optimum, gap)
    verdict = _verdict_band(optimum, tol)
    if verdict != "feasible":
        return CoarsenessCertificate(verdict, None, math.inf, optimum)
    top = result.x.reshape(k, n)
    return _witness_verdict(np.vstack([top, 1.0 - top.sum(axis=0)]), fine, coarse, tol, optimum)


def mixture_residual(coarse: GeneralizedMeasurement, fine: GeneralizedMeasurement, p) -> float:
    """Largest Frobenius error of ``Π^(2)_j - sum_i P_ji Π^(1)_i``.

    ``p`` is a :class:`StochasticMatrix` or anything it accepts; any other
    matrix, an array included, raises :class:`NotStochasticError`.
    """
    mat = as_stochastic(p).matrix
    if mat.shape != (coarse.n_outcomes, fine.n_outcomes):
        raise ShapeMismatchError(
            f"matrix shape {mat.shape} does not match "
            f"({coarse.n_outcomes}, {fine.n_outcomes}) coarse and fine outcomes"
        )
    return _residual(mat, fine.stacked(), coarse.stacked())


def check_coarser(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide ``coarse = P @ fine`` elementwise for some left stochastic ``P``.

    The span of the fine elements decides first: a coarse element more than
    ``10 * tol`` outside it gives ``infeasible``, and linearly independent fine
    elements give the unique ``P``, ``feasible`` when it passes the verdict
    rule; neither runs an LP. Otherwise one equality per Hermitian component
    of each coarse element but the last, plus one column-sum inequality per
    fine outcome, go to a phase-1 solve over the ``(m - 1) x n`` non-negative
    unknowns ``P_ji``, ``j < m - 1``; the last row of ``P`` is what the
    column sums leave.
    """
    if coarse.dim != fine.dim:
        raise DimensionMismatchError(f"dimensions differ: {coarse.dim} vs {fine.dim}")
    return _decide(fine.stacked(), coarse.stacked(), tol)


def majorization_verdicts(
    fine: WeightedDistribution,
    probs: np.ndarray,
    volumes: np.ndarray,
    tol: float = DEFAULT_FEAS_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decide the classical relation for a ``(k, m)`` stack of candidates by relative majorization.

    Row ``c`` of ``probs`` and ``volumes`` is a candidate ``(p', V')``, checked
    as :func:`~povmcoarse.distributions.weighted_rows` checks it. The slack
    ``f(t) = sum_i (p_i - t q_i)_+ - sum_j (p'_j - t q'_j)_+`` is piecewise
    linear in ``t`` with breaks at the ratios ``p_i / q_i`` and
    ``p'_j / q'_j``, and vanishes from the largest ratio on, so its minimum
    over ``t >= 0`` is its minimum over ``t = 0`` and the ratios. The
    verdict applies the simplex's band to ``max(-slack, volume_gap)``.

    Returns ``(verdicts, thresholds, slacks, volume_gaps)``, each of shape
    ``(k,)``; see :class:`Separation` for the last three.
    """
    _check_tol(tol)
    total = fine.total_volume
    q = fine.volumes / total
    totals = volumes.sum(axis=-1)
    quotas = volumes / totals[:, None]
    k = len(probs)
    ratios = np.concatenate(
        [np.zeros((k, 1)), np.broadcast_to(fine.probs / q, (k, fine.n)), probs / quotas], axis=1
    )
    t = ratios[:, :, None]
    values = (
        np.clip(fine.probs - t * q, 0.0, None).sum(axis=-1)
        - np.clip(probs[:, None, :] - t * quotas[:, None, :], 0.0, None).sum(axis=-1)
    )
    worst = np.argmin(values, axis=1)[:, None]
    slacks = np.take_along_axis(values, worst, axis=1)[:, 0]
    thresholds = np.take_along_axis(ratios, worst, axis=1)[:, 0]
    gaps = np.abs(totals - total) / total
    verdicts = _verdict_band(np.maximum(-slacks, gaps), tol)
    return verdicts, thresholds, slacks, gaps


def check_coarser_classical(
    fine: WeightedDistribution,
    coarse: WeightedDistribution,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide whether ``coarse`` arises from ``fine`` by stochastic processing.

    Feasible iff some left stochastic ``P`` maps both the probabilities and
    the volumes: ``p' = P p`` and ``V' = P V``. The verdict is the ``k = 1``
    case of :func:`majorization_verdicts`, so it does not depend on the
    volume scale; a verdict that is not ``feasible`` carries its
    :class:`Separation` and no LP runs. A ``feasible`` verdict gets its
    witness from the processing LP on the rows ``(p_i, V_i / sum(V))``; if
    that LP yields no valid witness the verdict is ``ambiguous``.
    """
    verdicts, thresholds, slacks, gaps = majorization_verdicts(
        fine, coarse.probs[None], coarse.volumes[None], tol
    )
    separation = Separation(float(thresholds[0]), float(slacks[0]), float(gaps[0]))
    if verdicts[0] != "feasible":
        return CoarsenessCertificate(
            str(verdicts[0]), None, math.inf, math.nan, separation=separation
        )
    total = fine.total_volume
    cert = _decide(
        np.array([fine.probs, fine.volumes / total]).T,
        np.array([coarse.probs, coarse.volumes / total]).T,
        tol,
    )
    if cert.feasible:
        return cert
    return replace(cert, verdict="ambiguous", separation=separation)


def possible_outcomes(
    measurement: GeneralizedMeasurement,
    subspace: Subspace,
    tol: float = DEFAULT_ATOL,
) -> OutcomeSet:
    """Outcomes attainable on states inside the subspace.

    Outcome ``i`` is possible iff ``Π_i P_G != 0``, detected as
    ``‖Π_i B‖_F = ‖Π_i P_G‖_F > tol`` for the orthonormal basis ``B`` of ``G``.
    """
    if measurement.dim != subspace.dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} vs subspace dimension {subspace.dim}"
        )
    norms = np.linalg.norm(measurement.stacked() @ subspace.basis, axis=(1, 2))
    return tuple(int(i) for i in np.flatnonzero(norms > tol))


def _extension_from(witness, coarse, fine, o2, o1) -> StochasticMatrix | None:
    """Pad a subspace witness to all outcomes with the volume-balancing constants."""
    m, n = coarse.n_outcomes, fine.n_outcomes
    v1, v2 = fine.volumes(), coarse.volumes()
    full = np.zeros((m, n))
    full[np.ix_(o2, o1)] = witness
    rest = sorted(set(range(n)) - set(o1))
    if rest:
        denom = float(v1[rest].sum())
        fill = np.clip((v2 - full[:, list(o1)] @ v1[list(o1)]) / denom, 0.0, None)
        full[:, rest] = fill[:, None]
    try:
        return StochasticMatrix(full, col_tol=1e-6)
    except NotStochasticError:  # a witness that overspends a coarse volume
        return None


def check_coarser_in_subspace(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    subspace: Subspace,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide the coarse-graining relation restricted to a subspace.

    The equalities compare the ``r x r`` blocks ``B† Π B`` of the elements
    possible in the subspace, which carry the same norms as ``P_G Π P_G``
    (:meth:`~povmcoarse.operators.Subspace.compress`). The extra inequality
    ``V^(2)_j >= sum_i P_ji V^(1)_i`` reflects an observer who does not know
    that states are confined to the subspace. With the full space this reduces
    exactly to :func:`check_coarser`. As there, the span of the fine blocks
    decides first: a coarse block more than ``10 * tol`` outside it gives
    ``infeasible``, and independent fine blocks give the unique ``P``, which is
    ``feasible`` when it also meets the volume rows within ``tol``; the LP runs
    for everything else, for instance when more than ``r^2`` fine outcomes are
    possible.
    """
    if coarse.dim != fine.dim or coarse.dim != subspace.dim:
        raise DimensionMismatchError(
            f"dimensions differ: {coarse.dim}, {fine.dim}, subspace {subspace.dim}"
        )
    o1 = possible_outcomes(fine, subspace)
    o2 = possible_outcomes(coarse, subspace)
    if not o1 or not o2:
        raise EmptyOutcomeSetError(
            f"no possible outcomes in the subspace (fine: {len(o1)}, coarse: {len(o2)})"
        )
    v1 = fine.volumes()[list(o1)]
    v2 = coarse.volumes()[list(o2)]
    cert = _decide(subspace.compress(fine.stacked()[list(o1)]),
                   subspace.compress(coarse.stacked()[list(o2)]), tol, v1, v2)
    found = {}
    if cert.feasible:
        mat = cert.witness.matrix
        found = {
            "volume_slack": v2 - mat @ v1,
            "extension": _extension_from(mat, coarse, fine, o2, o1),
        }
    return replace(cert, coarse_outcomes=o2, fine_outcomes=o1, **found)


def check_coarser_projective(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    tol: float = DEFAULT_FEAS_TOL,
) -> Partition | None:
    """Fast path when the coarse measurement is projective.

    For projective ``coarse`` the relation holds iff the fine elements can be
    partitioned into disjoint groups summing to the projectors. Each fine
    element can overlap (have positive pairing trace with) at most one
    projector when a partition exists, so a greedy unique-overlap assignment
    followed by verification of the group sums decides the relation. Returns
    the partition (blocks indexed by coarse outcome) or ``None``.
    """
    if coarse.dim != fine.dim:
        raise DimensionMismatchError(f"dimensions differ: {coarse.dim} vs {fine.dim}")
    _check_tol(tol)
    projectors, fine_stack = coarse.stacked(), fine.stacked()
    defects = np.linalg.norm(projectors @ projectors - projectors, axis=(1, 2))
    bad = np.flatnonzero(defects > DEFAULT_ATOL)
    if bad.size:
        raise NotProjectiveError(
            f"coarse element {bad[0]} is not a projector (||P^2 - P||_F = {defects[bad[0]]:.3e})"
        )
    overlaps = np.einsum("iab,jba->ij", fine_stack, projectors).real
    blocks: list[list[int]] = [[] for _ in range(coarse.n_outcomes)]
    for i in range(fine.n_outcomes):
        hits = np.flatnonzero(overlaps[i] > tol)
        if hits.size != 1:
            return None
        blocks[int(hits[0])].append(i)
    for j, block in enumerate(blocks):
        if frobenius(fine_stack[block].sum(axis=0) - projectors[j]) > max(tol, 1e-8):
            return None
    return tuple(tuple(block) for block in blocks)


def restrict_transition_matrix(
    p_full,
    coarse_subset: OutcomeSet,
    fine_subset: OutcomeSet,
    coarse_all: OutcomeSet,
    fine_all: OutcomeSet,
    tol: float = 1e-6,
) -> StochasticMatrix:
    """Restrict a subspace witness to the outcome sets of a smaller subspace.

    ``p_full`` is indexed by ``(coarse_all, fine_all)``; the result keeps the
    rows in ``coarse_subset`` and columns in ``fine_subset``. Entries outside
    the restricted rows vanish for the retained columns, so the restricted
    columns still sum to one; a violation raises
    :class:`~povmcoarse.errors.BrokenColumnSumError` since it contradicts the
    restriction property. ``p_full`` is a :class:`StochasticMatrix` or anything
    it accepts; any other matrix, an array included, raises
    :class:`~povmcoarse.errors.NotStochasticError`.
    """
    _check_tol(tol)
    mat = as_stochastic(p_full).matrix
    row_pos = {label: k for k, label in enumerate(coarse_all)}
    col_pos = {label: k for k, label in enumerate(fine_all)}
    try:
        rows = [row_pos[j] for j in coarse_subset]
        cols = [col_pos[i] for i in fine_subset]
    except KeyError as missing:
        raise IndexError(f"outcome {missing} is not in the enclosing outcome set") from None
    if mat.shape != (len(coarse_all), len(fine_all)):
        raise ShapeMismatchError(
            f"matrix shape {mat.shape} does not match outcome sets "
            f"({len(coarse_all)}, {len(fine_all)})"
        )
    sub = mat[np.ix_(rows, cols)]
    sums = sub.sum(axis=0)
    worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
    if worst > tol:
        raise BrokenColumnSumError(
            f"restricted columns deviate from 1 by {worst:.3e}; the restriction "
            "property is violated"
        )
    return StochasticMatrix(sub, col_tol=max(tol, 1e-8))


def coarsen(
    fine: GeneralizedMeasurement,
    p,
    *,
    zero_tol: float = DEFAULT_ATOL,
    atol: float = 1e-9,
) -> GeneralizedMeasurement:
    """Build the coarse-grained measurement ``Π'_j = sum_i P_ji Π_i``.

    Rows whose mixture is numerically zero would create forbidden zero
    elements; they are dropped, with the kept row indices recorded in the
    result's ``labels``.
    """
    stoch = as_stochastic(p)
    if stoch.cols != fine.n_outcomes:
        raise NotStochasticError(
            f"matrix has {stoch.cols} columns for {fine.n_outcomes} outcomes"
        )
    mixed = np.einsum("ji,iab->jab", stoch.matrix, fine.stacked())
    kept = np.flatnonzero(np.linalg.norm(mixed, axis=(1, 2)) > zero_tol)
    if not kept.size:
        raise ZeroElementError("every row of the transition matrix mixes to zero")
    return validate_measurement(mixed[kept], labels=kept.tolist(), atol=atol, zero_tol=zero_tol)


def preserves_observational_entropy(p, w: WeightedDistribution, tol: float = 1e-8) -> bool:
    """Whether processing ``w`` through ``p`` keeps observational entropy fixed.

    The push-forward has exactly the same observational entropy iff
    ``P_ji p_i V'_j = P_ji V_i p'_j`` for every entry, i.e. the ratio ``p/V``
    is constant across the inputs that each output actually mixes.
    """
    _check_tol(tol)
    stoch = as_stochastic(p)
    if stoch.cols != w.n:
        raise ShapeMismatchError(f"matrix has {stoch.cols} columns for {w.n} outcomes")
    out = push_forward(stoch, w)
    lhs = stoch.matrix * np.outer(out.volumes, w.probs)
    rhs = stoch.matrix * np.outer(out.probs, w.volumes)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)
