"""Deciding whether one measurement is a coarse-graining of another.

A measurement ``C2`` is *coarser* than ``C1`` when every element of ``C2`` is a
fixed stochastic mixture of ``C1``'s elements: ``Π^(2)_j = sum_i P_ji Π^(1)_i``
for some left stochastic ``P``. The same relation restricted to a subspace
``G`` projects both sides with ``P_G``, quantifies only over the outcomes
possible in ``G``, and adds the volume inequality
``V^(2)_j >= sum_i P_ji V^(1)_i``.

Both checks reduce to linear feasibility over the entries of ``P`` and return
a :class:`CoarsenessCertificate` carrying the verdict, the witness matrix, and
the residual of the defining equalities. Hermitian operator equalities are
encoded as ``d^2`` real equations each: the diagonal plus real and imaginary
parts of the strict upper triangle, which drops the redundant conjugate
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .simplex import lp_feasible

DEFAULT_FEAS_TOL = 1e-8

OutcomeSet = tuple[int, ...]
Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoarsenessCertificate:
    """Feasibility verdict for a coarse-graining relation.

    ``witness`` is present exactly when the verdict is ``feasible``;
    ``residual`` is then the largest Frobenius violation of the defining
    equalities recomputed from the witness. ``volume_slack`` and the outcome
    sets are populated by the subspace variant; ``extension`` is the witness
    padded to the full outcome sets (left stochastic by construction).
    """

    verdict: str  # "feasible" | "infeasible" | "ambiguous"
    witness: StochasticMatrix | None
    residual: float
    phase1_optimum: float
    volume_slack: np.ndarray | None = None
    coarse_outcomes: OutcomeSet | None = None
    fine_outcomes: OutcomeSet | None = None
    extension: StochasticMatrix | None = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def _hermitian_components(mat: np.ndarray) -> np.ndarray:
    """Flatten a Hermitian matrix into its d^2 independent real components."""
    d = mat.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.diag(mat).real, mat[iu].real, mat[iu].imag])


def _component_rows(mats) -> np.ndarray:
    return np.stack([_hermitian_components(m) for m in mats])


def _verdict_from(result, witness_shape, tol):
    if not result.feasible:
        return result.verdict, None
    witness = np.clip(result.x.reshape(witness_shape), 0.0, None)
    try:
        stochastic = StochasticMatrix(witness, col_tol=max(DEFAULT_FEAS_TOL, tol))
    except NotStochasticError:
        return "ambiguous", None
    return "feasible", stochastic


def mixture_residual(coarse: GeneralizedMeasurement, fine: GeneralizedMeasurement, p) -> float:
    """Largest Frobenius error of ``Π^(2)_j - sum_i P_ji Π^(1)_i``."""
    mat = as_stochastic(p).matrix if not isinstance(p, np.ndarray) else p
    mixed = np.einsum("ji,iab->jab", mat, fine.stacked())
    return float(np.max(np.linalg.norm(mixed - coarse.stacked(), axis=(1, 2))))


def check_coarser(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide ``coarse = P @ fine`` elementwise for some left stochastic ``P``.

    Encodes one equality per Hermitian component of each coarse element plus
    one column-sum equality per fine outcome, and solves phase-1 feasibility
    over the ``m x n`` non-negative unknowns ``P_ji``.
    """
    if coarse.dim != fine.dim:
        raise DimensionMismatchError(f"dimensions differ: {coarse.dim} vs {fine.dim}")
    m, n = coarse.n_outcomes, fine.n_outcomes
    comp_fine = _component_rows(fine.elements)  # (n, D)
    comp_coarse = _component_rows(coarse.elements)  # (m, D)
    D = comp_fine.shape[1]
    n_vars = m * n

    a_eq = np.zeros((m * D + n, n_vars))
    b_eq = np.zeros(m * D + n)
    for j in range(m):
        a_eq[j * D : (j + 1) * D, j * n : (j + 1) * n] = comp_fine.T
        b_eq[j * D : (j + 1) * D] = comp_coarse[j]
    for i in range(n):
        a_eq[m * D + i, i::n] = 1.0
        b_eq[m * D + i] = 1.0

    result = lp_feasible(a_eq, b_eq, n_vars=n_vars, tol=tol)
    verdict, witness = _verdict_from(result, (m, n), tol)
    if verdict != "feasible":
        return CoarsenessCertificate(verdict, None, float("inf"), result.phase1_optimum)
    residual = mixture_residual(coarse, fine, witness.matrix)
    if residual > max(tol, 1e-7):
        verdict = "ambiguous"
        return CoarsenessCertificate(verdict, None, residual, result.phase1_optimum)
    return CoarsenessCertificate("feasible", witness, residual, result.phase1_optimum)


def check_coarser_classical(
    fine: WeightedDistribution,
    coarse: WeightedDistribution,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide whether ``coarse`` arises from ``fine`` by stochastic processing.

    Feasible iff some left stochastic ``P`` maps both the probabilities and
    the volumes: ``p' = P p`` and ``V' = P V``.
    """
    m, n = coarse.n, fine.n
    n_vars = m * n
    a_eq = np.zeros((2 * m + n, n_vars))
    b_eq = np.zeros(2 * m + n)
    for j in range(m):
        a_eq[j, j * n : (j + 1) * n] = fine.probs
        b_eq[j] = coarse.probs[j]
        a_eq[m + j, j * n : (j + 1) * n] = fine.volumes
        b_eq[m + j] = coarse.volumes[j]
    for i in range(n):
        a_eq[2 * m + i, i::n] = 1.0
        b_eq[2 * m + i] = 1.0

    result = lp_feasible(a_eq, b_eq, n_vars=n_vars, tol=tol)
    verdict, witness = _verdict_from(result, (m, n), tol)
    if verdict != "feasible":
        return CoarsenessCertificate(verdict, None, float("inf"), result.phase1_optimum)
    mat = witness.matrix
    residual = max(
        float(np.max(np.abs(mat @ fine.probs - coarse.probs))),
        float(np.max(np.abs(mat @ fine.volumes - coarse.volumes))),
    )
    return CoarsenessCertificate("feasible", witness, residual, result.phase1_optimum)


def possible_outcomes(
    measurement: GeneralizedMeasurement,
    subspace: Subspace,
    tol: float = DEFAULT_ATOL,
) -> OutcomeSet:
    """Outcomes attainable on states inside the subspace.

    Outcome ``i`` is possible iff ``Π_i P_G != 0``, detected as
    ``‖Π_i P_G‖_F > tol``.
    """
    if measurement.dim != subspace.dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} vs subspace dimension {subspace.dim}"
        )
    pg = subspace.projector.matrix
    norms = np.linalg.norm(measurement.stacked() @ pg, axis=(1, 2))
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
    except NotStochasticError:  # pragma: no cover - defensive
        return None


def check_coarser_in_subspace(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    subspace: Subspace,
    tol: float = DEFAULT_FEAS_TOL,
) -> CoarsenessCertificate:
    """Decide the coarse-graining relation restricted to a subspace.

    The equalities compare two-sided projections ``P_G Π P_G`` over the
    outcomes possible in the subspace, in the ambient representation (rank
    deficiency just adds redundant equalities). The extra inequality
    ``V^(2)_j >= sum_i P_ji V^(1)_i`` reflects an observer who does not know
    that states are confined to the subspace. With the full space this reduces
    exactly to :func:`check_coarser`.
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
    pg = subspace.projector.matrix
    proj_fine = [pg @ fine.elements[i] @ pg for i in o1]
    proj_coarse = [pg @ coarse.elements[j] @ pg for j in o2]
    comp_fine = _component_rows(proj_fine)
    comp_coarse = _component_rows(proj_coarse)
    D = comp_fine.shape[1]
    m, n = len(o2), len(o1)
    n_vars = m * n
    v1 = fine.volumes()[list(o1)]
    v2 = coarse.volumes()[list(o2)]

    a_eq = np.zeros((m * D + n, n_vars))
    b_eq = np.zeros(m * D + n)
    for j in range(m):
        a_eq[j * D : (j + 1) * D, j * n : (j + 1) * n] = comp_fine.T
        b_eq[j * D : (j + 1) * D] = comp_coarse[j]
    for i in range(n):
        a_eq[m * D + i, i::n] = 1.0
        b_eq[m * D + i] = 1.0
    a_ub = np.zeros((m, n_vars))
    for j in range(m):
        a_ub[j, j * n : (j + 1) * n] = v1
    b_ub = v2

    result = lp_feasible(a_eq, b_eq, a_ub, b_ub, n_vars=n_vars, tol=tol)
    verdict, witness = _verdict_from(result, (m, n), tol)
    if verdict != "feasible":
        return CoarsenessCertificate(
            verdict, None, float("inf"), result.phase1_optimum,
            coarse_outcomes=o2, fine_outcomes=o1,
        )
    mat = witness.matrix
    mixed = np.einsum("ji,iab->jab", mat, np.stack(proj_fine))
    residual = float(np.max(np.linalg.norm(mixed - np.stack(proj_coarse), axis=(1, 2))))
    slack = v2 - mat @ v1
    return CoarsenessCertificate(
        "feasible", witness, residual, result.phase1_optimum,
        volume_slack=slack, coarse_outcomes=o2, fine_outcomes=o1,
        extension=_extension_from(mat, coarse, fine, o2, o1),
    )


def check_coarser_projective(
    coarse: GeneralizedMeasurement,
    fine: GeneralizedMeasurement,
    tol: float = DEFAULT_FEAS_TOL,
    *,
    proj_tol: float = DEFAULT_ATOL,
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
    for j, element in enumerate(coarse.elements):
        defect = frobenius(element @ element - element)
        if defect > proj_tol:
            raise NotProjectiveError(
                f"coarse element {j} is not a projector (||P^2 - P||_F = {defect:.3e})"
            )
    overlaps = np.einsum("iab,jba->ij", fine.stacked(), coarse.stacked()).real
    blocks: list[list[int]] = [[] for _ in range(coarse.n_outcomes)]
    for i in range(fine.n_outcomes):
        hits = np.flatnonzero(overlaps[i] > tol)
        if hits.size != 1:
            return None
        blocks[int(hits[0])].append(i)
    fine_stack = fine.stacked()
    for j, block in enumerate(blocks):
        total = fine_stack[block].sum(axis=0) if block else np.zeros_like(coarse.elements[j])
        if frobenius(total - coarse.elements[j]) > max(tol, 1e-8):
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
    restriction property.
    """
    mat = as_stochastic(p_full).matrix if not isinstance(p_full, np.ndarray) else p_full
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
    kept = [j for j in range(stoch.rows) if np.linalg.norm(mixed[j]) > zero_tol]
    if not kept:
        raise ZeroElementError("every row of the transition matrix mixes to zero")
    return validate_measurement(
        [mixed[j] for j in kept], labels=kept, atol=atol, zero_tol=zero_tol
    )


def preserves_observational_entropy(p, w: WeightedDistribution, tol: float = 1e-8) -> bool:
    """Whether processing ``w`` through ``p`` keeps observational entropy fixed.

    The push-forward has exactly the same observational entropy iff
    ``P_ji p_i V'_j = P_ji V_i p'_j`` for every entry, i.e. the ratio ``p/V``
    is constant across the inputs that each output actually mixes.
    """
    stoch = as_stochastic(p)
    if stoch.cols != w.n:
        raise ShapeMismatchError(f"matrix has {stoch.cols} columns for {w.n} outcomes")
    out = push_forward(stoch, w)
    lhs = stoch.matrix * np.outer(out.volumes, w.probs)
    rhs = stoch.matrix * np.outer(out.probs, w.volumes)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)
