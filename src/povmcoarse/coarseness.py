"""Deciding whether one measurement is a coarse-graining of another.

A measurement ``C2`` is *coarser* than ``C1`` when every element of ``C2`` is a
fixed stochastic mixture of ``C1``'s elements: ``Π^(2)_j = sum_i P_ji Π^(1)_i``
for some left stochastic ``P``. The same relation restricted to a subspace
``G`` sees each element only through ``P_G Π P_G``, quantifies only over the
outcomes possible in ``G``, and adds the volume inequality
``V^(2)_j >= sum_i P_ji V^(1)_i``. On bare ``(p, V)`` data the elements are
the pairs ``(p_i, V_i)``.

Every check solves the same problem on real component rows: ``n`` fine rows
``F_i`` and ``m`` coarse rows ``c_j`` of length ``D``. One factorization
(:func:`_factor`) gives the fine rows' rank ``r``, an orthonormal basis of
their span, ``r`` pivot outcomes ``S`` whose rows are a basis (the other
``n - r`` outcomes ``N`` are free), and the coarse rows' coordinates over
that basis and distances from the span. When ``n <= D`` it is one QR of the
fine and coarse rows together, which settles an independent fine side;
a dependent side, or ``n > D``, takes a column-pivoted Gram-Schmidt of the
fine rows (:func:`_span_basis`) and a projection of the coarse rows. Two
gaps come first:
a coarse row at distance ``g`` from the span leaves every ``P`` a component
residual of norm at least ``g`` (the span gap), and the residuals of any left
stochastic ``P`` sum to ``sum_j c_j - sum_i F_i`` (the completeness gap). A
gap above ``10 * tol`` is ``infeasible`` with no LP.

Both sides are complete, so the last coarse outcome is eliminated: its row is
``P_{m-1,i} = 1 - sum_{j<m-1} P_ji``, and its component rows follow from the
others up to the completeness gap. Each other row of ``P`` must reproduce the
projection of ``c_j`` onto the span, which fixes its pivot entries by one
``r x r`` solve for all rows at once: ``P_{j,S} = base_j - A P_{j,N}``, with
``base_j`` the coordinates of ``c_j`` over the pivot rows and column ``t`` of
``A`` those of the free row ``F_{N_t}``. What is left are inequalities over
the ``(m - 1)(n - r)`` free entries (:func:`_reduced_system`): ``P_{j,S} >=
0``, the ``n`` column sums ``sum_{j<m-1} P_ji <= 1`` (the last row is
non-negative), and in a subspace the volume rows ``sum_i P_ji V_i <= V'_j``,
the last one written through the eliminated row. The candidate with every
free entry at zero is checked first: when it violates these rows by at most
``tol`` in all, or when no entry is free (an independent fine side, whose
``P`` is unique), no LP runs and ``phase1_optimum`` stays ``nan``. Otherwise
a phase-1 solve over the free entries starts from that candidate, with an
artificial variable only on the rows it violates. Its optimum is in units of
entries of ``P``; :func:`_decide` divides it by a factor ``K`` (at least
what one unit of component residual can cost in entries of ``P``) to put it
on the components' scale, and the verdict is the band of the largest of that
bound and the two gaps.

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
for every threshold ``t >= 0``. The classical check solves the processing
problem, on the scale-free rows ``(p_i, V_i / sum(V))``, only to produce the
witness of a ``feasible`` verdict.

One verdict rule (:func:`_witness_verdict`) turns a candidate ``P``, from the
solve alone or with the LP's free entries, into a
:class:`CoarsenessCertificate`: the candidate, clipped at zero, must be left
stochastic within ``max(DEFAULT_COLUMN_TOL, tol)``, and its residual (the
largest per-outcome norm of ``sum_i P_ji Π^(1)_i - Π^(2)_j``, the eliminated
outcome included) must be at most ``max(tol, WITNESS_RESIDUAL_TOL)``; a
witness that fails either test gives ``ambiguous``, and so does a bound in the
feasible band when the LP returned no witness. These bounds, and every other
threshold here, are in :mod:`povmcoarse.tolerances`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import StochasticMatrix, WeightedDistribution, _sums, as_stochastic, push_forward
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
from .operators import Subspace, dagger, frobenius
from .simplex import _BANDS, _BAND_NAMES, _band, _check_tol, _verdict_band, lp_feasible
from .tolerances import (
    BUILD_ATOL,
    DEFAULT_ATOL,
    DEFAULT_COLUMN_TOL,
    DEFAULT_FEAS_TOL,
    ENTROPY_PRESERVED_TOL,
    PROJECTIVE_SUM_TOL,
    RANK_TOL,
    REORTHOGONALIZE_TOL,
    WITNESS_COLUMN_TOL,
    WITNESS_RESIDUAL_TOL,
    ZERO_NORM_TOL,
)

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
    the classical check. ``phase1_optimum`` is a lower bound, in component
    units, on the least total violation of the defining equalities: the
    phase-1 optimum of the LP over the free entries of ``P`` (in units of
    entries of ``P``) divided by the factor ``K`` that ``_decide`` derives,
    raised to the span or completeness gap when either is larger. It is
    ``nan`` when no LP ran.
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
def _component_index(d: int) -> np.ndarray:
    """Where the ``d^2`` real components sit in the float view of a flat ``d x d`` complex matrix, read-only."""
    rows, cols = np.triu_indices(d, k=1)
    upper = 2 * (rows * d + cols)
    index = np.concatenate([np.arange(d) * (2 * d + 2), upper, upper + 1])
    index.setflags(write=False)
    return index


def _component_rows(mats) -> np.ndarray:
    """Flatten a stack of ``n`` Hermitian matrices into ``(n, d^2)`` real components.

    The real diagonal, then the real and imaginary parts of the strict upper
    triangle, read by one gather from the float view of the stack.
    """
    stack = np.ascontiguousarray(mats, dtype=complex)
    d = stack.shape[-1]
    return stack.reshape(len(stack), d * d).view(np.float64)[:, _component_index(d)]


def _span_basis(comp_fine):
    """A basis of the span of dependent fine components: ``(q, coefs, pivots, free)``.

    ``comp_fine`` is ``(n, D)``. ``pivots`` lists the ``r`` fine outcomes
    ``S`` whose components form the basis and ``free`` the other ``n - r``
    outcomes ``N`` in ascending order. ``q`` is ``(D, r)`` with orthonormal
    columns and ``coefs`` is ``(r, n)``: ``comp_fine.T = q @ coefs`` exactly
    on the pivot columns, where ``coefs[:, pivots]`` is upper triangular (to
    rounding), and up to a residual of at most ``RANK_TOL`` of the longest
    row on the others.

    :func:`_factor` settles independent rows with one QR and calls this only
    for the rest. A greedy Gram-Schmidt picks, at each step, the row whose
    residual against the pivots so far is longest, recomputing every residual
    norm from the deflated rows (norms downdated instead lose the small
    residuals to cancellation and can pick a dependent row), and stops once
    no residual is longer than ``RANK_TOL`` of the longest row. A row that
    keeps less than ``REORTHOGONALIZE_TOL`` of its squared length (``1e-3``
    of its length) is orthogonalized once more, so that ``q`` stays
    orthonormal to rounding.
    """
    n, big_d = comp_fine.shape
    rest = comp_fine.copy()
    norms = np.einsum("ij,ij->i", rest, rest)
    lengths = norms.tolist()
    floor = RANK_TOL**2 * max(lengths)
    pivots, units, coefs = [], [], []
    for _ in range(min(n, big_d)):
        p = int(norms.argmax())
        top = float(norms[p])
        if not top > floor:
            break
        unit = rest[p] * (1.0 / math.sqrt(top))
        if top < REORTHOGONALIZE_TOL * lengths[p]:
            basis = np.array(units)
            unit -= (basis @ unit) @ basis
            unit /= math.sqrt(float(unit @ unit))
        coef = rest @ unit
        rest -= coef[:, None] * unit
        norms = np.einsum("ij,ij->i", rest, rest)
        pivots.append(p)
        units.append(unit)
        coefs.append(coef)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return np.array(units).T, np.array(coefs), np.array(pivots, dtype=int), np.flatnonzero(free)


def _factor(comps, n):
    """Factor the fine rows ``comps[:n]`` and the coarse rows ``comps[n:]`` once.

    Returns ``(coefs, coords, rest, pivots, free)``: ``coefs``, ``pivots``
    and ``free`` as :func:`_span_basis` gives them for the fine rows, the
    ``(m, r)`` coordinates ``coords = c q`` of the coarse rows over its basis
    ``q``, and one row per coarse row in ``rest`` whose norm is that row's
    distance from the fine span (``rest`` is empty when the span is all of
    ``R^D``).

    When ``n <= D`` one unpivoted QR of all the rows, ``comps^T = Q R``, comes
    first. If the first ``n`` diagonal entries of ``R`` stay above
    ``RANK_TOL`` of their largest, the fine rows are independent: ``S =
    range(n)``, ``coefs = R[:n, :n]`` and ``q`` the first ``n`` columns of
    ``Q``, so that ``coords = R[:n, n:]^T``, and the coarse rows' parts off
    the span are the columns of ``R[n:, n:]`` in the other columns of ``Q``.
    Any other fine side goes to :func:`_span_basis`, and ``rest = c - coords
    q^T``.
    """
    big_d = comps.shape[1]
    if n <= big_d:
        fac = np.linalg.qr(comps.T, mode="r")
        diag = np.abs(fac.diagonal()[:n]).tolist()
        if min(diag) > RANK_TOL * max(diag):
            return fac[:n, :n], fac[:n, n:].T, fac[n:, n:].T, np.arange(n), np.arange(0)
    q, coefs, pivots, free = _span_basis(comps[:n])
    coords = comps[n:] @ q
    rest = comps[n:] - coords @ q.T if len(pivots) < big_d else comps[:0]
    return coefs, coords, rest, pivots, free


def _reduced_system(base, dep, pivots, free, v_fine=None, v_coarse=None):
    """Inequalities ``a_ub y <= b_ub`` over the free entries ``y`` of a left stochastic ``P``.

    ``base`` is ``(k, r)`` and ``dep`` is ``(r, f)``: the rows ``j < k`` of
    ``P`` have ``P_{j,S} = base[j] - dep @ P_{j,N}`` on the pivot outcomes
    ``S = pivots`` and are free on ``N = free`` (:func:`_decide`). The
    variables are ``P_{j,N}``, ``j < k``, with ``P_{j,free[t]}`` at
    ``j * f + t``. The rows are ``k`` blocks of ``r`` rows ``dep @ P_{j,N}
    <= base[j]`` (``P_{j,S} >= 0``), then ``n`` column sums ``sum_{j<k} P_ji
    <= 1``, row ``i`` for fine outcome ``i``, with ``P_{j,S}`` substituted.
    With volumes, ``k + 1`` rows follow: ``sum_i P_ji v_fine[i] <=
    v_coarse[j]`` for ``j < k``, and ``-sum_{j<k} sum_i P_ji v_fine[i] <=
    v_coarse[k] - sum(v_fine)`` for the last outcome, again substituted.
    """
    k, r = base.shape
    f = dep.shape[1]
    n = r + f
    rows = k * r + n + (0 if v_fine is None else k + 1)
    a_ub = np.zeros((rows, k * f))
    b_ub = np.ones(rows)
    diag = np.arange(k)
    # block (j, j), viewed as (k, r, k, f), is dep
    a_ub[: k * r].reshape(k, r, k, f)[diag, :, diag, :] = dep
    b_ub[: k * r] = base.ravel()
    sums = a_ub[k * r : k * r + n].reshape(n, k, f)
    sums[pivots] = -dep[:, None, :]
    sums[free, :, np.arange(f)] = 1.0
    b_ub[k * r + pivots] -= base.sum(axis=0)
    if v_fine is not None:
        v_s = v_fine[pivots]
        net = v_fine[free] - v_s @ dep  # volume moved per unit of P_{j,N}
        spent = base @ v_s
        volume = a_ub[k * r + n :].reshape(k + 1, k, f)
        volume[diag, diag] = net
        volume[k] = -net
        b_ub[k * r + n : -1] = v_coarse[:k] - spent
        b_ub[-1] = v_coarse[k] - v_fine.sum() + spent.sum()
    return a_ub, b_ub


def _violation(mat, v_fine=None, v_coarse=None) -> float:
    """What a full ``(m, n)`` candidate violates of the rows of :func:`_reduced_system`.

    Its negative entries (the top rows' pivot entries and, through the
    column sums, the last row) and, with volumes, each coarse volume it
    overspends: ``(mat @ v_fine - v_coarse)_+``.
    """
    total = -float(np.minimum(mat, 0.0).sum()) if mat.min() < 0.0 else 0.0
    if v_fine is not None:
        total += float(np.maximum(mat @ v_fine - v_coarse, 0.0).sum())
    return total


def _residual(mat: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> float:
    """Largest per-outcome norm of ``sum_i mat[j, i] fine[i] - coarse[j]``, elements flattened."""
    diff = mat @ fine.reshape(len(fine), -1) - coarse.reshape(len(coarse), -1)
    parts = diff.view(np.float64)  # real and imaginary parts side by side
    return math.sqrt(float(np.einsum("ij,ij->i", parts, parts).max()))


def _witness_verdict(mat, fine, coarse, tol, phase1_optimum) -> CoarsenessCertificate:
    """The verdict rule: a candidate ``(m, n)`` matrix is a witness or gives ``ambiguous``.

    The candidate is clipped at zero, must be left stochastic within
    ``max(DEFAULT_COLUMN_TOL, tol)``, and must reproduce every coarse element
    within ``max(tol, WITNESS_RESIDUAL_TOL)``.
    """
    try:
        witness = StochasticMatrix(np.maximum(mat, 0.0), col_tol=max(DEFAULT_COLUMN_TOL, tol))
    except NotStochasticError:
        return CoarsenessCertificate("ambiguous", None, math.inf, phase1_optimum)
    residual = _residual(witness.matrix, fine, coarse)
    if residual > max(tol, WITNESS_RESIDUAL_TOL):
        return CoarsenessCertificate("ambiguous", None, residual, phase1_optimum)
    return CoarsenessCertificate("feasible", witness, residual, phase1_optimum)


def _decide(fine, coarse, tol, v_fine=None, v_coarse=None) -> CoarsenessCertificate:
    """Decide ``coarse = P @ fine`` for two element stacks (module docstring).

    The stacks hold operators, ``(n, d, d)`` and ``(m, d, d)``, or rows of
    ``(p_i, V_i)`` pairs, ``(n, 2)`` and ``(m, 2)``, which are their own
    components, factored once by :func:`_factor`. With its ``R_S = coefs[:,
    S]``, the coordinates over the pivot rows are ``base = R_S^-1 q^T c_j``
    for the coarse rows and ``A = R_S^-1 coefs[:, N]`` for the free ones.

    The bound. Let ``z`` be the least total violation of the reduced rows and
    ``K = max(1, (2 + 2 |v|) sqrt(r) |R_S^-1|_F)``, ``|v|`` the Euclidean
    norm of the fine volumes (0 without them). Take any ``P >= 0`` whose rows
    ``j < m - 1`` keep their column sums at most 1, with component residuals
    ``e_j`` and volume-row violations ``u`` in all, and keep its free
    entries. The free rows are ``F_i = A_i F_S + E_i`` with ``E_i``
    orthogonal to the span, so ``base_j - A P_{j,N} = P_{j,S} + d_j``, where
    ``d_j`` holds the coordinates over ``F_S`` of the projection of ``e_j``:
    ``|d_j|_2 <= |R_S^-1|_F |e_j|_2``. As ``P_{j,S} >= 0``, the rows
    ``P_{j,S} >= 0`` are violated by at most ``sum_j |d_j|_1 <= sqrt(r)
    sum_j |d_j|_2`` in all, the pivot column sums by at most as much, and
    the volume rows by at most ``u + 2 |v| sum_j |d_j|_2``. So ``z <= u +
    (2 sqrt(r) + 2 |v|) sum_j |d_j|_2 <= K (u + sum_j |e_j|_1)``, and ``z /
    K`` is at most what the LP over all ``(m - 1) x n`` entries, one equality
    per component, charges any ``P``. The phase-1 optimum equals ``z`` when
    its end point violates only rows that start violated (rows that ``y = 0``
    meets stay hard in phase 1, as the column sums did in that LP); either
    way it is positive exactly when no ``P`` exists, and ``K`` puts it on the
    components' scale before the band.
    """
    _check_tol(tol)
    both = np.concatenate([fine, coarse])
    comps = both if fine.ndim == 2 else _component_rows(both)
    n = len(fine)
    coefs, coords, rest, pivots, free = _factor(comps, n)
    # a coarse row at distance g from the span leaves every P a component
    # residual of norm at least g, and the block residuals of any left
    # stochastic P sum to the completeness gap's vector
    span_gap = math.sqrt(float(np.einsum("ij,ij->i", rest, rest).max())) if rest.size else 0.0
    miss = comps[n:].sum(axis=0) - comps[:n].sum(axis=0)
    gap = max(span_gap, math.sqrt(float(miss @ miss)))
    if _verdict_band(gap, tol) == "infeasible":
        return CoarsenessCertificate("infeasible", None, math.inf, math.nan)
    r_inv = np.linalg.inv(coefs[:, pivots])
    base = coords[:-1] @ r_inv.T
    k, f = len(base), len(free)
    # the candidate with every free entry at zero
    mat = np.zeros((k + 1, n))
    mat[:k, pivots] = base
    mat[k] = 1.0 - mat[:k].sum(axis=0)
    violation = _violation(mat, v_fine, v_coarse)
    ran = violation > tol and k * f > 0
    if ran:
        dep = r_inv @ coefs[:, free]
        a_ub, b_ub = _reduced_system(base, dep, pivots, free, v_fine, v_coarse)
        result = lp_feasible(a_ub=a_ub, b_ub=b_ub, n_vars=k * f, tol=tol)
        violation = result.phase1_optimum
        if result.x is None:
            mat = None
        else:
            mat[:k, free] = result.x.reshape(k, f)
            mat[:k, pivots] -= mat[:k, free] @ dep.T
            mat[k] = 1.0 - mat[:k].sum(axis=0)
    if violation > tol:
        v_norm = 0.0 if v_fine is None else math.sqrt(float(v_fine @ v_fine))
        scale = (2.0 + 2.0 * v_norm) * math.sqrt(len(pivots) * float(np.vdot(r_inv, r_inv)))
        violation /= max(1.0, scale)
    optimum = max(violation, gap)
    phase1 = optimum if ran else math.nan
    verdict = _verdict_band(optimum, tol)
    if verdict != "feasible":
        return CoarsenessCertificate(verdict, None, math.inf, phase1)
    if mat is None:
        return CoarsenessCertificate("ambiguous", None, math.inf, phase1)
    return _witness_verdict(mat, fine, coarse, tol, phase1)


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
    ``10 * tol`` outside it gives ``infeasible``. The entries of ``P`` on a
    basis of fine outcomes are then solved from the others; linearly
    independent fine elements leave none free and give the unique ``P`` with
    no LP. Otherwise a phase-1 solve runs over the free entries of the first
    ``m - 1`` rows of ``P``, unless setting them to zero already gives a
    witness; the last row is what the column sums leave.
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

    The thresholds form a ``(1 + n + m, k)`` array, one row per threshold
    (``0``, the fine ratios, then the candidate's own) and one column per
    candidate, and ``f`` is evaluated on all of it in one pass. Each side's
    sum adds its terms ``(p_i - t q_i)_+`` one outcome at a time, in order,
    each written in place, so every inner loop runs along the whole
    ``(threshold, candidate)`` array. The two sums and the term take one
    allocation of ``3 x (1 + n + m) x k`` floats.

    Each candidate's slack is its first minimum in threshold order, as
    ``argmin`` picks it: the first row that attains the column's minimum, or
    the first ``nan`` (which counts as below every number). Each column is
    computed alone, so a stack's row is bit-identical to the one-candidate
    call.

    Returns ``(verdicts, thresholds, slacks, volume_gaps)``, each of shape
    ``(k,)``; see :class:`Separation` for the last three.
    """
    bands, thresholds, slacks, gaps = _majorization(fine, probs, volumes, tol)
    return _BANDS[bands], thresholds, slacks, gaps


def _hinge_sums(p, q, t, out, term):
    """``sum_i (p_i - t q_i)_+`` into ``out``, adding the outcomes in order, with ``term`` as scratch."""
    for i in range(len(p)):
        x = term if i else out
        np.multiply(t, q[i], out=x)
        np.subtract(p[i], x, out=x)
        np.maximum(x, 0.0, out=x)
        if i:
            out += x
    return out


def _majorization(fine, probs, volumes, tol):
    """:func:`majorization_verdicts` with each verdict as its band index (see :func:`~povmcoarse.simplex._band`)."""
    _check_tol(tol)
    total = fine.total_volume
    totals = _sums(volumes)
    (k, m), n = probs.shape, fine.n
    p_f, q_f = fine.probs[:, None], (fine.volumes / total)[:, None]
    p_c, q_c = probs.T.copy(), np.divide(volumes.T, totals, order="C")
    t = np.empty((1 + n + m, k))
    t[0] = 0.0
    t[1:n + 1] = p_f / q_f
    np.divide(p_c, q_c, out=t[n + 1:])
    # the two sides' sums and the term being added, in one allocation: separate
    # grid-sized arrays are mapped afresh, page by page, on many calls
    values, coarse, term = np.empty((3, len(t), k))
    _hinge_sums(p_f, q_f, t, values, term)
    # a side without outcomes sums to 0, as numpy's empty sum does
    values -= _hinge_sums(p_c, q_c, t, coarse, term) if m else 0.0
    slacks = np.minimum.reduce(values, axis=0)
    # the first row at the minimum, or at the first nan, as argmin picks it
    worst = np.argmin((values != slacks) & (values == values), axis=0)
    thresholds = t[worst, np.arange(k)]
    gaps = np.abs(totals - total) / total
    return _band(np.maximum(-slacks, gaps), tol), thresholds, slacks, gaps


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
    bands, thresholds, slacks, gaps = _majorization(fine, coarse.probs[None], coarse.volumes[None], tol)
    separation = Separation(float(thresholds[0]), float(slacks[0]), float(gaps[0]))
    verdict = _BAND_NAMES[bands[0]]
    if verdict != "feasible":
        return CoarsenessCertificate(verdict, None, math.inf, math.nan, separation=separation)
    total = fine.total_volume
    cert = _decide(
        np.array([fine.probs, fine.volumes / total]).T,
        np.array([coarse.probs, coarse.volumes / total]).T,
        tol,
    )
    if cert.feasible:
        return cert
    return replace(cert, verdict="ambiguous", separation=separation)


def _possible(products) -> np.ndarray:
    """The rule of :func:`possible_outcomes`, on a ``(k, d, r)`` stack of products ``Π_i B``.

    Returns the ascending indices ``i`` with ``‖Π_i B‖_F > ZERO_NORM_TOL``.
    """
    return np.flatnonzero(np.linalg.norm(products, axis=(1, 2)) > ZERO_NORM_TOL)


def possible_outcomes(measurement: GeneralizedMeasurement, subspace: Subspace) -> OutcomeSet:
    """Outcomes attainable on states inside the subspace.

    Outcome ``i`` is possible iff ``Π_i P_G != 0``, detected as
    ``‖Π_i B‖_F = ‖Π_i P_G‖_F > ZERO_NORM_TOL`` for the orthonormal basis
    ``B`` of ``G``.
    """
    if measurement.dim != subspace.dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} vs subspace dimension {subspace.dim}"
        )
    return tuple(_possible(measurement.stacked() @ subspace.basis).tolist())


def _extension_from(witness, v_coarse, v_fine, o2, o1) -> StochasticMatrix | None:
    """Pad a subspace witness to all outcomes with the volume-balancing constants.

    ``v_coarse`` and ``v_fine`` are the volumes of every outcome; the index
    arrays ``o2`` and ``o1`` list the possible ones, which label the rows and
    columns of ``witness``. The padded matrix must be left stochastic within
    ``WITNESS_COLUMN_TOL``, else there is no extension.
    """
    full = np.zeros((len(v_coarse), len(v_fine)))
    full[o2[:, None], o1] = witness
    if len(o1) < len(v_fine):
        rest = np.ones(len(v_fine), dtype=bool)
        rest[o1] = False
        fill = np.maximum((v_coarse - full[:, o1] @ v_fine[o1]) / float(v_fine[rest].sum()), 0.0)
        full[:, rest] = fill[:, None]
    try:
        return StochasticMatrix(full, col_tol=WITNESS_COLUMN_TOL)
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
    ``feasible`` when it also meets the volume rows within ``tol``; the LP over
    the free entries of ``P`` runs when some are free, for instance when more
    than ``r^2`` fine outcomes are possible, and setting them to zero does not
    meet the rows.

    Both sides' elements are stacked and multiplied by ``B`` once: the norms
    of the products ``Π_i B`` give the possible outcomes by the rule of
    :func:`possible_outcomes`, and the blocks are ``B† (Π_i B)``.
    """
    if coarse.dim != fine.dim or coarse.dim != subspace.dim:
        raise DimensionMismatchError(
            f"dimensions differ: {coarse.dim}, {fine.dim}, subspace {subspace.dim}"
        )
    n = fine.n_outcomes
    stack = np.concatenate([fine.stacked(), coarse.stacked()])
    products = stack @ subspace.basis
    seen = _possible(products)
    split = int(np.searchsorted(seen, n))
    rows, cols = seen[split:] - n, seen[:split]
    o1, o2 = tuple(cols.tolist()), tuple(rows.tolist())
    if not o1 or not o2:
        raise EmptyOutcomeSetError(
            f"no possible outcomes in the subspace (fine: {len(o1)}, coarse: {len(o2)})"
        )
    blocks = dagger(subspace.basis) @ products[seen]
    volumes = np.einsum("iaa->i", stack).real
    v1, v2 = volumes[cols], volumes[seen[split:]]
    cert = _decide(blocks[:split], blocks[split:], tol, v1, v2)
    slack = extension = None
    if cert.feasible:
        mat = cert.witness.matrix
        slack = v2 - mat @ v1
        extension = _extension_from(mat, volumes[n:], volumes[:n], rows, cols)
    return CoarsenessCertificate(
        cert.verdict, cert.witness, cert.residual, cert.phase1_optimum, slack, o2, o1, extension
    )


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
        if frobenius(fine_stack[block].sum(axis=0) - projectors[j]) > max(tol, PROJECTIVE_SUM_TOL):
            return None
    return tuple(tuple(block) for block in blocks)


def restrict_transition_matrix(
    p_full,
    coarse_subset: OutcomeSet,
    fine_subset: OutcomeSet,
    coarse_all: OutcomeSet,
    fine_all: OutcomeSet,
) -> StochasticMatrix:
    """Restrict a subspace witness to the outcome sets of a smaller subspace.

    ``p_full`` is indexed by ``(coarse_all, fine_all)``; the result keeps the
    rows in ``coarse_subset`` and columns in ``fine_subset``. Entries outside
    the restricted rows vanish for the retained columns, so the restricted
    columns still sum to one; a column more than ``WITNESS_COLUMN_TOL`` off
    raises :class:`~povmcoarse.errors.BrokenColumnSumError` since it
    contradicts the restriction property. ``p_full`` is a
    :class:`StochasticMatrix` or anything it accepts; any other matrix, an
    array included, raises :class:`~povmcoarse.errors.NotStochasticError`.
    """
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
    if worst > WITNESS_COLUMN_TOL:
        raise BrokenColumnSumError(
            f"restricted columns deviate from 1 by {worst:.3e}; the restriction "
            "property is violated"
        )
    return StochasticMatrix(sub, col_tol=WITNESS_COLUMN_TOL)


def coarsen(fine: GeneralizedMeasurement, p) -> GeneralizedMeasurement:
    """Build the coarse-grained measurement ``Π'_j = sum_i P_ji Π_i``.

    Rows whose mixture has Frobenius norm at most ``ZERO_NORM_TOL`` would
    create forbidden zero elements; they are dropped, with the kept row
    indices recorded in the result's ``labels``. The result is validated
    within ``BUILD_ATOL``.
    """
    stoch = as_stochastic(p)
    if stoch.cols != fine.n_outcomes:
        raise NotStochasticError(
            f"matrix has {stoch.cols} columns for {fine.n_outcomes} outcomes"
        )
    mixed = np.einsum("ji,iab->jab", stoch.matrix, fine.stacked())
    kept = np.flatnonzero(np.linalg.norm(mixed, axis=(1, 2)) > ZERO_NORM_TOL)
    if not kept.size:
        raise ZeroElementError("every row of the transition matrix mixes to zero")
    return validate_measurement(mixed[kept], labels=kept.tolist(), atol=BUILD_ATOL)


def preserves_observational_entropy(p, w: WeightedDistribution) -> bool:
    """Whether processing ``w`` through ``p`` keeps observational entropy fixed.

    The push-forward has exactly the same observational entropy iff
    ``P_ji p_i V'_j = P_ji V_i p'_j`` for every entry, i.e. the ratio ``p/V``
    is constant across the inputs that each output actually mixes; the
    entries must agree within ``ENTROPY_PRESERVED_TOL``.
    """
    stoch = as_stochastic(p)
    if stoch.cols != w.n:
        raise ShapeMismatchError(f"matrix has {stoch.cols} columns for {w.n} outcomes")
    out = push_forward(stoch, w)
    lhs = stoch.matrix * np.outer(out.volumes, w.probs)
    rhs = stoch.matrix * np.outer(out.probs, w.volumes)
    return bool(np.max(np.abs(lhs - rhs)) <= ENTROPY_PRESERVED_TOL)
