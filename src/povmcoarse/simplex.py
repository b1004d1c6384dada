"""Phase-1 simplex feasibility solver for ``x >= 0`` with ``Ax = b``, ``Gx <= h``.

The solver minimizes the sum of artificial variables on a dense tableau.
The entering column has the most negative reduced cost (Dantzig's rule)
until the objective has not improved for ``_STALL_LIMIT`` pivots in a row;
from then on it is the eligible column with the smallest id (Bland's
entering rule). The switch is for good, and it changes only the entering
column: degenerate pivots that return to an earlier basis under Dantzig's
rule (Hall and McKinnon, *Math. Programming* 100, 133 (2004)) are broken
this way in practice. Termination is not guaranteed: Bland's finiteness
proof (*Math. Oper. Res.* 2, 103 (1977)) needs his leaving rule and exact
ratios, which the ratio test below keeps neither of. ``max_iter`` bounds the
loop instead, and :class:`IterationLimitError` reports a solve that reaches
it.

The leaving row comes from Harris's two-pass ratio test (Harris, *Math.
Programming* 5, 1 (1973)). Pass 1 relaxes every right-hand side by the
feasibility tolerance ``_HARRIS_DELTA`` and takes the smallest relaxed ratio
as a bound; pass 2 lets every row whose exact ratio is within that bound leave
and takes the one with the largest pivot entry. A tie band around the exact
minimum alone would force a pivot on whatever entry the minimizing row has,
however small against the rest of its column; the tableau growth that follows
such pivots can turn feasible systems infeasible. Bland's own leaving choice,
the candidate with the smallest basis id, ignores the pivot size in the same
way, so neither phase uses it.

The tableau is condensed and stored column-major: one ``(w + 1, m + 1)``
array ``C`` holds the right-hand side in row 0 and the ``w`` nonbasic
structural columns in rows ``1 .. w`` (the structural columns are the
``n_vars`` unknowns, then one slack per inequality row), each as its ``m``
constraint entries followed by its phase-1 reduced cost; ``ids`` names the
column in each row. The constraints are sign-flipped so that every
right-hand side starts non-negative, and the initial reduced costs are the
negated sums, taken row by row, of the rows whose artificial starts basic.
Basic columns are unit vectors that no pivot changes and whose reduced cost
stays exactly zero, so they are not stored; neither are the artificial
columns, which the solver never reads: every artificial starts in the basis,
cannot enter while it is basic, and is not wanted back once it has left.

A pivot on row ``r`` and the column in row ``q`` of ``C`` divides entry ``r``
of every stored column by the pivot ``p``, then subtracts from each stored
column its new entry ``r`` times the entering column (with a zero at ``r``):
one in-place rank-1 update of the block ``C[:w + 1]``, which the column-major
layout keeps contiguous (a column slice of a row-major tableau is strided
and costs more per entry than the skipped basic columns save). The entering
column then leaves the block. When an artificial leaves the basis, the last
stored column moves into the entering column's row and ``w`` drops by one,
so the block shrinks as phase 1 progresses and the loop ends at the latest
when it is empty. When a structural variable leaves, its column takes the
entering column's row, rebuilt as the full tableau would hold it: ``1/p`` at
``r`` and ``-(c_i * (1/p))``, with ``c`` the entering column, everywhere
else. Zero entries may differ from a full tableau only in their sign, which
no comparison here can see and which the clipped outputs do not carry.
Because moves reorder the columns, ties in either entering rule (exact minima
under Dantzig's rule, the first eligible column under Bland's) go to the
smallest column id, not the first row of ``C``, so every pivot is the one the
full tableau makes.

Verdicts are three-valued: ``feasible`` when the phase-1 optimum is at most
``tol``, ``infeasible`` when it exceeds ``10 * tol``, and ``ambiguous`` in
the band between, so borderline systems are reported instead of guessed. A
``feasible`` witness is the basic solution read off the final tableau, with
its negative round-off clipped to zero; its residual is recomputed against the
original system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError, IterationLimitError, ShapeMismatchError, ValidationError
from .tolerances import DEFAULT_FEAS_TOL, PROGRESS_TOL
from .tolerances import ENTER_TOL as _ENTER_TOL, HARRIS_DELTA as _HARRIS_DELTA, PIVOT_TOL as _PIVOT_TOL

_STALL_LIMIT = 200
# the default pivot budget: this many pivots per row and column of the
# tableau, artificial columns included, plus one stall run at the default
# _STALL_LIMIT before the switch
_PIVOTS_PER_LINE = 50
_STALL_ALLOWANCE = _STALL_LIMIT
# optima in (tol, _AMBIGUOUS_FACTOR * tol] are reported as ambiguous
_AMBIGUOUS_FACTOR = 10.0
# verdicts by band index, see _band
_BANDS = np.array(["feasible", "ambiguous", "infeasible"])
_BAND_NAMES = tuple(_BANDS.tolist())


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility solve."""

    verdict: str  # "feasible" | "infeasible" | "ambiguous"
    x: np.ndarray | None
    residual: float
    phase1_optimum: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def _check_tol(tol: float) -> None:
    """Raise :class:`InvalidRangeError` unless ``tol`` is positive and finite."""
    if not 0 < tol < math.inf:
        raise InvalidRangeError(f"tol must be positive and finite, got {tol}")


def _band(violation, tol: float):
    """Band of a non-negative violation against ``tol``, as its index into ``_BANDS``.

    ``0`` (``feasible``) at most ``tol``, ``2`` (``infeasible``) above
    ``10 * tol`` and ``1`` (``ambiguous``) between, or for ``nan``. An array
    gives an integer array of the same shape.
    """
    return 1 + (violation > _AMBIGUOUS_FACTOR * tol) - (violation <= tol)


def _verdict_band(violation: float, tol: float) -> str:
    """Three-valued verdict of a non-negative scalar violation against ``tol``, by :func:`_band`.

    Arrays are named by ``_BANDS[_band(...)]``.
    """
    # the band indexes the tuple: indexing the array costs more than the comparisons
    return _BAND_NAMES[_band(violation, tol)]


def _check_n_vars(n_vars) -> int:
    """``n_vars`` as an ``int``; :class:`InvalidRangeError` unless it is a non-negative integer.

    Python and numpy integers pass; ``bool`` and floats (``2.5``, ``2.0``) do not.
    """
    if isinstance(n_vars, bool) or not isinstance(n_vars, (int, np.integer)) or n_vars < 0:
        raise InvalidRangeError(f"n_vars must be a non-negative integer, got {n_vars!r}")
    return int(n_vars)


def _as_system(a, b, n_vars: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    if a is None or b is None:
        if (a is None) != (b is None):
            raise ShapeMismatchError(f"{what}: matrix and vector must be given together")
        return np.zeros((0, n_vars)), np.zeros(0)
    mat = np.asarray(a, dtype=float)
    vec = np.asarray(b, dtype=float).reshape(-1)
    if mat.ndim != 2 or mat.shape[1] != n_vars:
        raise ShapeMismatchError(f"{what}: expected shape (*, {n_vars}), got {mat.shape}")
    if mat.shape[0] != vec.size:
        raise ShapeMismatchError(f"{what}: {mat.shape[0]} rows vs {vec.size} right-hand sides")
    for part, arr in (("matrix", mat), ("vector", vec)):
        if not np.isfinite(arr).all():
            at = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
            raise ValidationError(f"{what}: {part} entry {list(at)} is {arr[at]}, not finite")
    return mat, vec


def lp_feasible(
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    *,
    n_vars: int,
    tol: float = DEFAULT_FEAS_TOL,
    max_iter: int | None = None,
) -> FeasibilityResult:
    """Decide whether ``{x >= 0 : a_eq x = b_eq, a_ub x <= b_ub}`` is non-empty.

    Returns a witness and its constraint residual when feasible; the reported
    ``phase1_optimum`` is the minimized total constraint violation either way.
    ``tol`` must be positive and finite, ``n_vars`` a non-negative integer, and
    every entry of the system finite.

    After ``_STALL_LIMIT`` pivots in a row without progress, the entering
    column switches for good from Dantzig's rule to Bland's; the leaving row is
    the largest pivot among Harris's candidates in both phases. Termination is
    not guaranteed: a solve that needs more than ``max_iter`` pivots (default
    ``_PIVOTS_PER_LINE * (rows + columns) + _STALL_ALLOWANCE``, counting slack
    and artificial columns) raises :class:`IterationLimitError`.
    """
    _check_tol(tol)
    n_vars = _check_n_vars(n_vars)
    a_eq, b_eq = _as_system(a_eq, b_eq, n_vars, "equalities")
    a_ub, b_ub = _as_system(a_ub, b_ub, n_vars, "inequalities")
    me, mu = a_eq.shape[0], a_ub.shape[0]
    m = me + mu
    if m == 0:
        return FeasibilityResult("feasible", np.zeros(n_vars), 0.0, 0.0, 0)

    # the constraint rows with the right-hand side first, sign-flipped so that it is non-negative
    rows = np.empty((m, n_vars + 1))
    rows[:me, 0], rows[me:, 0] = b_eq, b_ub
    rows[:me, 1:], rows[me:, 1:] = a_eq, a_ub
    art_basic = rows[:, 0] < 0
    np.negative(rows, out=rows, where=art_basic[:, None])

    # initial basis: the slack of row r >= me (column n_vars + r - me) where its
    # coefficient stayed +1, artificial elsewhere; basis[r] is read only where art_basic[r] is False
    n_struct = n_vars + mu
    flipped_slacks = art_basic[me:].nonzero()[0]
    art_basic[:me] = True
    n_art = np.count_nonzero(art_basic)
    basis = np.arange(n_vars - me, n_struct)

    # the condensed tableau: the right-hand side, the unknowns, then the slacks of flipped rows
    w = n_vars + flipped_slacks.size
    C = np.zeros((w + 1, m + 1))
    C[: n_vars + 1, :m] = rows.T
    # reduced costs summed down the row-major rows, in the order a full tableau sums them
    np.negative(np.add.reduce(rows[art_basic]), out=C[: n_vars + 1, m])
    ids = np.arange(w)  # ids[k] names the column in row k + 1 of C
    if flipped_slacks.size:  # -1 in its own row, so reduced cost 1
        ids[n_vars:] = n_vars + flipped_slacks
        C[np.arange(n_vars + 1, w + 1), me + flipped_slacks] = -1.0
        C[n_vars + 1 :, m] = 1.0
    rhs = C[0, :m]

    if max_iter is None:
        max_iter = _PIVOTS_PER_LINE * (m + n_struct + n_art) + _STALL_ALLOWANCE

    bland = False
    stall = 0
    best_value = float(rhs[art_basic].sum())
    iterations = 0
    barred = []  # window positions without a usable pivot entry since the last pivot

    while w:
        window = C[1 : w + 1, m]
        if barred:
            window = window.copy()
            window[barred] = 0.0
        if bland:
            eligible = (window < -_ENTER_TOL).nonzero()[0]
            if eligible.size == 0:
                break
            k = int(eligible[ids[eligible].argmin()])
        else:
            k = int(window.argmin())
            low = window[k]
            if not low < -_ENTER_TOL:
                break
            if window[::-1].argmin() != w - 1 - k:  # the minimum is tied
                ties = (window == low).nonzero()[0]
                k = int(ties[ids[ties].argmin()])
        q = k + 1

        column = C[q]
        col = column[:m]
        pivot_rows = (col > _PIVOT_TOL).nonzero()[0]
        if pivot_rows.size == 0:
            # phase-1 is bounded below, so a negative reduced cost without a
            # usable pivot entry is numerical; bar the column and try others
            barred.append(k)
            continue
        # Harris's ratio test (module docstring)
        head, piv = rhs[pivot_rows], col[pivot_rows]
        bound = float(((head + _HARRIS_DELTA) / piv).min())
        tie = pivot_rows[head / piv <= bound]
        r = int(tie[col[tie].argmax()])

        iterations += 1
        if iterations > max_iter:
            raise IterationLimitError(iterations)

        p = col[r]
        live = C[: w + 1]
        pivot_row = live[:, r]
        pivot_row /= p
        col[r] = 0.0
        live -= pivot_row[:, None] * column
        entering = ids[k]
        if art_basic[r]:
            art_basic[r] = False
            C[q] = C[w]
            ids[k] = ids[w - 1]
            w -= 1
        else:
            column *= -1.0 / p
            col[r] = 1.0 / p
            ids[k] = basis[r]
        basis[r] = entering
        barred = []  # the pivot changed every reduced cost

        value = float(rhs[art_basic].sum())
        if value < best_value - PROGRESS_TOL:
            best_value = value
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True

    optimum = float(np.clip(rhs[art_basic], 0.0, None).sum())

    # read the structural solution off the tableau
    x_struct = np.zeros(n_struct)
    structural = ~art_basic
    x_struct[basis[structural]] = np.clip(rhs[structural], 0.0, None)
    x = x_struct[:n_vars]
    residual = 0.0
    if me:
        residual = float(np.max(np.abs(a_eq @ x - b_eq)))
    if mu:
        residual = max(residual, float(np.max(a_ub @ x - b_ub)))

    verdict = _verdict_band(optimum, tol)
    witness = x if verdict == "feasible" else None
    return FeasibilityResult(verdict, witness, residual, optimum, iterations)
