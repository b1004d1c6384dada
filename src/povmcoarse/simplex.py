"""Phase-1 simplex feasibility solver for ``x >= 0`` with ``Ax = b``, ``Gx <= h``.

The solver minimizes the sum of artificial variables on a dense tableau.
Pivoting uses Dantzig's rule (the entering column has the most negative
reduced cost) and switches to Bland's rule permanently once the objective
stalls, which guarantees termination on the degenerate systems that projected
subspace constraints produce.

The leaving row comes from Harris's two-pass ratio test (Harris, *Math.
Programming* 5, 1 (1973)). Pass 1 relaxes every right-hand side by the
feasibility tolerance ``_HARRIS_DELTA`` and takes the smallest relaxed ratio
as a bound; pass 2 lets every row whose exact ratio is within that bound leave
and, under Dantzig's rule, takes the one with the largest pivot entry (under
Bland's rule, the smallest basis id). A tie band around the exact minimum
alone would force a pivot on whatever entry the minimizing row has, however
small against the rest of its column; the tableau growth that follows such
pivots can turn feasible systems infeasible.

The tableau ``T`` is one ``(m + 1, n_struct + 1)`` array. Rows ``0 .. m-1``
hold the constraints, sign-flipped so that every right-hand side starts
non-negative, and row ``m`` holds the phase-1 reduced costs. Columns
``0 .. n_struct-1`` are the structural columns (the ``n_vars`` unknowns, then
one slack per inequality row) and the last column holds the right-hand side,
so ``rhs`` and ``obj`` are views into ``T``. A pivot on ``(r, j)`` is one
in-place rank-1 update of the whole tableau: divide row ``r`` by its pivot,
then subtract ``T[i, j]`` times row ``r`` from every other row ``i``. Rows with
``T[i, j] == 0`` are updated too; they subtract ``±0``, which leaves every value
unchanged (at most the sign of an exact zero flips, and no comparison here can
see it), so the result is the one a row-by-row update that skips them gives.

Artificial columns are not stored, because the solver never reads them. Every
artificial starts in the basis; while it stays basic its column is a unit
vector with reduced cost exactly zero, so it is never chosen to enter, and
once it leaves it is not wanted back. The basis records artificial ``k`` by the
id ``n_struct + k``, which is all that Bland's leaving tie-break and the
phase-1 objective need.

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

_ENTER_TOL = 1e-9
# entries below this never serve as pivots: dividing a tableau by a tiny pivot
# amplifies accumulated round-off enough to corrupt later verdicts (the
# constraint matrices handled here are O(1)-scaled, so 1e-7 loses nothing)
_PIVOT_TOL = 1e-7
# feasibility tolerance of Harris's ratio test: how far below zero a
# right-hand side may be pushed so that a larger pivot can leave instead
_HARRIS_DELTA = 1e-9
_STALL_LIMIT = 200
# optima in (tol, _AMBIGUOUS_FACTOR * tol] are reported as ambiguous
_AMBIGUOUS_FACTOR = 10.0
# verdicts by band index: 1 + (above the ambiguous band) - (within tol)
_BANDS = np.array(["feasible", "ambiguous", "infeasible"])


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


def _verdict_band(violation, tol: float):
    """Three-valued verdict of a non-negative violation against ``tol``.

    ``feasible`` at most ``tol``, ``infeasible`` above ``10 * tol`` and
    ``ambiguous`` between (or for ``nan``). A scalar gives a ``str``, an array
    a ``<U10`` array of the same shape.
    """
    band = 1 + (violation > _AMBIGUOUS_FACTOR * tol) - (violation <= tol)
    return str(_BANDS[band]) if np.ndim(band) == 0 else _BANDS[band]


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
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> FeasibilityResult:
    """Decide whether ``{x >= 0 : a_eq x = b_eq, a_ub x <= b_ub}`` is non-empty.

    Returns a witness and its constraint residual when feasible; the reported
    ``phase1_optimum`` is the minimized total constraint violation either way.
    ``tol`` must be positive and finite, ``n_vars`` a non-negative integer, and
    every entry of the system finite.
    """
    _check_tol(tol)
    n_vars = _check_n_vars(n_vars)
    a_eq, b_eq = _as_system(a_eq, b_eq, n_vars, "equalities")
    a_ub, b_ub = _as_system(a_ub, b_ub, n_vars, "inequalities")
    me, mu = a_eq.shape[0], a_ub.shape[0]
    m = me + mu
    if m == 0:
        return FeasibilityResult("feasible", np.zeros(n_vars), 0.0, 0.0, 0)

    # canonical form with slack variables on the inequality rows, then the objective row
    n_struct = n_vars + mu
    T = np.zeros((m + 1, n_struct + 1))
    T[:me, :n_vars] = a_eq
    T[me:m, :n_vars] = a_ub
    T[me:m, n_vars:n_struct] = np.eye(mu)
    T[:m, -1] = np.concatenate([b_eq, b_ub])
    flipped = T[:m, -1] < 0
    T[:m][flipped] *= -1.0

    # initial basis: slack where its coefficient stayed +1, artificial elsewhere;
    # basis[r] = n_struct + k names artificial k
    art_rows = [r for r in range(m) if r < me or flipped[r]]
    n_art = len(art_rows)
    basis = n_vars - me + np.arange(m)  # the slack of row r >= me is column n_vars + r - me
    basis[art_rows] = n_struct + np.arange(n_art)
    T[m] = -T[art_rows].sum(axis=0)
    rhs, obj = T[:m, -1], T[m, :n_struct]

    if max_iter is None:
        max_iter = 10 * (m + n_struct + n_art) ** 2

    bland = False
    stall = 0
    best_value = float(rhs[art_rows].sum())
    iterations = 0
    barred = []  # columns without a usable pivot entry since the last pivot

    while True:
        window = obj
        if barred:
            window = obj.copy()
            window[barred] = 0.0
        eligible = (window < -_ENTER_TOL).nonzero()[0]
        if eligible.size == 0:
            break
        j = int(eligible[0]) if bland else int(window.argmin())

        col = T[:m, j]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            # phase-1 is bounded below, so a negative reduced cost without a
            # usable pivot entry is numerical; bar the column and try others
            barred.append(j)
            continue
        # Harris's ratio test (module docstring)
        head, piv = rhs[rows], col[rows]
        bound = float(((head + _HARRIS_DELTA) / piv).min())
        tie = rows[head / piv <= bound]
        r = int(tie[basis[tie].argmin()]) if bland else int(tie[col[tie].argmax()])

        iterations += 1
        if iterations > max_iter:
            raise IterationLimitError(iterations)

        T[r] /= T[r, j]
        other = T[:, j].copy()
        other[r] = 0.0
        T -= other[:, None] * T[r]
        basis[r] = j
        barred = []  # the pivot changed every reduced cost

        value = float(rhs[basis >= n_struct].sum())
        if value < best_value - 1e-12:
            best_value = value
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True

    art_basic = basis >= n_struct
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
