"""Classical probability carriers: weighted distributions, joints, stochastic matrices.

Every probability array here is checked by one rule, :func:`_probabilities`.
An array fails it when it is empty, when an entry is not finite, or when an
entry lies below ``-NEGATIVE_TOL`` (``-BORN_NEGATIVE_TOL`` for a joint), and
raises :class:`ValidationError`. Negative entries above that are rounding
noise: they are clipped to zero, and the clipped copy is the one the value
class stores. Only then is each sum, along the axis that the carrier
normalizes, compared with one, and a sum too far off raises
:class:`NotNormalizedError`:

* a weighted distribution's last axis, within ``DEFAULT_NORM_TOL``;
* a joint's whole matrix, within ``DEFAULT_NORM_TOL``;
* a stochastic matrix's columns, within its ``col_tol``, every failure a
  :class:`NotStochasticError`;
* each of the two vectors of :func:`entropy.kl_divergence`, within
  ``KL_NORM_TOL``.

The bounds are in :mod:`povmcoarse.tolerances`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    LengthMismatchError,
    NotNormalizedError,
    NotStochasticError,
    ShapeMismatchError,
    ValidationError,
)
from .tolerances import BORN_NEGATIVE_TOL, DEFAULT_COLUMN_TOL, DEFAULT_NORM_TOL, NEGATIVE_TOL


def _sums(arr: np.ndarray, axis=-1):
    """``arr.sum(axis=axis)`` of a float array, bit for bit.

    A 2-D array's rows of fewer than 8 entries are added column by column,
    ``((0.0 + a0) + a1) + ...``, which is numpy's own order for such rows but
    costs one vector add per column instead of one reduction call per row;
    numpy adds longer rows pairwise, so every other case is numpy's sum.
    """
    if axis != -1 or arr.ndim != 2 or not 0 < arr.shape[1] < 8:
        return arr.sum(axis=axis)
    total = 0.0 + arr[:, 0]
    for j in range(1, arr.shape[1]):
        total += arr[:, j]
    return total


def _probabilities(
    values, name: str, tol: float, *, axis=-1, neg_tol: float = NEGATIVE_TOL,
    error=ValidationError, sum_error=NotNormalizedError,
) -> np.ndarray:
    """``values`` as a fresh float array, clipped at zero, whose sums along ``axis`` are one.

    Raises ``error`` for an empty array, a non-finite entry or an entry below
    ``-neg_tol``, and ``sum_error`` when a sum is more than ``tol`` from one,
    naming the sum farthest from one. ``axis=None`` sums the whole array.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise error(f"{name} must be non-empty")
    # a nan makes both extremes nan; an infinite entry is one of them
    lowest = arr.min()
    if not (math.isfinite(lowest) and math.isfinite(arr.max())):
        raise error(f"{name} has non-finite entries")
    if lowest < -neg_tol:
        raise error(f"{name} has negative entries (min {lowest:.3e})")
    arr = np.maximum(arr, 0.0)
    totals = _sums(arr, axis)
    errors = np.abs(totals - 1.0)
    if errors.max() > tol:
        total = float(np.ravel(totals)[np.argmax(errors)])
        raise sum_error(f"{name} has a sum of {total!r}, expected 1 within {tol:.1e}")
    return arr


def weighted_rows(probs, volumes) -> tuple[np.ndarray, np.ndarray]:
    """Check ``(p, V)`` pairs held as ``(..., n)`` rows, each by the rules of :class:`WeightedDistribution`.

    Every row of ``probs`` must pass this module's probability rule within
    ``DEFAULT_NORM_TOL``; ``volumes`` must have the same shape and be finite
    and strictly positive. Returns float copies, the probabilities
    clipped at zero. A failure names the worst row's value.
    """
    p = _probabilities(probs, "probs", DEFAULT_NORM_TOL)
    v = np.array(volumes, dtype=float)  # a copy, not a view of the caller's array
    if v.shape != p.shape:
        raise LengthMismatchError(f"{p.size} probabilities vs {v.size} volumes")
    if not np.isfinite(v).all() or (v <= 0.0).any():
        raise ValidationError("volumes must be finite and strictly positive")
    return p, v


class WeightedDistribution:
    """Outcome probabilities paired with positive outcome volumes."""

    __slots__ = ("probs", "volumes")

    def __init__(self, probs, volumes):
        p, v = weighted_rows(
            np.asarray(probs, dtype=float).reshape(-1),
            np.asarray(volumes, dtype=float).reshape(-1),
        )
        p.setflags(write=False)
        v.setflags(write=False)
        self.probs = p
        self.volumes = v

    @property
    def n(self) -> int:
        return self.probs.size

    @property
    def total_volume(self) -> float:
        return float(self.volumes.sum())

    def uniform_reference(self) -> np.ndarray:
        """Probabilities of the uniformly random source: ``V_i / sum(V)``."""
        return self.volumes / self.total_volume

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedDistribution(n={self.n}, total_volume={self.total_volume:.6g})"


class JointDistribution:
    """Non-negative matrix of joint probabilities summing to one."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeMismatchError(f"joint distribution must be a 2-D matrix, got {arr.shape}")
        arr = _probabilities(
            arr, "joint distribution", DEFAULT_NORM_TOL, axis=None, neg_tol=BORN_NEGATIVE_TOL
        )
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


class StochasticMatrix:
    """Left stochastic matrix: non-negative entries, every column sums to one."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, col_tol: float = DEFAULT_COLUMN_TOL):
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeMismatchError(f"stochastic matrix must be 2-D, got shape {arr.shape}")
        arr = _probabilities(
            arr, "stochastic matrix", col_tol, axis=0, error=NotStochasticError, sum_error=NotStochasticError
        )
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StochasticMatrix({self.rows}x{self.cols})"


def as_stochastic(p) -> StochasticMatrix:
    """Accept either a :class:`StochasticMatrix` or a raw array, checked within ``DEFAULT_COLUMN_TOL``."""
    if isinstance(p, StochasticMatrix):
        return p
    return StochasticMatrix(p)


def push_forward(p, w: WeightedDistribution) -> WeightedDistribution:
    """Process a weighted distribution through a left stochastic matrix.

    Returns the distribution with ``p'_j = sum_i P_ji p_i`` and
    ``V'_j = sum_i P_ji V_i``. Column normalization of ``P`` preserves both the
    total probability and the total volume.
    """
    mat = as_stochastic(p).matrix
    if mat.shape[1] != w.n:
        raise ShapeMismatchError(f"matrix has {mat.shape[1]} columns for {w.n} outcomes")
    return WeightedDistribution(mat @ w.probs, mat @ w.volumes)
