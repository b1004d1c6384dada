"""Classical probability carriers: weighted distributions, joints, stochastic matrices."""

from __future__ import annotations

import numpy as np

from .errors import (
    LengthMismatchError,
    NotNormalizedError,
    NotStochasticError,
    ShapeMismatchError,
    ValidationError,
)

DEFAULT_NORM_TOL = 1e-10
DEFAULT_COLUMN_TOL = 1e-8
# entries this far below zero are treated as rounding noise and clipped
_NEGATIVE_TOL = 1e-12


def weighted_rows(probs, volumes, *, norm_tol: float = DEFAULT_NORM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Check ``(p, V)`` pairs held as ``(..., n)`` rows, each by the rules of :class:`WeightedDistribution`.

    Every row of ``probs`` must be finite, non-negative up to rounding noise
    and sum to one within ``norm_tol``; ``volumes`` must have the same shape
    and be finite and strictly positive. Returns float copies, the
    probabilities clipped at zero. A failure names the worst row's value.
    """
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValidationError("probs must be non-empty")
    if not np.isfinite(p).all():
        raise ValidationError("probs has non-finite entries")
    if (p < -_NEGATIVE_TOL).any():
        raise ValidationError(f"probs has negative entries (min {p.min():.3e})")
    p = np.clip(p, 0.0, None)
    totals = p.sum(axis=-1)
    errors = np.abs(totals - 1.0)
    if errors.max() > norm_tol:
        total = float(np.ravel(totals)[np.argmax(errors)])
        raise NotNormalizedError(f"probs sums to {total!r}, expected 1 within {norm_tol:.1e}")
    v = np.array(volumes, dtype=float)  # a copy, not a view of the caller's array
    if v.shape != p.shape:
        raise LengthMismatchError(f"{p.size} probabilities vs {v.size} volumes")
    if not np.isfinite(v).all() or (v <= 0.0).any():
        raise ValidationError("volumes must be finite and strictly positive")
    return p, v


class WeightedDistribution:
    """Outcome probabilities paired with positive outcome volumes."""

    __slots__ = ("probs", "volumes")

    def __init__(self, probs, volumes, *, norm_tol: float = DEFAULT_NORM_TOL):
        p, v = weighted_rows(
            np.asarray(probs, dtype=float).reshape(-1),
            np.asarray(volumes, dtype=float).reshape(-1),
            norm_tol=norm_tol,
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

    def __init__(self, matrix, *, norm_tol: float = DEFAULT_NORM_TOL):
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeMismatchError(f"joint distribution must be a 2-D matrix, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("joint distribution has non-finite entries")
        if np.any(arr < -1e-9):
            raise ValidationError(f"joint distribution has negative entries (min {arr.min():.3e})")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if abs(total - 1.0) > norm_tol:
            raise NotNormalizedError(f"joint sums to {total!r}, expected 1")
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
        if not np.all(np.isfinite(arr)):
            raise NotStochasticError("stochastic matrix has non-finite entries")
        if np.any(arr < -_NEGATIVE_TOL):
            raise NotStochasticError(
                f"stochastic matrix has negative entries (min {arr.min():.3e})"
            )
        sums = arr.sum(axis=0)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > col_tol:
            raise NotStochasticError(
                f"column sums deviate from 1 by {worst:.3e} (tolerance {col_tol:.1e})"
            )
        arr = np.clip(arr, 0.0, None)
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


def as_stochastic(p, *, col_tol: float = DEFAULT_COLUMN_TOL) -> StochasticMatrix:
    """Accept either a :class:`StochasticMatrix` or a raw array."""
    if isinstance(p, StochasticMatrix):
        return p
    return StochasticMatrix(p, col_tol=col_tol)


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
