"""Finite-dimensional complex operator algebra.

Operators are dense ``numpy`` arrays of ``complex128``. The classes here
(:class:`Projector`, :class:`DensityMatrix`, :class:`Subspace`) validate their
defining invariants on construction and expose read-only matrices; free
functions provide the Hermitian/PSD checks and eigendecompositions everything
else is built on.

Default tolerances: structural checks (Hermiticity, positivity, idempotency,
traces) use ``DEFAULT_ATOL = 1e-10``; eigenvalue grouping uses
``DEFAULT_DEGENERACY_TOL = 1e-8`` relative to the spectral scale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPSDError,
    NotProjectiveError,
    ValidationError,
)

DEFAULT_ATOL = 1e-10
DEFAULT_DEGENERACY_TOL = 1e-8

# Components smaller than this are treated as exactly zero when fixing
# eigenvector phases. Unit vectors always have a component >= 1/sqrt(d).
_PHASE_TOL = 1e-12


def _square_stack(a, name: str) -> np.ndarray:
    """Coerce ``a`` to a finite complex array of square matrices, shape ``(..., d, d)``."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _one_matrix(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` itself if it is a single matrix, not a stack."""
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_square_matrix(a, *, name: str = "operator") -> np.ndarray:
    """Coerce ``a`` to a finite square complex matrix."""
    return _one_matrix(_square_stack(a, name), name)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _first_flagged(name: str, bad: np.ndarray, values: np.ndarray) -> tuple[str, float]:
    """The label and value of the first flagged slice, for an error message."""
    index = tuple(int(k) for k in np.argwhere(bad)[0])
    return (f"{name} {list(index)}" if index else name), float(values[index])


def require_hermitian(a, *, atol: float = DEFAULT_ATOL, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix ``(A + A†)/2``.

    ``a`` is one matrix or a ``(..., d, d)`` stack, checked and symmetrized
    slice by slice; an error names the first failing slice by its index.
    """
    arr = _square_stack(a, name)
    adjoint = np.swapaxes(arr, -1, -2).conj()
    defect = np.linalg.norm(arr - adjoint, axis=(-2, -1))
    bad = defect > atol
    if np.count_nonzero(bad):
        label, value = _first_flagged(name, bad, defect)
        raise NonHermitianError(
            f"{label}: ||A - A^dagger||_F = {value:.3e} exceeds tolerance {atol:.1e}"
        )
    return 0.5 * (arr + adjoint)


def require_psd(a, *, atol: float = DEFAULT_ATOL, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity and positive semidefiniteness within ``atol``.

    Takes one matrix or a ``(..., d, d)`` stack, whose spectra come from one
    stacked ``eigvalsh``.
    """
    arr = require_hermitian(a, atol=atol, name=name)
    low = np.linalg.eigvalsh(arr)[..., 0]
    bad = low < -atol
    if np.count_nonzero(bad):
        label, value = _first_flagged(name, bad, low)
        raise NotPSDError(f"{label}: minimum eigenvalue {value:.3e} below -{atol:.1e}")
    return arr


def require_density(
    a, *, atol: float = DEFAULT_ATOL, trace_tol: float | None = None, name: str = "density matrix"
) -> np.ndarray:
    """Validate one state or a ``(..., d, d)`` stack of states; return it symmetrized.

    The checks, tolerances and errors are those of :class:`DensityMatrix`:
    Hermitian and PSD within ``atol``, and unit trace within ``trace_tol``
    (default ``atol``).
    """
    arr = require_psd(a, atol=atol, name=name)
    trace = np.trace(arr, axis1=-2, axis2=-1).real
    bad = np.abs(trace - 1.0) > (trace_tol if trace_tol is not None else atol)
    if np.count_nonzero(bad):
        label, value = _first_flagged(name, bad, trace)
        raise ValidationError(f"{label} trace {value!r} differs from 1")
    return arr


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix (tiny negative eigenvalues clipped)."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def phase_fixed_eigh(a, *, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic output convention.

    Eigenvalues are sorted in descending order; each eigenvector is rotated by
    a global phase so that its first component above ``1e-12`` in magnitude is
    real and positive. For a fixed input this makes the output reproducible,
    which keeps golden files stable.
    """
    arr = _one_matrix(require_hermitian(a, atol=atol), "operator")
    w, v = np.linalg.eigh(arr)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > _PHASE_TOL)
        pivot = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        phase = col[pivot] / abs(col[pivot])
        v[:, k] = col * np.conj(phase)
    return w, v


class Projector:
    """Orthogonal projector with its rank.

    Invariants: Hermitian, ``‖P² − P‖_F`` within tolerance, trace equal to the
    rank within tolerance.
    """

    __slots__ = ("matrix", "rank")

    def __init__(self, matrix, rank: int | None = None, *, atol: float = DEFAULT_ATOL):
        arr = _one_matrix(require_hermitian(matrix, atol=atol, name="projector"), "projector")
        defect = frobenius(arr @ arr - arr)
        if defect > atol:
            raise NotProjectiveError(
                f"projector: ||P^2 - P||_F = {defect:.3e} exceeds tolerance {atol:.1e}"
            )
        trace = float(np.trace(arr).real)
        inferred = int(round(trace))
        if rank is None:
            rank = inferred
        if abs(trace - rank) > max(atol, 1e-8):
            raise ValidationError(f"projector trace {trace!r} does not match rank {rank}")
        arr.setflags(write=False)
        self.matrix = arr
        self.rank = rank

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Projector(dim={self.dim}, rank={self.rank})"


class DensityMatrix:
    """Unit-trace PSD operator describing a quantum state."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, atol: float = DEFAULT_ATOL, trace_tol: float | None = None):
        arr = _one_matrix(require_density(matrix, atol=atol, trace_tol=trace_tol), "density matrix")
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityMatrix":
        """``|ψ⟩⟨ψ|`` for a (re-normalized) state vector."""
        vec = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm <= 0:
            raise ValidationError("cannot build a pure state from the zero vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        """The no-knowledge reference state ``identity / dim``."""
        if dim < 1:
            raise ValidationError("dimension must be positive")
        return cls(np.eye(dim, dtype=complex) / dim)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.matrix)[::-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dim={self.dim})"


class Subspace:
    """Subspace given by an orthonormal basis, with its derived projector."""

    __slots__ = ("basis", "projector")

    def __init__(self, basis, *, atol: float = DEFAULT_ATOL):
        arr = np.array(basis, dtype=complex)  # a copy: the caller's array stays writable
        if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] < arr.shape[1]:
            raise DimensionMismatchError(
                f"subspace basis must be a d x r matrix with 1 <= r <= d, got {arr.shape}"
            )
        gram = dagger(arr) @ arr
        defect = frobenius(gram - np.eye(arr.shape[1]))
        if defect > max(atol, 1e-9):
            raise ValidationError(
                f"subspace basis is not orthonormal: ||G - I||_F = {defect:.3e}"
            )
        arr.setflags(write=False)
        self.basis = arr
        self.projector = Projector(arr @ dagger(arr), rank=arr.shape[1], atol=max(atol, 1e-9))

    @property
    def dim(self) -> int:
        """Ambient Hilbert-space dimension."""
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def span(cls, vectors: Sequence, *, atol: float = DEFAULT_ATOL) -> "Subspace":
        """Subspace spanned by linearly independent vectors (orthonormalized)."""
        cols = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors], axis=1)
        q, r = np.linalg.qr(cols)
        diag = np.diag(r)
        if np.any(np.abs(diag) < 1e-10):
            raise ValidationError("span vectors are numerically linearly dependent")
        # make the QR phases deterministic
        q = q * (diag.conj() / np.abs(diag))
        return cls(q, atol=atol)

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(np.eye(dim, dtype=complex))

    def embed(self, small: np.ndarray) -> np.ndarray:
        """Lift an r x r operator on the subspace, or a ``(..., r, r)`` stack, into the ambient space."""
        small = np.asarray(small, dtype=complex)
        if small.shape[-2:] != (self.rank, self.rank):
            raise DimensionMismatchError(
                f"expected a {self.rank} x {self.rank} block, got {small.shape}"
            )
        return self.basis @ small @ dagger(self.basis)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def eigendecompose(
    a,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
    *,
    atol: float = DEFAULT_ATOL,
) -> list[tuple[float, Projector]]:
    """Spectral decomposition into eigenvalue/eigenprojector pairs.

    Eigenvalues closer than ``degeneracy_tol`` times the spectral scale
    (max of spectral range and largest magnitude) are merged into a single
    eigenspace projector; the reported eigenvalue is the group mean. Pairs are
    returned in descending eigenvalue order and their projectors sum to the
    identity.
    """
    w, v = phase_fixed_eigh(a, atol=atol)
    scale = max(float(w[0] - w[-1]), float(np.max(np.abs(w))) if w.size else 0.0)
    threshold = degeneracy_tol * scale
    groups: list[list[int]] = [[0]]
    for k in range(1, w.size):
        if w[k - 1] - w[k] > threshold:
            groups.append([k])
        else:
            groups[-1].append(k)
    pairs = []
    for idx in groups:
        block = v[:, idx]
        proj = Projector(block @ dagger(block), rank=len(idx), atol=max(atol, 1e-9))
        pairs.append((float(np.mean(w[idx])), proj))
    return pairs
