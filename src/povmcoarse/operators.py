"""Finite-dimensional complex operator algebra.

Operators are dense ``numpy`` arrays of ``complex128``. The classes here
(:class:`Projector`, :class:`DensityMatrix`, :class:`Subspace`) validate their
defining invariants on construction and expose read-only matrices; free
functions provide the Hermitian/PSD checks and eigendecompositions everything
else is built on.

Default tolerances: structural checks (Hermiticity, positivity, idempotency,
traces) use ``DEFAULT_ATOL`` and eigenvalue grouping uses
``DEFAULT_DEGENERACY_TOL``, relative to the spectral scale; operators built
from validated ones (a subspace basis, eigenprojectors) are checked within
``BUILD_ATOL``. The values are in :mod:`povmcoarse.tolerances`.
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
from .tolerances import BUILD_ATOL, DEFAULT_ATOL, DEFAULT_DEGENERACY_TOL, RANK_TOL, RANK_TRACE_TOL


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


def _vector_columns(vectors: Sequence) -> np.ndarray:
    """Stack equal-length vectors as the columns of a ``(d, k)`` complex matrix."""
    flat = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not flat:
        raise ValidationError("need at least one vector")
    lengths = sorted({v.size for v in flat})
    if len(lengths) > 1:
        raise DimensionMismatchError(f"vectors have unequal lengths {lengths}")
    return np.stack(flat, axis=1)


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


def require_density(a, *, atol: float = DEFAULT_ATOL, name: str = "density matrix") -> np.ndarray:
    """Validate one state or a ``(..., d, d)`` stack of states; return it symmetrized.

    The checks, tolerances and errors are those of :class:`DensityMatrix`:
    Hermitian, PSD and unit trace, each within ``atol``.
    """
    arr = require_psd(a, atol=atol, name=name)
    trace = np.trace(arr, axis1=-2, axis2=-1).real
    bad = np.abs(trace - 1.0) > atol
    if np.count_nonzero(bad):
        label, value = _first_flagged(name, bad, trace)
        raise ValidationError(f"{label} trace {value!r} differs from 1")
    return arr


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix, or of each matrix of a ``(..., d, d)`` stack.

    Tiny negative eigenvalues are clipped. Each slice of a stack is bit for bit
    the root of that matrix alone.
    """
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _eigenspace_ids(eigvals: np.ndarray) -> np.ndarray:
    """Eigenspace index of each eigenvalue, for one descending spectrum or a ``(..., d)`` stack of them.

    A gap above ``DEFAULT_DEGENERACY_TOL`` times the spectral scale (max of
    spectral range and largest magnitude) starts a new eigenspace, so the ids run
    ``0, 1, ...`` down the spectrum. This is the one grouping rule of
    :func:`eigendecompose` and of the entropy joints.
    """
    scale = np.maximum(eigvals[..., 0] - eigvals[..., -1], np.max(np.abs(eigvals), axis=-1))
    starts = eigvals[..., :-1] - eigvals[..., 1:] > DEFAULT_DEGENERACY_TOL * scale[..., None]
    ids = np.zeros(eigvals.shape, dtype=int)
    np.cumsum(starts, axis=-1, out=ids[..., 1:])
    return ids


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
        if abs(trace - rank) > max(atol, RANK_TRACE_TOL):
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

    def __init__(self, matrix, *, atol: float = DEFAULT_ATOL):
        arr = _one_matrix(require_density(matrix, atol=atol), "density matrix")
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
    """Subspace given by an orthonormal basis, with its derived projector.

    The basis must be finite and orthonormal within ``BUILD_ATOL``. The
    projector is built and validated, within the same bound, on first access
    to :attr:`projector`; :meth:`compress`, :meth:`embed` and the outcome
    checks read only the basis.
    """

    __slots__ = ("basis", "_projector")

    def __init__(self, basis):
        arr = np.array(basis, dtype=complex)  # a copy: the caller's array stays writable
        if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] < arr.shape[1]:
            raise DimensionMismatchError(
                f"subspace basis must be a d x r matrix with 1 <= r <= d, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("subspace basis has non-finite entries")
        gram = dagger(arr) @ arr
        defect = frobenius(gram - np.eye(arr.shape[1]))
        if defect > BUILD_ATOL:
            raise ValidationError(
                f"subspace basis is not orthonormal: ||G - I||_F = {defect:.3e}"
            )
        arr.setflags(write=False)
        self.basis = arr
        self._projector = None

    @property
    def projector(self) -> Projector:
        """The orthogonal projector ``B B†`` onto the subspace."""
        if self._projector is None:
            self._projector = Projector(
                self.basis @ dagger(self.basis), rank=self.rank, atol=BUILD_ATOL
            )
        return self._projector

    @property
    def dim(self) -> int:
        """Ambient Hilbert-space dimension."""
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def span(cls, vectors: Sequence) -> "Subspace":
        """Subspace spanned by linearly independent vectors (orthonormalized).

        The vectors are dependent when there are more of them than entries
        in each, or when the smallest ``|R_kk|`` of their QR factorization is
        at most ``RANK_TOL`` times the largest, so the test does not depend on
        their scale.
        """
        cols = _vector_columns(vectors)
        q, r = np.linalg.qr(cols)
        diag = np.diag(r)
        size = np.abs(diag)
        if cols.shape[1] > cols.shape[0] or not size.min() > RANK_TOL * size.max():
            raise ValidationError("span vectors are numerically linearly dependent")
        # make the QR phases deterministic
        q = q * (diag.conj() / size)
        return cls(q)

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

    def compress(self, big: np.ndarray) -> np.ndarray:
        """The r x r block ``B† X B`` of an ambient operator, or of a ``(..., d, d)`` stack.

        The partner of :meth:`embed`: ``compress(embed(Y)) == Y``, and
        ``‖B† X B‖_F = ‖P X P‖_F`` for the projector ``P = B B†``.
        """
        big = np.asarray(big, dtype=complex)
        if big.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected a {self.dim} x {self.dim} operator, got {big.shape}"
            )
        return dagger(self.basis) @ big @ self.basis

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def eigendecompose(a) -> list[tuple[float, Projector]]:
    """Spectral decomposition into eigenvalue/eigenprojector pairs.

    ``a`` must be Hermitian within ``DEFAULT_ATOL``. Eigenvalues closer than
    ``DEFAULT_DEGENERACY_TOL`` times the spectral scale (max of spectral range
    and largest magnitude) are merged into a single eigenspace projector,
    validated within ``BUILD_ATOL``; the reported eigenvalue is the group
    mean. Pairs are returned in descending eigenvalue order and their
    projectors sum to the identity.
    """
    w, v = np.linalg.eigh(_one_matrix(require_hermitian(a), "operator"))
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    ids = _eigenspace_ids(w)
    pairs = []
    for g in range(ids[-1] + 1):
        members = ids == g
        block = v[:, members]
        proj = Projector(block @ dagger(block), rank=block.shape[1], atol=BUILD_ATOL)
        pairs.append((float(np.mean(w[members])), proj))
    return pairs
