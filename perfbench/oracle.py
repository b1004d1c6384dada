"""Independent feasibility oracle: scipy's HiGHS on a separately built LP.

Nothing here imports ``povmcoarse``. The oracle takes the raw element arrays
of an instance and writes the coarse-graining relation out again from its
definition:

    Σ_i P_ji (P_G Π_i P_G) = P_G Π'_j P_G   for possible outcomes j, i
    Σ_j P_ji = 1,  P_ji >= 0,  Σ_i P_ji V_i <= V'_j   (subspace case only)

with every complex matrix entry split into real and imaginary equations, so
its encoding shares no code or row layout with the library's Hermitian
component encoding.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

# outcome i is possible in the subspace when ||Π_i P_G||_F exceeds this
POSSIBLE_TOL = 1e-10


def _equalities(coarse: np.ndarray, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``Σ_i P_ji fine_i = coarse_j`` and ``Σ_j P_ji = 1`` over ``P`` (m x n)."""
    m, n = coarse.shape[0], fine.shape[0]
    flat = fine.reshape(n, -1)
    entries = np.concatenate([flat.real, flat.imag], axis=1).T  # (2 d^2, n)
    rows = entries.shape[0]
    a_eq = np.zeros((m * rows + n, m * n))
    b_eq = np.zeros(m * rows + n)
    target = coarse.reshape(m, -1)
    for j in range(m):
        a_eq[j * rows : (j + 1) * rows, j * n : (j + 1) * n] = entries
        b_eq[j * rows : (j + 1) * rows] = np.concatenate([target[j].real, target[j].imag])
    for i in range(n):
        a_eq[m * rows + i, i::n] = 1.0
        b_eq[m * rows + i] = 1.0
    return a_eq, b_eq


def highs_feasible(coarse, fine, basis=None) -> bool:
    """Whether HiGHS finds a stochastic ``P`` mapping ``fine`` onto ``coarse``.

    ``coarse`` and ``fine`` are stacks of element matrices ``(k, d, d)``;
    ``basis`` is an orthonormal ``d x r`` basis of the subspace, or ``None``
    for the global relation.
    """
    coarse = np.asarray(coarse, dtype=complex)
    fine = np.asarray(fine, dtype=complex)
    a_ub = b_ub = None
    if basis is not None:
        basis = np.asarray(basis, dtype=complex)
        pg = basis @ basis.conj().T
        keep_fine = np.linalg.norm(fine @ pg, axis=(1, 2)) > POSSIBLE_TOL
        keep_coarse = np.linalg.norm(coarse @ pg, axis=(1, 2)) > POSSIBLE_TOL
        v_fine = np.einsum("iaa->i", fine[keep_fine]).real
        v_coarse = np.einsum("iaa->i", coarse[keep_coarse]).real
        fine = pg @ fine[keep_fine] @ pg
        coarse = pg @ coarse[keep_coarse] @ pg
        m, n = coarse.shape[0], fine.shape[0]
        a_ub = np.zeros((m, m * n))
        for j in range(m):
            a_ub[j, j * n : (j + 1) * n] = v_fine
        b_ub = v_coarse
    a_eq, b_eq = _equalities(coarse, fine)
    result = linprog(
        np.zeros(a_eq.shape[1]), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if result.status not in (0, 2):
        raise RuntimeError(f"HiGHS ended with status {result.status}: {result.message}")
    return result.status == 0


def witness_residual(coarse, fine, p, basis=None, coarse_idx=None, fine_idx=None,
                     coarse_volumes=None, fine_volumes=None) -> float:
    """Largest violation of the relation by the witness ``p``, recomputed from scratch.

    Covers the mixture equalities (Frobenius norm per coarse element), the
    column sums, negative entries and, in the subspace case, the volume
    inequality. ``coarse_idx``/``fine_idx`` name the outcomes that index the
    rows and columns of ``p`` (all outcomes when ``None``).
    """
    coarse = np.asarray(coarse, dtype=complex)
    fine = np.asarray(fine, dtype=complex)
    p = np.asarray(p, dtype=float)
    rows = list(range(coarse.shape[0])) if coarse_idx is None else list(coarse_idx)
    cols = list(range(fine.shape[0])) if fine_idx is None else list(fine_idx)
    target, source = coarse[rows], fine[cols]
    worst = max(float(np.max(np.abs(p.sum(axis=0) - 1.0))), float(max(0.0, -p.min())))
    if basis is not None:
        basis = np.asarray(basis, dtype=complex)
        pg = basis @ basis.conj().T
        target, source = pg @ target @ pg, pg @ source @ pg
        slack = np.asarray(coarse_volumes)[rows] - p @ np.asarray(fine_volumes)[cols]
        worst = max(worst, float(max(0.0, -slack.min())))
    mixed = np.einsum("ji,iab->jab", p, source)
    return max(worst, float(np.max(np.linalg.norm(mixed - target, axis=(1, 2)))))
