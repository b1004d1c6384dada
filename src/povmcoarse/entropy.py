"""Entropies and divergences in nats.

Implements observational entropy ``S = sum_i p_i (ln V_i - ln p_i)`` for both
quantum measurements and bare (probability, volume) pairs, von Neumann
entropy, Kullback-Leibler divergence, mutual information, and the joint
distribution between a state's eigenbasis and measurement outcomes.

Conventions: all logarithms are natural; ``0 ln 0 = 0`` with probabilities
below ``1e-14`` treated as zero; a KL divergence against a reference that
lacks support returns ``math.inf`` rather than raising, so monotonicity
checks can compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, WeightedDistribution
from .errors import DimensionMismatchError, LengthMismatchError, NotNormalizedError, ValidationError
from .measurements import GeneralizedMeasurement, outcome_probabilities, outcome_probability_stack
from .operators import DEFAULT_ATOL, DensityMatrix, phase_fixed_eigh

ZERO_PROB_TOL = 1e-14


def s_obs_classical(w: WeightedDistribution) -> float:
    """Observational entropy of a weighted distribution: ``sum p (ln V - ln p)``."""
    p, v = w.probs, w.volumes
    mask = p > ZERO_PROB_TOL
    return float(np.sum(p[mask] * (np.log(v[mask]) - np.log(p[mask]))) + 0.0)


def kl_divergence(p, q, *, norm_tol: float = 1e-8) -> float:
    """Kullback-Leibler divergence ``sum p (ln p - ln q)`` in nats.

    Terms with ``p_i = 0`` contribute zero. If some ``p_i > 0`` has ``q_i = 0``
    the divergence is ``+inf`` (absolute-continuity failure), returned as
    ``math.inf``.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.size != q.size:
        raise LengthMismatchError(f"{p.size} vs {q.size} entries")
    for name, arr in (("p", p), ("q", q)):
        if np.any(arr < -1e-12) or not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} is not a probability vector")
        total = float(arr.sum())
        if abs(total - 1.0) > norm_tol:
            raise NotNormalizedError(f"{name} sums to {total!r}")
    mask = p > ZERO_PROB_TOL
    if np.any(q[mask] <= ZERO_PROB_TOL):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def mutual_information(joint: JointDistribution) -> float:
    """Mutual information ``sum_xy p_xy ln(p_xy / (p_x p_y))`` of a joint."""
    m = joint.matrix
    px = m.sum(axis=1)
    py = m.sum(axis=0)
    mask = m > ZERO_PROB_TOL
    ref = np.outer(px, py)
    return float(np.sum(m[mask] * (np.log(m[mask]) - np.log(ref[mask]))) + 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """``-Tr[ρ ln ρ]`` over the nonzero spectrum."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > ZERO_PROB_TOL]
    return float(-np.sum(w * np.log(w)) + 0.0)  # + 0.0 normalizes -0.0


def _weighted_log_ratio(p: np.ndarray, num, den, axis) -> np.ndarray:
    """``sum p (ln num - ln den)`` over ``axis``, skipping entries with ``p <= ZERO_PROB_TOL``."""
    mask = p > ZERO_PROB_TOL
    terms = p * (np.log(np.where(mask, num, 1.0)) - np.log(np.where(mask, den, 1.0)))
    return np.sum(np.where(mask, terms, 0.0), axis=axis) + 0.0


def s_obs_stack(measurement: GeneralizedMeasurement, states: np.ndarray) -> np.ndarray:
    """Observational entropies of a validated ``(S, d, d)`` stack of states, shape ``(S,)``.

    Entry ``s`` agrees with ``observational_entropy(measurement, ρ_s).s_obs``
    to rounding; the von Neumann entropy and the divergence of the full report
    are not computed.
    """
    probs = outcome_probability_stack(measurement, states)
    return _weighted_log_ratio(probs, measurement.volumes(), probs, 1)


def mutual_information_stack(measurement: GeneralizedMeasurement, states: np.ndarray) -> np.ndarray:
    """Eigenbasis-outcome mutual information of a validated ``(S, d, d)`` stack, shape ``(S,)``.

    Entry ``s`` agrees with
    ``mutual_information(measurement_state_joint(measurement, ρ_s))`` to
    rounding: the rows are the state's eigenvectors from the same ``eigh``.
    """
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1:] != (measurement.dim, measurement.dim):
        raise DimensionMismatchError(
            f"expected a stack of {measurement.dim} x {measurement.dim} states, got {states.shape}"
        )
    eigvals, eigvecs = np.linalg.eigh(states)
    # conditional[s, x, i] = <x|Pi_i|x> for eigenvector x of state s
    conditional = np.einsum("sax,iab,sbx->sxi", eigvecs.conj(), measurement.stacked(), eigvecs).real
    joint = np.clip(eigvals, 0.0, None)[:, :, None] * np.clip(conditional, 0.0, None)
    ref = joint.sum(axis=2, keepdims=True) * joint.sum(axis=1, keepdims=True)
    return _weighted_log_ratio(joint, joint, ref, (1, 2))


@dataclass(frozen=True)
class EntropyReport:
    """Observational entropy with its information-theoretic decomposition.

    Satisfies ``s_obs = ln_vtot - d_kl_to_uniform`` within ``1e-9``; the
    identity is asserted on construction.
    """

    s_obs: float
    s_vn: float
    ln_vtot: float
    d_kl_to_uniform: float

    def __post_init__(self):
        gap = abs(self.s_obs - (self.ln_vtot - self.d_kl_to_uniform))
        if not math.isfinite(gap) or gap > 1e-9:
            raise ValidationError(
                f"entropy decomposition identity violated by {gap:.3e}"
            )


def observational_entropy(
    measurement: GeneralizedMeasurement,
    rho: DensityMatrix,
    *,
    atol: float = DEFAULT_ATOL,
) -> EntropyReport:
    """Observational entropy of ``rho`` under ``measurement``, with decomposition.

    The report carries the von Neumann entropy of the state, ``ln dim``, and
    the divergence of the outcome distribution from the uniform-state
    reference ``V_i / dim``.
    """
    w = outcome_probabilities(measurement, rho, atol=atol)
    s_obs = s_obs_classical(w)
    dim = measurement.dim
    d_kl = kl_divergence(w.probs, w.volumes / dim, norm_tol=1e-8)
    return EntropyReport(
        s_obs=s_obs,
        s_vn=von_neumann_entropy(rho),
        ln_vtot=math.log(dim),
        d_kl_to_uniform=d_kl,
    )


def measurement_state_joint(
    measurement: GeneralizedMeasurement,
    rho: DensityMatrix,
    *,
    atol: float = DEFAULT_ATOL,
) -> JointDistribution:
    """Joint distribution ``p_xi = <x|Π_i|x> <x|ρ|x>`` over eigenbasis and outcomes.

    Rows are indexed by the deterministically phase-fixed eigenvectors of the
    state (descending eigenvalues); columns by measurement outcomes. Column
    marginals reproduce the Born-rule probabilities. For degenerate states the
    row basis inside an eigenspace is a convention fixed by the
    eigendecomposition ordering.
    """
    if measurement.dim != rho.dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} vs state dimension {rho.dim}"
        )
    eigvals, eigvecs = phase_fixed_eigh(rho.matrix, atol=atol)
    eigvals = np.clip(eigvals, 0.0, None)
    # conditional[x, i] = <x|Pi_i|x>
    conditional = np.einsum("ax,iab,bx->xi", eigvecs.conj(), measurement.stacked(), eigvecs).real
    conditional = np.clip(conditional, 0.0, None)
    joint = eigvals[:, None] * conditional
    return JointDistribution(joint, norm_tol=max(atol, 1e-10))
