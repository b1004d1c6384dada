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
from .errors import LengthMismatchError, NotNormalizedError, ValidationError
from .measurements import (
    GeneralizedMeasurement,
    _checked_state_stack,
    outcome_probabilities,
    outcome_probability_stack,
)
from .operators import DEFAULT_ATOL, DensityMatrix

ZERO_PROB_TOL = 1e-14


def _weighted_log_ratio(p: np.ndarray, num, den, axis) -> np.ndarray:
    """``sum p (ln num - ln den)`` over ``axis``, skipping entries with ``p <= ZERO_PROB_TOL``."""
    mask = p > ZERO_PROB_TOL
    # a skipped entry contributes p * (ln 1 - ln 1) = 0; + 0.0 turns a -0.0 total into 0.0
    terms = p * (np.log(np.where(mask, num, 1.0)) - np.log(np.where(mask, den, 1.0)))
    return terms.sum(axis=axis) + 0.0


def s_obs_classical(w: WeightedDistribution) -> float:
    """Observational entropy of a weighted distribution: ``sum p (ln V - ln p)``."""
    return float(_weighted_log_ratio(w.probs, w.volumes, w.probs, -1))


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
    if np.any(q[p > ZERO_PROB_TOL] <= ZERO_PROB_TOL):
        return math.inf
    return float(_weighted_log_ratio(p, p, q, -1))


def _information(joints: np.ndarray) -> np.ndarray:
    """Mutual information of one ``(d, n)`` joint or of each joint in a ``(S, d, n)`` stack."""
    ref = joints.sum(axis=-1, keepdims=True) * joints.sum(axis=-2, keepdims=True)
    return _weighted_log_ratio(joints, joints, ref, (-2, -1))


def mutual_information(joint: JointDistribution) -> float:
    """Mutual information ``sum_xy p_xy ln(p_xy / (p_x p_y))`` of a joint."""
    return float(_information(joint.matrix))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """``-Tr[ρ ln ρ]`` over the nonzero spectrum."""
    w = np.linalg.eigvalsh(rho.matrix)
    return float(_weighted_log_ratio(w, 1.0, w, -1))


def _eigen_joints(measurement: GeneralizedMeasurement, states) -> np.ndarray:
    """Joints ``p_xi = λ_x <x|Π_i|x>`` of a ``(S, d, d)`` stack of states, shape ``(S, d, n)``.

    Row ``x`` of joint ``s`` is the eigenvector of state ``s`` with the
    ``x``-th largest eigenvalue, from one stacked ``eigh``. Each state's joint
    is computed on its own, so it does not depend on the rest of the stack.
    """
    states = _checked_state_stack(measurement, states)
    eigvals, eigvecs = np.linalg.eigh(states)
    eigvals, eigvecs = eigvals[:, ::-1], eigvecs[:, :, ::-1]
    # conditional[s, i, x] = <x|Pi_i|x>, a sum over the contiguous last axis
    bras = np.swapaxes(eigvecs.conj(), 1, 2)[:, None] @ measurement.stacked()[None]
    conditional = np.sum(bras * np.swapaxes(eigvecs, 1, 2)[:, None], axis=-1).real
    joints = np.clip(eigvals, 0.0, None)[:, None, :] * np.clip(conditional, 0.0, None)
    return np.ascontiguousarray(np.swapaxes(joints, 1, 2))


def s_obs_stack(measurement: GeneralizedMeasurement, states: np.ndarray) -> np.ndarray:
    """Observational entropies of a validated ``(S, d, d)`` stack of states, shape ``(S,)``.

    Entry ``s`` is bit-identical to ``observational_entropy(measurement,
    ρ_s).s_obs``, whatever ``S`` is: both go through the same Born-rule and
    log-ratio kernels. The von Neumann entropy and the divergence of the full
    report are not computed.
    """
    probs = outcome_probability_stack(measurement, states)
    return _weighted_log_ratio(probs, measurement.volumes(), probs, -1)


def mutual_information_stack(measurement: GeneralizedMeasurement, states: np.ndarray) -> np.ndarray:
    """Eigenbasis-outcome mutual information of a validated ``(S, d, d)`` stack, shape ``(S,)``.

    Entry ``s`` is bit-identical to
    ``mutual_information(measurement_state_joint(measurement, ρ_s))``,
    whatever ``S`` is: both build the joint with the same kernel. On a
    repeated nonzero eigenvalue the rows inside that eigenspace, and so the
    mutual information, follow the basis that ``eigh`` returns.
    """
    return _information(_eigen_joints(measurement, states))


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

    Rows are indexed by the state's eigenvectors in descending eigenvalue
    order; columns by measurement outcomes. Column marginals reproduce the
    Born-rule probabilities. The one-state case of the joint kernel behind
    :func:`mutual_information_stack`, so it is bit-identical to that stack's
    entry. Eigenvector phases do not enter ``<x|Π_i|x>``. On a repeated nonzero
    eigenvalue the rows inside that eigenspace follow the basis that ``eigh``
    returns, so the joint (and its mutual information) can move with
    rounding-level changes to ``rho``.
    """
    return JointDistribution(_eigen_joints(measurement, rho.matrix[None])[0], norm_tol=max(atol, 1e-10))
