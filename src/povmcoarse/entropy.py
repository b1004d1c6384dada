"""Entropies and divergences in nats.

Implements observational entropy ``S = sum_i p_i (ln V_i - ln p_i)`` for both
quantum measurements and bare (probability, volume) pairs, von Neumann
entropy, Kullback-Leibler divergence, mutual information, and the joint
distribution between a state's eigenspaces and measurement outcomes.

Conventions: all logarithms are natural; ``0 ln 0 = 0`` with probabilities
at most ``ZERO_PROB_TOL`` treated as zero; a KL divergence against a
reference that lacks support returns ``math.inf`` rather than raising, so
monotonicity checks can compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, WeightedDistribution, _probabilities, _sums
from .errors import LengthMismatchError, ValidationError
from .measurements import (
    GeneralizedMeasurement,
    _checked_state_stack,
    outcome_probabilities,
    outcome_probability_stack,
)
from .operators import DensityMatrix, _eigenspace_ids
from .tolerances import ENTROPY_IDENTITY_TOL, KL_NORM_TOL, ZERO_PROB_TOL


def _weighted_log_ratio(p: np.ndarray, num, den, axis) -> np.ndarray:
    """``sum p (ln num - ln den)`` over ``axis``, skipping entries with ``p <= ZERO_PROB_TOL``."""
    mask = p > ZERO_PROB_TOL
    # a skipped entry contributes p * (ln 1 - ln 1) = 0; + 0.0 turns a -0.0 total into 0.0
    terms = p * (np.log(np.where(mask, num, 1.0)) - np.log(np.where(mask, den, 1.0)))
    return _sums(terms, axis) + 0.0


def s_obs_classical(w: WeightedDistribution) -> float:
    """Observational entropy of a weighted distribution: ``sum p (ln V - ln p)``."""
    return float(_weighted_log_ratio(w.probs, w.volumes, w.probs, -1))


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence ``sum p (ln p - ln q)`` in nats.

    Terms with ``p_i = 0`` contribute zero. If some ``p_i > 0`` has ``q_i = 0``
    the divergence is ``+inf`` (absolute-continuity failure), returned as
    ``math.inf``.

    ``p`` and ``q`` must have one length (else :class:`LengthMismatchError`)
    and each pass the probability rule of :mod:`povmcoarse.distributions`:
    an empty vector, a non-finite entry or one below ``-NEGATIVE_TOL`` raises
    :class:`ValidationError`, and a sum more than ``KL_NORM_TOL`` from one
    raises :class:`NotNormalizedError`.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.size != q.size:
        raise LengthMismatchError(f"{p.size} vs {q.size} entries")
    p = _probabilities(p, "p", KL_NORM_TOL)
    q = _probabilities(q, "q", KL_NORM_TOL)
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


def _eigen_joints(measurements, states) -> list[np.ndarray]:
    """Joints ``p_gi = sum_{x in g} λ_x <x|Π_i|x>`` of a ``(S, d, d)`` stack of states, one per measurement.

    Each joint has shape ``(S, d, n)``. Row ``g`` of joint ``s`` sums the
    eigenvectors ``x`` of the ``g``-th eigenspace of state ``s``, counted
    down from the largest eigenvalue and grouped by the rule of
    :func:`eigendecompose`; rows past the last eigenspace are zero. The sum
    over an eigenspace does not depend on the basis that the stacked ``eigh``
    picks inside it. The stack is diagonalized once for all the measurements,
    and each state's joint is computed on its own, so it does not depend on
    the rest of the stack or on the other measurements.
    """
    for measurement in measurements:
        states = _checked_state_stack(measurement, states)
    eigvals, eigvecs = np.linalg.eigh(states)
    eigvals, eigvecs = eigvals[:, ::-1], eigvecs[:, :, ::-1]
    bras, kets = np.swapaxes(eigvecs.conj(), 1, 2)[:, None], np.swapaxes(eigvecs, 1, 2)[:, None]
    weights = np.clip(eigvals, 0.0, None)[:, None, :]
    # one_hot[s, g, x] = 1 when eigenvector x of state s lies in eigenspace g
    ids = _eigenspace_ids(eigvals)
    one_hot = (ids[:, None, :] == np.arange(ids.shape[1])[:, None]).astype(float)
    joints = []
    for measurement in measurements:
        # conditional[s, i, x] = <x|Pi_i|x>, a sum over the contiguous last axis
        conditional = np.sum((bras @ measurement.stacked()[None]) * kets, axis=-1).real
        joints.append(one_hot @ np.swapaxes(weights * np.clip(conditional, 0.0, None), 1, 2))
    return joints


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
    whatever ``S`` is: both build the joint with the same kernel, which sums
    each eigenspace's rows, so a repeated eigenvalue gives one value whatever
    basis ``eigh`` returns inside it.
    """
    return mutual_information_stacks((measurement,), states)[0]


def mutual_information_stacks(measurements, states: np.ndarray) -> list[np.ndarray]:
    """:func:`mutual_information_stack` of each measurement, from one eigendecomposition of the stack.

    Entry ``j`` is bit-identical to ``mutual_information_stack(measurements[j],
    states)``; every measurement must have the states' dimension.
    """
    return [_information(joints) for joints in _eigen_joints(measurements, states)]


@dataclass(frozen=True)
class EntropyReport:
    """Observational entropy with its information-theoretic decomposition.

    Satisfies ``s_obs = ln_vtot - d_kl_to_uniform`` within
    ``ENTROPY_IDENTITY_TOL``; the identity is asserted on construction.
    """

    s_obs: float
    s_vn: float
    ln_vtot: float
    d_kl_to_uniform: float

    def __post_init__(self):
        gap = abs(self.s_obs - (self.ln_vtot - self.d_kl_to_uniform))
        if not math.isfinite(gap) or gap > ENTROPY_IDENTITY_TOL:
            raise ValidationError(
                f"entropy decomposition identity violated by {gap:.3e}"
            )


def observational_entropy(measurement: GeneralizedMeasurement, rho: DensityMatrix) -> EntropyReport:
    """Observational entropy of ``rho`` under ``measurement``, with decomposition.

    The report carries the von Neumann entropy of the state, ``ln dim``, and
    the divergence of the outcome distribution from the uniform-state
    reference ``V_i / dim``.
    """
    w = outcome_probabilities(measurement, rho)
    s_obs = s_obs_classical(w)
    dim = measurement.dim
    d_kl = kl_divergence(w.probs, w.volumes / dim)
    return EntropyReport(
        s_obs=s_obs,
        s_vn=von_neumann_entropy(rho),
        ln_vtot=math.log(dim),
        d_kl_to_uniform=d_kl,
    )


def measurement_state_joint(measurement: GeneralizedMeasurement, rho: DensityMatrix) -> JointDistribution:
    """Joint distribution ``p_gi = Tr[Π_i P_g ρ]`` over the eigenspaces ``P_g`` of ``ρ`` and outcomes.

    Rows are indexed by the state's eigenspaces in descending eigenvalue
    order, grouped by the rule of :func:`eigendecompose`, and each sums the
    rows of its eigenvectors; rows past the last eigenspace are zero. Columns
    are measurement outcomes. Column marginals reproduce the Born-rule
    probabilities. The one-state case of the joint kernel behind
    :func:`mutual_information_stack`, so it is bit-identical to that stack's
    entry. Neither eigenvector phases nor the basis chosen inside a repeated
    eigenvalue's eigenspace enter the joint.
    """
    joint = _eigen_joints((measurement,), rho.matrix[None])[0][0]
    return JointDistribution(joint)
