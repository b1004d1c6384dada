"""Generalized measurements: POVMs with optional Kraus operators.

A :class:`GeneralizedMeasurement` is an ordered collection of PSD elements
summing to the identity, stored as one read-only ``(n, d, d)`` stack, so that
a coarse-graining ``Π'_j = sum_i P_ji Π_i`` is one linear map on the stack.
Construction checks, in order: one square shape for all elements; Hermitian
and PSD (one stacked eigenvalue check); no numerically-zero element;
completeness; Kraus consistency. When per-outcome Kraus operators are attached
they must reproduce each element through ``sum_m K†_im K_im = Π_i``, which
also yields the state-update rule and measurement composition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .distributions import WeightedDistribution
from .errors import (
    DimensionMismatchError,
    IncompleteSumError,
    InvalidRangeError,
    KrausMismatchError,
    MissingKrausError,
    NegativeProbabilityError,
    ValidationError,
    ZeroElementError,
    ZeroProbabilityOutcomeError,
)
from .operators import (
    DensityMatrix,
    Projector,
    as_square_matrix,
    dagger,
    eigendecompose,
    frobenius,
    require_psd,
)
from .tolerances import BORN_NEGATIVE_TOL, BUILD_ATOL, DEFAULT_ATOL, UPDATE_PROB_TOL, ZERO_NORM_TOL, ZERO_TRACE_TOL

KrausOps = tuple[tuple[np.ndarray, ...], ...]


class GeneralizedMeasurement:
    """Validated POVM, optionally carrying Kraus operators and outcome labels.

    The elements are stored once, as one read-only ``(n, d, d)`` stack:
    :meth:`stacked` returns it and ``elements`` is a tuple of read-only views
    into it. Construction validates the whole stack, in this order: all
    elements have one square shape; every element is Hermitian and PSD within
    ``atol`` (one stacked check); no element is numerically zero (Frobenius
    norm at most ``ZERO_NORM_TOL``); completeness ``‖sum_i Π_i − 1‖_F <= atol``;
    then, when present, per-outcome Kraus consistency. An error names the
    first failing element by its index. ``labels`` default to ``0..n-1`` and
    track outcome identity through operations that reindex or drop outcomes.
    """

    __slots__ = ("elements", "kraus", "labels", "_stack")

    def __init__(
        self,
        elements: Sequence,
        kraus: Sequence[Sequence] | None = None,
        *,
        labels: Sequence | None = None,
        atol: float = DEFAULT_ATOL,
    ):
        if len(elements) == 0:
            raise ValidationError("measurement needs at least one element")
        shapes = [np.shape(element) for element in elements]
        dim = shapes[0][-1] if shapes[0] else 0
        for idx, shape in enumerate(shapes):
            if shape != (dim, dim):
                raise DimensionMismatchError(
                    f"element {idx} has shape {shape}, expected {dim} x {dim}"
                )
        stack = require_psd(elements, atol=atol, name="element")
        zero = np.flatnonzero(np.linalg.norm(stack, axis=(1, 2)) <= ZERO_NORM_TOL)
        if zero.size:
            raise ZeroElementError(f"element {zero[0]} is numerically zero")
        defect = frobenius(stack.sum(axis=0) - np.eye(dim))
        if defect > atol:
            raise IncompleteSumError(
                f"||sum of elements - identity||_F = {defect:.3e} exceeds {atol:.1e}"
            )

        checked_kraus: KrausOps | None = None
        if kraus is not None:
            if len(kraus) != len(stack):
                raise KrausMismatchError(
                    f"{len(kraus)} Kraus groups for {len(stack)} outcomes"
                )
            groups = []
            for idx, ops in enumerate(kraus):
                if len(ops) == 0:
                    raise KrausMismatchError(f"outcome {idx} has an empty Kraus group")
                ops = tuple(as_square_matrix(k, name=f"Kraus op of outcome {idx}").copy() for k in ops)
                for k in ops:
                    if k.shape[0] != dim:
                        raise DimensionMismatchError(
                            f"Kraus operator of outcome {idx} has dimension {k.shape[0]}"
                        )
                rebuilt = sum(dagger(k) @ k for k in ops)
                mismatch = frobenius(rebuilt - stack[idx])
                if mismatch > atol:
                    raise KrausMismatchError(
                        f"outcome {idx}: ||sum K^dagger K - element||_F = {mismatch:.3e}"
                    )
                for k in ops:
                    k.setflags(write=False)
                groups.append(ops)
            checked_kraus = tuple(groups)

        if labels is None:
            label_tuple = tuple(range(len(stack)))
        else:
            label_tuple = tuple(labels)
            if len(label_tuple) != len(stack):
                raise ValidationError("labels length does not match the number of elements")

        stack.setflags(write=False)
        self._stack = stack
        self.elements = tuple(stack)
        self.kraus = checked_kraus
        self.labels = label_tuple

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self._stack)

    def stacked(self) -> np.ndarray:
        """All elements as the stored read-only ``(n, d, d)`` array."""
        return self._stack

    def volumes(self) -> np.ndarray:
        """Outcome volumes ``V_i = Tr Π_i``."""
        return np.einsum("iaa->i", self.stacked()).real

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "with Kraus" if self.kraus is not None else "POVM only"
        return f"GeneralizedMeasurement(dim={self.dim}, outcomes={self.n_outcomes}, {kind})"


def validate_measurement(
    elements: Sequence,
    kraus: Sequence[Sequence] | None = None,
    *,
    labels: Sequence | None = None,
    atol: float = DEFAULT_ATOL,
) -> GeneralizedMeasurement:
    """Validate POVM elements (and optional Kraus operators) into a measurement.

    ``elements`` is a sequence of ``d x d`` matrices or one ``(n, d, d)`` array.
    """
    return GeneralizedMeasurement(elements, kraus, labels=labels, atol=atol)


def projective_measurement(projectors: Sequence, *, atol: float = DEFAULT_ATOL) -> GeneralizedMeasurement:
    """Measurement from orthogonal projectors; each projector is its own Kraus operator."""
    mats = [p.matrix if isinstance(p, Projector) else np.asarray(p, dtype=complex) for p in projectors]
    return GeneralizedMeasurement(mats, [[m] for m in mats], atol=atol)


def measurement_from_state(rho: DensityMatrix) -> GeneralizedMeasurement:
    """Projective measurement onto the eigenspaces of a state.

    Degenerate eigenvalues are grouped by the rule of :func:`eigendecompose`,
    so the elements are the eigenspace projectors (one outcome per distinct
    eigenvalue), validated within ``BUILD_ATOL``.
    """
    pairs = eigendecompose(rho.matrix)
    return projective_measurement([proj for _, proj in pairs], atol=BUILD_ATOL)


def outcome_probabilities(measurement: GeneralizedMeasurement, rho: DensityMatrix) -> WeightedDistribution:
    """Born-rule probabilities ``p_i = Tr[Π_i ρ]`` paired with volumes ``V_i = Tr Π_i``.

    The one-state case of :func:`outcome_probability_stack`: probabilities are
    clamped to ``[0, 1]``; anything below ``-BORN_NEGATIVE_TOL`` raises instead
    of being clamped silently, and they must sum to one as a
    :class:`WeightedDistribution` requires.
    """
    probs = outcome_probability_stack(measurement, rho.matrix[None])[0]
    return WeightedDistribution(probs, measurement.volumes())


def _checked_state_stack(measurement: GeneralizedMeasurement, states) -> np.ndarray:
    """``states`` as an array, after checking that it is a ``(S, d, d)`` stack for ``measurement``."""
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1:] != (measurement.dim, measurement.dim):
        raise DimensionMismatchError(
            f"expected a stack of {measurement.dim} x {measurement.dim} states, got {states.shape}"
        )
    return states


def outcome_probability_stack(measurement: GeneralizedMeasurement, states) -> np.ndarray:
    """Born-rule probabilities of a ``(S, d, d)`` stack of states, as an ``(S, n)`` array.

    Probabilities are clamped to ``[0, 1]``; anything below
    ``-BORN_NEGATIVE_TOL`` raises :class:`NegativeProbabilityError`. The
    states are taken as given, so validate them first
    (:func:`~povmcoarse.operators.require_density`).
    Each ``Tr[Π_i ρ_s]`` is one sum over the contiguous element axes, so row
    ``s`` does not depend on the rest of the stack.
    """
    transposed = np.swapaxes(_checked_state_stack(measurement, states), 1, 2)
    probs = np.sum(measurement.stacked() * transposed[:, None], axis=(2, 3)).real
    if np.any(probs < -BORN_NEGATIVE_TOL):
        raise NegativeProbabilityError(
            f"outcome probability {probs.min():.3e} is negative beyond tolerance"
        )
    return np.clip(probs, 0.0, 1.0)


def compose_measurements(
    first: GeneralizedMeasurement, second: GeneralizedMeasurement
) -> GeneralizedMeasurement:
    """Measurement obtained by performing ``first`` and then ``second``.

    Outcomes are pairs ``(i, j)`` (stored in ``labels``) with elements
    ``Π_(i,j) = sum_n K†_in Π^(2)_j K_in`` built from the Kraus operators of the
    first measurement. Products of Frobenius norm at most ``ZERO_NORM_TOL``
    are dropped; the marginal over ``j`` of the kept elements reproduces
    ``Π^(1)_i`` up to the dropped dust. The result is validated within
    ``BUILD_ATOL``.
    """
    if first.kraus is None:
        raise MissingKrausError("composition needs Kraus operators on the first measurement")
    if first.dim != second.dim:
        raise DimensionMismatchError(f"dimensions differ: {first.dim} vs {second.dim}")
    elements: list[np.ndarray] = []
    labels: list[tuple] = []
    kraus: list[tuple[np.ndarray, ...]] | None = [] if second.kraus is not None else None
    for i, ops in enumerate(first.kraus):
        for j, target in enumerate(second.elements):
            block = sum(dagger(k) @ target @ k for k in ops)
            if frobenius(block) <= ZERO_NORM_TOL:
                continue
            elements.append(block)
            labels.append((first.labels[i], second.labels[j]))
            if kraus is not None:
                kraus.append(tuple(k2 @ k1 for k1 in ops for k2 in second.kraus[j]))
    return GeneralizedMeasurement(elements, kraus, labels=labels, atol=BUILD_ATOL)


def post_measurement_state(
    measurement: GeneralizedMeasurement, outcome: int, rho: DensityMatrix
) -> tuple[DensityMatrix, float]:
    """State update after observing ``outcome``: ``ρ → sum_m K ρ K† / p``.

    Returns the updated state together with the outcome probability; an
    outcome of probability at most ``UPDATE_PROB_TOL`` raises
    :class:`ZeroProbabilityOutcomeError`.
    ``outcome`` must be an integer in ``[0, n_outcomes)``, not a ``bool``,
    else :class:`InvalidRangeError` is raised.
    """
    if measurement.kraus is None:
        raise MissingKrausError("state update needs Kraus operators")
    if measurement.dim != rho.dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} vs state dimension {rho.dim}"
        )
    integer = isinstance(outcome, (int, np.integer)) and not isinstance(outcome, bool)
    if not integer or not 0 <= outcome < measurement.n_outcomes:
        raise InvalidRangeError(
            f"outcome must be an integer in [0, {measurement.n_outcomes}), got {outcome!r}"
        )
    ops = measurement.kraus[outcome]
    updated = sum(k @ rho.matrix @ dagger(k) for k in ops)
    prob = float(np.trace(updated).real)
    if prob <= UPDATE_PROB_TOL:
        raise ZeroProbabilityOutcomeError(
            f"outcome {outcome} has probability {prob:.3e}; no post-measurement state"
        )
    return DensityMatrix(updated / prob, atol=BUILD_ATOL), prob


def trace_pairing(positive_op, projector) -> tuple[float, bool]:
    """``Tr[Π P]`` for a PSD operator and a projector, with a zero flag.

    The trace of such a pairing is non-negative, and it vanishes exactly when
    the operator products ``ΠP`` and ``PΠ`` vanish; the flag reports
    ``trace <= ZERO_TRACE_TOL``.
    """
    pi = np.asarray(positive_op.matrix if hasattr(positive_op, "matrix") else positive_op, dtype=complex)
    pr = np.asarray(projector.matrix if isinstance(projector, Projector) else projector, dtype=complex)
    if pi.shape != pr.shape:
        raise DimensionMismatchError(f"shapes differ: {pi.shape} vs {pr.shape}")
    value = float(np.einsum("ab,ba->", pi, pr).real)
    return value, value <= ZERO_TRACE_TOL
