"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input failed one of its structural invariants."""


class NonHermitianError(ValidationError):
    """Operator is not Hermitian within tolerance."""


class NotPSDError(ValidationError):
    """Operator has an eigenvalue below the negativity tolerance."""


class NotProjectiveError(ValidationError):
    """Operator (or measurement element) is not an orthogonal projector."""


class DimensionMismatchError(ValidationError):
    """Operands live in different Hilbert-space dimensions."""


class IncompleteSumError(ValidationError):
    """Measurement elements do not sum to the identity."""


class ZeroElementError(ValidationError):
    """Measurement contains a numerically-zero element."""


class KrausMismatchError(ValidationError):
    """Kraus operators do not reproduce the declared measurement elements."""


class MissingKrausError(ValidationError):
    """Operation requires Kraus operators but the measurement carries none."""


class ZeroProbabilityOutcomeError(ValidationError):
    """Post-measurement state requested for an outcome of zero probability."""


class NegativeProbabilityError(ValidationError):
    """A computed probability is negative beyond numerical tolerance."""


class LengthMismatchError(ValidationError):
    """Paired sequences have different lengths."""


class NotNormalizedError(ValidationError):
    """Probabilities do not sum to one within tolerance."""


class ShapeMismatchError(ValidationError):
    """Matrix/vector shapes are inconsistent."""


class NotStochasticError(ValidationError):
    """Matrix is not left stochastic (column sums one, entries non-negative)."""


class BrokenColumnSumError(ValidationError):
    """A restricted transition matrix lost column normalization.

    This signals a violated restriction theorem, not a recoverable input
    problem, so it is surfaced as its own type.
    """


class EmptyOutcomeSetError(ValidationError):
    """A subspace comparison has no possible outcomes on one side."""


class InvalidRankError(ValidationError):
    """Requested rank is outside [1, dim]."""


class SingularSumError(RuntimeError):
    """Random measurement draw produced a numerically singular normalizer."""


class IterationLimitError(RuntimeError):
    """The feasibility solver hit its pivot cap."""

    def __init__(self, iterations: int):
        super().__init__(f"simplex iteration cap reached after {iterations} pivots")
        self.iterations = iterations


class UnknownSuiteError(KeyError):
    """Requested verification suite is not in the registry."""


class InvalidRangeError(ValidationError):
    """A numeric parameter (scan range, tolerance, dimension, trial count, outcome index) is out of range."""
