"""Tools for comparing quantum measurements by coarse-graining.

The package decides whether one POVM is a stochastic coarse-graining of
another (globally or restricted to a subspace) through linear-feasibility
certificates, computes observational entropy and related information
measures, and ships randomized suites that verify the monotonicity
properties tying the two together.
"""

from .coarseness import (
    CoarsenessCertificate,
    check_coarser,
    check_coarser_classical,
    check_coarser_in_subspace,
    check_coarser_projective,
    coarsen,
    majorization_verdicts,
    mixture_residual,
    possible_outcomes,
    preserves_observational_entropy,
    restrict_transition_matrix,
)
from .distributions import (
    JointDistribution,
    StochasticMatrix,
    WeightedDistribution,
    push_forward,
    weighted_rows,
)
from .entropy import (
    EntropyReport,
    kl_divergence,
    measurement_state_joint,
    mutual_information,
    mutual_information_stack,
    observational_entropy,
    s_obs_classical,
    s_obs_stack,
    von_neumann_entropy,
)
from .measurements import (
    GeneralizedMeasurement,
    compose_measurements,
    measurement_from_state,
    outcome_probabilities,
    outcome_probability_stack,
    post_measurement_state,
    projective_measurement,
    trace_pairing,
    validate_measurement,
)
from .operators import (
    DensityMatrix,
    Projector,
    Subspace,
    eigendecompose,
    require_density,
)
from .randomgen import (
    random_density_matrix,
    random_density_stack,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_state_in_subspace,
    random_subspace,
    random_subspace_of,
    random_subspace_state_stack,
    random_unitary,
    random_weighted_distribution,
)
from .simplex import FeasibilityResult, lp_feasible
from .suites import SuiteReport, counterexample_registry, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "CoarsenessCertificate",
    "DensityMatrix",
    "EntropyReport",
    "FeasibilityResult",
    "GeneralizedMeasurement",
    "JointDistribution",
    "Projector",
    "StochasticMatrix",
    "SuiteReport",
    "Subspace",
    "WeightedDistribution",
    "check_coarser",
    "check_coarser_classical",
    "check_coarser_in_subspace",
    "check_coarser_projective",
    "coarsen",
    "compose_measurements",
    "counterexample_registry",
    "eigendecompose",
    "kl_divergence",
    "lp_feasible",
    "majorization_verdicts",
    "measurement_from_state",
    "measurement_state_joint",
    "mixture_residual",
    "mutual_information",
    "mutual_information_stack",
    "observational_entropy",
    "outcome_probabilities",
    "outcome_probability_stack",
    "possible_outcomes",
    "post_measurement_state",
    "preserves_observational_entropy",
    "projective_measurement",
    "push_forward",
    "require_density",
    "random_density_matrix",
    "random_density_stack",
    "random_left_stochastic",
    "random_povm",
    "random_projective",
    "random_state_in_subspace",
    "random_subspace",
    "random_subspace_of",
    "random_subspace_state_stack",
    "random_unitary",
    "random_weighted_distribution",
    "restrict_transition_matrix",
    "run_all",
    "run_suite",
    "s_obs_classical",
    "s_obs_stack",
    "trace_pairing",
    "validate_measurement",
    "von_neumann_entropy",
    "weighted_rows",
]
