"""Every threshold that can change a verdict, a suite record or a validation outcome.

Constants only: the modules that read a threshold bind it by name
(``from .tolerances import ...``), and the README's "Tolerances" section
lists each entry with its value, unit and what it decides. Each comment
below gives the unit, then the reason. The units:

* component norm: a Frobenius norm of an operator, or a Euclidean norm of
  the real components that the coarse-graining decisions compare;
* probability, and trace (of an operator, so also a volume);
* entry of ``P``: an entry, or a column sum, of a stochastic matrix;
* reduced-row entry: an entry of the simplex's tableau, whose rows are
  scaled by ``R_S^-1`` and not by the input;
* nat: an entropy or a divergence;
* a fraction of a spectral scale (the largest of the spectral range and
  the largest eigenvalue magnitude) or of a row scale (the longest row).
"""

# -- validation of operators and measurements ------------------------------

# component norm (an eigenvalue, a trace, for the PSD and trace checks): the
# default bound on the Hermiticity, positivity, idempotency, trace,
# completeness and Kraus defects of outside input
DEFAULT_ATOL = 1e-10
# component norm: the same checks on operators that the library builds from
# validated ones or reads back from JSON, which carry the rounding of a
# product, a square root or an eigendecomposition
BUILD_ATOL = 1e-9
# trace: how far a projector's trace may sit from its rank; the bound is
# the larger of this and the projector's atol
RANK_TRACE_TOL = 1e-8
# component norm: an operator of at most this norm is zero (a POVM element,
# a coarse-grained row, a product dropped in a composition, or ``Π_i B`` for
# an outcome impossible in a subspace)
ZERO_NORM_TOL = 1e-10
# trace: a pairing ``Tr[Π P]`` of at most this is flagged as zero
ZERO_TRACE_TOL = 1e-10

# -- spectra and ranks -----------------------------------------------------

# fraction of a spectral scale: a gap above it starts a new eigenspace
DEFAULT_DEGENERACY_TOL = 1e-8
# fraction of a row scale: a row whose residual against the span of the
# others is at most this fraction of the longest row is dependent
RANK_TOL = 1e-10
# fraction of a row scale (squared): a Gram-Schmidt pivot that keeps less
# than this of its squared length is orthogonalized a second time
REORTHOGONALIZE_TOL = 1e-6
# fraction of a spectral scale: a random POVM's normalizer whose smallest
# eigenvalue is at most this fraction of its largest is drawn again
NORMALIZER_TOL = 1e-10

# -- probabilities ---------------------------------------------------------

# probability: how far a weighted distribution or a joint may sum from one
DEFAULT_NORM_TOL = 1e-10
# probability: how far each vector of a KL divergence may sum from one
KL_NORM_TOL = 1e-8
# probability: an entry of an input probability array this far below zero
# is rounding noise and clipped; below it is an error
NEGATIVE_TOL = 1e-12
# probability: the same for a computed Born probability or joint entry,
# which carries the rounding of a trace over ``d^2`` products
BORN_NEGATIVE_TOL = 1e-9
# probability: ``0 ln 0 = 0`` for probabilities at most this
ZERO_PROB_TOL = 1e-14
# probability: an outcome of at most this probability has no
# post-measurement state
UPDATE_PROB_TOL = 1e-12
# probability (times a volume): the largest ``|P_ji p_i V'_j - P_ji V_i p'_j|``
# at which processing keeps the observational entropy
ENTROPY_PRESERVED_TOL = 1e-8

# -- entropies -------------------------------------------------------------

# nat: the largest gap allowed in ``s_obs = ln_vtot - d_kl_to_uniform``
ENTROPY_IDENTITY_TOL = 1e-9
# nat: a region-scan point within this below the base entropy still counts
# as not lower, so that summation order cannot flip the comparison
SCAN_ENTROPY_SLACK = 1e-12

# -- coarse-graining decisions ---------------------------------------------

# component norm: the default feasibility tolerance of the decisions and of
# the simplex; ``(tol, 10 tol]`` is the ambiguous band
DEFAULT_FEAS_TOL = 1e-8
# entry of P: how far a stochastic matrix's columns may sum from one, and
# the least such bound on a witness
DEFAULT_COLUMN_TOL = 1e-8
# component norm: the least bound on a witness's residual, the eliminated
# outcome included (the LP does not see that outcome's rows)
WITNESS_RESIDUAL_TOL = 1e-7
# entry of P: how far the columns of a witness derived from another (the
# padded extension, a restriction to a smaller subspace) may sum from one
WITNESS_COLUMN_TOL = 1e-6
# component norm: the least bound on a group sum's distance from its
# projector in the projective fast path
PROJECTIVE_SUM_TOL = 1e-8

# -- the simplex -----------------------------------------------------------

# reduced-row entry: a reduced cost below minus this may enter
ENTER_TOL = 1e-9
# reduced-row entry: entries at most this never serve as pivots; dividing a
# tableau by a tiny pivot amplifies accumulated round-off enough to corrupt
# later verdicts (the constraint matrices handled here are O(1)-scaled, so
# 1e-7 loses nothing)
PIVOT_TOL = 1e-7
# reduced-row entry: Harris's feasibility tolerance, how far below zero a
# right-hand side may be pushed so that a larger pivot can leave instead
HARRIS_DELTA = 1e-9
# reduced-row entry: a pivot that lowers the phase-1 objective by at most
# this counts as a stall
PROGRESS_TOL = 1e-12

# -- suites ----------------------------------------------------------------

# the compared value's unit (nat, probability or component norm): slack of
# an inequality statement
INEQ_TOL = 1e-9
# the compared value's unit: slack of an equality statement
EQ_TOL = 1e-8
# component norm, and trace for the volume rows: how far a restricted
# witness may miss the smaller subspace's relation
RESTRICTION_TOL = 1e-6
