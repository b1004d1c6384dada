"""Randomized verification suites and the golden counterexample registry.

Each suite turns one monotonicity/equivalence statement into a seeded
property check: ``run_suite(name, trials, dim, seed)`` executes ``trials``
independent instances and reports every violation with its serialized inputs,
so any failure can be replayed from file. Identical arguments always produce
identical reports.

Every randomized suite runs one trial shape through one loop, :func:`_suite`:
``draw(rng, dim, t)`` makes every random draw of trial ``t`` from
``trial_rng(seed, t)`` and returns a tuple, then ``verify(*drawn)`` draws
nothing and returns the trial's record or ``None``. A trial reports at most one
record, for the first statement found violated: keys ``trial``, ``violated``,
the compared values, then ``state`` for a per-state statement, then the inputs
(``subspace``, ``coarse``, ``fine`` for pairs). A per-state statement reports
its first violating state. The replay rule is the same for all 13 suites:
``draw(trial_rng(seed, t), dim, t)`` rebuilds the inputs of trial ``t``'s
record. The four subspace suites check nothing below dimension 2, which has no
proper nonzero subspace.

After its general instance, ``dpi_kl`` draws an equality case on even ``t``,
and ``obs_monotone`` a constructed equality (``t % 3 == 0``) or a constructed
strict increase (``t % 3 == 1``).

The eight quantum pair suites (``projective_equiv`` to ``restriction``) draw
``(fine, coarse, subspace or None, extra)``, the pair first; ``verify`` decides
the pair, checks the witness and sweeps the states. ``extra`` is the trial's
states, the smaller subspace in ``restriction``, or whether
``projective_equiv``'s pair is coarser by construction (its odd trials draw an
unrelated pair whose relation is not known). A pair built to be coarser that is
not decided ``feasible`` gives one record shape: the statement, the verdict,
then the pair.

The six per-state suites draw a trial's states after the pair as one
``(k, d, d)`` stack, in one Gaussian call (:func:`random_density_stack`) that
is validated once: ``lemma_processing`` draws 50 full-rank states,
``coarser_entropy`` and ``coarser_mi`` five states of random ranks (the five
ranks first), and the subspace suites full-rank states of the subspace (5 in
``subspace_processing``, else 50). The stack kernels (Born probabilities,
``S_obs``, mutual information) evaluate every state in one pass, and the
first violating state's record is built from those values. Each stack entry is
bit-identical to the public one-state function on that state, so the records
are those of a state-by-state sweep.

The registry names are part of the CLI contract:

``dpi_kl``
    relative entropy never increases under stochastic processing
``obs_monotone``
    observational entropy never decreases, with its equality condition
``dpi_mi``
    mutual information never increases along a chain ``X -> Y -> Z``
``projective_equiv``
    the partition fast path agrees with the feasibility check
``lemma_processing``
    feasible witnesses reproduce outcome statistics on every state
``coarser_entropy`` / ``coarser_mi``
    entropy grows / mutual information shrinks for coarse-grained measurements
``subspace_processing`` / ``subspace_entropy`` / ``subspace_mi``
    the same statements restricted to a subspace
``restriction``
    subspace coarseness survives shrinking the subspace, witness included
``bounds``
    von Neumann and log-dimension bounds with both equality cases
``composition``
    a follow-up measurement refines the first one
``counterexamples``
    the four golden instances that separate the notions
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .coarseness import (
    _residual,
    check_coarser,
    check_coarser_classical,
    check_coarser_in_subspace,
    check_coarser_projective,
    coarsen,
    mixture_residual,
    possible_outcomes,
    preserves_observational_entropy,
    restrict_transition_matrix,
)
from .distributions import JointDistribution, StochasticMatrix, WeightedDistribution, push_forward
from .entropy import (
    kl_divergence,
    mutual_information,
    mutual_information_stacks,
    observational_entropy,
    s_obs_classical,
    s_obs_stack,
    von_neumann_entropy,
)
from .errors import InvalidRangeError, UnknownSuiteError
from .measurements import (
    GeneralizedMeasurement,
    compose_measurements,
    measurement_from_state,
    outcome_probabilities,
    outcome_probability_stack,
    validate_measurement,
)
from .operators import DensityMatrix, Subspace
from .randomgen import (
    random_density_matrix,
    random_density_stack,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_simplex,
    random_subspace_of,
    random_subspace_state_stack,
    random_unitary,
    random_weighted_distribution,
    trial_rng,
)
from .serialization import (
    distribution_to_dict,
    measurement_to_dict,
    state_to_dict,
    subspace_to_dict,
)
from .tolerances import BUILD_ATOL, EQ_TOL, INEQ_TOL, RESTRICTION_TOL, WITNESS_RESIDUAL_TOL


@dataclass(frozen=True)
class SuiteReport:
    """Result of one suite run; ``failures == 0`` means the suite passed."""

    suite: str
    trials: int
    failures: int
    details: list[dict] = field(repr=False)
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _fail(statement: str, **payload) -> dict:
    return {"violated": statement, **payload}


def _pair_payload(coarse, fine, subspace=None) -> dict:
    """The serialized pair (and subspace) of a failing trial, for replay from file."""
    payload = {} if subspace is None else {"subspace": subspace_to_dict(subspace)}
    payload["coarse"] = measurement_to_dict(coarse)
    payload["fine"] = measurement_to_dict(fine)
    return payload


def _suite(draw, verify, min_dim=1):
    """The suite whose trial ``t`` is ``verify(*draw(trial_rng(seed, t), dim, t))``.

    Its records come in trial order, each with ``trial`` first; ``None`` passes.
    Below dimension ``min_dim`` the suite checks nothing.
    """
    def suite(trials, dim, seed):
        if dim < min_dim:
            return []
        fails = []
        for t in range(trials):
            record = verify(*draw(trial_rng(seed, t), dim, t))
            if record is not None:
                fails.append({"trial": t, **record})
        return fails
    return suite


def _sweep_states(statement, check, fine, coarse, subspace, states):
    """The record of the first state in the stack ``states`` that violates ``check``, or ``None``.

    ``states`` holds all of the trial's states, drawn up front as one validated
    ``(k, d, d)`` stack. ``check(fine, coarse, states)`` gives ``(excess,
    values)`` from the stack kernels in one pass: every state's excess over
    its bound, and the compared values as arrays named by their record keys.
    The first state whose excess is not ``<= 0`` (so a NaN excess too) is
    reported with its values.
    """
    excess, values = check(fine, coarse, states)
    failing = np.flatnonzero(~(excess <= 0))
    if failing.size:
        s = failing[0]
        return _fail(statement, **{key: float(value[s]) for key, value in values.items()},
                     state=state_to_dict(DensityMatrix(states[s], atol=BUILD_ATOL)),
                     **_pair_payload(coarse, fine, subspace))


# ---------------------------------------------------------------------------
# classical data-processing suites


def _proportional_in_blocks(block, ref, weights):
    """``ref`` rescaled so that the outcomes with ``block == j`` carry total mass ``weights[j]``.

    ``ref`` is strictly positive, so every block that occurs has positive mass.
    """
    mass = np.bincount(block, weights=ref, minlength=len(weights))
    return ref * weights[block] / mass[block]


def _draw_dpi_kl(rng, dim, t):
    """A stochastic matrix and two distributions; on even ``t`` also an equality case.

    The equality case is a merge and a ``p`` proportional to ``q`` inside every
    merge block, else ``None``.
    """
    n = max(2, dim)
    m = int(rng.integers(1, n + 3))
    p_mat = random_left_stochastic(m, n, rng)
    p = random_simplex(n, rng)
    q = random_simplex(n, rng)
    if t % 2:
        return p_mat, p, q, None
    k = int(rng.integers(1, n + 1))
    merge = random_left_stochastic(k, n, rng, merge=True)
    block = merge.matrix.argmax(axis=0)
    q2 = random_simplex(n, rng)
    weights = random_simplex(k, rng) * (np.bincount(block, minlength=k) > 0)
    p2 = _proportional_in_blocks(block, q2, weights / weights.sum())
    return p_mat, p, q, (merge, p2, q2)


def _verify_dpi_kl(p_mat, p, q, equality):
    before = kl_divergence(p, q)
    after = kl_divergence(p_mat.matrix @ p, p_mat.matrix @ q)
    if after > before + INEQ_TOL:
        return _fail("D(p||q) >= D(Pp||Pq)", before=before, after=after,
                     P=p_mat.matrix.tolist(), p=p.tolist(), q=q.tolist())
    if equality is not None:
        merge, p2, q2 = equality
        before = kl_divergence(p2, q2)
        after = kl_divergence(merge.matrix @ p2, merge.matrix @ q2)
        if abs(before - after) > EQ_TOL:
            return _fail("equality case D(p||q) == D(Pp||Pq)",
                         before=before, after=after, P=merge.matrix.tolist(),
                         p=p2.tolist(), q=q2.tolist())


def _draw_obs_monotone(rng, dim, t):
    """A stochastic matrix and a weighted distribution, then a merge and a distribution by ``t % 3``.

    Mode 0 builds an equality (a constant p/V ratio inside every merge block),
    mode 1 a strict increase (two outcomes with distinct ratios merged), and
    mode 2 draws nothing more.
    """
    n = max(2, dim)
    m = int(rng.integers(1, n + 3))
    p_mat = random_left_stochastic(m, n, rng)
    w = random_weighted_distribution(n, rng)
    mode = t % 3
    if mode == 0:
        k = int(rng.integers(1, n + 1))
        merge = random_left_stochastic(k, n, rng, merge=True, surjective=k <= n)
        block = merge.matrix.argmax(axis=0)
        volumes = rng.exponential(size=n) + 0.05
        probs = _proportional_in_blocks(block, volumes, random_simplex(k, rng))
        return p_mat, w, mode, merge, WeightedDistribution(probs, volumes)
    if mode == 1:
        a = 0.6 + 0.35 * rng.random()
        return p_mat, w, mode, StochasticMatrix([[1.0, 1.0]]), WeightedDistribution([a, 1 - a], [1.0, 1.0])
    return p_mat, w, mode, None, None


def _verify_obs_monotone(p_mat, w, mode, merge, w_merged):
    out = push_forward(p_mat, w)
    if s_obs_classical(out) < s_obs_classical(w) - INEQ_TOL:
        return _fail("S_obs(Pw) >= S_obs(w)", before=s_obs_classical(w),
                     after=s_obs_classical(out), P=p_mat.matrix.tolist(),
                     w=distribution_to_dict(w))
    if merge is None:
        return None
    d_s = s_obs_classical(push_forward(merge, w_merged)) - s_obs_classical(w_merged)
    preserved = preserves_observational_entropy(merge, w_merged)
    if mode == 0 and (not preserved or abs(d_s) > EQ_TOL):
        return _fail("equality condition <=> S_obs preserved (equal ratios)",
                     delta=d_s, P=merge.matrix.tolist(), w=distribution_to_dict(w_merged))
    if mode == 1 and (preserved or d_s <= EQ_TOL):
        return _fail("distinct ratios => strict S_obs increase",
                     delta=d_s, w=distribution_to_dict(w_merged))


def _draw_dpi_mi(rng, dim, t):
    """A distribution of ``X`` and the channels of a chain ``X -> Y -> Z``."""
    nx = max(2, dim)
    ny = int(rng.integers(2, nx + 3))
    nz = int(rng.integers(2, nx + 3))
    px = random_simplex(nx, rng)
    y_given_x = random_left_stochastic(ny, nx, rng).matrix
    z_given_y = random_left_stochastic(nz, ny, rng).matrix
    return px, y_given_x, z_given_y


def _verify_dpi_mi(px, y_given_x, z_given_y):
    pxy = px[:, None] * y_given_x.T
    pxz = pxy @ z_given_y.T
    before = mutual_information(JointDistribution(pxy))
    after = mutual_information(JointDistribution(pxz))
    if after > before + INEQ_TOL:
        return _fail("I(X;Y) >= I(X;Z)", before=before, after=after,
                     px=px.tolist(), y_given_x=y_given_x.tolist(),
                     z_given_y=z_given_y.tolist())


# ---------------------------------------------------------------------------
# quantum construction helpers


def _embedded_povm(subspace: Subspace, n_outcomes: int, rng) -> np.ndarray:
    """Elements of a random POVM on ``subspace``, lifted to the ambient space."""
    return subspace.embed(random_povm(subspace.rank, n_outcomes, rng, with_kraus=False).stacked())


def _random_coarser_pair(rng, dim) -> tuple[GeneralizedMeasurement, GeneralizedMeasurement]:
    """A fine measurement and a coarse-graining of it."""
    n = int(rng.integers(2, min(dim + 2, 6)))
    m = int(rng.integers(1, n + 1))
    fine = random_povm(dim, n, rng, with_kraus=False)
    return fine, coarsen(fine, random_left_stochastic(m, n, rng))


def _random_subspace_coarser_pair(rng, dim):
    """A pair that is coarser inside a random proper subspace.

    Fine elements are drawn either generically or block-supported (half inside
    the subspace, half inside its complement) so that both trivial and proper
    possible-outcome sets are exercised. The coarse elements mix the fine
    elements' blocks on the subspace through a random stochastic matrix and
    absorb the leftover volume on the orthogonal complement, which keeps the
    volume inequality satisfiable by construction.
    """
    g = int(rng.integers(1, dim))
    u = random_unitary(dim, rng)
    inside = Subspace(u[:, :g])
    if rng.random() < 0.5:
        n = int(rng.integers(2, min(dim + 2, 6)))
        fine = random_povm(dim, n, rng, with_kraus=False)
    else:
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        elements = np.concatenate([_embedded_povm(inside, n_in, rng),
                                   _embedded_povm(Subspace(u[:, g:]), n_out, rng)])
        fine = validate_measurement(elements[rng.permutation(len(elements))], atol=BUILD_ATOL)

    o1 = possible_outcomes(fine, inside)
    m = int(rng.integers(1, len(o1) + 2))
    mix = random_left_stochastic(m, len(o1), rng).matrix
    blocks = inside.compress(fine.stacked()[list(o1)])
    mixed = inside.embed(np.einsum("ji,iab->jab", mix, blocks))

    v_full = fine.volumes()[list(o1)]
    v_proj = np.einsum("iaa->i", blocks).real
    deficits = mix @ (v_full - v_proj)  # >= 0, volume missing w.r.t. full traces
    leftover = (dim - g) - float(deficits.sum())
    extra = deficits + max(leftover, 0.0) * random_simplex(m, rng)
    complement = np.eye(dim) - inside.projector.matrix
    coarse = validate_measurement(mixed + (extra / (dim - g))[:, None, None] * complement, atol=BUILD_ATOL)
    return fine, coarse, inside


# ---------------------------------------------------------------------------
# per-state statements for _sweep_states: check(fine, coarse, states) gives every
# state's excess over the bound and the compared values. Each reads the
# tolerances at call time. partial(_sweep_states, statement, check) is the
# verify of a pair suite that only sweeps its states.


def _mapped_probabilities(matrix, tol):
    def check(fine, coarse, states):
        p_fine = outcome_probability_stack(fine, states)
        mapped = (matrix @ p_fine[:, :, None])[..., 0]  # bit for bit matrix @ p per state
        gap = np.max(np.abs(outcome_probability_stack(coarse, states) - mapped), axis=1)
        return gap - tol, {"gap": gap}
    return check


def _entropy_grows(fine, coarse, states):
    s_fine = s_obs_stack(fine, states)
    s_coarse = s_obs_stack(coarse, states)
    return (s_fine - INEQ_TOL) - s_coarse, {"fine_entropy": s_fine, "coarse_entropy": s_coarse}


def _information_shrinks(fine, coarse, states):
    mi_fine, mi_coarse = mutual_information_stacks((fine, coarse), states)
    return mi_coarse - (mi_fine + INEQ_TOL), {"fine_mi": mi_fine, "coarse_mi": mi_coarse}


# ---------------------------------------------------------------------------
# quantum pair suites: draw(rng, dim, t) gives (fine, coarse, subspace or None,
# extra), the pair first, and verify(fine, coarse, subspace, extra) decides it.


def _decide(statement, coarse, fine, subspace=None):
    """The certificate of a pair built to be coarser (inside ``subspace`` when given).

    The second value is ``None`` when it is feasible, else the ``statement`` record.
    """
    if subspace is None:
        cert = check_coarser(coarse, fine)
    else:
        cert = check_coarser_in_subspace(coarse, fine, subspace)
    if cert.feasible:
        return cert, None
    return cert, _fail(statement, verdict=cert.verdict, **_pair_payload(coarse, fine, subspace))


def _coarser_trial(rng, dim, t):
    """A coarser pair, then five states whose ranks are drawn first."""
    fine, coarse = _random_coarser_pair(rng, dim)
    return fine, coarse, None, random_density_stack(dim, rng.integers(1, dim + 1, size=5), rng)


def _lemma_trial(rng, dim, t):
    """A coarser pair, then 50 full-rank states."""
    fine, coarse = _random_coarser_pair(rng, dim)
    return fine, coarse, None, random_density_stack(dim, [dim] * 50, rng)


def _subspace_trial(rng, dim, t, n_states=50):
    """A pair coarser inside a subspace, then ``n_states`` full-rank states of that subspace."""
    fine, coarse, inside = _random_subspace_coarser_pair(rng, dim)
    return fine, coarse, inside, random_subspace_state_stack(inside, [inside.rank] * n_states, rng)


def _restriction_trial(rng, dim, t):
    """A pair coarser inside a subspace, then a random subspace of that subspace."""
    fine, coarse, inside = _random_subspace_coarser_pair(rng, dim)
    return fine, coarse, inside, random_subspace_of(inside, int(rng.integers(1, inside.rank + 1)), rng)


def _projective_trial(rng, dim, t):
    """A projective measurement and a POVM refining each of its eigenspaces; coarser by construction.

    On odd ``t`` the POVM is unrelated instead, and whether it is coarser is not known.
    """
    if t % 2:
        coarse = random_projective(dim, int(rng.integers(1, dim + 1)), rng)
        fine = random_povm(dim, int(rng.integers(2, min(dim + 2, 6))), rng, with_kraus=False)
        return fine, coarse, None, None
    coarse = random_projective(dim, int(rng.integers(1, min(dim, 4) + 1)), rng)
    parts = []
    for proj in coarse.elements:
        rank = int(round(np.trace(proj).real))
        eigenspace = Subspace(np.linalg.eigh(proj)[1][:, -rank:])
        parts.append(_embedded_povm(eigenspace, int(rng.integers(1, 4)), rng))
    fine_elements = np.concatenate(parts)
    fine = validate_measurement(fine_elements[rng.permutation(len(fine_elements))], atol=BUILD_ATOL)
    return fine, coarse, None, True


def _verify_projective(fine, coarse, _, expected_coarser):
    partition = check_coarser_projective(coarse, fine)
    cert = check_coarser(coarse, fine)
    agree = (partition is not None) == cert.feasible
    if not (agree and (expected_coarser is None or cert.feasible == expected_coarser)):
        return _fail("partition fast path == feasibility check",
                     partition=None if partition is None else [list(b) for b in partition],
                     verdict=cert.verdict, **_pair_payload(coarse, fine))


def _verify_lemma(fine, coarse, _, states):
    cert, record = _decide("constructed coarse-graining must be feasible", coarse, fine)
    if record is not None:
        return record
    if cert.residual > WITNESS_RESIDUAL_TOL:
        return _fail("witness residual <= 1e-7", residual=cert.residual, **_pair_payload(coarse, fine))
    return _sweep_states("p_coarse == witness @ p_fine for every state",
                         _mapped_probabilities(cert.witness.matrix, INEQ_TOL), fine, coarse, None, states)


def _verify_subspace_processing(fine, coarse, inside, states):
    cert, record = _decide("constructed subspace coarse-graining must be feasible", coarse, fine, inside)
    if record is not None:
        return record
    extension = cert.extension
    if extension is None:
        return _fail("feasible certificate carries a stochastic extension",
                     **_pair_payload(coarse, fine, inside))
    v_gap = float(np.max(np.abs(coarse.volumes() - extension.matrix @ fine.volumes())))
    if v_gap > EQ_TOL:
        return _fail("extension maps volumes exactly", gap=v_gap, **_pair_payload(coarse, fine, inside))
    return _sweep_states("extension maps probabilities on subspace states",
                         _mapped_probabilities(extension.matrix, EQ_TOL), fine, coarse, inside, states)


def _verify_restriction(fine, coarse, inside, smaller):
    big, record = _decide("constructed subspace coarse-graining must be feasible", coarse, fine, inside)
    if record is None:
        small, record = _decide("coarseness is preserved when the subspace shrinks", coarse, fine, smaller)
    if record is not None:
        return record
    o2, o1 = small.coarse_outcomes, small.fine_outcomes
    restricted = restrict_transition_matrix(big.witness, o2, o1, big.coarse_outcomes, big.fine_outcomes).matrix
    source = smaller.compress(fine.stacked()[list(o1)])
    residual = _residual(restricted, source, smaller.compress(coarse.stacked()[list(o2)]))
    slack = coarse.volumes()[list(o2)] - restricted @ fine.volumes()[list(o1)]
    if residual > RESTRICTION_TOL or float(slack.min()) < -RESTRICTION_TOL:
        return _fail("restricted witness satisfies the smaller subspace relation",
                     residual=residual, volume_slack=slack.tolist(),
                     **_pair_payload(coarse, fine, smaller))


# ---------------------------------------------------------------------------
# other suites


def _draw_bounds(rng, dim, t):
    """A POVM and a state of random rank."""
    povm = random_povm(dim, int(rng.integers(1, min(dim + 2, 6) + 1)), rng, with_kraus=False)
    rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
    return povm, rho


def _verify_bounds(povm, rho):
    log_dim = math.log(rho.dim)
    report = observational_entropy(povm, rho)
    if report.s_obs < report.s_vn - INEQ_TOL or report.s_obs > log_dim + INEQ_TOL:
        return _fail("S_vN <= S_obs <= ln(dim)", s_obs=report.s_obs,
                     s_vn=report.s_vn, log_dim=log_dim,
                     measurement=measurement_to_dict(povm), state=state_to_dict(rho))
    eigen = measurement_from_state(rho)
    s_eigen = observational_entropy(eigen, rho).s_obs
    if abs(s_eigen - report.s_vn) > INEQ_TOL:
        return _fail("S_obs equals S_vN for the eigenbasis measurement",
                     s_obs=s_eigen, s_vn=report.s_vn, state=state_to_dict(rho))
    s_id = observational_entropy(povm, DensityMatrix.maximally_mixed(rho.dim)).s_obs
    if abs(s_id - log_dim) > INEQ_TOL:
        return _fail("S_obs equals ln(dim) on the maximally mixed state",
                     s_obs=s_id, log_dim=log_dim, measurement=measurement_to_dict(povm))


def _draw_composition(rng, dim, t):
    """A POVM with Kraus operators, a follow-up POVM, then a state of random rank."""
    first = random_povm(dim, int(rng.integers(2, min(dim + 2, 5) + 1)), rng, with_kraus=True)
    second = random_povm(dim, int(rng.integers(2, min(dim + 2, 5) + 1)), rng, with_kraus=False)
    rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
    return first, second, rho


def _verify_composition(first, second, rho):
    combined = compose_measurements(first, second)
    # marginal over the second outcome reproduces the first measurement
    marginal = np.zeros_like(first.stacked())
    np.add.at(marginal, [label[0] for label in combined.labels], combined.stacked())
    worst = float(np.max(np.linalg.norm(marginal - first.stacked(), axis=(1, 2))))
    if worst > INEQ_TOL:
        return _fail("sum_j of combined elements reproduces the first measurement",
                     gap=worst, first=measurement_to_dict(first),
                     second=measurement_to_dict(second))
    s_first = observational_entropy(first, rho).s_obs
    s_combined = observational_entropy(combined, rho).s_obs
    if s_combined > s_first + INEQ_TOL:
        return _fail("S(combined) <= S(first)", first_entropy=s_first,
                     combined_entropy=s_combined, state=state_to_dict(rho),
                     first=measurement_to_dict(first), second=measurement_to_dict(second))


# ---------------------------------------------------------------------------
# golden counterexamples


def _ket(*amplitudes) -> np.ndarray:
    return np.asarray(amplitudes, dtype=complex)


def _projector(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def _golden_vn_relation_failure() -> dict:
    """The mixture-entropy identity valid for projective measurements breaks.

    For the two-outcome measurement {|0><0|/2, |0><0|/2 + |1><1|} on the pure
    state |0><0| the observational entropy is ln(3)/2 while the von Neumann
    entropy of the mixture sum_i p_i Pi_i / V_i is ln 3 - (2/3) ln 2, and the
    best state estimate consistent with the statistics is the pure input with
    zero entropy. Both candidate identities fail.
    """
    pi_1 = 0.5 * _projector(_ket(1, 0))
    pi_2 = 0.5 * _projector(_ket(1, 0)) + _projector(_ket(0, 1))
    povm = validate_measurement([pi_1, pi_2])
    rho = DensityMatrix.pure(_ket(1, 0))
    w = outcome_probabilities(povm, rho)
    s_obs = observational_entropy(povm, rho).s_obs
    mixture = sum(p / v * e for p, v, e in zip(w.probs, w.volumes, povm.elements))
    s_mixture = von_neumann_entropy(DensityMatrix(mixture, atol=BUILD_ATOL))
    expected_s_obs = 0.5 * math.log(3.0)
    expected_mixture = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)
    gap = abs(s_obs - s_mixture)
    checks = {
        "probabilities": bool(np.max(np.abs(w.probs - [0.5, 0.5])) <= 1e-12),
        "volumes": bool(np.max(np.abs(w.volumes - [0.5, 1.5])) <= 1e-12),
        "s_obs_matches_direct_formula": abs(s_obs - expected_s_obs) <= 1e-12,
        "mixture_entropy_matches_direct_formula": abs(s_mixture - expected_mixture) <= 1e-12,
        "identities_differ": gap > 0.05,
        "estimate_entropy_differs": s_obs > 0.5,  # best estimate is pure: S_vN = 0
    }
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "s_obs": s_obs,
        "s_mixture": s_mixture,
        "gap": gap,
        "measurement": measurement_to_dict(povm),
        "state": state_to_dict(rho),
    }


def _golden_converse_counterexample() -> dict:
    """Larger observational entropy does not imply stochastic processability."""
    w_fine = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
    w_coarse = WeightedDistribution([1.0, 0.0], [1.8, 0.2])
    cert = check_coarser_classical(w_fine, w_coarse)
    s_fine = s_obs_classical(w_fine)
    s_coarse = s_obs_classical(w_coarse)

    psi = _ket(math.sqrt(3) / 2, 0.5)
    psi_perp = _ket(0.5, -math.sqrt(3) / 2)
    coarse_q = validate_measurement(
        [_projector(psi) + 0.8 * _projector(psi_perp), 0.2 * _projector(psi_perp)]
    )
    fine_q = validate_measurement([_projector(_ket(1, 0)), _projector(_ket(0, 1))])
    rho = DensityMatrix.pure(psi)
    wq_fine = outcome_probabilities(fine_q, rho)
    wq_coarse = outcome_probabilities(coarse_q, rho)
    checks = {
        "classical_relation_infeasible": cert.verdict == "infeasible",
        "entropy_still_larger": s_coarse > s_fine + 1e-9,
        "s_coarse_matches": abs(s_coarse - math.log(1.8)) <= 1e-9,
        "s_fine_matches": abs(s_fine - (0.75 * math.log(4 / 3) + 0.25 * math.log(4))) <= 1e-9,
        "quantum_fine_probs": bool(np.max(np.abs(wq_fine.probs - [0.75, 0.25])) <= 1e-12),
        "quantum_fine_volumes": bool(np.max(np.abs(wq_fine.volumes - [1.0, 1.0])) <= 1e-12),
        "quantum_coarse_probs": bool(np.max(np.abs(wq_coarse.probs - [1.0, 0.0])) <= 1e-12),
        "quantum_coarse_volumes": bool(np.max(np.abs(wq_coarse.volumes - [1.8, 0.2])) <= 1e-12),
    }
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "s_fine": s_fine,
        "s_coarse": s_coarse,
        "verdict": cert.verdict,
        "fine": distribution_to_dict(w_fine),
        "coarse": distribution_to_dict(w_coarse),
        "quantum_coarse": measurement_to_dict(coarse_q),
        "quantum_fine": measurement_to_dict(fine_q),
    }


def _golden_sum_of_subspaces() -> dict:
    """Coarser in two subspaces but not in their sum."""
    plus = _ket(1, 1) / math.sqrt(2)
    minus = _ket(1, -1) / math.sqrt(2)
    coarse = validate_measurement([_projector(plus), _projector(minus)])
    fine = validate_measurement([_projector(_ket(1, 0)), _projector(_ket(0, 1))])
    span0 = Subspace.span([_ket(1, 0)])
    span1 = Subspace.span([_ket(0, 1)])
    cert0 = check_coarser_in_subspace(coarse, fine, span0)
    cert1 = check_coarser_in_subspace(coarse, fine, span1)
    cert_full = check_coarser_in_subspace(coarse, fine, Subspace.full(2))
    cert_plain = check_coarser(coarse, fine)
    checks = {
        "coarser_in_span0": cert0.feasible,
        "coarser_in_span1": cert1.feasible,
        "not_coarser_in_sum": cert_full.verdict == "infeasible",
        "full_space_matches_plain_check": cert_plain.verdict == "infeasible",
    }
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "verdicts": {
            "span0": cert0.verdict,
            "span1": cert1.verdict,
            "full": cert_full.verdict,
            "plain": cert_plain.verdict,
        },
        **_pair_payload(coarse, fine),
    }


def _golden_non_extendable_witness() -> dict:
    """A subspace witness that cannot be extended to the full space.

    Comparing the computational-basis measurement with itself: on span(|+>)
    the swap matrix is a valid witness, while on the full space the defining
    equalities force the identity witness, so the swap does not extend.
    """
    fine = validate_measurement([_projector(_ket(1, 0)), _projector(_ket(0, 1))])
    plus_span = Subspace.span([_ket(1, 1) / math.sqrt(2)])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    blocks = plus_span.compress(fine.stacked())
    swap_residual = _residual(swap, blocks, blocks)
    volumes = fine.volumes()
    swap_volume_ok = bool(np.all(swap @ volumes <= volumes + 1e-12))

    cert_sub = check_coarser_in_subspace(fine, fine, plus_span)
    cert_full = check_coarser(fine, fine)
    identity_gap = (
        float(np.max(np.abs(cert_full.witness.matrix - np.eye(2))))
        if cert_full.feasible else float("inf")
    )
    swap_full_residual = mixture_residual(fine, fine, swap)
    checks = {
        "swap_is_valid_on_subspace": swap_residual <= 1e-12 and swap_volume_ok,
        "subspace_check_feasible": cert_sub.feasible,
        "full_space_feasible": cert_full.feasible,
        "full_space_witness_is_identity": identity_gap <= 1e-6,
        "swap_fails_on_full_space": swap_full_residual > 1.0,
    }
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "swap_subspace_residual": swap_residual,
        "swap_full_residual": swap_full_residual,
        "identity_gap": identity_gap,
        "fine": measurement_to_dict(fine),
    }


_COUNTEREXAMPLES: tuple[tuple[str, Callable[[], dict]], ...] = (
    ("vn_relation_failure", _golden_vn_relation_failure),
    ("converse_of_entropy_monotonicity", _golden_converse_counterexample),
    ("sum_of_subspaces", _golden_sum_of_subspaces),
    ("non_extendable_witness", _golden_non_extendable_witness),
)


def counterexample_registry() -> tuple[tuple[str, Callable[[], dict]], ...]:
    """Named golden instances; each runner returns a payload with ``passed``."""
    return _COUNTEREXAMPLES


def _suite_counterexamples(trials, dim, seed):
    fails = []
    for name, runner in _COUNTEREXAMPLES:
        payload = runner()
        if not payload["passed"]:
            fails.append({"trial": name, "violated": f"golden instance {name}", **payload})
    return fails


SUITE_REGISTRY: dict[str, Callable[[int, int, int], list[dict]]] = {
    "dpi_kl": _suite(_draw_dpi_kl, _verify_dpi_kl),
    "obs_monotone": _suite(_draw_obs_monotone, _verify_obs_monotone),
    "dpi_mi": _suite(_draw_dpi_mi, _verify_dpi_mi),
    "projective_equiv": _suite(_projective_trial, _verify_projective),
    "lemma_processing": _suite(_lemma_trial, _verify_lemma),
    "coarser_entropy": _suite(_coarser_trial, partial(_sweep_states, "S_coarse >= S_fine", _entropy_grows)),
    "coarser_mi": _suite(_coarser_trial, partial(_sweep_states, "I_coarse <= I_fine", _information_shrinks)),
    "subspace_processing": _suite(partial(_subspace_trial, n_states=5), _verify_subspace_processing, min_dim=2),
    "subspace_entropy": _suite(_subspace_trial, partial(
        _sweep_states, "S_coarse >= S_fine on subspace states", _entropy_grows), min_dim=2),
    "subspace_mi": _suite(_subspace_trial, partial(
        _sweep_states, "I_coarse <= I_fine on subspace states", _information_shrinks), min_dim=2),
    "restriction": _suite(_restriction_trial, _verify_restriction, min_dim=2),
    "bounds": _suite(_draw_bounds, _verify_bounds),
    "composition": _suite(_draw_composition, _verify_composition),
    "counterexamples": _suite_counterexamples,
}

SUITE_NAMES = tuple(SUITE_REGISTRY)


def run_suite(name: str, trials: int = 500, dim: int = 3, seed: int = 0) -> SuiteReport:
    """Execute one registry suite and collect its failures.

    ``trials``, ``dim`` and ``seed`` must be Python or numpy integers, not
    ``bool``, with ``dim >= 1`` and ``trials >= 0``; otherwise
    :class:`InvalidRangeError` is raised.
    """
    if name not in SUITE_REGISTRY:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    for label, value in (("trials", trials), ("dim", dim), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidRangeError(f"{label} must be an integer, got {value!r}")
    trials, dim, seed = int(trials), int(dim), int(seed)
    if dim < 1 or trials < 0:
        raise InvalidRangeError(f"suites need dim >= 1 and trials >= 0, got {dim=}, {trials=}")
    start = time.perf_counter()
    details = SUITE_REGISTRY[name](trials, dim, seed)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SuiteReport(name, trials, len(details), details, elapsed)


def run_all(trials: int = 500, dim: int = 3, seed: int = 0) -> list[SuiteReport]:
    """Run every registered suite with the same parameters."""
    return [run_suite(name, trials, dim, seed) for name in SUITE_NAMES]
