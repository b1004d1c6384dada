"""Randomized verification suites and the golden counterexample registry.

Each suite turns one monotonicity/equivalence statement into a seeded
property check: ``run_suite(name, trials, dim, seed)`` executes ``trials``
independent instances and reports every violation with its serialized inputs,
so any failure can be replayed from file. Identical arguments always produce
identical reports.

Trial ``t`` of a theorem suite draws its instance from ``trial_rng`` at ``(seed, t)``
and reports at most one record, for the first statement found violated: keys
``trial``, ``violated``, the compared values, then ``state`` for a per-state
statement, then the inputs (``subspace``, ``coarse``, ``fine`` for pairs). A
per-state statement reports its first violating state. ``coarser_entropy``
and ``coarser_mi`` draw five states, each after its rank, from the trial
generator; the other per-state suites draw state ``s`` from
``trial_rng(seed, trials + k * t + s)`` (``k = 5`` in ``subspace_processing``,
else 50), so it replays alone. The four subspace suites check nothing below
dimension 2, which has no proper nonzero subspace.

The six per-state suites draw a trial's states up front, from those same
generators, as one ``(k, d, d)`` stack that is validated once. The stack
kernels (Born probabilities, ``S_obs``, mutual information) evaluate every
state in one pass, and the first violating state's record is built from those
values. Each stack entry is bit-identical to the public one-state function on
that state, so the records are those of a state-by-state sweep.

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
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .coarseness import (
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
    mutual_information_stack,
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
from .operators import DensityMatrix, Subspace, dagger, frobenius
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

INEQ_TOL = 1e-9
EQ_TOL = 1e-8


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
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


def _fail(statement: str, **payload) -> dict:
    return {"violated": statement, **payload}


def _pair_payload(coarse, fine, subspace=None) -> dict:
    """The serialized pair (and subspace) of a failing trial, for replay from file."""
    payload = {} if subspace is None else {"subspace": subspace_to_dict(subspace)}
    payload["coarse"] = measurement_to_dict(coarse)
    payload["fine"] = measurement_to_dict(fine)
    return payload


def _trials(trials, seed, check) -> list[dict]:
    """Records of ``check(t, rng)`` on each trial's generator, in trial order; ``None`` passes."""
    fails = []
    for t in range(trials):
        record = check(t, trial_rng(seed, t))
        if record is not None:
            fails.append({"trial": t, **record})
    return fails


def _replayed_draws(seed, trials, t, k):
    """The ``(rank, generator)`` draws of trial ``t``'s ``k`` full-rank states, each replayable alone."""
    return ((None, trial_rng(seed, trials + k * t + s)) for s in range(k))


def _sweep_states(statement, states, check, coarse, fine, subspace=None):
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
                     state=state_to_dict(DensityMatrix(states[s], atol=1e-9)),
                     **_pair_payload(coarse, fine, subspace))


def _in_proper_subspaces(suite):
    """Below dimension 2 there is no proper nonzero subspace, so the suite checks nothing."""
    return lambda trials, dim, seed: [] if dim < 2 else suite(trials, dim, seed)


# ---------------------------------------------------------------------------
# classical data-processing suites


def _suite_dpi_kl(trials, dim, seed):
    n = max(2, dim)

    def check(t, rng):
        m = int(rng.integers(1, n + 3))
        p_mat = random_left_stochastic(m, n, rng)
        p = random_simplex(n, rng)
        q = random_simplex(n, rng)
        before = kl_divergence(p, q)
        after = kl_divergence(p_mat.matrix @ p, p_mat.matrix @ q)
        if after > before + INEQ_TOL:
            return _fail("D(p||q) >= D(Pp||Pq)", before=before, after=after,
                         P=p_mat.matrix.tolist(), p=p.tolist(), q=q.tolist())
        if t % 2 == 0:
            # equality case: p proportional to q inside every merge block
            k = int(rng.integers(1, n + 1))
            merge = random_left_stochastic(k, n, rng, merge=True)
            block = merge.matrix.argmax(axis=0)
            q2 = random_simplex(n, rng)
            weights = random_simplex(k, rng)
            present = np.zeros(k, dtype=bool)
            present[block] = True
            weights = weights * present
            weights = weights / weights.sum()
            block_mass = np.array([q2[block == j].sum() for j in range(k)])
            p2 = q2 * weights[block] / np.where(block_mass[block] > 0, block_mass[block], 1.0)
            before = kl_divergence(p2, q2)
            after = kl_divergence(merge.matrix @ p2, merge.matrix @ q2)
            if abs(before - after) > EQ_TOL:
                return _fail("equality case D(p||q) == D(Pp||Pq)",
                             before=before, after=after, P=merge.matrix.tolist(),
                             p=p2.tolist(), q=q2.tolist())
    return _trials(trials, seed, check)


def _suite_obs_monotone(trials, dim, seed):
    n = max(2, dim)

    def check(t, rng):
        m = int(rng.integers(1, n + 3))
        p_mat = random_left_stochastic(m, n, rng)
        w = random_weighted_distribution(n, rng)
        out = push_forward(p_mat, w)
        if s_obs_classical(out) < s_obs_classical(w) - INEQ_TOL:
            return _fail("S_obs(Pw) >= S_obs(w)", before=s_obs_classical(w),
                         after=s_obs_classical(out), P=p_mat.matrix.tolist(),
                         w=distribution_to_dict(w))
        mode = t % 3
        if mode == 0:
            # constructed equality: constant p/V ratio inside every block
            k = int(rng.integers(1, n + 1))
            merge = random_left_stochastic(k, n, rng, merge=True, surjective=k <= n)
            block = merge.matrix.argmax(axis=0)
            volumes = rng.exponential(size=n) + 0.05
            weights = random_simplex(k, rng)
            block_volume = np.array([volumes[block == j].sum() for j in range(k)])
            probs = volumes * weights[block] / block_volume[block]
            w_eq = WeightedDistribution(probs, volumes)
            d_s = s_obs_classical(push_forward(merge, w_eq)) - s_obs_classical(w_eq)
            if not preserves_observational_entropy(merge, w_eq) or abs(d_s) > EQ_TOL:
                return _fail("equality condition <=> S_obs preserved (equal ratios)",
                             delta=d_s, P=merge.matrix.tolist(), w=distribution_to_dict(w_eq))
        elif mode == 1:
            # constructed strict increase: merge two outcomes with distinct ratios
            a = 0.6 + 0.35 * rng.random()
            w_gap = WeightedDistribution([a, 1 - a], [1.0, 1.0])
            merge_all = StochasticMatrix([[1.0, 1.0]])
            d_s = s_obs_classical(push_forward(merge_all, w_gap)) - s_obs_classical(w_gap)
            if preserves_observational_entropy(merge_all, w_gap) or d_s <= EQ_TOL:
                return _fail("distinct ratios => strict S_obs increase",
                             delta=d_s, w=distribution_to_dict(w_gap))
    return _trials(trials, seed, check)


def _suite_dpi_mi(trials, dim, seed):
    nx = max(2, dim)

    def check(t, rng):
        ny = int(rng.integers(2, nx + 3))
        nz = int(rng.integers(2, nx + 3))
        px = random_simplex(nx, rng)
        y_given_x = random_left_stochastic(ny, nx, rng).matrix
        z_given_y = random_left_stochastic(nz, ny, rng).matrix
        pxy = px[:, None] * y_given_x.T
        pxz = pxy @ z_given_y.T
        before = mutual_information(JointDistribution(pxy))
        after = mutual_information(JointDistribution(pxz))
        if after > before + INEQ_TOL:
            return _fail("I(X;Y) >= I(X;Z)", before=before, after=after,
                         px=px.tolist(), y_given_x=y_given_x.tolist(),
                         z_given_y=z_given_y.tolist())
    return _trials(trials, seed, check)


# ---------------------------------------------------------------------------
# quantum construction helpers


def _embedded_povm(basis: np.ndarray, n_outcomes: int, rng) -> np.ndarray:
    """Elements of a random POVM on the span of ``basis`` columns, lifted to the ambient space."""
    small = random_povm(basis.shape[1], n_outcomes, rng, with_kraus=False)
    return basis @ small.stacked() @ dagger(basis)


def _random_coarser_pair(rng, dim) -> tuple[GeneralizedMeasurement, GeneralizedMeasurement, StochasticMatrix]:
    """A fine measurement, a coarse-graining of it, and the transition matrix."""
    n = int(rng.integers(2, min(dim + 2, 6)))
    m = int(rng.integers(1, n + 1))
    fine = random_povm(dim, n, rng, with_kraus=False)
    p_mat = random_left_stochastic(m, n, rng)
    coarse = coarsen(fine, p_mat)
    return fine, coarse, p_mat


def _random_subspace_coarser_pair(rng, dim):
    """A pair that is coarser inside a random proper subspace.

    Fine elements are drawn either generically or block-supported (half inside
    the subspace, half inside its complement) so that both trivial and proper
    possible-outcome sets are exercised. The coarse elements mix the projected
    fine elements through a random stochastic matrix and absorb the leftover
    volume on the orthogonal complement, which keeps the volume inequality
    satisfiable by construction.
    """
    g = int(rng.integers(1, dim))
    u = random_unitary(dim, rng)
    inside = Subspace(u[:, :g])
    outside_basis = u[:, g:]
    if rng.random() < 0.5:
        n = int(rng.integers(2, min(dim + 2, 6)))
        fine = random_povm(dim, n, rng, with_kraus=False)
    else:
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        elements = np.concatenate([_embedded_povm(inside.basis, n_in, rng),
                                   _embedded_povm(outside_basis, n_out, rng)])
        fine = validate_measurement(elements[rng.permutation(len(elements))], atol=1e-9)

    o1 = possible_outcomes(fine, inside)
    m = int(rng.integers(1, len(o1) + 2))
    mix = random_left_stochastic(m, len(o1), rng).matrix
    pg = inside.projector.matrix
    projected = pg @ fine.stacked()[list(o1)] @ pg
    mixed = np.einsum("ji,iab->jab", mix, projected)

    v_full = fine.volumes()[list(o1)]
    v_proj = np.einsum("iaa->i", projected).real
    deficits = mix @ (v_full - v_proj)  # >= 0, volume missing w.r.t. full traces
    leftover = (dim - g) - float(deficits.sum())
    extra = deficits + max(leftover, 0.0) * random_simplex(m, rng)
    complement = np.eye(dim) - pg
    coarse = validate_measurement(mixed + (extra / (dim - g))[:, None, None] * complement, atol=1e-9)
    return fine, coarse, inside, StochasticMatrix(mix)


# ---------------------------------------------------------------------------
# per-state statements for _sweep_states: check(fine, coarse, states) gives every
# state's excess over the bound and the compared values. Each reads the
# tolerances at call time.


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
    mi_fine = mutual_information_stack(fine, states)
    mi_coarse = mutual_information_stack(coarse, states)
    return mi_coarse - (mi_fine + INEQ_TOL), {"fine_mi": mi_fine, "coarse_mi": mi_coarse}


def _coarser_pairs(rng, dim):
    fine, coarse, _ = _random_coarser_pair(rng, dim)
    return fine, coarse, None


def _subspace_pairs(rng, dim):
    fine, coarse, inside, _ = _random_subspace_coarser_pair(rng, dim)
    return fine, coarse, inside


def _drawn_states(rng, dim, subspace, replay):
    """Five states from the trial generator, each drawn right after its rank."""
    return random_density_stack(dim, ((int(rng.integers(1, dim + 1)), rng) for _ in range(5)))


def _replayed_subspace_states(rng, dim, subspace, replay):
    return random_subspace_state_stack(subspace, replay(50))


def _monotone(statement, check, pairs, states):
    """A suite whose every trial sweeps its states with ``check`` on one pair.

    ``pairs(rng, dim)`` gives ``(fine, coarse, subspace or None)``, and
    ``states(rng, dim, subspace, replay)`` the state stack, where ``replay(k)``
    is the trial's :func:`_replayed_draws`.
    """
    def suite(trials, dim, seed):
        def check_trial(t, rng):
            fine, coarse, subspace = pairs(rng, dim)
            stack = states(rng, dim, subspace, lambda k: _replayed_draws(seed, trials, t, k))
            return _sweep_states(statement, stack, check, coarse, fine, subspace)
        return _trials(trials, seed, check_trial)
    return suite


# ---------------------------------------------------------------------------
# coarseness suites


def _suite_projective_equiv(trials, dim, seed):
    def check(t, rng):
        if t % 2 == 0:
            # constructed coarser pair with projective coarse measurement
            k = int(rng.integers(1, min(dim, 4) + 1))
            coarse = random_projective(dim, k, rng)
            parts = []
            for proj in coarse.elements:
                rank = int(round(np.trace(proj).real))
                w, v = np.linalg.eigh(proj)
                parts.append(_embedded_povm(v[:, -rank:], int(rng.integers(1, 4)), rng))
            fine_elements = np.concatenate(parts)
            fine = validate_measurement(fine_elements[rng.permutation(len(fine_elements))], atol=1e-9)
            expected_coarser = True
        else:
            coarse = random_projective(dim, int(rng.integers(1, dim + 1)), rng)
            fine = random_povm(dim, int(rng.integers(2, min(dim + 2, 6))), rng, with_kraus=False)
            expected_coarser = None
        partition = check_coarser_projective(coarse, fine)
        cert = check_coarser(coarse, fine)
        agree = (partition is not None) == cert.feasible
        ok = agree and (expected_coarser is None or cert.feasible == expected_coarser)
        if not ok:
            return _fail("partition fast path == feasibility check",
                         partition=None if partition is None else [list(b) for b in partition],
                         verdict=cert.verdict,
                         **_pair_payload(coarse, fine))
    return _trials(trials, seed, check)


def _suite_lemma_processing(trials, dim, seed):
    def check(t, rng):
        fine, coarse, _ = _random_coarser_pair(rng, dim)
        cert = check_coarser(coarse, fine)
        if not cert.feasible:
            return _fail("constructed coarse-graining must be feasible",
                         verdict=cert.verdict, **_pair_payload(coarse, fine))
        if cert.residual > 1e-7:
            return _fail("witness residual <= 1e-7", residual=cert.residual,
                         **_pair_payload(coarse, fine))
        states = random_density_stack(dim, _replayed_draws(seed, trials, t, 50))
        return _sweep_states("p_coarse == witness @ p_fine for every state", states,
                             _mapped_probabilities(cert.witness.matrix, INEQ_TOL),
                             coarse, fine)
    return _trials(trials, seed, check)


_suite_coarser_entropy = _monotone(
    "S_coarse >= S_fine", _entropy_grows, _coarser_pairs, _drawn_states)
_suite_coarser_mi = _monotone(
    "I_coarse <= I_fine", _information_shrinks, _coarser_pairs, _drawn_states)


@_in_proper_subspaces
def _suite_subspace_processing(trials, dim, seed):
    def check(t, rng):
        fine, coarse, inside, _ = _random_subspace_coarser_pair(rng, dim)
        cert = check_coarser_in_subspace(coarse, fine, inside)
        if not cert.feasible:
            return _fail("constructed subspace coarse-graining must be feasible",
                         verdict=cert.verdict, **_pair_payload(coarse, fine, inside))
        extension = cert.extension
        if extension is None:
            return _fail("feasible certificate carries a stochastic extension",
                         **_pair_payload(coarse, fine, inside))
        v_gap = float(np.max(np.abs(coarse.volumes() - extension.matrix @ fine.volumes())))
        if v_gap > EQ_TOL:
            return _fail("extension maps volumes exactly", gap=v_gap,
                         **_pair_payload(coarse, fine, inside))
        states = random_subspace_state_stack(inside, _replayed_draws(seed, trials, t, 5))
        return _sweep_states("extension maps probabilities on subspace states", states,
                             _mapped_probabilities(extension.matrix, EQ_TOL),
                             coarse, fine, inside)
    return _trials(trials, seed, check)


_suite_subspace_entropy = _in_proper_subspaces(_monotone(
    "S_coarse >= S_fine on subspace states",
    _entropy_grows, _subspace_pairs, _replayed_subspace_states))
_suite_subspace_mi = _in_proper_subspaces(_monotone(
    "I_coarse <= I_fine on subspace states",
    _information_shrinks, _subspace_pairs, _replayed_subspace_states))


@_in_proper_subspaces
def _suite_restriction(trials, dim, seed):
    def check(t, rng):
        fine, coarse, inside, _ = _random_subspace_coarser_pair(rng, dim)
        cert_big = check_coarser_in_subspace(coarse, fine, inside)
        if not cert_big.feasible:
            return _fail("constructed subspace coarse-graining must be feasible",
                         verdict=cert_big.verdict, **_pair_payload(coarse, fine, inside))
        smaller = random_subspace_of(inside, int(rng.integers(1, inside.rank + 1)), rng)
        cert_small = check_coarser_in_subspace(coarse, fine, smaller)
        if not cert_small.feasible:
            return _fail("coarseness is preserved when the subspace shrinks",
                         verdict=cert_small.verdict, **_pair_payload(coarse, fine, smaller))
        o2_small = possible_outcomes(coarse, smaller)
        o1_small = possible_outcomes(fine, smaller)
        restricted = restrict_transition_matrix(
            cert_big.witness, o2_small, o1_small,
            cert_big.coarse_outcomes, cert_big.fine_outcomes,
        )
        pg = smaller.projector.matrix
        target = pg @ coarse.stacked()[list(o2_small)] @ pg
        source = pg @ fine.stacked()[list(o1_small)] @ pg
        mixed = np.einsum("ji,iab->jab", restricted.matrix, source)
        residual = float(np.max(np.linalg.norm(mixed - target, axis=(1, 2))))
        slack = coarse.volumes()[list(o2_small)] - restricted.matrix @ fine.volumes()[list(o1_small)]
        if residual > 1e-6 or float(slack.min()) < -1e-6:
            return _fail("restricted witness satisfies the smaller subspace relation",
                         residual=residual, volume_slack=slack.tolist(),
                         **_pair_payload(coarse, fine, smaller))
    return _trials(trials, seed, check)


def _suite_bounds(trials, dim, seed):
    log_dim = math.log(dim)
    rho_id = DensityMatrix.maximally_mixed(dim)

    def check(t, rng):
        povm = random_povm(dim, int(rng.integers(1, min(dim + 2, 6) + 1)), rng, with_kraus=False)
        rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
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
        s_id = observational_entropy(povm, rho_id).s_obs
        if abs(s_id - log_dim) > INEQ_TOL:
            return _fail("S_obs equals ln(dim) on the maximally mixed state",
                         s_obs=s_id, log_dim=log_dim, measurement=measurement_to_dict(povm))
    return _trials(trials, seed, check)


def _suite_composition(trials, dim, seed):
    def check(t, rng):
        first = random_povm(dim, int(rng.integers(2, min(dim + 2, 5) + 1)), rng, with_kraus=True)
        second = random_povm(dim, int(rng.integers(2, min(dim + 2, 5) + 1)), rng, with_kraus=False)
        combined = compose_measurements(first, second)
        # marginal over the second outcome reproduces the first measurement
        worst = 0.0
        for i in range(first.n_outcomes):
            partial = sum(
                (e for e, lab in zip(combined.elements, combined.labels) if lab[0] == i),
                start=np.zeros((dim, dim), dtype=complex),
            )
            worst = max(worst, frobenius(partial - first.elements[i]))
        if worst > INEQ_TOL:
            return _fail("sum_j of combined elements reproduces the first measurement",
                         gap=worst, first=measurement_to_dict(first),
                         second=measurement_to_dict(second))
        rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
        s_first = observational_entropy(first, rho).s_obs
        s_combined = observational_entropy(combined, rho).s_obs
        if s_combined > s_first + INEQ_TOL:
            return _fail("S(combined) <= S(first)", first_entropy=s_first,
                         combined_entropy=s_combined, state=state_to_dict(rho),
                         first=measurement_to_dict(first), second=measurement_to_dict(second))
    return _trials(trials, seed, check)


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
    s_mixture = von_neumann_entropy(DensityMatrix(mixture, atol=1e-9))
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

    pg = plus_span.projector.matrix
    projected = pg @ fine.stacked() @ pg
    swap_residual = float(
        np.max(np.linalg.norm(np.einsum("ji,iab->jab", swap, projected) - projected, axis=(1, 2)))
    )
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
            record = {"trial": name, "violated": f"golden instance {name}"}
            record.update(payload)
            fails.append(record)
    return fails


SUITE_REGISTRY: dict[str, Callable[[int, int, int], list[dict]]] = {
    "dpi_kl": _suite_dpi_kl,
    "obs_monotone": _suite_obs_monotone,
    "dpi_mi": _suite_dpi_mi,
    "projective_equiv": _suite_projective_equiv,
    "lemma_processing": _suite_lemma_processing,
    "coarser_entropy": _suite_coarser_entropy,
    "coarser_mi": _suite_coarser_mi,
    "subspace_processing": _suite_subspace_processing,
    "subspace_entropy": _suite_subspace_entropy,
    "subspace_mi": _suite_subspace_mi,
    "restriction": _suite_restriction,
    "bounds": _suite_bounds,
    "composition": _suite_composition,
    "counterexamples": _suite_counterexamples,
}

SUITE_NAMES = tuple(SUITE_REGISTRY)


def run_suite(name: str, trials: int = 500, dim: int = 3, seed: int = 0) -> SuiteReport:
    """Execute one registry suite and collect its failures; needs ``dim >= 1``, ``trials >= 0``."""
    if name not in SUITE_REGISTRY:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
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
