"""Entropies, divergences, decomposition identity, joint distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcoarse import (
    DensityMatrix,
    EntropyReport,
    JointDistribution,
    WeightedDistribution,
    kl_divergence,
    measurement_state_joint,
    mutual_information,
    mutual_information_stack,
    observational_entropy,
    outcome_probabilities,
    outcome_probability_stack,
    push_forward,
    s_obs_classical,
    s_obs_stack,
    validate_measurement,
    von_neumann_entropy,
)
from povmcoarse.errors import LengthMismatchError, NotNormalizedError, ValidationError
from povmcoarse.randomgen import (
    random_density_matrix,
    random_left_stochastic,
    random_povm,
    random_simplex,
    random_weighted_distribution,
)

from conftest import kernel_cases, ket, proj

# frozen expectations, each computed from the defining formula by hand
S_HALVES = 0.5 * math.log(3.0)  # sum p (ln V - ln p) on p=(1/2,1/2), V=(1/2,3/2)
S_THREE_QUARters = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)


class TestClassicalObservationalEntropy:
    def test_converse_instance_value(self):
        w = WeightedDistribution([1.0, 0.0], [1.8, 0.2])
        assert s_obs_classical(w) == pytest.approx(math.log(1.8), abs=1e-12)

    def test_three_quarters_value(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        assert s_obs_classical(w) == pytest.approx(S_THREE_QUARters, abs=1e-12)

    def test_uniform_gives_log_total_volume(self):
        volumes = np.array([0.3, 1.2, 2.5])
        w = WeightedDistribution(volumes / volumes.sum(), volumes)
        assert s_obs_classical(w) == pytest.approx(math.log(volumes.sum()), abs=1e-12)


class TestKLDivergence:
    def test_self_divergence_zero(self):
        p = [0.2, 0.5, 0.3]
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_against_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_absolute_continuity_failure(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            kl_divergence([0.9, 0.0], [0.5, 0.5])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0.001, 10.0), min_size=2, max_size=8),
           st.lists(st.floats(0.001, 10.0), min_size=2, max_size=8))
    def test_gibbs_inequality(self, raw_p, raw_q):
        n = min(len(raw_p), len(raw_q))
        p = np.asarray(raw_p[:n]) / sum(raw_p[:n])
        q = np.asarray(raw_q[:n]) / sum(raw_q[:n])
        value = kl_divergence(p, q)
        assert value >= -1e-10
        if value <= 1e-10:
            np.testing.assert_allclose(p, q, atol=1e-4)


class TestMutualInformation:
    def test_product_joint_is_zero(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.25, 0.25, 0.5])
        assert mutual_information(JointDistribution(np.outer(px, py))) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j) == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_conditional_gives_source_entropy(self, z_measurement):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        j = measurement_state_joint(z_measurement, rho)
        assert mutual_information(j) == pytest.approx(S_THREE_QUARters, abs=1e-12)

    def test_non_negative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = rng.exponential(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            j = JointDistribution(m / m.sum())
            assert mutual_information(j) >= -1e-10


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(DensityMatrix.pure(ket(3, 4))) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(4)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_diagonal(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(S_THREE_QUARters, abs=1e-12)

    def test_matches_eigenbasis_observational_entropy(self):
        from povmcoarse import measurement_from_state

        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            eigen = measurement_from_state(rho)
            s = observational_entropy(eigen, rho)
            assert abs(s.s_obs - von_neumann_entropy(rho)) <= 1e-9


class TestObservationalEntropyReport:
    def test_halves_instance(self, halves_measurement):
        report = observational_entropy(halves_measurement, DensityMatrix.pure(ket(1, 0)))
        assert report.s_obs == pytest.approx(S_HALVES, abs=1e-12)

    def test_single_outcome_gives_log_dim(self):
        m = validate_measurement([np.eye(2)])
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        assert observational_entropy(m, rho).s_obs == pytest.approx(math.log(2), abs=1e-12)

    def test_maximally_mixed_gives_log_dim(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            povm = random_povm(d, int(rng.integers(1, 6)), rng, with_kraus=False)
            report = observational_entropy(povm, DensityMatrix.maximally_mixed(d))
            assert report.s_obs == pytest.approx(math.log(d), abs=1e-10)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            d = int(rng.integers(2, 6))
            povm = random_povm(d, int(rng.integers(1, 6)), rng, with_kraus=False)
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            report = observational_entropy(povm, rho)
            assert abs(report.s_obs - (report.ln_vtot - report.d_kl_to_uniform)) <= 1e-9

    def test_report_rejects_broken_identity(self):
        with pytest.raises(ValidationError):
            EntropyReport(s_obs=1.0, s_vn=0.0, ln_vtot=1.0, d_kl_to_uniform=0.5)


class TestJointDistributionFromMeasurement:
    def test_pure_state_single_row(self, z_measurement):
        psi = ket(math.sqrt(3) / 2, 0.5)
        j = measurement_state_joint(z_measurement, DensityMatrix.pure(psi))
        rows = j.row_marginal()
        assert rows[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(j.matrix[0], [0.75, 0.25], atol=1e-12)

    def test_uninformative_measurement(self):
        m = validate_measurement([np.eye(3)])
        rho = random_density_matrix(3, 3, seed=2)
        j = measurement_state_joint(m, rho)
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_case(self, z_measurement):
        j = measurement_state_joint(z_measurement, DensityMatrix(np.diag([0.75, 0.25])))
        np.testing.assert_allclose(j.matrix, np.diag([0.75, 0.25]), atol=1e-12)

    def test_column_marginal_matches_born_rule(self):
        from povmcoarse import outcome_probabilities

        rng = np.random.default_rng(47)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            povm = random_povm(d, int(rng.integers(2, 6)), rng, with_kraus=False)
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            j = measurement_state_joint(povm, rho)
            np.testing.assert_allclose(
                j.col_marginal(), outcome_probabilities(povm, rho).probs, atol=1e-10
            )


class TestProcessingInequalities:
    """Module-level checks of the three processing inequalities."""

    def test_kl_never_increases(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 8))
            mat = random_left_stochastic(m, n, rng).matrix
            p = random_simplex(n, rng)
            q = random_simplex(n, rng)
            assert kl_divergence(mat @ p, mat @ q) <= kl_divergence(p, q) + 1e-9

    def test_s_obs_never_decreases(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 8))
            mat = random_left_stochastic(m, n, rng)
            w = random_weighted_distribution(n, rng)
            assert s_obs_classical(push_forward(mat, w)) >= s_obs_classical(w) - 1e-9

    def test_mi_never_increases_along_chain(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
            px = random_simplex(nx, rng)
            y_x = random_left_stochastic(ny, nx, rng).matrix
            z_y = random_left_stochastic(nz, ny, rng).matrix
            pxy = px[:, None] * y_x.T
            pxz = pxy @ z_y.T
            assert mutual_information(JointDistribution(pxz)) <= (
                mutual_information(JointDistribution(pxy)) + 1e-9
            )

    def test_mixture_entropy_identity_fails_for_non_projective(self, halves_measurement):
        # the projective-only identity S_obs = S_vN(sum p_i Pi_i / V_i) breaks here
        rho = DensityMatrix.pure(ket(1, 0))
        report = observational_entropy(halves_measurement, rho)
        from povmcoarse import outcome_probabilities

        w = outcome_probabilities(halves_measurement, rho)
        mixture = sum(
            p / v * e for p, v, e in zip(w.probs, w.volumes, halves_measurement.elements)
        )
        gap = abs(report.s_obs - von_neumann_entropy(DensityMatrix(mixture, atol=1e-9)))
        expected_gap = 0.5 * math.log(3.0) - (2.0 / 3.0) * math.log(2.0)
        assert gap == pytest.approx(expected_gap, abs=1e-12)
        assert gap > 0.05


def reference_s_obs(povm, rho):
    """``sum p (ln V - ln p)`` with ``p_i = Tr[Π_i ρ]`` and ``V_i = Tr Π_i``, one outcome at a time."""
    total = 0.0
    for element in povm.elements:
        p = float(np.trace(element @ rho).real)
        if p > 1e-14:
            total += p * (math.log(float(np.trace(element).real)) - math.log(p))
    return total


def reference_mutual_information(povm, rho):
    """``sum p_xi ln(p_xi / (p_x p_i))`` with ``p_xi = λ_x <x|Π_i|x>`` from this state's own ``eigh``."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    joint = [
        [max(float(lam), 0.0) * max(float((vec.conj() @ element @ vec).real), 0.0) for element in povm.elements]
        for lam, vec in zip(eigvals, eigvecs.T)
    ]
    rows = [sum(row) for row in joint]
    cols = [sum(column) for column in zip(*joint)]
    return sum(
        p * math.log(p / (rows[x] * cols[i]))
        for x, row in enumerate(joint)
        for i, p in enumerate(row)
        if p > 1e-14
    )


class TestStackKernels:
    """The (S, d, d) kernels against per-state references written from the defining formulas."""

    def test_s_obs_stack_matches_observational_entropy(self):
        for povm, states in kernel_cases():
            values = s_obs_stack(povm, states)
            assert values.shape == (len(states),)
            for value, rho in zip(values, states):
                assert abs(value - reference_s_obs(povm, rho)) <= 1e-12

    def test_mutual_information_stack_matches_joint(self):
        for povm, states in kernel_cases():
            values = mutual_information_stack(povm, states)
            assert values.shape == (len(states),)
            for value, rho in zip(values, states):
                assert abs(value - reference_mutual_information(povm, rho)) <= 1e-12

    def test_every_slice_is_the_one_state_call(self):
        """Entry s is bit-identical to the public one-state function on state s, whatever S is."""
        for povm, states in kernel_cases():
            probs = outcome_probability_stack(povm, states)
            s_obs = s_obs_stack(povm, states)
            info = mutual_information_stack(povm, states)
            for s, matrix in enumerate(states):
                rho = DensityMatrix(matrix, atol=1e-9)
                assert np.array_equal(probs[s], outcome_probabilities(povm, rho).probs)
                assert np.array_equal(s_obs[s], observational_entropy(povm, rho).s_obs)
                assert np.array_equal(info[s], mutual_information(measurement_state_joint(povm, rho)))
                tail = states[s:]  # the same state at the head of a shorter stack
                assert np.array_equal(probs[s], outcome_probability_stack(povm, tail)[0])
                assert np.array_equal(s_obs[s], s_obs_stack(povm, tail)[0])
                assert np.array_equal(info[s], mutual_information_stack(povm, tail)[0])

    def test_pure_state_inside_one_outcome(self, z_measurement):
        states = np.stack([proj(ket(1, 0)), proj(ket(0, 1))])
        assert np.array_equal(s_obs_stack(z_measurement, states), [0.0, 0.0])
        assert np.array_equal(mutual_information_stack(z_measurement, states), [0.0, 0.0])
