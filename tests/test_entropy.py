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
    coarsen,
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
from povmcoarse.entropy import mutual_information_stacks
from povmcoarse.errors import DimensionMismatchError, LengthMismatchError, NotNormalizedError, ValidationError
from povmcoarse.operators import require_density
from povmcoarse.randomgen import (
    random_density_matrix,
    random_left_stochastic,
    random_povm,
    random_simplex,
    random_unitary,
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

    @pytest.mark.parametrize("excess, accepted", [(0.9e-8, True), (1.1e-8, False)])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_normalization_bound_is_1e_minus_8(self, excess, accepted, side):
        off = [0.5 + excess, 0.5]
        args = (off, [0.5, 0.5]) if side == "p" else ([0.5, 0.5], off)
        if accepted:
            assert kl_divergence(*args) == pytest.approx(0.0, abs=1e-7)
        else:
            with pytest.raises(NotNormalizedError):
                kl_divergence(*args)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([np.nan, 1.0], ValidationError),
            ([np.inf, 0.0], ValidationError),
            ([1.1, -0.1], ValidationError),
            ([0.5, 0.4], NotNormalizedError),
            ([0.6, 0.5], NotNormalizedError),
        ],
        ids=["nan", "inf", "negative", "sum-0.9", "sum-1.1"],
    )
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_rejects_non_probabilities_with_the_documented_type(self, bad, error, side):
        args = (bad, [0.5, 0.5]) if side == "p" else ([0.5, 0.5], bad)
        with pytest.raises(error) as excinfo:
            kl_divergence(*args)
        assert excinfo.type is error

    def test_rejects_empty_vectors(self):
        with pytest.raises(ValidationError) as excinfo:
            kl_divergence([], [])
        assert excinfo.type is ValidationError

    def test_rounding_noise_below_zero_is_a_zero_entry(self):
        assert kl_divergence([1.0, -1e-13], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
        assert kl_divergence([0.5, 0.5], [1.0, -1e-13]) == math.inf

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

    def test_repeated_eigenvalue_gives_one_row(self):
        # the maximally mixed state is one eigenspace: a single row of Born probabilities
        povm = random_povm(3, 4, seed=8, with_kraus=False)
        j = measurement_state_joint(povm, DensityMatrix.maximally_mixed(3))
        np.testing.assert_allclose(j.matrix[0], povm.volumes() / 3, atol=1e-15)
        assert np.all(j.matrix[1:] == 0.0)
        assert abs(mutual_information(j)) <= 1e-15


class TestUnitaryInvariance:
    """The mutual information is a function of the state and the measurement, not of a basis."""

    SPECTRA = [[0.4, 0.4, 0.2], [0.5, 0.25, 0.25], [1 / 3] * 3, [0.6, 0.4, 0.0], [0.7, 0.2, 0.1]]

    @pytest.mark.parametrize("spectrum", SPECTRA)
    def test_rotations_inside_an_eigenspace(self, spectrum):
        rng = np.random.default_rng(31)
        povm = random_povm(3, 4, rng, with_kraus=False)
        u = random_unitary(3, rng)
        states = []
        for _ in range(20):
            # a unitary that acts inside each eigenspace writes the same state another way
            w = np.eye(3, dtype=complex)
            for block in _eigenspace_blocks(spectrum):
                w[np.ix_(block, block)] = random_unitary(len(block), rng)
            v = u @ w
            states.append((v * np.asarray(spectrum)) @ v.conj().T)
        values = mutual_information_stack(povm, require_density(np.stack(states), atol=1e-9))
        assert np.ptp(values) <= 1e-12

    @pytest.mark.parametrize("spectrum", SPECTRA)
    def test_conjugating_state_and_measurement(self, spectrum):
        rng = np.random.default_rng(32)
        povm = random_povm(3, 4, rng, with_kraus=False)
        u = random_unitary(3, rng)
        rho = DensityMatrix((u * np.asarray(spectrum)) @ u.conj().T, atol=1e-9)
        base = mutual_information(measurement_state_joint(povm, rho))
        for _ in range(10):
            g = random_unitary(3, rng)
            moved = validate_measurement(g @ povm.stacked() @ g.conj().T, atol=1e-9)
            moved_rho = DensityMatrix(g @ rho.matrix @ g.conj().T, atol=1e-9)
            assert abs(mutual_information(measurement_state_joint(moved, moved_rho)) - base) <= 1e-12


def _eigenspace_blocks(spectrum):
    """Index blocks of equal entries in a descending spectrum."""
    blocks = [[0]]
    for x in range(1, len(spectrum)):
        if spectrum[x] != spectrum[x - 1]:
            blocks.append([])
        blocks[-1].append(x)
    return blocks


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
    """``sum p_gi ln(p_gi / (p_g p_i))`` with ``p_gi = Tr[Π_i P_g ρ]`` over the eigenspaces ``P_g`` of ``ρ``.

    Eigenvalues (descending) closer than ``1e-8`` times the spectral scale
    share an eigenspace, the grouping rule of ``eigendecompose``.
    """
    eigvals, eigvecs = np.linalg.eigh(rho)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    scale = max(eigvals[0] - eigvals[-1], max(abs(eigvals)))
    groups = [[0]]
    for x in range(1, len(eigvals)):
        if eigvals[x - 1] - eigvals[x] > 1e-8 * scale:
            groups.append([])
        groups[-1].append(x)
    joint = []
    for group in groups:
        block = eigvecs[:, group]
        weighted = block @ np.diag(np.clip(eigvals[group], 0.0, None)) @ block.conj().T
        joint.append([max(float(np.trace(element @ weighted).real), 0.0) for element in povm.elements])
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

    def test_pair_of_measurements_shares_one_eigendecomposition(self, monkeypatch):
        """Each entry of the pair call is bit-identical to its own stack call, from one ``eigh``."""
        rng = np.random.default_rng(2023)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        for povm, states in kernel_cases():
            coarse = coarsen(povm, random_left_stochastic(2, povm.n_outcomes, rng))
            other = random_povm(povm.dim, int(rng.integers(1, 6)), rng, with_kraus=False)
            singles = [mutual_information_stack(m, states) for m in (povm, coarse, other)]
            calls.clear()
            monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
            pair = mutual_information_stacks((povm, coarse, other), states)
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert calls == [states.shape]
            assert [a.tobytes() for a in pair] == [a.tobytes() for a in singles]

    def test_pair_call_checks_every_dimension(self):
        states = np.stack([np.eye(2) / 2])
        with pytest.raises(DimensionMismatchError):
            mutual_information_stacks((random_povm(2, 2, seed=1), random_povm(3, 2, seed=1)), states)

    def test_pure_state_inside_one_outcome(self, z_measurement):
        states = np.stack([proj(ket(1, 0)), proj(ket(0, 1))])
        assert np.array_equal(s_obs_stack(z_measurement, states), [0.0, 0.0])
        assert np.array_equal(mutual_information_stack(z_measurement, states), [0.0, 0.0])
