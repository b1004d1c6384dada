"""Measurement validation, probabilities, composition, state updates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from povmcoarse import (
    DensityMatrix,
    coarsen,
    compose_measurements,
    measurement_from_state,
    outcome_probabilities,
    outcome_probability_stack,
    post_measurement_state,
    trace_pairing,
    validate_measurement,
)
from povmcoarse.entropy import ZERO_PROB_TOL
from povmcoarse.errors import (
    DimensionMismatchError,
    IncompleteSumError,
    InvalidRangeError,
    KrausMismatchError,
    MissingKrausError,
    NonHermitianError,
    NotNormalizedError,
    NotPSDError,
    ZeroElementError,
    ZeroProbabilityOutcomeError,
)
from povmcoarse.operators import frobenius, matrix_sqrt_psd
from povmcoarse.randomgen import (
    complex_gaussian,
    random_density_matrix,
    random_povm,
    random_projective,
)

from conftest import KET_MINUS, KET_PLUS, kernel_cases, ket, proj


class TestValidateMeasurement:
    def test_projective_pair_valid(self, z_measurement):
        assert z_measurement.n_outcomes == 2
        assert z_measurement.kraus is not None

    def test_non_projective_halves_valid(self, halves_measurement):
        assert halves_measurement.dim == 2

    def test_incomplete_sum_rejected(self):
        with pytest.raises(IncompleteSumError):
            validate_measurement([proj(ket(1, 0)), 0.5 * proj(ket(0, 1))])

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElementError):
            validate_measurement([np.zeros((2, 2)), np.eye(2)])

    def test_negative_element_rejected(self):
        with pytest.raises(NotPSDError):
            validate_measurement([1.5 * proj(ket(1, 0)) - 0.5 * proj(ket(0, 1)),
                                  -0.5 * proj(ket(1, 0)) + 1.5 * proj(ket(0, 1))])

    def test_kraus_mismatch_rejected(self):
        p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
        with pytest.raises(KrausMismatchError):
            validate_measurement([p0, p1], [[p1], [p0]])

    def test_kraus_accepted_when_consistent(self):
        p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
        m = validate_measurement([p0, p1], [[p0], [p1]])
        assert len(m.kraus) == 2

    def test_kraus_inputs_stay_writable_and_unshared(self):
        p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
        m = validate_measurement([p0, p1], [[p0], [p1]])
        assert p0.flags.writeable and p1.flags.writeable
        p0[0, 0] = 7.0
        assert m.kraus[0][0][0, 0] == 1.0
        assert not m.kraus[0][0].flags.writeable

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_measurement([np.eye(2), np.eye(3)])

    def test_elements_are_read_only_views_of_the_stack(self):
        povm = random_povm(3, 4, seed=5, with_kraus=False)
        stack = povm.stacked()
        assert stack.shape == (4, 3, 3) and not stack.flags.writeable
        for i, element in enumerate(povm.elements):
            assert np.shares_memory(element, stack)
            assert not element.flags.writeable
            np.testing.assert_array_equal(element, stack[i])

    def test_list_and_stack_inputs_agree(self):
        elements = [0.5 * proj(ket(1, 0)), 0.5 * proj(ket(1, 0)) + proj(ket(0, 1))]
        from_list = validate_measurement(elements)
        from_stack = validate_measurement(np.array(elements))
        np.testing.assert_array_equal(from_list.stacked(), from_stack.stacked())
        assert from_list.labels == from_stack.labels

    @pytest.mark.parametrize(
        "elements",
        [
            [np.ones(2), np.ones(2)],
            [np.ones((2, 3)), np.ones((2, 3))],
            [np.eye(2), np.stack([np.eye(2), np.eye(2)])],
            # a non-PSD first element: shapes are checked before positivity
            [np.diag([1.5, -0.5]), np.eye(3)],
        ],
        ids=["1-D", "non-square", "3-D", "mixed-shape-and-not-psd"],
    )
    def test_bad_shapes_rejected(self, elements):
        with pytest.raises(DimensionMismatchError):
            validate_measurement(elements)

    @pytest.mark.parametrize(
        "elements, error, label",
        [
            ([np.eye(2) / 2, np.diag([1.0, -0.5]), np.diag([-0.5, 1.0])], NotPSDError, "element [1]"),
            ([np.eye(2) / 2, np.eye(2) / 4, np.array([[0.25, 1.0], [0.0, 0.25]])],
             NonHermitianError, "element [2]"),
            ([proj(ket(1, 0)), np.zeros((2, 2)), np.zeros((2, 2)), proj(ket(0, 1))],
             ZeroElementError, "element 1 "),
        ],
        ids=["not-psd", "non-hermitian", "zero"],
    )
    def test_error_names_first_failing_element(self, elements, error, label):
        with pytest.raises(error) as caught:
            validate_measurement(elements)
        assert label in str(caught.value)

    @pytest.mark.parametrize("dim, n, seed", [(1, 5, 3), (2, 3, 8), (3, 4, 19), (5, 2, 40), (4, 7, 2), (6, 1, 5)])
    def test_random_povm_matches_per_element_construction(self, dim, n, seed):
        # one complex_gaussian draw per outcome, one square root per Kraus operator
        for with_kraus in (False, True):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            raw = []
            for _ in range(n):
                b = complex_gaussian(twin, (dim, dim))
                raw.append(b @ b.conj().T)
            w, v = np.linalg.eigh(sum(raw))
            inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
            povm = random_povm(dim, n, rng, with_kraus=with_kraus)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert povm.n_outcomes == n
            assert (povm.kraus is not None) == with_kraus
            for k, a in enumerate(raw):
                e = inv_sqrt @ a @ inv_sqrt
                assert np.array_equal(povm.elements[k], 0.5 * (e + e.conj().T))
                if with_kraus:
                    assert len(povm.kraus[k]) == 1
                    assert np.array_equal(povm.kraus[k][0], matrix_sqrt_psd(e))

    def test_coarsen_matches_per_element_construction(self):
        fine = random_povm(3, 4, seed=11, with_kraus=False)
        p = np.array([[0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 1.0]])
        mixed = np.einsum("ji,iab->jab", p, np.array(fine.elements))
        kept = [j for j in range(len(p)) if np.linalg.norm(mixed[j]) > 1e-10]
        coarse = coarsen(fine, p)
        assert coarse.labels == tuple(kept) == (0, 2)
        for element, j in zip(coarse.elements, kept):
            assert np.array_equal(element, 0.5 * (mixed[j] + mixed[j].conj().T))


class TestOutcomeProbabilities:
    def test_halves_instance(self, halves_measurement):
        w = outcome_probabilities(halves_measurement, DensityMatrix.pure(ket(1, 0)))
        np.testing.assert_allclose(w.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(w.volumes, [0.5, 1.5], atol=1e-12)

    def test_maximally_mixed_gives_volume_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            povm = random_povm(d, int(rng.integers(1, 6)), rng, with_kraus=False)
            w = outcome_probabilities(povm, DensityMatrix.maximally_mixed(d))
            np.testing.assert_allclose(w.probs * d, w.volumes, atol=1e-10)
            assert abs(w.probs.sum() - 1.0) <= 1e-10

    def test_tilted_pure_state(self, z_measurement):
        psi = ket(math.sqrt(3) / 2, 0.5)
        w = outcome_probabilities(z_measurement, DensityMatrix.pure(psi))
        np.testing.assert_allclose(w.probs, [0.75, 0.25], atol=1e-12)

    def test_probability_sums_to_one_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            povm = random_povm(d, int(rng.integers(2, 6)), rng, with_kraus=False)
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            w = outcome_probabilities(povm, rho)
            assert abs(w.probs.sum() - 1.0) <= 1e-10

    def test_dimension_mismatch(self, z_measurement):
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(z_measurement, DensityMatrix.maximally_mixed(3))

    @pytest.mark.parametrize("excess, accepted", [(0.9e-10, True), (1.1e-10, False)])
    def test_normalization_bound_is_1e_minus_10(self, z_measurement, excess, accepted):
        # a state of trace 1 + excess, admitted at a looser atol, gives p summing to 1 + excess
        rho = DensityMatrix(np.diag([0.5 + excess, 0.5]), atol=1e-8)
        if accepted:
            assert outcome_probabilities(z_measurement, rho).probs[0] == 0.5 + excess
        else:
            with pytest.raises(NotNormalizedError):
                outcome_probabilities(z_measurement, rho)


class TestOutcomeProbabilityStack:
    def test_matches_outcome_probabilities(self):
        below = 0
        for povm, states in kernel_cases():
            probs = outcome_probability_stack(povm, states)
            assert probs.shape == (len(states), povm.n_outcomes)
            for row, rho in zip(probs, states):
                want = outcome_probabilities(povm, DensityMatrix(rho, atol=1e-9)).probs
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
                below += int(np.sum(want <= ZERO_PROB_TOL))
        assert below > 0  # the cases include outcomes that cannot occur

    def test_dimension_mismatch(self, z_measurement):
        with pytest.raises(DimensionMismatchError):
            outcome_probability_stack(z_measurement, np.eye(3)[None] / 3)
        with pytest.raises(DimensionMismatchError):
            outcome_probability_stack(z_measurement, np.eye(2) / 2)


class TestMeasurementFromState:
    def test_maximally_mixed_single_outcome(self):
        m = measurement_from_state(DensityMatrix.maximally_mixed(2))
        assert m.n_outcomes == 1
        np.testing.assert_allclose(m.elements[0], np.eye(2), atol=1e-12)

    def test_diagonal_state(self):
        m = measurement_from_state(DensityMatrix(np.diag([0.75, 0.25])))
        assert m.n_outcomes == 2
        np.testing.assert_allclose(m.elements[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_plus_state_eigenbasis(self):
        # oracle: the eigenprojectors of |+><+| are |+><+| and |-><-|
        m = measurement_from_state(DensityMatrix.pure(KET_PLUS))
        assert m.n_outcomes == 2
        np.testing.assert_allclose(m.elements[0], proj(KET_PLUS), atol=1e-12)
        np.testing.assert_allclose(m.elements[1], proj(KET_MINUS), atol=1e-12)

    def test_has_projector_kraus(self):
        m = measurement_from_state(DensityMatrix(np.diag([0.6, 0.4])))
        assert m.kraus is not None
        np.testing.assert_allclose(m.kraus[0][0], m.elements[0], atol=1e-12)


class TestCompose:
    def test_trivial_second_measurement(self, z_measurement):
        identity = validate_measurement([np.eye(2)], [[np.eye(2)]])
        combined = compose_measurements(z_measurement, identity)
        assert combined.n_outcomes == 2
        for element, original in zip(combined.elements, z_measurement.elements):
            np.testing.assert_allclose(element, original, atol=1e-12)

    def test_z_then_x_frozen_values(self, z_measurement, x_measurement):
        # oracle: P_i P^x_j P_i evaluated by hand gives ketbra/2 on each branch
        combined = compose_measurements(z_measurement, x_measurement)
        assert combined.n_outcomes == 4
        assert combined.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        expected = [
            0.5 * proj(ket(1, 0)),
            0.5 * proj(ket(1, 0)),
            0.5 * proj(ket(0, 1)),
            0.5 * proj(ket(0, 1)),
        ]
        for element, target in zip(combined.elements, expected):
            np.testing.assert_allclose(element, target, atol=1e-12)

    def test_marginal_identity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            first = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=True)
            second = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=False)
            combined = compose_measurements(first, second)
            for i in range(first.n_outcomes):
                partial = sum(
                    (e for e, lab in zip(combined.elements, combined.labels) if lab[0] == i),
                    start=np.zeros((d, d), dtype=complex),
                )
                assert frobenius(partial - first.elements[i]) <= 1e-9

    def test_missing_kraus(self, x_measurement):
        povm_only = validate_measurement([e for e in x_measurement.elements])
        with pytest.raises(MissingKrausError):
            compose_measurements(povm_only, x_measurement)

    def test_composed_kraus_consistent(self):
        first = random_povm(3, 2, seed=5, with_kraus=True)
        second = random_povm(3, 2, seed=6, with_kraus=True)
        combined = compose_measurements(first, second)
        assert combined.kraus is not None  # validated on construction

    @pytest.mark.parametrize("excess, accepted", [(0.9e-9, True), (1.1e-9, False)])
    def test_completeness_bound_is_1e_minus_9(self, excess, accepted):
        # a first measurement whose elements sum to I + excess |0><0|, admitted at
        # a looser atol, passes its defect on to the composition
        first = validate_measurement(
            [np.diag([1.0 + excess, 0.0]), np.diag([0.0, 1.0])],
            [[np.diag([math.sqrt(1.0 + excess), 0.0])], [np.diag([0.0, 1.0])]],
            atol=1e-8,
        )
        trivial = validate_measurement([np.eye(2)])
        if accepted:
            assert compose_measurements(first, trivial).n_outcomes == 2
        else:
            with pytest.raises(IncompleteSumError):
                compose_measurements(first, trivial)


class TestPostMeasurementState:
    def test_projective_update(self, z_measurement):
        state, prob = post_measurement_state(
            z_measurement, 0, DensityMatrix.maximally_mixed(2)
        )
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(state.matrix, proj(ket(1, 0)), atol=1e-12)

    def test_raising_kraus(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        keep = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        m = validate_measurement([proj(ket(0, 1)), proj(ket(1, 0))], [[raising], [keep]])
        state, prob = post_measurement_state(m, 0, DensityMatrix.pure(ket(0, 1)))
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.matrix, proj(ket(1, 0)), atol=1e-12)

    def test_zero_probability_outcome(self, z_measurement):
        with pytest.raises(ZeroProbabilityOutcomeError):
            post_measurement_state(z_measurement, 0, DensityMatrix.pure(ket(0, 1)))

    @pytest.mark.parametrize("prob, updated", [(0.9e-12, False), (1.1e-12, True)])
    def test_zero_probability_bound_is_1e_minus_12(self, z_measurement, prob, updated):
        rho = DensityMatrix(np.diag([1.0 - prob, prob]))
        if updated:
            state, got = post_measurement_state(z_measurement, 1, rho)
            assert got == prob
            np.testing.assert_allclose(state.matrix, proj(ket(0, 1)), atol=1e-12)
        else:
            with pytest.raises(ZeroProbabilityOutcomeError):
                post_measurement_state(z_measurement, 1, rho)

    @pytest.mark.parametrize("outcome", [-1, 2, 1.0, "0", None, True])
    def test_outcome_out_of_range(self, z_measurement, outcome):
        with pytest.raises(InvalidRangeError):
            post_measurement_state(z_measurement, outcome, DensityMatrix.maximally_mixed(2))

    def test_numpy_integer_outcome(self, z_measurement):
        state, prob = post_measurement_state(z_measurement, np.int64(1), DensityMatrix.maximally_mixed(2))
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(state.matrix, proj(ket(0, 1)), atol=1e-12)


class TestTracePairing:
    def test_orthogonal_supports(self):
        value, flag = trace_pairing(proj(ket(1, 0)), proj(ket(0, 1)))
        assert value == pytest.approx(0.0, abs=1e-14)
        assert flag

    def test_direct_value(self, halves_measurement):
        value, flag = trace_pairing(halves_measurement.elements[1], proj(ket(1, 0)))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert not flag

    def test_identity_with_projector(self):
        rng = np.random.default_rng(13)
        basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        p = basis[:, :3] @ basis[:, :3].conj().T
        value, flag = trace_pairing(np.eye(4), p)
        assert value == pytest.approx(3.0, abs=1e-10)
        assert not flag

    def test_zero_flag_implies_zero_products(self):
        # lemma direction: vanishing pairing trace forces vanishing products
        rng = np.random.default_rng(41)
        checked_true = 0
        for _ in range(500):
            d = int(rng.integers(2, 6))
            blocks = random_projective(d, 2, rng)
            p = blocks.elements[0]
            comp = blocks.elements[1]
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            positive = comp @ (b @ b.conj().T) @ comp  # PSD supported away from p
            value, flag = trace_pairing(positive, p)
            if flag:
                checked_true += 1
                assert frobenius(positive @ p) <= 1e-8
                assert frobenius(p @ positive) <= 1e-8
        assert checked_true >= 400  # construction makes the zero branch typical

    def test_positive_trace_for_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            d = int(rng.integers(2, 6))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            positive = b @ b.conj().T
            blocks = random_projective(d, min(2, d), rng)
            value, flag = trace_pairing(positive, blocks.elements[0])
            assert value >= -1e-10
            if not flag:
                assert value > 0
