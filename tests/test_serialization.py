"""JSON round trips for every file schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from povmcoarse import (
    DensityMatrix,
    JointDistribution,
    Subspace,
    WeightedDistribution,
    check_coarser,
    check_coarser_classical,
    check_coarser_in_subspace,
)
from povmcoarse.errors import DimensionMismatchError, ValidationError
from povmcoarse.randomgen import random_density_matrix, random_povm, random_subspace
from povmcoarse.serialization import (
    certificate_to_dict,
    complex_matrix_from_json,
    complex_matrix_to_json,
    distribution_from_dict,
    distribution_to_dict,
    joint_from_dict,
    joint_to_dict,
    measurement_from_dict,
    measurement_to_dict,
    state_from_dict,
    state_to_dict,
    subspace_from_dict,
    subspace_to_dict,
)

from conftest import ket


class TestMatrixRoundTrip:
    def test_exact_round_trip_through_json_text(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        text = json.dumps(complex_matrix_to_json(mat))
        back = complex_matrix_from_json(json.loads(text))
        np.testing.assert_array_equal(back, mat)  # repr round-trips float64 exactly

    def test_stack_is_the_list_of_its_matrices_and_keeps_signed_zeros(self):
        signed = [[complex(-0.0, 1.0), 2.5], [complex(1e-300, -0.0), complex(0.0, -3.0)]]
        stack = np.array([signed, np.eye(2)], dtype=complex)
        expected = [[[[float(z.real), float(z.imag)] for z in row] for row in mat] for mat in stack]
        assert complex_matrix_to_json(stack) == expected
        assert complex_matrix_to_json(stack[0]) == expected[0]
        assert json.dumps(expected).count("-0.0") == 2
        assert json.dumps(complex_matrix_to_json(stack)) == json.dumps(expected)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValidationError):
            complex_matrix_from_json([[1.0, 2.0]])

    # numpy's float conversion reads "1" and true as 1.0 and null as nan, and every
    # decoder of numbers (complex matrices, distributions, joints) must refuse them
    @pytest.mark.parametrize("entry", ["1", True, False, None], ids=["string", "true", "false", "null"])
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    def test_non_number_entries_rejected(self, entry, part):
        rows = complex_matrix_to_json(np.eye(2))
        rows[1][1][part] = entry
        with pytest.raises(ValidationError, match="not a number"):
            complex_matrix_from_json(rows)
        with pytest.raises(ValidationError, match="not a number"):
            subspace_from_dict({"basis": [rows[1]]})
        for field in ("probs", "volumes"):
            payload = {"probs": [0.0, 1.0], "volumes": [1.0, 1.0]}
            payload[field][part] = entry
            with pytest.raises(ValidationError, match="not a number"):
                distribution_from_dict(payload)
        matrix = [[0.0, 0.5], [0.0, 0.5]]
        matrix[1][part] = entry
        with pytest.raises(ValidationError, match="not a number"):
            joint_from_dict({"matrix": matrix})

    def test_integer_entries_accepted(self):
        np.testing.assert_array_equal(complex_matrix_from_json([[[1, 0], [0, -2]]]), [[1, -2j]])
        assert distribution_from_dict({"probs": [0, 1], "volumes": [1, 2]}).total_volume == 3.0
        assert joint_from_dict({"matrix": [[0, 1], [0, 0]]}).matrix[0, 1] == 1.0

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError, match="too large"):
            complex_matrix_from_json([[[10**400, 0]]])
        with pytest.raises(ValidationError, match="too large"):
            distribution_from_dict({"probs": [1], "volumes": [10**400]})


class TestMeasurementFiles:
    def test_round_trip_with_kraus(self):
        povm = random_povm(3, 4, seed=9, with_kraus=True)
        text = json.dumps(measurement_to_dict(povm))
        back = measurement_from_dict(json.loads(text))
        assert back.n_outcomes == povm.n_outcomes
        for a, b in zip(back.elements, povm.elements):
            np.testing.assert_array_equal(a, b)
        for ga, gb in zip(back.kraus, povm.kraus):
            for a, b in zip(ga, gb):
                np.testing.assert_array_equal(a, b)

    def test_dim_mismatch_rejected(self):
        povm = random_povm(2, 2, seed=1, with_kraus=False)
        payload = measurement_to_dict(povm)
        payload["dim"] = 5
        with pytest.raises(ValidationError):
            measurement_from_dict(payload)

    @pytest.mark.parametrize("dim", [True, "1", 1.0], ids=["bool", "string", "float"])
    def test_non_integer_dim_rejected(self, dim):
        # a one-dimensional file, where true == 1 would otherwise match
        elements = [[[[1.0, 0.0]]]]
        with pytest.raises(ValidationError, match="must be an integer"):
            measurement_from_dict({"dim": dim, "elements": elements})
        with pytest.raises(ValidationError, match="must be an integer"):
            state_from_dict({"dim": dim, "rho": elements[0]})
        with pytest.raises(ValidationError, match="must be an integer"):
            subspace_from_dict({"dim": dim, "basis": elements[0]})
        assert measurement_from_dict({"dim": 1, "elements": elements}).dim == 1

    def test_missing_elements_rejected(self):
        with pytest.raises(ValidationError):
            measurement_from_dict({"dim": 2})

    @pytest.mark.parametrize(
        "field, value",
        [("elements", 5), ("kraus", 7), ("kraus", [7, 7])],
        ids=["elements-int", "kraus-int", "kraus-group-int"],
    )
    def test_non_array_fields_rejected(self, field, value):
        payload = measurement_to_dict(random_povm(2, 2, seed=1, with_kraus=True))
        payload[field] = value
        with pytest.raises(ValidationError):
            measurement_from_dict(payload)


class TestStateAndSubspaceFiles:
    def test_state_round_trip(self):
        rho = random_density_matrix(4, 2, seed=12)
        back = state_from_dict(json.loads(json.dumps(state_to_dict(rho))))
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_subspace_round_trip(self):
        sub = random_subspace(4, 2, seed=13)
        back = subspace_from_dict(json.loads(json.dumps(subspace_to_dict(sub))))
        np.testing.assert_allclose(back.projector.matrix, sub.projector.matrix, atol=1e-14)

    def test_non_array_basis_rejected(self):
        with pytest.raises(ValidationError):
            subspace_from_dict({"dim": 2, "basis": 5})

    def test_empty_basis_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            subspace_from_dict({"dim": 2, "basis": []})

    def test_unequal_basis_vectors_are_a_dimension_mismatch(self):
        payload = {"basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(DimensionMismatchError):
            subspace_from_dict(payload)

    def test_state_validation_happens_on_load(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        payload = state_to_dict(rho)
        payload["rho"][0][0] = [0.9, 0.0]  # trace now 1.3
        with pytest.raises(ValidationError):
            state_from_dict(payload)


class TestDistributionAndJointFiles:
    def test_distribution_round_trip(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        back = distribution_from_dict(json.loads(json.dumps(distribution_to_dict(w))))
        np.testing.assert_array_equal(back.probs, w.probs)
        np.testing.assert_array_equal(back.volumes, w.volumes)

    def test_joint_round_trip(self):
        j = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
        back = joint_from_dict(json.loads(json.dumps(joint_to_dict(j))))
        np.testing.assert_array_equal(back.matrix, j.matrix)

    @pytest.mark.parametrize(
        "decode, payload",
        [
            (distribution_from_dict, {"probs": ["0.5", 0.5], "volumes": [True, 1]}),
            (joint_from_dict, {"matrix": [["0.5", 0.5], [0, False]]}),
            (joint_from_dict, {"matrix": [[0.5, 0.5], [0.0]]}),
            (distribution_from_dict, {"probs": [[0.5, 0.5], [0.0]], "volumes": [1, 1]}),
        ],
        ids=["distribution-coercible", "joint-coercible", "joint-ragged", "distribution-ragged"],
    )
    def test_malformed_entries_rejected(self, decode, payload):
        with pytest.raises(ValidationError, match="not a number"):
            decode(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"probs": 1.0, "volumes": 2}, {"probs": [1.0], "volumes": 2}, {"probs": 1.0, "volumes": [2]}],
        ids=["both", "volumes", "probs"],
    )
    def test_distribution_needs_arrays(self, payload):
        with pytest.raises(ValidationError, match="must be an array"):
            distribution_from_dict(payload)


class TestCertificatePayload:
    def test_feasible_certificate_fields(self):
        povm = random_povm(2, 3, seed=21, with_kraus=False)
        cert = check_coarser(povm, povm)
        payload = certificate_to_dict(cert)
        assert payload["feasible"] is True
        assert payload["verdict"] == "feasible"
        assert payload["P"] is not None
        assert payload["residual"] <= 1e-7
        assert payload["volume_slack"] is None
        json.dumps(payload)  # must be valid JSON

    def test_infeasible_certificate_serializes_residual_as_null(self, x_measurement, z_measurement):
        cert = check_coarser(x_measurement, z_measurement)
        payload = certificate_to_dict(cert)
        assert payload["feasible"] is False
        assert payload["P"] is None
        assert payload["residual"] is None  # infinity is not valid JSON
        json.dumps(payload)

    def test_subspace_certificate_carries_outcome_sets(self, x_measurement, z_measurement):
        cert = check_coarser_in_subspace(x_measurement, z_measurement, Subspace.span([ket(1, 0)]))
        payload = certificate_to_dict(cert)
        assert payload["fine_outcomes"] == [0]
        assert payload["coarse_outcomes"] == [0, 1]
        assert payload["volume_slack"] is not None
        assert "extension" in payload
        json.dumps(payload)

    def test_classical_separation_round_trips_through_json_text(self):
        cert = check_coarser_classical(
            WeightedDistribution([0.75, 0.25], [1.0, 1.0]), WeightedDistribution([1.0, 0.0], [1.8, 0.2])
        )
        payload = certificate_to_dict(cert)
        back = json.loads(json.dumps(payload))
        assert back == payload
        assert back["verdict"] == "infeasible"
        assert back["phase1_optimum"] is None  # no LP ran
        assert back["separation"] == {
            "threshold": cert.separation.threshold,
            "slack": cert.separation.slack,
            "volume_gap": cert.separation.volume_gap,
        }

    def test_feasible_classical_certificate_has_no_separation(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        payload = certificate_to_dict(check_coarser_classical(w, w))
        assert payload["verdict"] == "feasible"
        assert "separation" not in payload
