"""Weighted distributions, joints, stochastic matrices, push-forward."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcoarse import (
    JointDistribution,
    StochasticMatrix,
    WeightedDistribution,
    push_forward,
    weighted_rows,
)
from povmcoarse.distributions import _probabilities, _sums
from povmcoarse.errors import (
    LengthMismatchError,
    NotNormalizedError,
    NotStochasticError,
    ShapeMismatchError,
    ValidationError,
)


class TestWeightedDistribution:
    def test_valid(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        assert w.n == 2
        assert w.total_volume == pytest.approx(2.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            WeightedDistribution([0.7, 0.2], [1.0, 1.0])

    def test_rejects_zero_volume(self):
        with pytest.raises(ValidationError):
            WeightedDistribution([0.5, 0.5], [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            WeightedDistribution([1.0], [1.0, 1.0])

    def test_uniform_reference(self):
        w = WeightedDistribution([1.0, 0.0], [1.8, 0.2])
        np.testing.assert_allclose(w.uniform_reference(), [0.9, 0.1])

    def test_copies_float_volumes(self):
        v = np.array([1.0, 1.0])
        w = WeightedDistribution([0.5, 0.5], v)
        v[0] = -1.0
        assert np.array_equal(w.volumes, [1.0, 1.0])
        assert v.flags.writeable


class TestWeightedRows:
    """A stack of rows is checked by exactly the rules of one WeightedDistribution."""

    GOOD_P = [[0.75, 0.25], [1.0, 0.0], [-1e-13, 1.0]]
    GOOD_V = [[1.0, 1.0], [1.8, 0.2], [0.5, 2.0]]

    def test_rows_equal_single_distributions(self):
        probs, volumes = weighted_rows(self.GOOD_P, self.GOOD_V)
        for c in range(3):
            w = WeightedDistribution(self.GOOD_P[c], self.GOOD_V[c])
            assert np.array_equal(probs[c], w.probs)
            assert np.array_equal(volumes[c], w.volumes)
        assert probs[2, 0] == 0.0  # rounding noise below zero is clipped

    @pytest.mark.parametrize(
        "row_p, row_v, error",
        [
            ([0.7, 0.2], [1.0, 1.0], NotNormalizedError),
            ([0.5, 0.5], [1.0, 0.0], ValidationError),
            ([0.5, 0.5], [1.0, -1.0], ValidationError),
            ([0.5, 0.5], [1.0, np.inf], ValidationError),
            ([np.nan, 1.0], [1.0, 1.0], ValidationError),
            ([np.inf, 0.0], [1.0, 1.0], ValidationError),
            ([1.1, -0.1], [1.0, 1.0], ValidationError),
            ([0.6, 0.5], [1.0, 1.0], NotNormalizedError),
        ],
    )
    def test_one_bad_row_fails_like_its_distribution(self, row_p, row_v, error):
        with pytest.raises(error) as single:
            WeightedDistribution(row_p, row_v)
        with pytest.raises(error) as stacked:
            weighted_rows(self.GOOD_P + [row_p], self.GOOD_V + [row_v])
        assert single.type is stacked.type is error

    def test_shape_mismatch_and_empty(self):
        with pytest.raises(LengthMismatchError):
            weighted_rows(self.GOOD_P, self.GOOD_V[:2])
        for empty in (np.zeros((0, 2)), []):
            with pytest.raises(ValidationError) as excinfo:
                weighted_rows(empty, empty)
            assert excinfo.type is ValidationError
        with pytest.raises(ValidationError) as excinfo:
            WeightedDistribution([], [])
        assert excinfo.type is ValidationError


class TestJointDistribution:
    def test_marginals(self):
        j = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
        np.testing.assert_allclose(j.row_marginal(), [0.5, 0.5])
        np.testing.assert_allclose(j.col_marginal(), [0.75, 0.25])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            JointDistribution([[1.1, -0.1], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ([[np.nan, 1.0], [0.0, 0.0]], ValidationError),
            ([[np.inf, 0.0], [0.0, 0.0]], ValidationError),
            ([[1.1, -0.1], [0.0, 0.0]], ValidationError),
            ([[0.5, 0.2], [0.1, 0.1]], NotNormalizedError),
            ([[0.5, 0.2], [0.2, 0.2]], NotNormalizedError),
            (np.zeros((0, 2)), ShapeMismatchError),
            (np.zeros((2, 0)), ShapeMismatchError),
        ],
        ids=["nan", "inf", "negative", "sum-0.9", "sum-1.1", "no-rows", "no-columns"],
    )
    def test_rejects_non_probabilities_with_the_documented_type(self, matrix, error):
        with pytest.raises(error) as excinfo:
            JointDistribution(matrix)
        assert excinfo.type is error

    def test_clips_rounding_noise_and_owns_its_array(self):
        arr = np.array([[0.5, -1e-13], [0.25, 0.25]])
        j = JointDistribution(arr)
        assert j.matrix[0, 1] == 0.0 and arr[0, 1] == -1e-13
        assert arr.flags.writeable and not np.shares_memory(arr, j.matrix)
        arr[0, 0] = 9.0
        assert j.matrix[0, 0] == 0.5


class TestStochasticMatrix:
    def test_valid(self):
        m = StochasticMatrix([[0.25, 1.0], [0.75, 0.0]])
        assert m.rows == 2 and m.cols == 2

    def test_rejects_bad_column_sum(self):
        with pytest.raises(NotStochasticError):
            StochasticMatrix([[0.5, 0.5], [0.4, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(NotStochasticError):
            StochasticMatrix([[1.5], [-0.5]])

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ([[np.nan, 1.0], [0.0, 0.0]], NotStochasticError),
            ([[np.inf, 1.0], [0.0, 0.0]], NotStochasticError),
            ([[1.1, 1.0], [-0.1, 0.0]], NotStochasticError),
            ([[0.4, 1.0], [0.5, 0.0]], NotStochasticError),
            ([[0.6, 1.0], [0.5, 0.0]], NotStochasticError),
            (np.zeros((0, 2)), ShapeMismatchError),
            (np.zeros((2, 0)), ShapeMismatchError),
        ],
        ids=["nan", "inf", "negative", "sum-0.9", "sum-1.1", "no-rows", "no-columns"],
    )
    def test_rejects_non_probabilities_with_the_documented_type(self, matrix, error):
        with pytest.raises(error) as excinfo:
            StochasticMatrix(matrix)
        assert excinfo.type is error

    def test_clips_rounding_noise_and_owns_its_array(self):
        arr = np.array([[1.0, 0.5], [-1e-13, 0.5]])
        m = StochasticMatrix(arr)
        assert m.matrix[1, 0] == 0.0 and arr[1, 0] == -1e-13
        assert arr.flags.writeable and not np.shares_memory(arr, m.matrix)
        arr[0, 1] = 9.0
        assert m.matrix[0, 1] == 0.5

    def test_clip_keeps_the_bytes_of_the_two_sided_clip(self):
        """The stored copy is ``np.maximum(arr, 0.0)``, byte for byte what ``np.clip(arr, 0.0, None)`` gives."""
        values = np.array([-0.0, 0.0, -1e-13, 1e-300, -5e-324, 3.0])
        assert np.maximum(values, 0.0).tobytes() == np.clip(values, 0.0, None).tobytes()
        column = values[:, None] / 3.0  # one column summing to one
        m = StochasticMatrix(column)
        assert m.matrix.tobytes() == np.clip(column, 0.0, None).tobytes()


class TestProbabilityRule:
    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([], ValidationError, "p must be non-empty"),
            ([np.nan, -1.0, 0.5], ValidationError, "p has non-finite entries"),
            ([-1.0, np.inf], ValidationError, "p has non-finite entries"),
            ([2.0, -np.inf], ValidationError, "p has non-finite entries"),
            ([-0.5, 0.2], ValidationError, "p has negative entries (min -5.000e-01)"),
            ([[0.5, 0.5], [0.5, 0.2]], NotNormalizedError, "p has a sum of 0.7, expected 1 within 1.0e-08"),
            # the named sums are numpy's: in order below 8 entries, pairwise from 8 on
            # (0.1 added nine times in order gives 0.8999999999999999)
            ([[0.1, 0.2, 0.3]], NotNormalizedError, "p has a sum of 0.6000000000000001, expected 1 within 1.0e-08"),
            ([[0.1] * 9, [0.1] * 8 + [0.2]], NotNormalizedError, "p has a sum of 0.9, expected 1 within 1.0e-08"),
        ],
        ids=["empty", "nan-before-negative", "inf-before-negative", "minus-inf", "negative-before-sum", "sum",
             "sum-of-3", "pairwise-sum-of-9"],
    )
    def test_first_failing_check_names_the_error(self, values, error, message):
        """Empty, then non-finite, then negative, then the sums: the first check that fails raises."""
        with pytest.raises(error) as excinfo:
            _probabilities(np.array(values, dtype=float), "p", 1e-8)
        assert excinfo.type is error and str(excinfo.value) == message


class TestSums:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, 0.1, 1e16, -1e16]

    @pytest.mark.parametrize("width", range(1, 13))
    def test_row_sums_are_numpy_sums_bit_for_bit(self, width):
        """Signed zeros, subnormals, infinities and nan included, in C order, Fortran order and strided."""
        rng = np.random.default_rng(width)
        arr = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-20, 20, (300, width))
        special = rng.random(arr.shape) < 0.3
        arr[special] = rng.choice(self.SPECIAL, np.count_nonzero(special))
        arr[:len(self.SPECIAL)] = np.array(self.SPECIAL)[:, None]  # rows of one value: all -0.0, all subnormal, ...
        with np.errstate(invalid="ignore", over="ignore"):
            for view in arr, np.asfortranarray(arr), arr[::3], arr[:, ::-1]:
                assert _sums(view).tobytes() == view.sum(axis=-1).tobytes()

    def test_other_shapes_and_axes_are_numpy_sums(self):
        arr = np.random.default_rng(0).standard_normal((3, 4, 5))
        for values, axis in [(arr[0, 0], -1), (arr, -1), (arr, (-2, -1)), (arr[0], 0), (arr[0], None)]:
            assert np.asarray(_sums(values, axis)).tobytes() == np.asarray(values.sum(axis=axis)).tobytes()
        assert _sums(np.zeros((4, 0))).tobytes() == np.zeros(4).tobytes()


class TestPushForward:
    def test_identity(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        out = push_forward(np.eye(2), w)
        np.testing.assert_allclose(out.probs, w.probs)
        np.testing.assert_allclose(out.volumes, w.volumes)

    def test_full_merge(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        out = push_forward(np.array([[1.0, 1.0]]), w)
        np.testing.assert_allclose(out.probs, [1.0])
        np.testing.assert_allclose(out.volumes, [2.0])

    def test_permutation(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        out = push_forward(np.array([[0.0, 1.0], [1.0, 0.0]]), w)
        np.testing.assert_allclose(out.probs, [0.25, 0.75])
        np.testing.assert_allclose(out.volumes, [1.0, 1.0])

    def test_shape_mismatch(self):
        w = WeightedDistribution([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ShapeMismatchError):
            push_forward(np.eye(3), w)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_conserves_totals(self, raw_p, raw_v, seed):
        n = min(len(raw_p), len(raw_v))
        p = np.asarray(raw_p[:n]) / sum(raw_p[:n])
        v = np.asarray(raw_v[:n])
        w = WeightedDistribution(p, v)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        cols = rng.exponential(size=(m, n)) + 1e-9
        mat = cols / cols.sum(axis=0, keepdims=True)
        out = push_forward(mat, w)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert out.total_volume == pytest.approx(w.total_volume, abs=1e-10)
