"""Weighted distributions, joints, stochastic matrices, push-forward."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcoarse import JointDistribution, StochasticMatrix, WeightedDistribution, push_forward
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


class TestJointDistribution:
    def test_marginals(self):
        j = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
        np.testing.assert_allclose(j.row_marginal(), [0.5, 0.5])
        np.testing.assert_allclose(j.col_marginal(), [0.75, 0.25])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            JointDistribution([[1.1, -0.1], [0.0, 0.0]])


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
