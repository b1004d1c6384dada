"""Operator algebra: validation, eigendecomposition, projectors, subspaces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from povmcoarse import DensityMatrix, Projector, Subspace, eigendecompose, phase_fixed_eigh
from povmcoarse.errors import (
    DimensionMismatchError,
    InvalidRankError,
    NonHermitianError,
    NotPSDError,
    NotProjectiveError,
    ValidationError,
)
from povmcoarse.operators import dagger, frobenius, matrix_sqrt_psd, require_density
from povmcoarse.randomgen import (
    random_density_matrix,
    random_density_stack,
    random_state_in_subspace,
    random_subspace,
    random_subspace_state_stack,
    random_unitary,
    trial_rng,
)

from conftest import ket, proj


class TestValidation:
    def test_density_matrix_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert rho.dim == 2

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_pure_state_normalizes(self):
        rho = DensityMatrix.pure([2, 0])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4)

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(NotProjectiveError):
            Projector(np.diag([0.5, 0.5]))

    def test_projector_rank(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_subspace_requires_orthonormal_basis(self):
        with pytest.raises(ValidationError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_subspace_span_orthonormalizes(self):
        sub = Subspace.span([ket(1, 1), ket(1, 0)])
        assert sub.rank == 2
        gram = dagger(sub.basis) @ sub.basis
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_subspace_span_rejects_dependent_vectors(self):
        with pytest.raises(ValidationError):
            Subspace.span([ket(1, 1), ket(2, 2)])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 3)))

    def test_subspace_copies_its_basis(self):
        u = np.eye(3, dtype=complex)
        sub = Subspace(u[:, :2])
        u[0, 0] = 7.0  # writing through another view must not reach the validated basis
        assert np.array_equal(sub.basis, np.eye(3)[:, :2])
        assert np.array_equal(sub.projector.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_subspace_leaves_a_complex_input_writable(self):
        basis = np.eye(2, dtype=complex)[:, :1]
        Subspace(basis)
        assert basis.flags.writeable


class TestEigendecompose:
    def test_identity_fully_degenerate(self):
        pairs = eigendecompose(np.eye(3, dtype=complex))
        assert len(pairs) == 1
        value, projector = pairs[0]
        assert value == pytest.approx(1.0, abs=1e-12)
        assert projector.rank == 3

    def test_diagonal_two_level(self):
        pairs = eigendecompose(np.diag([0.75, 0.25]).astype(complex))
        assert [v for v, _ in pairs] == pytest.approx([0.75, 0.25], abs=1e-12)
        np.testing.assert_allclose(pairs[0][1].matrix, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pairs[1][1].matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_pure_state_spectrum(self):
        # |psi> = (sqrt(3)/2)|0> + (1/2)|1>; the rank-1 projector has spectrum {1, 0}
        psi = ket(math.sqrt(3) / 2, 0.5)
        pairs = eigendecompose(proj(psi))
        assert [v for v, _ in pairs] == pytest.approx([1.0, 0.0], abs=1e-12)
        np.testing.assert_allclose(pairs[0][1].matrix, proj(psi), atol=1e-12)

    def test_reconstruction_and_orthogonality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a + dagger(a)
            pairs = eigendecompose(a)
            rebuilt = sum(value * p.matrix for value, p in pairs)
            assert frobenius(rebuilt - a) <= 1e-9
            total = sum(p.matrix for _, p in pairs)
            assert frobenius(total - np.eye(d)) <= 1e-9
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    assert frobenius(pairs[i][1].matrix @ pairs[j][1].matrix) <= 1e-9

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        values = [v for v, _ in eigendecompose(a)]
        assert values == sorted(values, reverse=True)

    def test_degenerate_grouping_is_scale_invariant(self):
        base = np.diag([1.0, 1.0 + 1e-12, 0.5])
        for scale in (1.0, 1e-6, 1e6):
            pairs = eigendecompose(scale * base)
            assert len(pairs) == 2
            assert pairs[0][1].rank == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic_for_fixed_input(self):
        rho = random_density_matrix(4, 3, seed=99)
        first = phase_fixed_eigh(rho.matrix)
        second = phase_fixed_eigh(rho.matrix)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_phase_fix_makes_first_component_real_positive(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + dagger(a)
        _, vectors = phase_fixed_eigh(a)
        for k in range(4):
            col = vectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0


class TestHelpers:
    def test_matrix_sqrt_psd(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = b @ dagger(b)
        root = matrix_sqrt_psd(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-10)

    def test_random_unitary_is_unitary(self):
        u = random_unitary(5, seed=8)
        np.testing.assert_allclose(dagger(u) @ u, np.eye(5), atol=1e-12)

    def test_random_density_matrix_rank(self):
        rho = random_density_matrix(4, 2, seed=3)
        values = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(values > 1e-12) == 2
        with pytest.raises(InvalidRankError):
            random_density_matrix(3, 4, seed=0)

    def test_subspace_embed_roundtrip(self):
        sub = Subspace.span([ket(1, 0, 0), ket(0, 0, 1)])
        small = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        big = sub.embed(small)
        assert big.shape == (3, 3)
        assert np.trace(big).real == pytest.approx(1.0, abs=1e-12)


class TestStackValidation:
    """``require_density`` checks a (k, d, d) stack as DensityMatrix checks one state."""

    BAD_SLICES = [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), NonHermitianError),
        (np.diag([1.5, -0.5]), NotPSDError),
        (np.diag([0.6, 0.6]), ValidationError),
    ]

    def test_slices_equal_density_matrices(self):
        rng = np.random.default_rng(3)
        raw = [random_density_matrix(3, 2, rng).matrix + 1e-12j * np.eye(3) for _ in range(4)]
        stack = require_density(np.stack(raw), atol=1e-9)
        assert stack.shape == (4, 3, 3)
        for got, one in zip(stack, raw):
            assert np.array_equal(got, DensityMatrix(one, atol=1e-9).matrix)

    @pytest.mark.parametrize("bad, error", BAD_SLICES)
    def test_bad_slice_after_the_first_raises_the_density_matrix_error(self, bad, error):
        with pytest.raises(error) as single:
            DensityMatrix(bad)
        stack = np.stack([np.diag([0.5, 0.5]), np.diag([0.75, 0.25]), bad, np.diag([1.0, 0.0])])
        with pytest.raises(error) as stacked:
            require_density(stack)
        assert type(stacked.value) is type(single.value)
        assert "[2]" in str(stacked.value)

    def test_density_matrix_rejects_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.stack([np.diag([0.5, 0.5])] * 2))

    def test_embed_stack_matches_embed(self):
        sub = random_subspace(4, 2, seed=5)
        small = np.stack([random_density_matrix(2, None, s).matrix for s in range(3)])
        big = sub.embed(small)
        for got, one in zip(big, small):
            assert np.array_equal(got, sub.embed(one))


class TestStackDraws:
    """Stack draws equal the scalar draws bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_replayed_full_rank_draws(self, dim):
        stack = random_density_stack(dim, ((None, trial_rng(9, s)) for s in range(20)))
        assert stack.shape == (20, dim, dim)
        for s in range(20):
            assert np.array_equal(stack[s], random_density_matrix(dim, None, trial_rng(9, s)).matrix)

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_rank_then_state_from_one_generator(self, dim):
        rng, twin = trial_rng(4, 1), trial_rng(4, 1)
        stack = random_density_stack(dim, ((int(rng.integers(1, dim + 1)), rng) for _ in range(8)))
        for got in stack:
            want = random_density_matrix(dim, int(twin.integers(1, dim + 1)), twin)
            assert np.array_equal(got, want.matrix)
        assert rng.random() == twin.random()  # both generators end in the same place

    @pytest.mark.parametrize("dim, rank", [(2, 1), (4, 2), (6, 5)])
    def test_subspace_draws(self, dim, rank):
        sub = random_subspace(dim, rank, seed=dim)
        stack = random_subspace_state_stack(sub, ((None, trial_rng(2, s)) for s in range(10)))
        for s in range(10):
            assert np.array_equal(stack[s], random_state_in_subspace(sub, trial_rng(2, s)).matrix)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            random_density_stack(3, [(None, 0), (4, 1)])
