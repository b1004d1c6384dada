"""Operator algebra: validation, eigendecomposition, projectors, subspaces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from povmcoarse import DensityMatrix, Projector, Subspace, eigendecompose, validate_measurement
from povmcoarse.errors import (
    DimensionMismatchError,
    InvalidRangeError,
    InvalidRankError,
    NonHermitianError,
    NotPSDError,
    NotProjectiveError,
    ValidationError,
)
from povmcoarse.operators import (
    dagger,
    frobenius,
    matrix_sqrt_psd,
    require_density,
    require_hermitian,
)
from povmcoarse.randomgen import (
    random_density_matrix,
    random_density_stack,
    random_povm,
    random_simplex,
    random_state_in_subspace,
    random_subspace,
    random_subspace_state_stack,
    random_unitary,
    random_weighted_distribution,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", ["measurement", "state", "hermitian"])
    def test_non_finite_entries_are_a_validation_error(self, build, bad):
        """Refused before any eigendecomposition, so no numpy ``LinAlgError`` escapes."""
        m = np.diag([bad, 0.0])
        make = {
            "measurement": lambda: validate_measurement([m, np.eye(2) - m]),
            "state": lambda: DensityMatrix(m),
            "hermitian": lambda: require_hermitian(m),
        }[build]
        with pytest.raises(ValidationError, match="has non-finite entries"):
            make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_subspace_rejects_non_finite_entries(self, bad):
        # a nan defect compares false against the orthonormality bound
        with pytest.raises(ValidationError, match="subspace basis has non-finite entries"):
            Subspace(np.array([[bad], [0.0]]))

    @pytest.mark.parametrize("defect, accepted", [(0.9e-9, True), (1.1e-9, False)])
    def test_subspace_orthonormality_bound_is_1e_minus_9(self, defect, accepted):
        # ||G - I||_F = defect for the one column sqrt(1 + defect) |0>
        basis = np.array([[math.sqrt(1.0 + defect)], [0.0]])
        if accepted:
            assert Subspace(basis).projector.rank == 1
        else:
            with pytest.raises(ValidationError, match="not orthonormal"):
                Subspace(basis)

    def test_subspace_span_orthonormalizes(self):
        sub = Subspace.span([ket(1, 1), ket(1, 0)])
        assert sub.rank == 2
        gram = dagger(sub.basis) @ sub.basis
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "vectors", [[ket(1, 1), ket(2, 2)], [ket(1, 0), ket(0, 1), ket(1, 1)]], ids=["parallel", "three-in-2d"]
    )
    def test_subspace_span_rejects_dependent_vectors(self, vectors):
        with pytest.raises(ValidationError, match="linearly dependent"):
            Subspace.span(vectors)

    def test_subspace_span_of_one_tiny_vector(self):
        # the dependence test is relative to the longest R_kk, so scale alone does not fail it
        sub = Subspace.span([[1e-11, 0.0]])
        assert sub.rank == 1
        np.testing.assert_allclose(sub.basis[:, 0], [1.0, 0.0])

    def test_subspace_span_rejects_a_relative_gap_below_rank_tol(self):
        # |R_11| / |R_00| = 1e-5 / 1e6 = 1e-11 is below RANK_TOL = 1e-10
        with pytest.raises(ValidationError, match="linearly dependent"):
            Subspace.span([[1e6, 0.0, 0.0], [1e6, 1e-5, 0.0]])

    def test_subspace_span_without_vectors_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="at least one vector"):
            Subspace.span([])

    def test_subspace_span_of_unequal_lengths_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Subspace.span([ket(1, 0), ket(0, 1, 0)])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 3)))

    def test_subspace_copies_its_basis(self):
        u = np.eye(3, dtype=complex)
        sub = Subspace(u[:, :2])
        u[0, 0] = 7.0  # writing through another view must not reach the validated basis
        assert np.array_equal(sub.basis, np.eye(3)[:, :2])
        assert np.array_equal(sub.projector.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_subspace_builds_its_projector_on_first_access(self, monkeypatch):
        import povmcoarse.operators as operators_module

        built = []

        class Recording(Projector):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(operators_module, "Projector", Recording)
        u = np.linalg.qr(np.arange(1.0, 13.0).reshape(4, 3) + 1j * np.eye(4, 3))[0]
        sub = Subspace(u[:, :2])
        sub.compress(np.eye(4))
        sub.embed(np.eye(2))
        assert built == []
        first = sub.projector
        assert len(built) == 1 and sub.projector is first
        assert first.rank == 2 and not first.matrix.flags.writeable
        np.testing.assert_array_equal(first.matrix, u[:, :2] @ dagger(u[:, :2]))

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
        first = eigendecompose(rho.matrix)
        second = eigendecompose(rho.matrix)
        assert [v for v, _ in first] == [v for v, _ in second]
        for (_, p), (_, q) in zip(first, second):
            np.testing.assert_array_equal(p.matrix, q.matrix)


class TestHelpers:
    def test_matrix_sqrt_psd(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = b @ dagger(b)
        root = matrix_sqrt_psd(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1,), (6,), (2, 3)])
    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_matrix_sqrt_psd_stack_is_the_one_matrix_root_per_slice(self, shape, dim):
        rng = np.random.default_rng(dim)
        b = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
        b[..., -1] = 0.0  # rank dim - 1, so a rounding-level eigenvalue is clipped
        stack = b @ b.conj().swapaxes(-1, -2)
        roots = matrix_sqrt_psd(stack)
        assert roots.shape == stack.shape
        for index in np.ndindex(*shape):
            assert np.array_equal(roots[index], matrix_sqrt_psd(stack[index]))

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
    """One ``(k, d, d)`` Gaussian draw per stack; everything comes from the given generator."""

    @staticmethod
    def assert_states(stack, ranks):
        dim = stack.shape[-1]
        assert stack.shape == (len(ranks), dim, dim)
        np.testing.assert_allclose(np.trace(stack, axis1=1, axis2=2), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(stack).min() >= -1e-12
        assert [int(np.linalg.matrix_rank(rho)) for rho in stack] == list(ranks)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_replayed_full_rank_draws(self, dim):
        rng, twin = trial_rng(9, 0), trial_rng(9, 0)
        stack = random_density_stack(dim, [dim] * 20, rng)
        self.assert_states(stack, [dim] * 20)
        assert np.array_equal(stack, random_density_stack(dim, [dim] * 20, twin))
        assert rng.random() == twin.random()  # both generators end in the same place

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_rank_then_state_from_one_generator(self, dim):
        rng, twin = trial_rng(4, 1), trial_rng(4, 1)
        ranks = rng.integers(1, dim + 1, size=8)
        stack = random_density_stack(dim, ranks, rng)
        self.assert_states(stack, ranks)
        assert np.array_equal(stack, random_density_stack(dim, twin.integers(1, dim + 1, size=8), twin))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("dim, rank", [(1, 1), (3, 1), (4, 2), (4, None)])
    def test_one_state_is_row_zero_of_the_stack(self, dim, rank):
        want = random_density_stack(dim, [dim if rank is None else rank], trial_rng(3, dim))[0]
        assert np.array_equal(random_density_matrix(dim, rank, trial_rng(3, dim)).matrix, want)

    @pytest.mark.parametrize("dim, rank", [(2, 1), (4, 2), (6, 5)])
    def test_subspace_draws(self, dim, rank):
        sub = random_subspace(dim, rank, seed=dim)
        ranks = [rank] * 9 + [1]
        stack = random_subspace_state_stack(sub, ranks, trial_rng(2, 0))
        self.assert_states(stack, ranks)
        p = sub.projector.matrix
        np.testing.assert_allclose(p @ stack @ p, stack, atol=1e-12)
        one = random_state_in_subspace(sub, trial_rng(2, 0)).matrix
        assert np.array_equal(one, random_subspace_state_stack(sub, [rank], trial_rng(2, 0))[0])

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            random_density_stack(3, [3, 4])

    @pytest.mark.parametrize("ranks", [
        [2.5], [2.0], [0], [4], [-1], [[1, 2], [2, 3]], np.ones((2, 2), dtype=int), [], 3, [True], ["2"],
    ])
    def test_ranks_outside_one_to_dim_are_refused(self, ranks):
        with pytest.raises(InvalidRankError):
            random_density_stack(3, ranks)

    @pytest.mark.parametrize("rank", [2.5, 0, 4])
    def test_one_state_rank_is_checked(self, rank):
        with pytest.raises(InvalidRankError):
            random_density_matrix(3, rank)
        with pytest.raises(InvalidRankError):
            random_state_in_subspace(random_subspace(4, 3, seed=1), rank=rank)


class TestDrawSizes:
    """A draw of size below 1 is a typed error, not an empty draw or a bare IndexError."""

    @pytest.mark.parametrize("draw", [
        lambda: random_povm(0, 2),
        lambda: random_povm(-1, 2, with_kraus=False),
        lambda: random_simplex(0),
        lambda: random_simplex(-3),
        lambda: random_weighted_distribution(0),
    ])
    def test_size_below_one_raises(self, draw):
        with pytest.raises(InvalidRangeError):
            draw()

    def test_outcome_count_below_one_raises(self):
        with pytest.raises(ValidationError, match="at least one outcome"):
            random_povm(2, 0)

    def test_size_one_draws(self):
        assert random_simplex(1, seed=3).tolist() == [1.0]
        assert random_povm(1, 2, seed=3).n_outcomes == 2
    """``Subspace.compress`` is the r x r block ``B† X B``, the partner of ``embed``."""

    @pytest.mark.parametrize("dim, rank", [(2, 1), (3, 2), (5, 3), (4, 4)])
    def test_compress_inverts_embed(self, dim, rank):
        rng = np.random.default_rng(dim * 10 + rank)
        sub = random_subspace(dim, rank, rng)
        small = rng.standard_normal((6, rank, rank)) + 1j * rng.standard_normal((6, rank, rank))
        assert np.max(np.abs(sub.compress(sub.embed(small)) - small)) <= 1e-14
        np.testing.assert_allclose(sub.compress(sub.embed(small[0])), small[0], atol=1e-14)

    @pytest.mark.parametrize("dim, rank", [(2, 1), (4, 2), (6, 5)])
    def test_compress_keeps_the_sandwich_norm(self, dim, rank):
        rng = np.random.default_rng(dim + rank)
        sub = random_subspace(dim, rank, rng)
        big = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        pg = sub.projector.matrix
        np.testing.assert_allclose(
            np.linalg.norm(sub.compress(big), axis=(1, 2)),
            np.linalg.norm(pg @ big @ pg, axis=(1, 2)),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 2), (4, 3, 2), (2, 4, 4)])
    def test_wrong_shape_raises(self, shape):
        with pytest.raises(DimensionMismatchError):
            random_subspace(3, 2, seed=1).compress(np.zeros(shape))
