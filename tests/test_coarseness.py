"""Coarse-graining checks: LP layout, verdict rule, global, classical, subspace, projective."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from povmcoarse import (
    FeasibilityResult,
    StochasticMatrix,
    Subspace,
    WeightedDistribution,
    check_coarser,
    check_coarser_classical,
    check_coarser_in_subspace,
    check_coarser_projective,
    coarsen,
    lp_feasible,
    majorization_verdicts,
    mixture_residual,
    observational_entropy,
    outcome_probabilities,
    possible_outcomes,
    preserves_observational_entropy,
    push_forward,
    restrict_transition_matrix,
    validate_measurement,
    weighted_rows,
)
from povmcoarse.coarseness import (
    _BLOCK_CELLS,
    Separation,
    _component_index,
    _component_rows,
    _extension_from,
    _factor,
    _reduced_system,
    _span_basis,
    _witness_verdict,
)
from povmcoarse.errors import (
    BrokenColumnSumError,
    EmptyOutcomeSetError,
    IncompleteSumError,
    InvalidRangeError,
    NotProjectiveError,
    NotStochasticError,
    ShapeMismatchError,
)
from povmcoarse.randomgen import (
    random_density_matrix,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_subspace,
    random_unitary,
    random_weighted_distribution,
    trial_rng,
)
from povmcoarse.serialization import certificate_to_dict

from conftest import (
    KET_PLUS,
    MERGE_DRAWS,
    classical_two_outcome_feasible,
    eliminated_processing_system,
    exhaustive_partition_exists,
    ket,
    overcomplete_merge_pair,
    proj,
    refined_projective_pair,
    seeded_rng,
)


def four_dim_pair():
    """Two rank-structured projective measurements that are not comparable globally."""
    e = [ket(*(1 if k == i else 0 for k in range(4))) for i in range(4)]
    fine = validate_measurement([proj(e[2]) + proj(e[3]), proj(e[0]), proj(e[1])])
    coarse = validate_measurement([proj(e[0]) + proj(e[1]), proj(e[2]), proj(e[3])])
    return coarse, fine


def loop_reduced_system(base, dep, pivots, free, v_fine=None, v_coarse=None):
    """Reference assembly of the reduced processing LP, one entry at a time.

    Variable ``j * f + t`` is ``P_{j,free[t]}`` for ``j < k``, and
    ``P_{j,pivots[s]} = base[j, s] - sum_t dep[s, t] P_{j,free[t]}``. Rows:
    ``P_{j,pivots[s]} >= 0``, then the column sum of every fine outcome,
    then with volumes one row per coarse outcome, the last one's rewritten
    through ``P_{k,i} = 1 - sum_{j<k} P_ji``.
    """
    k, r = base.shape
    f = len(free)
    n = r + f
    rows = k * r + n + (0 if v_fine is None else k + 1)
    a_ub = np.zeros((rows, k * f))
    b_ub = np.zeros(rows)
    for j in range(k):
        for s in range(r):
            b_ub[j * r + s] = base[j, s]
            for t in range(f):
                a_ub[j * r + s, j * f + t] = dep[s, t]
    for s, i in enumerate(pivots):
        b_ub[k * r + i] = 1.0 - sum(base[j, s] for j in range(k))
        for j in range(k):
            for t in range(f):
                a_ub[k * r + i, j * f + t] = -dep[s, t]
    for t, i in enumerate(free):
        b_ub[k * r + i] = 1.0
        for j in range(k):
            a_ub[k * r + i, j * f + t] = 1.0
    if v_fine is None:
        return a_ub, b_ub
    spent = [sum(base[j, s] * v_fine[i] for s, i in enumerate(pivots)) for j in range(k)]
    net = [v_fine[i] - sum(dep[s, t] * v_fine[p] for s, p in enumerate(pivots))
           for t, i in enumerate(free)]
    for j in range(k):
        b_ub[k * r + n + j] = v_coarse[j] - spent[j]
        for t in range(f):
            a_ub[k * r + n + j, j * f + t] = net[t]
    # V'_k >= sum_i (1 - sum_{j<k} P_ji) V_i
    b_ub[k * r + n + k] = v_coarse[k] - sum(v_fine) + sum(spent)
    for j in range(k):
        for t in range(f):
            a_ub[k * r + n + k, j * f + t] = -net[t]
    return a_ub, b_ub


class TestProcessingSystem:
    """The one LP layout shared by the three checks, against a loop assembly."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_component_rows_match_per_matrix_flattening(self, d):
        """The gathered components are bit-identical to a per-matrix loop, for any memory layout."""
        povm = random_povm(d, 5, seed=71, with_kraus=False)
        iu = np.triu_indices(d, k=1)

        def loop(mats):
            return np.stack([np.concatenate([np.diag(e).real, e[iu].real, e[iu].imag]) for e in mats])

        want = loop(povm.elements)
        # a strided view: every other element, transposed (the conjugates)
        strided = povm.stacked()[::2].transpose(0, 2, 1)
        assert not strided.flags.c_contiguous
        for mats, ref in ((povm.elements, want), (povm.stacked(), want), (strided, loop(strided))):
            got = _component_rows(mats)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_cached_component_index_refuses_writes(self):
        index = _component_index(5)
        assert _component_index(5) is index
        with pytest.raises(ValueError):
            index[0] = 1
        # diagonal, upper real and upper imaginary positions of the float view
        np.testing.assert_array_equal(_component_index(2), [0, 6, 2, 3])

    @staticmethod
    def random_layout(rng, k, r, f):
        """Random ``base``, ``dep`` and a shuffled split of ``r + f`` outcomes into pivots and free ones."""
        order = rng.permutation(r + f)
        return rng.standard_normal((k, r)), rng.standard_normal((r, f)), order[:r], np.sort(order[r:])

    # (k, r, f): k = 0 is a one-outcome coarse side, f = 0 an independent
    # fine side (no variables), r = f makes the dependency block square
    @pytest.mark.parametrize(
        "k, r, f", [(1, 2, 1), (2, 2, 2), (0, 2, 3), (1, 4, 0), (2, 4, 3), (3, 9, 2), (3, 4, 5)]
    )
    def test_matches_loop_assembly(self, k, r, f):
        rng = np.random.default_rng(100 * k + 10 * r + f)
        base, dep, pivots, free = self.random_layout(rng, k, r, f)
        got = _reduced_system(base, dep, pivots, free)
        want = loop_reduced_system(base, dep, pivots, free)
        v_fine, v_coarse = rng.uniform(0.1, 2.0, r + f), rng.uniform(0.1, 2.0, k + 1)
        got += _reduced_system(base, dep, pivots, free, v_fine, v_coarse)
        want += loop_reduced_system(base, dep, pivots, free, v_fine, v_coarse)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            # copied entries are equal; sums may round differently
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("volumes", [False, True])
    def test_rows_are_the_constraints_of_the_full_matrix(self, volumes):
        """On a ``P`` built from its free entries, every row reads the violation of its constraint."""
        rng = np.random.default_rng(4140 + volumes)
        k, r, f = 3, 4, 3
        base, dep, pivots, free = self.random_layout(rng, k, r, f)
        v_fine = v_coarse = None
        if volumes:
            v_fine, v_coarse = rng.uniform(0.1, 2.0, r + f), rng.uniform(0.1, 2.0, k + 1)
        a_ub, b_ub = _reduced_system(base, dep, pivots, free, v_fine, v_coarse)
        y = rng.uniform(0.0, 1.0, k * f)
        mat = np.empty((k + 1, r + f))
        mat[:k, free] = y.reshape(k, f)
        mat[:k, pivots] = base - y.reshape(k, f) @ dep.T
        mat[k] = 1.0 - mat[:k].sum(axis=0)
        # -P_{j,S} in pivot order, the column sums minus 1, then the overspent volumes
        want = [-mat[:k, pivots].ravel(), mat[:k].sum(axis=0) - 1.0]
        if volumes:
            want.append(mat @ v_fine - v_coarse)
        np.testing.assert_allclose(a_ub @ y - b_ub, np.concatenate(want), rtol=0.0, atol=1e-12)

    def test_classical_rows(self):
        """Three fine pairs in a plane: two pivots and one free entry per row of ``P``."""
        # (p_i, V_i / sum V) for p = (1/2, 1/4, 1/4), V = (1, 1, 1), and the
        # coarse pairs for p' = (1/2, 1/2), V' = (2, 1)
        fine = np.array([[0.5, 1.0], [0.25, 1.0], [0.25, 1.0]]) / [1.0, 3.0]
        coarse = np.array([[0.5, 2.0], [0.5, 1.0]]) / [1.0, 3.0]
        q, coefs, pivots, free = _span_basis(fine)
        # the first pair is the longest, then the first of two equal residuals
        np.testing.assert_array_equal(pivots, [0, 1])
        np.testing.assert_array_equal(free, [2])
        r_inv = np.linalg.inv(coefs[:, pivots])
        base = (coarse[:-1] @ q) @ r_inv.T
        dep = r_inv @ coefs[:, free]
        # fine pairs 1 and 2 are equal, and coarse pair 0 is twice pair 1:
        # (P_00, P_01) = (0, 2) - (0, 1) P_02
        np.testing.assert_allclose(base, [[0.0, 2.0]], atol=1e-14)
        np.testing.assert_allclose(dep, [[0.0], [1.0]], atol=1e-14)
        a_ub, b_ub = _reduced_system(base, dep, pivots, free)
        # P_00 >= 0, P_01 >= 0, then the column sums of P_00, P_01, P_02
        np.testing.assert_allclose(a_ub, [[0.0], [1.0], [-0.0], [-1.0], [1.0]], atol=1e-14)
        np.testing.assert_allclose(b_ub, [0.0, 2.0, 1.0, -1.0, 1.0], atol=1e-14)
        # with volumes, P_0 moves V_2 - V_1 = 0 per unit of P_02
        v_fine, v_coarse = np.ones(3), np.array([2.0, 1.0])
        a_ub, b_ub = _reduced_system(base, dep, pivots, free, v_fine, v_coarse)
        np.testing.assert_allclose(a_ub[5:], [[0.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(b_ub[5:], [0.0, 0.0], atol=1e-14)


class TestSpanBasis:
    """The factorization that splits the fine outcomes into pivots and free ones."""

    @staticmethod
    def assert_basis(comp_fine, rank):
        q, coefs, pivots, free = _span_basis(comp_fine)
        n = len(comp_fine)
        assert len(pivots) == rank and q.shape == (comp_fine.shape[1], rank)
        assert coefs.shape == (rank, n)
        np.testing.assert_array_equal(np.sort(np.concatenate([pivots, free])), np.arange(n))
        assert np.all(np.diff(free) > 0)
        np.testing.assert_allclose(q.T @ q, np.eye(rank), atol=1e-13)
        # upper triangular in pivot order (to rounding), and exact on every row
        assert np.max(np.abs(np.tril(coefs[:, pivots], -1))) <= 1e-13
        np.testing.assert_allclose(q @ coefs, comp_fine.T, atol=1e-12)
        # every fine row lies in the span of the pivots'
        rest = comp_fine - (comp_fine @ q) @ q.T
        assert np.max(np.abs(rest)) <= 1e-12
        return pivots, free

    def test_independent_rows(self):
        # _factor sends only dependent or n > D sides here, but the loop factors any rows
        self.assert_basis(np.random.default_rng(7).standard_normal((3, 4)), 3)

    @pytest.mark.parametrize("n, rank, big_d", [(5, 2, 4), (6, 3, 9), (20, 16, 16), (12, 5, 16)])
    def test_dependent_rows_give_their_rank(self, n, rank, big_d):
        rng = np.random.default_rng(10 * n + rank)
        comp_fine = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, big_d))
        self.assert_basis(comp_fine, rank)

    def test_greedy_pivot_is_the_longest_residual(self):
        # rows 0 and 1 are parallel, row 2 is nearly so: the long row 1 comes
        # first, then row 2's residual (1e-3), never row 0 (residual 0)
        comp_fine = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [2.0, 1e-3, 0.0], [0.0, 0.0, 0.5]])
        pivots, free = self.assert_basis(comp_fine, 3)
        np.testing.assert_array_equal(pivots, [1, 3, 2])
        np.testing.assert_array_equal(free, [0])

    def test_nearly_parallel_rows_keep_the_basis_orthonormal(self):
        # each row is 1e-7 off the span of the ones before it, so Gram-Schmidt
        # cancels nearly all of it; the reorthogonalized basis still holds
        rng = np.random.default_rng(4170)
        base = rng.standard_normal(6)
        rows = [base + 1e-7 * rng.standard_normal(6) for _ in range(4)]
        comp_fine = np.vstack([base, *rows, rows[0] + rows[1]])
        self.assert_basis(comp_fine, 5)

    @pytest.mark.parametrize(
        "offset, rank", [(2e-10, 2), (0.5e-10, 1)], ids=["above-tolerance", "below-tolerance"]
    )
    def test_rank_tolerance(self, offset, rank):
        """A row off the span of a unit row by more than ``1e-10`` is a pivot; by less, it is free."""
        comp_fine = np.array([[1.0, 0.0], [1.0, offset]])
        assert len(_span_basis(comp_fine)[2]) == rank
        # with one coarse row: two fine rows go to the combined QR first; a
        # third (more rows than components) goes straight to the greedy
        # loop, which must agree
        for rows in (comp_fine, np.vstack([comp_fine, comp_fine[0]])):
            assert len(_factor(np.vstack([rows, [0.5, 0.5]]), len(rows))[3]) == rank


class TestFactor:
    """One factor of both sides: the fine span's basis, the coarse coordinates and distances."""

    @staticmethod
    def assert_factor(comps, n, rank):
        """Check ``_factor`` by what it must give whatever its basis ``q``."""
        coefs, coords, rest, pivots, free = _factor(comps, n)
        fine, coarse = comps[:n], comps[n:]
        assert coefs.shape == (rank, n) and coords.shape == (len(coarse), rank)
        np.testing.assert_array_equal(np.sort(np.concatenate([pivots, free])), np.arange(n))
        assert np.max(np.abs(np.tril(coefs[:, pivots], -1))) <= 1e-13
        # Gram matrices: fine with fine and coarse with fine, over q
        np.testing.assert_allclose(coefs.T @ coefs, fine @ fine.T, atol=1e-12)
        np.testing.assert_allclose(coords @ coefs, coarse @ fine.T, atol=1e-12)
        # each coarse row's distance from the span, against least squares
        sol = np.linalg.lstsq(fine.T, coarse.T, rcond=None)[0]
        distance = np.linalg.norm(coarse.T - fine.T @ sol, axis=0)
        got = np.linalg.norm(rest, axis=1) if rest.size else np.zeros(len(coarse))
        np.testing.assert_allclose(got, distance, atol=1e-12)
        np.testing.assert_allclose(np.sum(coords**2, axis=1) + got**2, np.sum(coarse**2, axis=1))
        return pivots, free

    # n < D with n + m below, at and above D; n == D; n > D (greedy)
    @pytest.mark.parametrize("n, m, big_d", [(1, 2, 4), (3, 2, 9), (3, 6, 9), (3, 4, 4),
                                             (4, 3, 4), (5, 4, 9), (6, 2, 4)])
    def test_independent_rows_are_all_pivots_in_order(self, n, m, big_d):
        comps = np.random.default_rng(n + m + big_d).standard_normal((n + m, big_d))
        pivots, free = self.assert_factor(comps, n, min(n, big_d))
        if n <= big_d:
            np.testing.assert_array_equal(pivots, np.arange(n))
            assert free.size == 0

    @pytest.mark.parametrize("n, rank, m, big_d", [(3, 2, 2, 4), (6, 3, 3, 9), (4, 2, 4, 4)])
    def test_dependent_rows_take_the_greedy_path(self, n, rank, m, big_d):
        rng = np.random.default_rng(10 * n + rank)
        fine = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, big_d))
        self.assert_factor(np.vstack([fine, rng.standard_normal((m, big_d))]), n, rank)

    def test_full_span_has_no_rest(self):
        comps = np.random.default_rng(4180).standard_normal((7, 4))
        assert _factor(comps, 4)[2].size == 0
        assert _factor(comps[[0, 1, 2, 3, 0, 4]], 5)[2].size == 0  # greedy, rank 4 = D


def dependent_fine():
    """A qubit measurement whose first two elements are equal, so its span cannot decide."""
    p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
    return validate_measurement([0.5 * p0, 0.5 * p0, p1])


class TestVerdictRule:
    """All three checks downgrade a solver witness that is not left stochastic.

    Each input has three fine outcomes, two of them with equal components
    (dependent elements for the operator checks, three pairs in a plane for
    the classical one), so one entry per row of ``P`` is free, and the
    solved entries alone overfill a column, so the LP runs. Any free entries
    reproduce the targets within the span, since the other entries are
    solved from them, so a bad witness shows as a column that the clipped
    matrix overfills; the rule's residual test is checked on candidate
    matrices below.
    """

    @staticmethod
    def fake_solver(x):
        def solve(*args, n_vars, **kwargs):
            # the variable is the one free entry of the top row of the 2 x 3 candidate
            assert n_vars == len(x) == 1
            return FeasibilityResult("feasible", np.asarray(x, dtype=float), 0.0, 0.0, 1)

        return solve

    @pytest.mark.parametrize("kind", ["global", "subspace", "classical"])
    @pytest.mark.parametrize(
        "x",
        # the coarse element on the equal outcomes is twice each of them, so
        # their entries in the top row sum to 2 and the only stochastic free
        # entry is 1; any other value overfills a column by |x - 1| once clipped
        [[1.5], [-0.5], [2.5]],
        ids=["overfilled", "negative", "far"],
    )
    def test_bad_witness_is_ambiguous(self, monkeypatch, z_measurement, kind, x):
        import povmcoarse.coarseness as coarseness_module

        monkeypatch.setattr(coarseness_module, "lp_feasible", self.fake_solver(x))
        if kind == "global":
            cert = check_coarser(z_measurement, dependent_fine())
        elif kind == "subspace":
            cert = check_coarser_in_subspace(z_measurement, dependent_fine(), Subspace.full(2))
        else:
            w = WeightedDistribution([0.5, 0.25, 0.25], [1.0, 1.0, 1.0])
            cert = check_coarser_classical(w, WeightedDistribution([0.5, 0.5], [2.0, 1.0]))
        assert cert.verdict == "ambiguous"
        assert cert.witness is None
        assert cert.residual == math.inf
        assert cert.phase1_optimum <= 1e-15

    @pytest.mark.parametrize("kind", ["operators", "pairs"])
    def test_rule_on_candidate_matrices(self, z_measurement, kind):
        """The shared rule, as the span solve and the LP both call it."""
        if kind == "operators":
            fine = coarse = z_measurement.stacked()
        else:
            fine = coarse = np.array([[0.75, 0.5], [0.25, 0.5]])
        exact = _witness_verdict(np.eye(2), fine, coarse, 1e-8, math.nan)
        assert exact.verdict == "feasible" and exact.residual == 0.0
        assert math.isnan(exact.phase1_optimum)
        # a rounding-level negative entry is clipped away
        clipped = _witness_verdict(np.array([[1.0, -1e-12], [0.0, 1.0]]), fine, coarse, 1e-8, 0.0)
        assert clipped.feasible and clipped.witness.matrix.min() == 0.0
        off_target = _witness_verdict(np.full((2, 2), 0.5), fine, coarse, 1e-8, 0.5)
        assert off_target.verdict == "ambiguous" and off_target.witness is None
        assert 1e-7 < off_target.residual < math.inf and off_target.phase1_optimum == 0.5
        not_stochastic = _witness_verdict(np.array([[1.0, 0.5], [0.0, 0.0]]), fine, coarse, 1e-8, 0.0)
        assert not_stochastic.verdict == "ambiguous" and not_stochastic.witness is None
        assert not_stochastic.residual == math.inf

    @pytest.mark.parametrize(
        "residual, tol, verdict",
        [(5e-8, 1e-8, "feasible"), (2e-7, 1e-8, "ambiguous"), (1e-6, 1e-8, "ambiguous"),
         (2e-7, 1e-6, "feasible"), (1e-6, 1e-6, "feasible")],
    )
    def test_residual_bound_on_the_eliminated_outcome(self, z_measurement, residual, tol, verdict):
        """The rule alone bounds the last outcome, which the LP does not see: ``max(tol, 1e-7)``."""
        fine = z_measurement.stacked()
        coarse = fine.copy()
        # X / sqrt(2) has unit Frobenius norm
        coarse[-1] = coarse[-1] + residual * np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
        cert = _witness_verdict(np.eye(2), fine, coarse, tol, 0.0)
        assert cert.verdict == verdict
        assert cert.residual == pytest.approx(residual, rel=1e-9)
        assert (cert.witness is not None) == (verdict == "feasible")


class TestToleranceRange:
    """A tolerance that is not positive and finite is rejected before any solve."""

    @pytest.mark.parametrize(
        "kind",
        [
            "global", "subspace", "classical", "majorization", "projective", "lp_feasible",
        ],
    )
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejected(self, z_measurement, x_measurement, kind, tol):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        with pytest.raises(InvalidRangeError):
            if kind == "global":
                check_coarser(x_measurement, z_measurement, tol=tol)
            elif kind == "subspace":
                check_coarser_in_subspace(x_measurement, z_measurement, Subspace.full(2), tol=tol)
            elif kind == "projective":
                check_coarser_projective(z_measurement, z_measurement, tol=tol)
            elif kind == "lp_feasible":
                lp_feasible([[1.0, 1.0]], [1.0], n_vars=2, tol=tol)
            elif kind == "majorization":
                majorization_verdicts(w, w.probs[None], w.volumes[None], tol=tol)
            else:
                check_coarser_classical(w, w, tol=tol)


class TestMixtureResidual:
    def test_exact_witness_has_zero_residual(self, z_measurement):
        assert mixture_residual(z_measurement, z_measurement, np.eye(2)) == 0.0

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    def test_wrong_witness_shape_raises(self, shape):
        fine = random_povm(2, 3, seed=73, with_kraus=False)
        coarse = coarsen(fine, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert (coarse.n_outcomes, fine.n_outcomes) == (2, 3)
        witness = np.full(shape, 1.0 / shape[0])
        with pytest.raises(ShapeMismatchError):
            mixture_residual(coarse, fine, witness)

    @pytest.mark.parametrize(
        "bad", [[[1.5, 1.0]], [[np.nan, 1.0]], [[-0.5, 1.0]]], ids=["sum", "nan", "negative"]
    )
    @pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
    def test_non_stochastic_matrix_raises_in_every_form(self, bad, form):
        # one coarse outcome, two fine outcomes: the shape matches
        fine = random_povm(2, 2, seed=74, with_kraus=False)
        coarse = coarsen(fine, np.array([[1.0, 1.0]]))
        with pytest.raises(NotStochasticError):
            mixture_residual(coarse, fine, form(bad))


class TestCheckCoarser:
    def test_reflexive(self, z_measurement):
        cert = check_coarser(z_measurement, z_measurement)
        assert cert.feasible
        np.testing.assert_allclose(cert.witness.matrix, np.eye(2), atol=1e-8)

    def test_single_outcome_coarsens_everything(self):
        rng = np.random.default_rng(3)
        trivial = validate_measurement([np.eye(3)])
        for _ in range(10):
            povm = random_povm(3, int(rng.integers(2, 6)), rng, with_kraus=False)
            cert = check_coarser(trivial, povm)
            assert cert.feasible
            np.testing.assert_allclose(cert.witness.matrix, np.ones((1, povm.n_outcomes)), atol=1e-8)

    def test_four_dim_pair_infeasible(self):
        coarse, fine = four_dim_pair()
        assert check_coarser(coarse, fine).verdict == "infeasible"
        assert check_coarser(fine, coarse).verdict == "infeasible"

    def test_coarsen_then_check_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            fine = random_povm(d, n, rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(m, n, rng))
            cert = check_coarser(coarse, fine)
            assert cert.feasible
            assert cert.residual <= 1e-7

    def test_witness_soundness_independent_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            fine = random_povm(d, n, rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(int(rng.integers(1, n + 1)), n, rng))
            cert = check_coarser(coarse, fine)
            assert cert.feasible
            # recompute the mixture directly, without going through the library helper
            w = cert.witness.matrix
            for j in range(coarse.n_outcomes):
                mix = sum(w[j, i] * fine.elements[i] for i in range(n))
                assert np.linalg.norm(mix - coarse.elements[j]) <= 1e-7

    def test_feasible_witness_reproduces_probabilities(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            fine = random_povm(d, n, rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(int(rng.integers(1, n + 1)), n, rng))
            cert = check_coarser(coarse, fine)
            for _ in range(50):
                rho = random_density_matrix(d, None, rng)
                p_fine = outcome_probabilities(fine, rho).probs
                p_coarse = outcome_probabilities(coarse, rho).probs
                assert np.max(np.abs(p_coarse - cert.witness.matrix @ p_fine)) <= 1e-9

    def test_mutual_coarseness_means_equal_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            fine = random_povm(d, n, rng, with_kraus=False)
            # split the first element into two proportional halves: mutually coarser
            parts = [0.5 * fine.elements[0], 0.5 * fine.elements[0], *fine.elements[1:]]
            split = validate_measurement(parts)
            assert check_coarser(split, fine).feasible
            assert check_coarser(fine, split).feasible
            for _ in range(50):
                rho = random_density_matrix(d, None, rng)
                s_split = observational_entropy(split, rho).s_obs
                s_fine = observational_entropy(fine, rho).s_obs
                assert abs(s_split - s_fine) <= 1e-8

    def test_entropy_gap_blocks_reverse_relation(self):
        # contrapositive of the equality case: a strictly larger entropy on some
        # state implies the reverse relation cannot hold
        rng = np.random.default_rng(19)
        found = 0
        for _ in range(20):
            d = int(rng.integers(2, 5))
            fine = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(1, fine.n_outcomes, rng))
            gap = 0.0
            for _ in range(10):
                rho = random_density_matrix(d, None, rng)
                gap = max(
                    gap,
                    observational_entropy(coarse, rho).s_obs
                    - observational_entropy(fine, rho).s_obs,
                )
            if gap > 1e-6:
                found += 1
                assert check_coarser(fine, coarse).verdict == "infeasible"
        assert found >= 10  # total merges genuinely lose information generically


def highs_verdict(coarse, fine) -> str:
    """scipy HiGHS on ``C_j = sum_i P_ji F_i``, ``P >= 0``, unit column sums.

    The rows are assembled here from the complex element matrices, one real
    and one imaginary row per matrix entry, independently of the library's
    component encoding.
    """
    from scipy.optimize import linprog

    f, c = fine.stacked(), coarse.stacked()
    n, m = len(f), len(c)
    flat = f.reshape(n, -1).T  # (d^2, n): column i holds the entries of F_i
    block = np.concatenate([flat.real, flat.imag])
    a_eq = np.vstack([np.kron(np.eye(m), block), np.kron(np.ones((1, m)), np.eye(n))])
    targets = c.reshape(m, -1)
    b_eq = np.concatenate([np.concatenate([targets.real, targets.imag], axis=1).ravel(), np.ones(n)])
    res = linprog(np.zeros(m * n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return "feasible" if res.status == 0 else "infeasible"


def counting_lp(monkeypatch) -> list:
    """Route ``lp_feasible`` calls from the checks through a spy; returns the call log."""
    import povmcoarse.coarseness as coarseness_module

    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["n_vars"])
        return lp_feasible(*args, **kwargs)

    monkeypatch.setattr(coarseness_module, "lp_feasible", spy)
    return calls


def negative_unique_pair(rng, d, n, m):
    """A fine POVM with independent elements and a valid coarse POVM in its span whose
    unique mixing matrix has a negative entry, so no left stochastic ``P`` exists."""
    fine = random_povm(d, n, rng, with_kraus=False)
    while True:
        mix = random_left_stochastic(m, n, rng).matrix.copy()
        i = int(rng.integers(n))
        shift = mix[0, i] + 0.02
        mix[0, i] -= shift
        mix[1, i] += shift
        elements = np.einsum("ji,iab->jab", mix, fine.stacked())
        if np.linalg.eigvalsh(elements).min() > 1e-6:
            return validate_measurement(elements, atol=1e-9), fine


class TestSpanDecision:
    """Independent fine elements decide the global and subspace checks without pivots."""

    def test_agrees_with_highs(self, monkeypatch):
        pytest.importorskip("scipy.optimize")
        calls = counting_lp(monkeypatch)
        rng = np.random.default_rng(4103)
        counts = {"feasible": 0, "infeasible": 0}
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, d * d + 1))
            m = int(rng.integers(1, n))
            fine = random_povm(d, n, rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(m, n, rng))
            for c, f in ((coarse, fine), (fine, coarse)):
                want = highs_verdict(c, f)
                assert check_coarser(c, f).verdict == want
                counts[want] += 1
        assert counts["feasible"] >= 200 and counts["infeasible"] >= 150
        spanned = len(calls)
        for _ in range(60):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(3, d * d + 1))
            coarse, fine = negative_unique_pair(rng, d, n, int(rng.integers(2, n)))
            assert check_coarser(coarse, fine).verdict == highs_verdict(coarse, fine) == "infeasible"
        # the unique solution has no free entry, so no pair went on to the LP
        assert len(calls) == spanned

    @pytest.mark.parametrize("eps", [2e-8, 4.5e-8])
    @pytest.mark.parametrize("dependent", [False, True], ids=["independent", "dependent"])
    def test_gap_inside_the_band_is_ambiguous(self, monkeypatch, z_measurement, eps, dependent):
        # the X component of each coarse element is off the diagonal span by
        # eps, so the span gap is eps, in (tol, 10 * tol]; the projections
        # are reachable, so the reduced LP's optimum is 0 and the banded
        # maximum is the gap. On the dependent side the coarse weight 0.75 on
        # |0><0| is first put on the pivot half alone, which overfills its
        # column, so the LP runs and moves it
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
        coarse = validate_measurement([0.75 * p0 + 0.5 * p1 + eps * x, 0.25 * p0 + 0.5 * p1 - eps * x])
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, dependent_fine() if dependent else z_measurement)
        assert cert.verdict == "ambiguous"
        if dependent:  # one free entry, and a row that starts violated
            assert len(calls) == 1
            assert cert.phase1_optimum == pytest.approx(eps, rel=1e-6)
        else:  # the unique P is solved, with no LP
            assert calls == [] and math.isnan(cert.phase1_optimum)

    def test_gap_above_the_band_is_infeasible_without_lp(self, monkeypatch, z_measurement):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        coarse = validate_measurement([0.5 * np.eye(2) + 2e-7 * x, 0.5 * np.eye(2) - 2e-7 * x])
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, z_measurement)
        assert cert.verdict == "infeasible" and calls == []
        assert math.isnan(cert.phase1_optimum) and cert.residual == math.inf

    def test_swapped_generic_pair_runs_no_lp(self, monkeypatch):
        calls = counting_lp(monkeypatch)
        fine = random_povm(3, 6, seed=4104, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(3, 6, seed=4105))
        sub = random_subspace(3, 2, seed=4106)
        assert check_coarser(fine, coarse).verdict == "infeasible"
        assert check_coarser_in_subspace(fine, coarse, sub).verdict == "infeasible"
        assert calls == []

    def test_unique_witness_runs_no_lp(self, monkeypatch):
        calls = counting_lp(monkeypatch)
        fine = random_povm(3, 6, seed=4107, with_kraus=False)
        mix = random_left_stochastic(3, 6, seed=4108)
        cert = check_coarser(coarsen(fine, mix), fine)
        assert cert.feasible and cert.residual <= 1e-12
        np.testing.assert_allclose(cert.witness.matrix, mix.matrix, atol=1e-10)
        assert math.isnan(cert.phase1_optimum)
        # a rank-2 subspace gives r^2 = 4 components for 4 fine outcomes
        fine = random_povm(3, 4, seed=4109, with_kraus=False)
        sub = random_subspace(3, 2, seed=4110)
        sub_cert = check_coarser_in_subspace(coarsen(fine, random_left_stochastic(2, 4, seed=4111)), fine, sub)
        assert sub_cert.feasible and np.all(sub_cert.volume_slack >= -1e-8)
        assert calls == []

    def test_solved_entries_past_tol_go_to_the_lp(self, monkeypatch):
        # coarse weight 1/2 + 2.5e-8 on each |0><0|/2: solved onto the pivot
        # half alone, it overfills that column by 5e-8, in (tol, 10 * tol];
        # clipped, that candidate would fail the column-sum test, and the LP
        # spreads the weight over both halves instead
        calls = counting_lp(monkeypatch)
        a = 0.5 + 2.5e-8
        p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
        coarse = validate_measurement([a * p0 + 0.25 * p1, (1.0 - a) * p0 + 0.75 * p1])
        cert = check_coarser(coarse, dependent_fine())
        assert cert.feasible and len(calls) == 1
        assert cert.residual <= 1e-12

    @pytest.mark.parametrize("kind", ["global", "subspace"])
    def test_solved_entries_that_meet_every_row_run_no_lp(self, monkeypatch, kind):
        # I/2 twice from {|0><0|/2, |0><0|/2, |1><1|}: with the free entry at
        # zero the solved rows are (1, 0, 1/2) and (0, 1, 1/2), a witness
        calls = counting_lp(monkeypatch)
        coarse = validate_measurement([0.5 * np.eye(2), 0.5 * np.eye(2)])
        if kind == "global":
            cert = check_coarser(coarse, dependent_fine())
        else:
            cert = check_coarser_in_subspace(coarse, dependent_fine(), Subspace.full(2))
        assert cert.feasible and calls == [] and math.isnan(cert.phase1_optimum)
        np.testing.assert_allclose(cert.witness.matrix, [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], atol=1e-15)

    def test_span_certificate_serializes_null_optimum(self, z_measurement):
        cert = check_coarser(z_measurement, z_measurement)
        assert cert.feasible and math.isnan(cert.phase1_optimum)
        assert certificate_to_dict(cert)["phase1_optimum"] is None


def counting_qr(monkeypatch) -> list:
    """Route ``np.linalg.qr`` through a spy; returns the call log (the factored shapes)."""
    calls, qr = [], np.linalg.qr

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls


def hermitian_from_components(vec, d):
    """The Hermitian matrix whose real components (diagonal, upper real, upper imaginary) are ``vec``."""
    rows, cols = np.triu_indices(d, k=1)
    u = len(rows)
    mat = np.diag(vec[:d]).astype(complex)
    mat[rows, cols] = vec[d : d + u] + 1j * vec[d + u :]
    mat[cols, rows] = vec[d : d + u] - 1j * vec[d + u :]
    return mat


class TestCombinedFactor:
    """An independent fine side is decided from one QR of both sides' components."""

    @pytest.mark.parametrize("kind", ["global", "subspace"])
    def test_one_qr_and_no_lp(self, monkeypatch, kind):
        fine = random_povm(3, 5, seed=4190, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(4, 5, seed=4191))
        sub = random_subspace(3, 3, seed=4192)  # r^2 = 9 >= 5: independent blocks
        lp_calls, qr_calls = counting_lp(monkeypatch), counting_qr(monkeypatch)
        for c, f in ((coarse, fine), (fine, coarse)):
            if kind == "global":
                cert = check_coarser(c, f)
            else:
                cert = check_coarser_in_subspace(c, f, sub)
            # both sides' components in one (D, n + m) factor
            assert qr_calls == [(9, f.n_outcomes + c.n_outcomes)] and lp_calls == []
            qr_calls.clear()
            assert cert.verdict == ("feasible" if f is fine else "infeasible")

    # n == D, n + m > D with n < D, and n + m <= D
    @pytest.mark.parametrize("d, n, m_range", [(2, 4, (1, 5)), (3, 9, (1, 6)), (2, 3, (2, 5)),
                                               (3, 6, (4, 8)), (3, 4, (1, 5))])
    def test_agrees_with_highs(self, monkeypatch, d, n, m_range):
        pytest.importorskip("scipy.optimize")
        lp_calls, qr_calls = counting_lp(monkeypatch), counting_qr(monkeypatch)
        rng = np.random.default_rng(4193 + 10 * d + n)
        counts = {"feasible": 0, "infeasible": 0}
        for _ in range(15):
            fine = random_povm(d, n, rng, with_kraus=False)
            m = int(rng.integers(*m_range))
            mixed = coarsen(fine, random_left_stochastic(m, n, rng))
            if rng.random() < 0.5:
                coarse = mixed
            else:  # the pair with a negative unique P, or a generic POVM
                coarse = random_povm(d, m, rng, with_kraus=False)
            want = highs_verdict(coarse, fine)
            assert check_coarser(coarse, fine).verdict == want
            counts[want] += 1
        assert min(counts.values()) >= 3
        assert lp_calls == [] and len(qr_calls) == 15

    @pytest.mark.parametrize("scale, verdict", [(20.0, "infeasible"), (5.0, "ambiguous")])
    def test_coarse_row_off_the_span(self, monkeypatch, scale, verdict):
        """A coarse pair pushed ``scale * tol`` off the fine span, along a direction orthogonal to it."""
        tol, d, n = 1e-8, 3, 6
        fine = random_povm(d, n, seed=4194, with_kraus=False)
        mixed = coarsen(fine, random_left_stochastic(5, n, seed=4195))
        # n + m = 11 > D = 9: the factor has a (3, 5) block off the span
        comps = _component_rows(fine.stacked())
        q = np.linalg.qr(comps.T)[0]
        direction = np.random.default_rng(4196).standard_normal(d * d)
        direction -= q @ (q.T @ direction)
        shift = hermitian_from_components(scale * tol * direction / np.linalg.norm(direction), d)
        elements = mixed.stacked().copy()
        elements[0] += shift
        elements[1] -= shift
        coarse = validate_measurement(elements, atol=1e-9)
        lp_calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, fine, tol=tol)
        assert cert.verdict == verdict and lp_calls == []
        assert math.isnan(cert.phase1_optimum)


def in_span_pair(rng, d, n, m, eps):
    """A fine POVM and a coarse one in its span, ``Π'_j = sum_i Q_ji Π_i``, or ``None``.

    ``Q = P + eps (P - P')`` for random left stochastic ``P`` and ``P'`` has
    columns that sum to one but may have negative entries; up to 40 draws
    are tried until every coarse element is positive semidefinite.
    """
    fine = random_povm(d, n, rng, with_kraus=False)
    for _ in range(40):
        p = random_left_stochastic(m, n, rng).matrix
        mix = p + eps * (p - random_left_stochastic(m, n, rng).matrix)
        elements = np.einsum("ji,iab->jab", mix, fine.stacked())
        if np.linalg.eigvalsh(elements).min() > 1e-9:
            return validate_measurement(elements, atol=1e-9), fine
    return None


class TestInSpanPairs:
    """Coarse measurements inside the fine span, where only the solve or the LP can say no.

    The benchmark families never reach these ``infeasible`` verdicts: their
    infeasible pairs are all decided by the span gap.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        dependent=st.booleans(),
        eps=st.floats(0.2, 3.0),
    )
    def test_agrees_with_highs(self, seed, d, dependent, eps):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        # more elements than components makes the fine side dependent
        n = int(rng.integers(d * d + 1, d * d + 4)) if dependent else int(rng.integers(2, d * d + 1))
        pair = in_span_pair(rng, d, n, int(rng.integers(2, 5)), eps)
        assume(pair is not None)
        coarse, fine = pair
        assert check_coarser(coarse, fine).verdict == highs_verdict(coarse, fine)

    @pytest.mark.parametrize("kind", ["global", "subspace"])
    def test_negative_unique_solution_is_infeasible_without_lp(self, monkeypatch, kind):
        pytest.importorskip("scipy.optimize")
        coarse, fine = negative_unique_pair(np.random.default_rng(4150), 3, 6, 3)
        calls = counting_lp(monkeypatch)
        if kind == "global":
            cert = check_coarser(coarse, fine)
        else:
            cert = check_coarser_in_subspace(coarse, fine, Subspace.full(3))
        assert cert.verdict == highs_verdict(coarse, fine) == "infeasible"
        assert calls == [] and math.isnan(cert.phase1_optimum)

    @pytest.mark.parametrize("gap", [3e-8, 0.0], ids=["gap-in-the-band", "no-gap"])
    def test_ill_conditioned_dependent_side_inside_the_band_is_ambiguous(self, monkeypatch, gap):
        """Four qubit elements in the span of ``I, Z, X``, two of them ``1e-5`` apart.

        The coarse side moves ``3e-8`` (in Frobenius norm) of ``X`` from one
        outcome to the other, past what any stochastic ``P`` reaches, and
        ``gap`` of ``Y``, outside the span. HiGHS calls it infeasible; on the
        scale of the components it is ``3e-8`` from feasible, inside the band.
        In units of ``P`` that is about ``8.5e-3``, the reduced LP's optimum,
        which the verdict must not band unscaled.
        """
        pytest.importorskip("scipy.optimize")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        theta = 1e-5
        tilted = math.cos(theta) * z + math.sin(theta) * x
        elements = [np.eye(2) + z, np.eye(2) + tilted, np.eye(2) - z, np.eye(2) - tilted]
        fine = validate_measurement([0.25 * e for e in elements])
        shift = (3e-8 * x + gap * y) / math.sqrt(2.0)
        coarse = validate_measurement([fine.elements[0] + fine.elements[1] + shift,
                                       fine.elements[2] + fine.elements[3] - shift])
        import povmcoarse.coarseness as coarseness_module

        optima = []

        def recording(*args, **kwargs):
            result = lp_feasible(*args, **kwargs)
            optima.append(result.phase1_optimum)
            return result

        monkeypatch.setattr(coarseness_module, "lp_feasible", recording)
        cert = check_coarser(coarse, fine)
        assert highs_verdict(coarse, fine) == "infeasible"
        assert cert.verdict == "ambiguous" and cert.witness is None
        assert len(optima) == 1 and optima[0] > 1e-3
        if gap:  # the span gap (an off-diagonal entry counts once) tops the banded maximum
            assert cert.phase1_optimum == pytest.approx(gap / math.sqrt(2.0), rel=1e-6)
        else:  # the scaled optimum is in the feasible band, but the LP found no witness
            assert 0.0 < cert.phase1_optimum <= 1e-8


class TestCompletenessGap:
    """The eliminated outcome's rows hold only if both sides sum to the same operator.

    Each coarse side mixes a five-outcome qubit POVM (more elements than
    components, so the span cannot decide) into three outcomes and shifts the
    last by ``eps * I``: the component sums then differ by ``g = sqrt(2) * eps``.
    """

    @staticmethod
    def incomplete_pair(eps):
        fine = random_povm(2, 5, seed=4120, with_kraus=False)
        mixed = coarsen(fine, random_left_stochastic(3, 5, seed=4130)).stacked().copy()
        mixed[-1] += eps * np.eye(2)
        with pytest.raises(IncompleteSumError):
            validate_measurement(mixed)
        # the LP without the last outcome's rows is satisfied by the mixing matrix
        system = eliminated_processing_system(_component_rows(fine.stacked()), _component_rows(mixed))
        assert lp_feasible(*system, n_vars=2 * 5).phase1_optimum == 0.0
        return validate_measurement(mixed, atol=1e-5), fine

    def test_gap_above_the_band_is_infeasible_without_lp(self, monkeypatch):
        pytest.importorskip("scipy.optimize")
        coarse, fine = self.incomplete_pair(1e-6)
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, fine)
        assert cert.verdict == highs_verdict(coarse, fine) == "infeasible"
        assert calls == [] and math.isnan(cert.phase1_optimum)

    def test_gap_inside_the_band_is_ambiguous(self, monkeypatch):
        # the rebuilt witness would pass the residual rule (sqrt(2) * 3e-8 <= 1e-7),
        # so only the band on max(phase-1 optimum, g) keeps this from feasible
        coarse, fine = self.incomplete_pair(3e-8)
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, fine)
        assert cert.verdict == "ambiguous" and len(calls) == 1
        assert cert.phase1_optimum == pytest.approx(math.sqrt(2.0) * 3e-8, rel=1e-6)


class TestDegenerateLPVerdicts:
    """Feasible-by-construction rank-deficient pairs that go to the LP.

    Each pair is a draw of the benchmark's rank-deficient family. A ratio test
    that keeps only the rows tied at the minimum ratio pivots on entries down
    to 1e-10 of their column's largest entry here, and the drifted tableau
    calls the pair ``infeasible`` or ``ambiguous``.
    """

    def assert_feasible(self, monkeypatch, coarse, fine):
        pytest.importorskip("scipy.optimize")
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, fine)
        assert len(calls) == 1
        assert cert.verdict == highs_verdict(coarse, fine) == "feasible"
        assert cert.residual <= 1e-7
        assert mixture_residual(coarse, fine, cert.witness.matrix) <= 1e-7

    # with no relaxation in the ratio test, (9, 1), (14, 0), (27, 0) and
    # (100, 0) come back infeasible from the full layout and (14, 1) from the
    # layout without the last coarse outcome
    @pytest.mark.parametrize("seed, draw", MERGE_DRAWS)
    def test_overcomplete_merge(self, monkeypatch, seed, draw):
        self.assert_feasible(monkeypatch, *overcomplete_merge_pair(seed, draw))

    def test_refined_projective(self, monkeypatch):
        coarse, fine = refined_projective_pair(seeded_rng(20, 2, 4, 0), 10, (2, 3, 5))
        self.assert_feasible(monkeypatch, coarse, fine)


class TestCheckCoarserClassical:
    def test_reflexive(self):
        w = random_weighted_distribution(4, seed=5)
        cert = check_coarser_classical(w, w)
        assert cert.feasible

    def test_converse_counterexample_infeasible(self):
        w_fine = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        w_coarse = WeightedDistribution([1.0, 0.0], [1.8, 0.2])
        assert check_coarser_classical(w_fine, w_coarse).verdict == "infeasible"

    def test_push_forward_always_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 6))
            w = random_weighted_distribution(n, rng)
            out = push_forward(random_left_stochastic(m, n, rng), w)
            cert = check_coarser_classical(w, out)
            assert cert.feasible
            assert cert.residual <= 1e-7

    def test_agrees_with_closed_form_oracle(self):
        # two-outcome case solved in closed form in conftest
        rng = np.random.default_rng(29)
        p1, v1, vtot = 0.75, 1.0, 2.0
        base = WeightedDistribution([p1, 1 - p1], [v1, vtot - v1])
        for _ in range(300):
            p2 = float(rng.uniform(0, 1))
            v2 = float(rng.uniform(0.01, vtot - 0.01))
            target = WeightedDistribution([p2, 1 - p2], [v2, vtot - v2])
            cert = check_coarser_classical(base, target)
            assert cert.verdict != "ambiguous"
            assert cert.feasible == classical_two_outcome_feasible(p1, v1, p2, v2, vtot)


def normalized_rows_residual(mat, fine, coarse) -> float:
    """Largest Euclidean error of ``P (p, V/sum V) - (p', V'/sum V)`` per coarse outcome."""
    total = fine.volumes.sum()
    err_p = mat @ fine.probs - coarse.probs
    err_v = (mat @ fine.volumes - coarse.volumes) / total
    return float(np.max(np.hypot(err_p, err_v)))


class TestClassicalVolumeScale:
    """The classical relation does not change when every volume is scaled by one factor."""

    SCALES = [1e-9, 1e-8, 1e-7, 1e-6, 1.0, 1e6, 1e9]

    @pytest.mark.parametrize("s", SCALES)
    def test_converse_counterexample_infeasible(self, s):
        w_fine = WeightedDistribution([0.75, 0.25], [s, s])
        w_coarse = WeightedDistribution([1.0, 0.0], [1.8 * s, 0.2 * s])
        cert = check_coarser_classical(w_fine, w_coarse)
        assert cert.verdict == "infeasible"
        assert cert.separation.threshold == pytest.approx(0.5)
        assert cert.separation.slack == pytest.approx(-0.05, abs=1e-12)

    @pytest.mark.parametrize("s", SCALES)
    def test_push_forward_feasible_with_normalized_witness(self, s):
        rng = np.random.default_rng(4100)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            w = random_weighted_distribution(n, rng)
            w = WeightedDistribution(w.probs, s * w.volumes)
            out = push_forward(random_left_stochastic(m, n, rng), w)
            cert = check_coarser_classical(w, out)
            assert cert.verdict == "feasible"
            assert cert.separation is None
            assert cert.residual <= 1e-7
            assert normalized_rows_residual(cert.witness.matrix, w, out) <= 1e-7


def direct_lp_verdict(fine, coarse, tol=1e-8) -> str:
    """``lp_feasible`` on ``P p = p'``, ``P q = V'/sum V``, unit column sums, assembled here."""
    n, m = fine.n, coarse.n
    total = fine.volumes.sum()
    a_eq = np.vstack([
        np.kron(np.eye(m), fine.probs[None]),
        np.kron(np.eye(m), fine.volumes[None] / total),
        np.kron(np.ones((1, m)), np.eye(n)),
    ])
    b_eq = np.concatenate([coarse.probs, coarse.volumes / total, np.ones(n)])
    return lp_feasible(a_eq, b_eq, n_vars=m * n, tol=tol).verdict


class TestMajorizationAgreesWithLP:
    """The majorization verdict equals a direct phase-1 solve of the processing system."""

    def test_region_grid(self):
        grid, vtot = 21, 2.0
        base = WeightedDistribution([0.75, 0.25], [1.0, vtot - 1.0])
        v_values = np.linspace(0.0, vtot, grid)
        v_values[0], v_values[-1] = 0.05, vtot - 0.05
        verdicts = []
        for p2 in np.linspace(0.0, 1.0, grid):
            for v2 in v_values:
                target = WeightedDistribution([p2, 1.0 - p2], [v2, vtot - v2])
                lp = direct_lp_verdict(base, target)
                assert check_coarser_classical(base, target).verdict == lp, (p2, v2)
                verdicts.append(lp)
        assert "feasible" in verdicts and "infeasible" in verdicts

    def test_push_forward_and_swapped_pairs(self):
        rng = np.random.default_rng(4101)
        counts = {"feasible": 0, "infeasible": 0, "ambiguous": 0}
        for _ in range(150):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            w = random_weighted_distribution(n, rng)
            out = push_forward(random_left_stochastic(m, n, rng), w)
            for fine, coarse in ((w, out), (out, w)):
                lp = direct_lp_verdict(fine, coarse)
                assert check_coarser_classical(fine, coarse).verdict == lp
                counts[lp] += 1
        assert counts["feasible"] >= 150 and counts["infeasible"] > 0
        assert counts["ambiguous"] == 0


def loop_majorization(fine, probs, volumes):
    """Reference for :func:`majorization_verdicts`' slacks: one candidate and one threshold at a time.

    Returns ``(thresholds, slacks, gaps)``; the first threshold with the
    smallest slack wins, in the order ``0``, the fine ratios, the coarse ones.
    Each sum of ``(p - t q)_+`` adds the outcomes in order; the volume totals
    are numpy's sums, as the kernel takes them.
    """
    total = fine.total_volume
    q = [v / total for v in fine.volumes.tolist()]
    p = fine.probs.tolist()
    out = []
    for row, vols, row_total in zip(probs.tolist(), volumes.tolist(), volumes.sum(axis=-1).tolist()):
        quotas = [v / row_total for v in vols]
        ratios = [0.0] + [a / b for a, b in zip(p, q)] + [a / b for a, b in zip(row, quotas)]
        slacks = [
            sum(max(a - t * b, 0.0) for a, b in zip(p, q))
            - sum(max(a - t * b, 0.0) for a, b in zip(row, quotas))
            for t in ratios
        ]
        worst = slacks.index(min(slacks))
        out.append((ratios[worst], slacks[worst], abs(row_total - total) / total))
    return tuple(np.array(column) for column in zip(*out))


def assert_matches_loop(fine, probs, volumes):
    _, thresholds, slacks, gaps = majorization_verdicts(fine, probs, volumes)
    want = loop_majorization(fine, probs, volumes)
    for got, ref in zip((thresholds, slacks, gaps), want):
        assert got.tobytes() == ref.tobytes()


class TestMajorizationKernel:
    @pytest.mark.parametrize("top", [7, 12], ids=["below-8", "up-to-12"])
    def test_matches_the_loop_reference(self, top):
        """Bit for bit, however many outcomes: every sum adds them in order."""
        rng = np.random.default_rng(4160 + top)
        for _ in range(60):
            n, m, k = (int(v) for v in rng.integers(1, (top + 1, top + 1, 9)))
            fine = random_weighted_distribution(n, rng)
            rows = [push_forward(random_left_stochastic(m, n, rng), fine) for _ in range(k)]
            rows += [random_weighted_distribution(m, rng) for _ in range(k)]
            probs, volumes = np.stack([w.probs for w in rows]), np.stack([w.volumes for w in rows])
            assert_matches_loop(fine, probs, volumes)

    def test_default_region_grid_matches_the_loop_reference(self):
        """The 101 x 101 grid of ``region-scan``'s defaults, one threshold row per block."""
        base = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        p_values, v_values = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0, 101)
        v_values[0], v_values[-1] = 0.01, 1.99
        p_cells, v_cells = np.repeat(p_values, 101), np.tile(v_values, 101)
        probs, volumes = weighted_rows(np.stack([p_cells, 1.0 - p_cells], axis=1),
                                       np.stack([v_cells, 2.0 - v_cells], axis=1))
        assert _BLOCK_CELLS // (4 * len(probs)) == 1
        assert_matches_loop(base, probs, volumes)

    def test_forty_outcome_pair_matches_the_loop_reference(self):
        rng = np.random.default_rng(4163)
        fine = random_weighted_distribution(40, rng)
        for coarse in (push_forward(random_left_stochastic(40, 40, rng), fine),
                       random_weighted_distribution(40, rng)):
            assert_matches_loop(fine, coarse.probs[None], coarse.volumes[None])

    @pytest.mark.parametrize("past", [-1, 0, 1], ids=["one-block-less-1", "one-block", "two-blocks"])
    def test_rows_across_a_block_boundary_match_single_calls(self, past):
        """A stack one candidate past the widest one-block stack splits its thresholds in two blocks."""
        rng = np.random.default_rng(4164)
        n = m = 12
        widest = _BLOCK_CELLS // ((n + m) * (1 + n + m))
        k = widest + past
        assert (_BLOCK_CELLS // ((n + m) * k) >= 1 + n + m) == (past <= 0)
        fine = random_weighted_distribution(n, rng)
        # the fine pair itself has slack 0 at every threshold, so t = 0 must win;
        # a relabelling of it comes within rounding of 0 everywhere
        rows = [fine, WeightedDistribution(fine.probs[::-1], fine.volumes[::-1])]
        rows += [push_forward(random_left_stochastic(m, n, rng), fine) for _ in range(k // 2 - 1)]
        rows += [random_weighted_distribution(m, rng) for _ in range(k - len(rows))]
        probs, volumes = np.stack([w.probs for w in rows]), np.stack([w.volumes for w in rows])
        stack = majorization_verdicts(fine, probs, volumes)
        assert stack[1][0] == 0.0 and stack[2][0] == 0.0
        for c in range(k):
            single = majorization_verdicts(fine, probs[c:c + 1], volumes[c:c + 1])
            assert [a[c:c + 1].tobytes() for a in stack] == [a.tobytes() for a in single], c

    def test_empty_stack_gives_empty_arrays(self):
        fine = WeightedDistribution([0.5, 0.5], [1.0, 1.0])
        out = majorization_verdicts(fine, np.zeros((0, 3)), np.ones((0, 3)))
        assert [a.shape for a in out] == [(0,)] * 4

    def test_first_nan_wins_as_argmin_picks_it(self):
        """A quota that underflows to zero makes nan values; the first nan row is the minimum."""
        fine = WeightedDistribution([0.5, 0.5], [1.0, 1.0])
        # quotas (0, 0, 1): ratios inf and nan, and each makes a nan value
        probs = np.array([[0.3, 0.0, 0.7], [0.0, 0.3, 0.7], [0.2, 0.3, 0.5]])
        volumes = np.array([[1e-320, 1e-320, 1e12], [1e-320, 1e-320, 1e12], [1.0, 1.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            singles = [majorization_verdicts(fine, probs[c:c + 1], volumes[c:c + 1]) for c in range(3)]
            # 2 x 3 outcomes and this many candidates leave one threshold row per block
            repeat = _BLOCK_CELLS // 5 + 1
            stack = majorization_verdicts(fine, np.tile(probs, (repeat, 1)), np.tile(volumes, (repeat, 1)))
        verdicts, thresholds, slacks, _ = (np.concatenate(column) for column in zip(*singles))
        assert list(verdicts[:2]) == ["ambiguous", "ambiguous"]
        assert thresholds[0] == math.inf and math.isnan(thresholds[1])
        assert math.isnan(slacks[0]) and math.isnan(slacks[1]) and math.isfinite(slacks[2])
        for got, single in zip(stack, zip(*singles)):
            assert got.tobytes() == np.tile(np.concatenate(single), repeat).tobytes()

    def test_stack_entries_match_single_checks(self):
        rng = np.random.default_rng(4102)
        base = random_weighted_distribution(3, rng)
        rows = [push_forward(random_left_stochastic(4, 3, rng), base) for _ in range(5)]
        rows += [random_weighted_distribution(4, rng) for _ in range(5)]
        probs = np.stack([w.probs for w in rows])
        volumes = np.stack([w.volumes for w in rows])
        verdicts, thresholds, slacks, gaps = majorization_verdicts(base, probs, volumes)
        for c, w in enumerate(rows):
            single = majorization_verdicts(base, w.probs[None], w.volumes[None])
            assert [a[0] for a in single] == [verdicts[c], thresholds[c], slacks[c], gaps[c]]
            assert check_coarser_classical(base, w).verdict == verdicts[c]

    def test_volume_total_gap_separates(self):
        base = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        # the same dichotomy with every volume scaled up: only the totals differ
        scales = np.array([1.0, 1.0 + 2e-8, 1.1])
        verdicts, _, slacks, gaps = majorization_verdicts(
            base, np.array([[0.75, 0.25]] * 3), scales[:, None] * base.volumes
        )
        assert list(verdicts) == ["feasible", "ambiguous", "infeasible"]
        np.testing.assert_allclose(gaps, [0.0, 2e-8, 0.1], rtol=1e-6)
        assert np.all(np.abs(slacks) < 1e-12)

    def test_non_feasible_verdict_runs_no_lp(self, monkeypatch):
        import povmcoarse.coarseness as coarseness_module

        def refuse(*args, **kwargs):
            raise AssertionError("no LP should run")

        monkeypatch.setattr(coarseness_module, "lp_feasible", refuse)
        cert = check_coarser_classical(
            WeightedDistribution([0.75, 0.25], [1.0, 1.0]), WeightedDistribution([1.0, 0.0], [1.8, 0.2])
        )
        assert cert.verdict == "infeasible"
        assert math.isnan(cert.phase1_optimum) and cert.residual == math.inf
        assert isinstance(cert.separation, Separation)

    @pytest.mark.parametrize("optimum", [1.0, 2e-8], ids=["infeasible", "inside-the-band"])
    def test_lp_without_witness_downgrades_to_ambiguous(self, monkeypatch, optimum):
        """The LP returns no witness: above the band its scaled optimum is ``infeasible``,
        which the classical check (majorization said ``feasible``) reports as ``ambiguous``;
        inside the feasible band the missing witness alone gives ``ambiguous``."""
        import povmcoarse.coarseness as coarseness_module

        def no_witness(*args, n_vars, **kwargs):
            return FeasibilityResult("ambiguous", None, math.inf, optimum, 3)

        monkeypatch.setattr(coarseness_module, "lp_feasible", no_witness)
        # three fine pairs in the plane leave one free entry per row; the
        # solved entries put both equal pairs' weight on the pivot one, which
        # overfills its column, so the LP runs
        w = WeightedDistribution([0.5, 0.25, 0.25], [1.0, 1.0, 1.0])
        cert = check_coarser_classical(w, WeightedDistribution([0.5, 0.5], [2.0, 1.0]))
        assert cert.verdict == "ambiguous"
        assert cert.witness is None
        # the optimum is divided by K >= 2 (module docstring)
        assert 0.0 < cert.phase1_optimum <= optimum / 2.0
        assert (cert.phase1_optimum > 1e-7) == (optimum == 1.0)
        assert cert.separation.slack >= -1e-12 and cert.separation.volume_gap == 0.0


class TestPossibleOutcomes:
    def test_full_space_gives_all(self):
        povm = random_povm(3, 4, seed=31, with_kraus=False)
        assert possible_outcomes(povm, Subspace.full(3)) == (0, 1, 2, 3)

    def test_four_dim_block_structure(self):
        coarse, fine = four_dim_pair()
        sub = Subspace.span([ket(1, 0, 0, 0), ket(0, 1, 0, 0)])
        # fine = {|2><2|+|3><3|, |0><0|, |1><1|}: only the last two touch the span
        assert possible_outcomes(fine, sub) == (1, 2)

    def test_superposition_span_sees_both(self, z_measurement):
        assert possible_outcomes(z_measurement, Subspace.span([KET_PLUS])) == (0, 1)

    def test_threshold_is_strict(self):
        # ||Π_0 B||_F = s for B = |0>: possible only when s > 1e-10

        def sees_first(s):
            povm = validate_measurement([np.diag([s, 1.0]), np.diag([1.0 - s, 0.0])])
            return possible_outcomes(povm, Subspace.span([ket(1, 0)]))

        assert sees_first(2e-10) == (0, 1)
        assert sees_first(0.5e-10) == (1,)

    @pytest.mark.parametrize("offset", [-1e-16, 0.0, 1e-16])
    def test_subspace_check_uses_the_same_sets(self, offset):
        """At ``‖Π_0 B‖_F = 1e-10 ± ε`` the subspace check keeps the outcomes ``possible_outcomes`` keeps."""
        s = 1e-10 + offset
        fine = validate_measurement([np.diag([s, 1.0]), np.diag([1.0 - s, 0.0])])
        coarse = validate_measurement([np.diag([s, 0.5]), np.diag([1.0 - s, 0.5])])
        sub = Subspace.span([ket(1, 0)])
        cert = check_coarser_in_subspace(coarse, fine, sub)
        assert cert.fine_outcomes == possible_outcomes(fine, sub)
        assert cert.coarse_outcomes == possible_outcomes(coarse, sub)
        assert len(cert.fine_outcomes) == (2 if s > 1e-10 else 1)


class TestCheckCoarserInSubspace:
    def test_x_vs_z_in_axis_span(self, x_measurement, z_measurement):
        cert = check_coarser_in_subspace(x_measurement, z_measurement, Subspace.span([ket(1, 0)]))
        assert cert.feasible
        assert cert.fine_outcomes == (0,)
        assert cert.coarse_outcomes == (0, 1)
        np.testing.assert_allclose(cert.witness.matrix, [[0.5], [0.5]], atol=1e-8)
        assert np.all(cert.volume_slack >= -1e-8)

    def test_x_vs_z_infeasible_in_full_space(self, x_measurement, z_measurement):
        cert = check_coarser_in_subspace(x_measurement, z_measurement, Subspace.full(2))
        assert cert.verdict == "infeasible"

    def test_full_space_matches_plain_check(self):
        rng = np.random.default_rng(37)
        for k in range(200):
            d = int(rng.integers(2, 5))
            fine = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=False)
            if k % 2 == 0:
                coarse = coarsen(fine, random_left_stochastic(int(rng.integers(1, 4)), fine.n_outcomes, rng))
            else:
                coarse = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=False)
            plain = check_coarser(coarse, fine)
            sub = check_coarser_in_subspace(coarse, fine, Subspace.full(d))
            assert plain.verdict == sub.verdict

    def test_four_dim_pair_each_side_has_its_subspace(self):
        coarse, fine = four_dim_pair()
        low = Subspace.span([ket(1, 0, 0, 0), ket(0, 1, 0, 0)])
        high = Subspace.span([ket(0, 0, 1, 0), ket(0, 0, 0, 1)])
        assert check_coarser_in_subspace(coarse, fine, low).feasible
        assert check_coarser_in_subspace(fine, coarse, low).verdict == "infeasible"
        assert check_coarser_in_subspace(fine, coarse, high).feasible
        assert check_coarser_in_subspace(coarse, fine, high).verdict == "infeasible"

    @pytest.mark.parametrize("dim, rank", [(3, 1), (4, 2), (5, 3)])
    def test_lp_has_rank_squared_rows_per_coarse_outcome(self, monkeypatch, dim, rank):
        import povmcoarse.coarseness as coarseness_module

        sizes = []

        def recording(*args, **kwargs):
            assert args == () and "a_eq" not in kwargs
            sizes.append((kwargs["a_ub"].shape, kwargs["n_vars"]))
            return lp_feasible(*args, **kwargs)

        monkeypatch.setattr(coarseness_module, "lp_feasible", recording)
        # more outcomes than r^2: the projected elements are dependent, so the LP runs
        n = max(4, rank**2 + 1)
        fine = random_povm(dim, n, seed=dim, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(3, n, seed=rank))
        cert = check_coarser_in_subspace(coarse, fine, random_subspace(dim, rank, seed=7))
        m, n = len(cert.coarse_outcomes), len(cert.fine_outcomes)
        assert cert.feasible
        # the r^2 blocks span all r^2 components: r^2 pivot outcomes, n - r^2
        # free ones; rows: r^2 per coarse outcome but the last, n column
        # sums and m volume rows
        free = (m - 1) * (n - rank**2)
        assert sizes == [(((m - 1) * rank**2 + n + m, free), free)]

    @staticmethod
    def basis_invariant_verdict(coarse, fine, subspace, seed):
        """The subspace verdict, asserted to be the same, with the same outcome sets, in ``B @ U``."""
        rotated = Subspace(subspace.basis @ random_unitary(subspace.rank, seed))
        before = check_coarser_in_subspace(coarse, fine, subspace)
        after = check_coarser_in_subspace(coarse, fine, rotated)
        assert (after.verdict, after.coarse_outcomes, after.fine_outcomes) == (
            before.verdict, before.coarse_outcomes, before.fine_outcomes)
        return before.verdict

    def test_verdict_and_outcome_sets_do_not_depend_on_the_basis(self):
        from povmcoarse.suites import _random_subspace_coarser_pair

        for t in range(30):
            rng = trial_rng(4549, t)
            fine, coarse, inside = _random_subspace_coarser_pair(rng, int(rng.integers(2, 6)))
            assert self.basis_invariant_verdict(coarse, fine, inside, t) == "feasible"
            self.basis_invariant_verdict(fine, coarse, inside, t)

    def test_sum_of_subspaces_verdicts_do_not_depend_on_the_basis(self, x_measurement, z_measurement):
        spans = [Subspace.span([ket(1, 0)]), Subspace.span([ket(0, 1)]), Subspace.full(2)]
        verdicts = [self.basis_invariant_verdict(x_measurement, z_measurement, span, seed)
                    for seed, span in enumerate(spans)]
        assert verdicts == ["feasible", "feasible", "infeasible"]

    def test_empty_outcome_set_error(self, monkeypatch, z_measurement):
        # valid POVMs always have a possible outcome in any subspace, so the
        # guard is exercised by stubbing the rule the outcome sets share
        import povmcoarse.coarseness as coarseness_module

        monkeypatch.setattr(coarseness_module, "_possible", lambda *a, **k: np.arange(0))
        with pytest.raises(EmptyOutcomeSetError):
            coarseness_module.check_coarser_in_subspace(
                z_measurement, z_measurement, Subspace.full(2)
            )


class TestExtensionFrom:
    """Padding a subspace witness to all outcomes with the volume-balancing fill."""

    # fine: |0><0|, |1><1|, |2><2| (volumes 1, 1, 1); coarse: |0><0|,
    # |1><1| + |2><2| (volumes 1, 2); fine outcomes 0 and 1 are possible
    V_COARSE, V_FINE = np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0])
    BOTH, SECOND = np.array([0, 1]), np.array([1])

    def test_balanced_witness_extends(self):
        extension = _extension_from(np.eye(2), self.V_COARSE, self.V_FINE, self.BOTH, self.BOTH)
        np.testing.assert_array_equal(extension.matrix, [[1, 0, 0], [0, 1, 1]])

    def test_overspent_volume_gives_none(self):
        # both fine outcomes go to coarse outcome 0: volume slack 1 - 2 = -1 < -1e-6,
        # so the clipped fill of the third column sums to 2, not 1
        witness = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert _extension_from(witness, self.V_COARSE, self.V_FINE, self.BOTH, self.BOTH) is None

    def test_witness_rows_and_columns_keep_their_outcomes(self):
        # an asymmetric witness on outcomes (0, 1) of both sides, coarse
        # volumes (1.5, 1.5): the third column gets (1.5 - 1.5, 1.5 - 0.5)
        witness = np.array([[1.0, 0.5], [0.0, 0.5]])
        extension = _extension_from(witness, np.array([1.5, 1.5]), self.V_FINE, self.BOTH, self.BOTH)
        np.testing.assert_array_equal(extension.matrix, [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])

    def test_fill_spreads_the_left_volume_over_impossible_outcomes(self):
        # possible fine outcome 1 only, and coarse outcome 1 only: the other
        # columns get (V'_j - witness share) / (V_0 + V_2) in every row
        extension = _extension_from(np.array([[1.0]]), self.V_COARSE, self.V_FINE, self.SECOND, self.SECOND)
        np.testing.assert_array_equal(extension.matrix, [[0.5, 0.0, 0.5], [0.5, 1.0, 0.5]])


class TestProjectiveFastPath:
    def test_textbook_merge(self):
        e = [ket(*(1 if k == i else 0 for k in range(4))) for i in range(4)]
        fine = validate_measurement([proj(v) for v in e])
        coarse = validate_measurement([proj(e[0]) + proj(e[1]), proj(e[2]) + proj(e[3])])
        partition = check_coarser_projective(coarse, fine)
        assert partition == ((0, 1), (2, 3))

    def test_identity_partition(self, z_measurement):
        assert check_coarser_projective(z_measurement, z_measurement) == ((0,), (1,))

    def test_four_dim_pair_has_no_partition(self):
        coarse, fine = four_dim_pair()
        assert check_coarser_projective(coarse, fine) is None
        assert not exhaustive_partition_exists(coarse, fine)

    def test_requires_projective_coarse(self, halves_measurement, z_measurement):
        with pytest.raises(NotProjectiveError):
            check_coarser_projective(halves_measurement, z_measurement)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(41)
        for k in range(60):
            d = int(rng.integers(2, 5))
            blocks = int(rng.integers(1, d + 1))
            coarse = random_projective(d, blocks, rng)
            if k % 2 == 0:
                pieces = []
                for p in coarse.elements:
                    w, v = np.linalg.eigh(p)
                    basis = v[:, w > 0.5]
                    small = random_povm(basis.shape[1], int(rng.integers(1, 3)), rng, with_kraus=False)
                    pieces.extend(basis @ e @ basis.conj().T for e in small.elements)
                order = rng.permutation(len(pieces))
                fine = validate_measurement([pieces[i] for i in order], atol=1e-9)
            else:
                fine = random_povm(d, int(rng.integers(2, 5)), rng, with_kraus=False)
            fast = check_coarser_projective(coarse, fine)
            slow = exhaustive_partition_exists(coarse, fine)
            assert (fast is not None) == slow


class TestRestrictTransitionMatrix:
    def test_identity_restriction(self):
        mat = StochasticMatrix(np.eye(3))
        out = restrict_transition_matrix(mat, (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2))
        np.testing.assert_allclose(out.matrix, np.eye(3))

    def test_restriction_drops_zero_rows(self):
        big = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        out = restrict_transition_matrix(big, (1,), (0,), (0, 1), (0, 1))
        np.testing.assert_allclose(out.matrix, [[1.0]])

    def test_broken_column_sum_raises(self):
        big = StochasticMatrix([[0.5, 1.0], [0.5, 0.0]])
        with pytest.raises(BrokenColumnSumError):
            restrict_transition_matrix(big, (0,), (0,), (0, 1), (0, 1))

    @pytest.mark.parametrize("lost, accepted", [(0.9e-6, True), (1.1e-6, False)])
    def test_column_sum_bound_is_1e_minus_6(self, lost, accepted):
        # the kept column sums to 1 - lost
        big = StochasticMatrix([[1.0 - lost, 0.0], [lost, 1.0]])
        if accepted:
            out = restrict_transition_matrix(big, (0,), (0,), (0, 1), (0, 1))
            assert out.matrix[0, 0] == 1.0 - lost
        else:
            with pytest.raises(BrokenColumnSumError):
                restrict_transition_matrix(big, (0,), (0,), (0, 1), (0, 1))

    def test_unknown_label_raises_index_error(self):
        big = StochasticMatrix(np.eye(2))
        with pytest.raises(IndexError):
            restrict_transition_matrix(big, (5,), (0,), (0, 1), (0, 1))

    @pytest.mark.parametrize(
        "bad",
        [[[1.5, 1.0], [0.0, 0.0]], [[np.nan, 1.0], [1.0, 0.0]], [[-0.5, 1.0], [1.5, 0.0]]],
        ids=["sum", "nan", "negative"],
    )
    @pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
    def test_non_stochastic_matrix_raises_in_every_form(self, bad, form):
        with pytest.raises(NotStochasticError):
            restrict_transition_matrix(form(bad), (0, 1), (0, 1), (0, 1), (0, 1))


class TestCoarsen:
    def test_identity_returns_same_elements(self):
        povm = random_povm(3, 3, seed=43, with_kraus=False)
        out = coarsen(povm, np.eye(3))
        for a, b in zip(out.elements, povm.elements):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_total_merge_gives_identity_measurement(self):
        povm = random_povm(3, 4, seed=47, with_kraus=False)
        out = coarsen(povm, np.ones((1, 4)))
        assert out.n_outcomes == 1
        np.testing.assert_allclose(out.elements[0], np.eye(3), atol=1e-10)

    def test_interior_mixture_breaks_zero_one_relation(self):
        # a strictly-mixing coarse graining of a projective measurement is coarser
        # in the stochastic sense but admits no subset partition
        rng = np.random.default_rng(53)
        fine = random_projective(3, 3, rng)
        mix = random_left_stochastic(2, 3, rng)
        assert np.all(mix.matrix > 1e-3)  # interior entries almost surely
        coarse = coarsen(fine, mix)
        assert check_coarser(coarse, fine).feasible
        assert not exhaustive_partition_exists(coarse, fine)

    def test_zero_rows_dropped_with_labels(self):
        povm = random_povm(2, 2, seed=59, with_kraus=False)
        mat = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        mat[1, 0] = 0.0  # row of zeros: the others cover the columns
        out = coarsen(povm, mat)
        assert out.n_outcomes == 1
        assert out.labels == (0,)

    @pytest.mark.parametrize("weight, labels", [(0.9e-10, (0,)), (1.1e-10, (0, 1))])
    def test_zero_row_bound_is_1e_minus_10(self, z_measurement, weight, labels):
        # row 1 mixes to weight * |1><1|, of Frobenius norm weight
        out = coarsen(z_measurement, [[1.0, 1.0 - weight], [0.0, weight]])
        assert out.labels == labels

    def test_rejects_wrong_width(self):
        povm = random_povm(2, 2, seed=61, with_kraus=False)
        with pytest.raises(NotStochasticError):
            coarsen(povm, np.eye(3))


class TestEntropyPreservationCondition:
    def test_identity_preserves(self):
        w = random_weighted_distribution(3, seed=67)
        assert preserves_observational_entropy(np.eye(3), w)

    def test_equal_ratio_merge_preserves(self):
        w = WeightedDistribution([0.5, 0.5], [1.0, 1.0])
        merge = np.array([[1.0, 1.0]])
        assert preserves_observational_entropy(merge, w)
        from povmcoarse import s_obs_classical

        assert abs(
            s_obs_classical(push_forward(merge, w)) - s_obs_classical(w)
        ) <= 1e-12

    @pytest.mark.parametrize("gap, preserved", [(0.9e-8, True), (1.1e-8, False)])
    def test_bound_is_1e_minus_8(self, gap, preserved):
        # merging (0.5 + gap/2, 0.5 - gap/2) over unit volumes: |P_ji p_i V'_j - P_ji V_i p'_j| = gap
        w = WeightedDistribution([0.5 + gap / 2, 0.5 - gap / 2], [1.0, 1.0])
        assert preserves_observational_entropy(np.array([[1.0, 1.0]]), w) is preserved

    def test_unequal_ratio_merge_increases(self):
        w = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        merge = np.array([[1.0, 1.0]])
        assert not preserves_observational_entropy(merge, w)
        from povmcoarse import s_obs_classical

        delta = s_obs_classical(push_forward(merge, w)) - s_obs_classical(w)
        # direct evaluation: ln 2 - (3/4 ln(4/3) + 1/4 ln 4)
        assert delta == pytest.approx(
            math.log(2) - (0.75 * math.log(4 / 3) + 0.25 * math.log(4)), abs=1e-12
        )
        assert delta > 0
