"""Coarse-graining checks: LP layout, verdict rule, global, classical, subspace, projective."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
)
from povmcoarse.coarseness import (
    Separation,
    _component_rows,
    _extension_from,
    _processing_system,
    _upper_indices,
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


def loop_processing_system(comp_fine, comp_coarse, v_fine=None, v_coarse=None):
    """Reference assembly of the processing LP, one entry at a time.

    The last coarse outcome is eliminated: ``P_{m-1,i} = 1 - sum_{j<m-1} P_ji``
    is the slack of column sum ``i``, and its volume row is rewritten in the
    other rows' variables.
    """
    n, big_d = comp_fine.shape
    k = comp_coarse.shape[0] - 1
    a_eq = np.zeros((k * big_d, k * n))
    b_eq = np.zeros(k * big_d)
    for j in range(k):
        for c in range(big_d):
            b_eq[j * big_d + c] = comp_coarse[j, c]
            for i in range(n):
                a_eq[j * big_d + c, j * n + i] = comp_fine[i, c]
    rows = n if v_fine is None else n + k + 1
    a_ub = np.zeros((rows, k * n))
    b_ub = np.zeros(rows)
    for i in range(n):
        b_ub[i] = 1.0
        for j in range(k):
            a_ub[i, j * n + i] = 1.0
    if v_fine is None:
        return a_eq, b_eq, a_ub, b_ub
    for j in range(k):
        b_ub[n + j] = v_coarse[j]
        for i in range(n):
            a_ub[n + j, j * n + i] = v_fine[i]
    # V'_{m-1} >= sum_i (1 - sum_{j<m-1} P_ji) V_i
    b_ub[n + k] = v_coarse[k] - np.sum(v_fine)
    for j in range(k):
        for i in range(n):
            a_ub[n + k, j * n + i] = -v_fine[i]
    return a_eq, b_eq, a_ub, b_ub


class TestProcessingSystem:
    """The one LP layout shared by the three checks, against a loop assembly."""

    @staticmethod
    def assert_same_system(got, want):
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_component_rows_match_per_matrix_flattening(self, d):
        povm = random_povm(d, 5, seed=71, with_kraus=False)
        iu = np.triu_indices(d, k=1)
        want = np.stack(
            [np.concatenate([np.diag(e).real, e[iu].real, e[iu].imag]) for e in povm.elements]
        )
        assert np.array_equal(_component_rows(povm.elements), want)
        assert np.array_equal(_component_rows(povm.stacked()), want)

    def test_cached_upper_indices_refuse_writes(self):
        rows, cols = _upper_indices(5)
        assert _upper_indices(5)[0] is rows
        for arr in (rows, cols):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert all(np.array_equal(a, b) for a, b in zip(_upper_indices(5), np.triu_indices(5, k=1)))

    # (m, n, D): D = 2 is the classical (p_j, V_j) layout, D = 4 and 9 are
    # qubit and qutrit components; n == D makes the fine block square, where a
    # transposed block would broadcast without an error
    @pytest.mark.parametrize(
        "m, n, big_d",
        [(2, 2, 2), (3, 2, 2), (1, 4, 2), (2, 4, 4), (3, 4, 4), (2, 3, 9), (4, 9, 9)],
    )
    def test_matches_loop_assembly(self, m, n, big_d):
        rng = np.random.default_rng(100 * m + 10 * n + big_d)
        comp_fine = rng.standard_normal((n, big_d))
        comp_coarse = rng.standard_normal((m, big_d))
        self.assert_same_system(
            _processing_system(comp_fine, comp_coarse),
            loop_processing_system(comp_fine, comp_coarse),
        )
        v_fine, v_coarse = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, m)
        self.assert_same_system(
            _processing_system(comp_fine, comp_coarse, v_fine, v_coarse),
            loop_processing_system(comp_fine, comp_coarse, v_fine, v_coarse),
        )

    def test_classical_rows_are_outcome_major_pairs(self):
        fine = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
        coarse = WeightedDistribution([0.5, 0.25, 0.25], [1.5, 0.25, 0.25])
        pairs_fine = np.array([fine.probs, fine.volumes]).T
        pairs_coarse = np.array([coarse.probs, coarse.volumes]).T
        a_eq, b_eq, a_ub, b_ub = _processing_system(pairs_fine, pairs_coarse)
        # variables P_00, P_01, P_10, P_11; P_2i is the slack of column sum i
        np.testing.assert_array_equal(b_eq, [0.5, 1.5, 0.25, 0.25])
        np.testing.assert_array_equal(
            a_eq,
            [
                [0.75, 0.25, 0.0, 0.0],
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.75, 0.25],
                [0.0, 0.0, 1.0, 1.0],
            ],
        )
        np.testing.assert_array_equal(b_ub, [1.0, 1.0])
        np.testing.assert_array_equal(a_ub, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        # with volumes, the last outcome's row is 0.25 >= (1 - P_00 - P_10) + (1 - P_01 - P_11)
        _, _, a_ub, b_ub = _processing_system(pairs_fine, pairs_coarse, fine.volumes, coarse.volumes)
        np.testing.assert_array_equal(b_ub, [1.0, 1.0, 1.5, 0.25, -1.75])
        np.testing.assert_array_equal(
            a_ub,
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [-1.0, -1.0, -1.0, -1.0],
            ],
        )


def dependent_fine():
    """A qubit measurement whose first two elements are equal, so its span cannot decide."""
    p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
    return validate_measurement([0.5 * p0, 0.5 * p0, p1])


class TestVerdictRule:
    """All three checks downgrade a solver witness that does not reproduce the targets.

    Each input has three fine outcomes whose span leaves the LP to decide:
    dependent elements for the operator checks, three pairs in a plane for
    the classical one.
    """

    @staticmethod
    def fake_solver(x):
        def solve(*args, n_vars, **kwargs):
            # the variables are the top row of the 2 x 3 candidate
            assert n_vars == len(x) == 3
            return FeasibilityResult("feasible", np.asarray(x, dtype=float), 0.0, 0.0, 1)

        return solve

    @pytest.mark.parametrize("kind", ["global", "subspace", "classical"])
    @pytest.mark.parametrize(
        "x, residual_finite",
        # every column of [0.5] * 3 sums to one; [1.5, 0, 0] overfills column 0,
        # so the rebuilt last row is clipped from -0.5 to 0 and the column sums to 1.5
        [([0.5] * 3, True), ([1.5, 0.0, 0.0], False)],
        ids=["off-target", "not-stochastic"],
    )
    def test_bad_witness_is_ambiguous(self, monkeypatch, z_measurement, kind, x, residual_finite):
        import povmcoarse.coarseness as coarseness_module

        monkeypatch.setattr(coarseness_module, "lp_feasible", self.fake_solver(x))
        if kind == "global":
            cert = check_coarser(z_measurement, dependent_fine())
        elif kind == "subspace":
            cert = check_coarser_in_subspace(z_measurement, dependent_fine(), Subspace.full(2))
        else:
            w = WeightedDistribution([0.5, 0.25, 0.25], [1.0, 1.0, 1.0])
            cert = check_coarser_classical(w, WeightedDistribution([0.5, 0.5], [1.0, 2.0]))
        assert cert.verdict == "ambiguous"
        assert cert.witness is None
        assert math.isfinite(cert.residual) == residual_finite
        if residual_finite:
            assert cert.residual > 1e-7

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
            "global", "subspace", "classical", "majorization", "projective", "restrict", "preserves",
            "lp_feasible",
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
            elif kind == "restrict":
                # columns of the restriction sum to 0.5 and 0.1
                restrict_transition_matrix(
                    np.array([[0.5, 0.1], [0.0, 0.2]]), (0,), (0, 1), (0, 1), (0, 1), tol=tol
                )
            elif kind == "preserves":
                preserves_observational_entropy(np.eye(2), w, tol=tol)
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
        # every pair with a negative unique solution went on to the LP
        assert len(calls) - spanned == 60

    @pytest.mark.parametrize("eps", [2e-8, 4.5e-8])
    def test_gap_inside_the_band_is_ambiguous(self, monkeypatch, z_measurement, eps):
        # the X component of each coarse element is off the diagonal span by
        # eps: the span gap is eps, and so is the L1 phase-1 optimum, whose
        # rows are those of the first coarse outcome only; both lie in
        # (tol, 10 * tol]
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        coarse = validate_measurement([0.5 * np.eye(2) + eps * x, 0.5 * np.eye(2) - eps * x])
        calls = counting_lp(monkeypatch)
        cert = check_coarser(coarse, z_measurement)
        assert cert.verdict == "ambiguous"
        assert len(calls) == 1
        assert cert.phase1_optimum == pytest.approx(eps, rel=1e-6)

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

    def test_span_certificate_serializes_null_optimum(self, z_measurement):
        cert = check_coarser(z_measurement, z_measurement)
        assert cert.feasible and math.isnan(cert.phase1_optimum)
        assert certificate_to_dict(cert)["phase1_optimum"] is None


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
        system = _processing_system(_component_rows(fine.stacked()), _component_rows(mixed))
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


class TestMajorizationKernel:
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

    def test_lp_without_witness_downgrades_to_ambiguous(self, monkeypatch):
        import povmcoarse.coarseness as coarseness_module

        def infeasible(*args, n_vars, **kwargs):
            return FeasibilityResult("infeasible", None, math.inf, 1.0, 3)

        monkeypatch.setattr(coarseness_module, "lp_feasible", infeasible)
        # three fine pairs in the plane: their span cannot pick the witness
        w = WeightedDistribution([0.5, 0.25, 0.25], [1.0, 1.0, 1.0])
        cert = check_coarser_classical(w, w)
        assert cert.verdict == "ambiguous"
        assert cert.witness is None
        assert cert.phase1_optimum == 1.0
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

    @pytest.mark.parametrize("tol", [None, 1e-6], ids=["default", "1e-6"])
    def test_threshold_is_strict(self, tol):
        # ||Π_0 B||_F = s for B = |0>: possible only when s > tol (default 1e-10)
        threshold = 1e-10 if tol is None else tol
        options = {} if tol is None else {"tol": tol}

        def sees_first(s):
            povm = validate_measurement([np.diag([s, 1.0]), np.diag([1.0 - s, 0.0])])
            return possible_outcomes(povm, Subspace.span([ket(1, 0)]), **options)

        assert sees_first(2.0 * threshold) == (0, 1)
        assert sees_first(0.5 * threshold) == (1,)


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

        def recording(a_eq, *args, **kwargs):
            sizes.append(a_eq.shape)
            return lp_feasible(a_eq, *args, **kwargs)

        monkeypatch.setattr(coarseness_module, "lp_feasible", recording)
        # more outcomes than r^2: the projected elements are dependent, so the LP runs
        n = max(4, rank**2 + 1)
        fine = random_povm(dim, n, seed=dim, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(3, n, seed=rank))
        cert = check_coarser_in_subspace(coarse, fine, random_subspace(dim, rank, seed=7))
        m, n = len(cert.coarse_outcomes), len(cert.fine_outcomes)
        assert cert.feasible
        assert sizes == [((m - 1) * rank**2, (m - 1) * n)]

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
        # guard is exercised by stubbing the outcome-set computation
        import povmcoarse.coarseness as coarseness_module

        monkeypatch.setattr(coarseness_module, "possible_outcomes", lambda *a, **k: ())
        with pytest.raises(EmptyOutcomeSetError):
            coarseness_module.check_coarser_in_subspace(
                z_measurement, z_measurement, Subspace.full(2)
            )


class TestExtensionFrom:
    """Padding a subspace witness to all outcomes with the volume-balancing fill."""

    @staticmethod
    def qutrit_pair():
        basis = [proj(ket(1, 0, 0)), proj(ket(0, 1, 0)), proj(ket(0, 0, 1))]
        fine = validate_measurement(basis)  # volumes (1, 1, 1)
        coarse = validate_measurement([basis[0], basis[1] + basis[2]])  # volumes (1, 2)
        return coarse, fine

    def test_balanced_witness_extends(self):
        coarse, fine = self.qutrit_pair()
        extension = _extension_from(np.eye(2), coarse, fine, (0, 1), (0, 1))
        np.testing.assert_array_equal(extension.matrix, [[1, 0, 0], [0, 1, 1]])

    def test_overspent_volume_gives_none(self):
        # both fine outcomes go to coarse outcome 0: volume slack 1 - 2 = -1 < -1e-6,
        # so the clipped fill of the third column sums to 2, not 1
        coarse, fine = self.qutrit_pair()
        assert _extension_from(np.array([[1.0, 1.0], [0.0, 0.0]]), coarse, fine, (0, 1), (0, 1)) is None


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
