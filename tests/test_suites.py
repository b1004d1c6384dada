"""Suite registry: determinism, small runs, golden instances, shortcut check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from povmcoarse import (
    DensityMatrix,
    check_coarser,
    coarsen,
    counterexample_registry,
    observational_entropy,
    run_all,
    run_suite,
    validate_measurement,
    von_neumann_entropy,
)
from povmcoarse.coarseness import CoarsenessCertificate
from povmcoarse.entropy import measurement_state_joint, mutual_information
from povmcoarse.errors import InvalidRangeError, UnknownSuiteError
from povmcoarse.measurements import outcome_probabilities
from povmcoarse.randomgen import (
    random_density_matrix,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_state_in_subspace,
    trial_rng,
)
from povmcoarse.serialization import measurement_from_dict, state_from_dict, subspace_from_dict
from povmcoarse.suites import SUITE_NAMES


class TestRegistry:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nonsense", 1, 2, 0)

    def test_all_suites_pass_smoke(self):
        for report in run_all(trials=25, dim=3, seed=11):
            assert report.passed, f"{report.suite}: {report.details[:1]}"

    def test_deterministic_reports(self):
        for name in ("dpi_kl", "obs_monotone", "lemma_processing", "subspace_processing"):
            first = run_suite(name, trials=15, dim=3, seed=21)
            second = run_suite(name, trials=15, dim=3, seed=21)
            assert first.trials == second.trials
            assert first.failures == second.failures
            assert first.details == second.details

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_passes_at_dim_one(self, name):
        report = run_suite(name, trials=6, dim=1, seed=5)
        assert report.passed, f"{name}: {report.details[:1]}"
        assert report.trials == 6

    @pytest.mark.parametrize("trials, dim", [(3, 0), (3, -2), (-1, 2)])
    def test_out_of_range_dim_or_trials_raise(self, trials, dim):
        for name in SUITE_NAMES:
            with pytest.raises(InvalidRangeError):
                run_suite(name, trials=trials, dim=dim, seed=0)

    def test_report_dict_shape(self):
        report = run_suite("bounds", trials=5, dim=2, seed=1)
        payload = report.to_dict()
        assert set(payload) == {"suite", "trials", "failures", "details", "elapsed_ms"}
        assert payload["failures"] == 0

    def test_seed_changes_instances(self):
        # different seeds must not silently reuse the same instances: compare a
        # sampled random state drawn inside two differently-seeded suites
        from povmcoarse.randomgen import trial_rng

        a = trial_rng(1, 0).standard_normal(4)
        b = trial_rng(2, 0).standard_normal(4)
        assert not np.allclose(a, b)


class TestGoldenInstances:
    def test_registry_has_four_named_instances(self):
        names = [name for name, _ in counterexample_registry()]
        assert names == [
            "vn_relation_failure",
            "converse_of_entropy_monotonicity",
            "sum_of_subspaces",
            "non_extendable_witness",
        ]

    def test_all_golden_instances_pass(self):
        for name, runner in counterexample_registry():
            payload = runner()
            assert payload["passed"], f"{name}: {payload['checks']}"

    def test_vn_relation_failure_values(self):
        payload = dict(counterexample_registry())["vn_relation_failure"]()
        assert payload["s_obs"] == pytest.approx(0.5 * math.log(3), abs=1e-12)
        assert payload["s_mixture"] == pytest.approx(
            math.log(3) - (2 / 3) * math.log(2), abs=1e-12
        )
        assert payload["gap"] > 0.05
        assert payload["gap"] == pytest.approx(
            0.5 * math.log(3) - (2 / 3) * math.log(2), abs=1e-12
        )

    def test_converse_instance_values(self):
        payload = dict(counterexample_registry())["converse_of_entropy_monotonicity"]()
        assert payload["verdict"] == "infeasible"
        assert payload["s_coarse"] == pytest.approx(math.log(1.8), abs=1e-9)
        assert payload["s_fine"] == pytest.approx(
            0.75 * math.log(4 / 3) + 0.25 * math.log(4), abs=1e-9
        )

    def test_counterexamples_suite_wraps_registry(self):
        report = run_suite("counterexamples", trials=1, dim=2, seed=0)
        assert report.passed


class TestProjectiveShortcut:
    def test_entropy_equality_predicts_feasibility(self):
        """A projective coarse candidate can be tested through one entropy value.

        Give the candidate's projectors distinct generic eigenvalues
        (1, 1/2, 1/4, ... normalized); the resulting state has exactly those
        eigenspaces, and the feasibility verdict coincides with the equality
        of its von Neumann entropy and its observational entropy under the
        finer measurement.
        """
        rng = np.random.default_rng(71)
        agreements = 0
        for k in range(100):
            d = int(rng.integers(2, 5))
            blocks = int(rng.integers(1, min(d, 3) + 1))
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

            weights = np.array([2.0 ** (-j) for j in range(coarse.n_outcomes)])
            ranks = np.array([round(np.trace(p).real) for p in coarse.elements])
            weights = weights / float(weights @ ranks)
            rho = DensityMatrix(
                sum(w * p for w, p in zip(weights, coarse.elements)), atol=1e-9
            )
            entropy_equal = (
                abs(von_neumann_entropy(rho) - observational_entropy(fine, rho).s_obs) <= 1e-8
            )
            feasible = check_coarser(coarse, fine).feasible
            assert entropy_equal == feasible
            agreements += 1
        assert agreements == 100


class TestPinnedInvocations:
    """Specific suite calls that must come back clean."""

    def test_bounds_thousand_trials_dim_four(self):
        assert run_suite("bounds", 1000, 4, 7).failures == 0

    def test_coarser_entropy_five_hundred_trials_dim_three(self):
        assert run_suite("coarser_entropy", 500, 3, 7).failures == 0

    def test_counterexamples_single_trial(self):
        assert run_suite("counterexamples", 1, 2, 0).failures == 0


class TestCoarserPairsAcrossDims:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_constructed_pairs_feasible(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            fine = random_povm(dim, n, rng, with_kraus=False)
            coarse = coarsen(fine, random_left_stochastic(int(rng.integers(1, n + 1)), n, rng))
            assert check_coarser(coarse, fine).feasible


class TestFailurePayloads:
    """A failing trial's record replays the exact instance that was checked."""

    INFEASIBLE = CoarsenessCertificate("infeasible", None, float("inf"), 1.0)

    @staticmethod
    def assert_same_measurement(payload, expected):
        rebuilt = measurement_from_dict(payload)
        assert rebuilt.n_outcomes == expected.n_outcomes
        for got, want in zip(rebuilt.elements, expected.elements):
            assert np.array_equal(got, want)

    def test_lemma_processing_record(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "check_coarser", lambda *a, **k: self.INFEASIBLE)
        report = run_suite("lemma_processing", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "verdict", "coarse", "fine"]
            assert record["trial"] == t
            assert record["verdict"] == "infeasible"
            fine, coarse, _ = suites._random_coarser_pair(trial_rng(9, t), 3)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)

    def test_subspace_processing_record(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "check_coarser_in_subspace", lambda *a, **k: self.INFEASIBLE)
        report = run_suite("subspace_processing", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "verdict", "subspace", "coarse", "fine"]
            assert record["trial"] == t
            fine, coarse, inside, _ = suites._random_subspace_coarser_pair(trial_rng(9, t), 3)
            assert np.array_equal(subspace_from_dict(record["subspace"]).basis, inside.basis)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)

    def test_coarser_entropy_state_record(self, monkeypatch):
        """States come from the trial generator: the rank, then the state."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1.0)  # every state violates, the first is kept
        report = run_suite("coarser_entropy", trials=4, dim=2, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == [
                "trial", "violated", "fine_entropy", "coarse_entropy", "state", "coarse", "fine",
            ]
            assert record["trial"] == t
            rng = trial_rng(9, t)
            fine, coarse, _ = suites._random_coarser_pair(rng, 2)
            rho = random_density_matrix(2, int(rng.integers(1, 3)), rng)
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho.matrix)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)
            rebuilt_fine = measurement_from_dict(record["fine"])
            rebuilt_coarse = measurement_from_dict(record["coarse"])
            assert record["fine_entropy"] == observational_entropy(rebuilt_fine, state).s_obs
            assert record["coarse_entropy"] == observational_entropy(rebuilt_coarse, state).s_obs

    def test_subspace_mi_state_record(self, monkeypatch):
        """State s of trial t replays alone from trial_rng(seed, trials + 50 t + s)."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1.0)
        report = run_suite("subspace_mi", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == [
                "trial", "violated", "fine_mi", "coarse_mi", "state", "subspace", "coarse", "fine",
            ]
            assert record["trial"] == t
            fine, coarse, inside, _ = suites._random_subspace_coarser_pair(trial_rng(9, t), 3)
            rho = random_state_in_subspace(inside, trial_rng(9, 4 + 50 * t))
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho.matrix)
            subspace = subspace_from_dict(record["subspace"])
            assert np.array_equal(subspace.basis, inside.basis)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)
            rebuilt_fine = measurement_from_dict(record["fine"])
            rebuilt_coarse = measurement_from_dict(record["coarse"])
            assert record["fine_mi"] == mutual_information(measurement_state_joint(rebuilt_fine, state))
            assert record["coarse_mi"] == mutual_information(
                measurement_state_joint(rebuilt_coarse, state)
            )

    def test_lemma_processing_state_record(self, monkeypatch):
        """The per-state gap record carries the state from trial_rng(seed, trials + 50 t + s)."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1.0)
        report = run_suite("lemma_processing", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "gap", "state", "coarse", "fine"]
            assert record["trial"] == t
            fine, coarse, _ = suites._random_coarser_pair(trial_rng(9, t), 3)
            rho = random_density_matrix(3, None, trial_rng(9, 4 + 50 * t))
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho.matrix)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)
            witness = check_coarser(
                measurement_from_dict(record["coarse"]), measurement_from_dict(record["fine"])
            ).witness.matrix
            p_fine = outcome_probabilities(measurement_from_dict(record["fine"]), state).probs
            p_coarse = outcome_probabilities(measurement_from_dict(record["coarse"]), state).probs
            assert record["gap"] == float(np.max(np.abs(p_coarse - witness @ p_fine)))


class TestSweepStates:
    """One pass: the first state whose excess is not ``<= 0`` is reported with its values."""

    @staticmethod
    def sweep(excess):
        import povmcoarse.suites as suites

        fine = coarse = random_povm(2, 2, 0, with_kraus=False)
        states = suites.random_density_stack(2, ((None, s) for s in range(len(excess))))
        values = np.arange(len(excess)) / 10.0

        def check(fine, coarse, states):
            return np.asarray(excess, dtype=float), {"value": values}

        return states, suites._sweep_states("statement", states, check, coarse, fine)

    def test_first_positive_excess_is_reported(self):
        states, record = self.sweep([-1.0, 0.5, 0.25])
        assert list(record) == ["violated", "value", "state", "coarse", "fine"]
        assert record["value"] == 0.1 and type(record["value"]) is float
        assert np.array_equal(state_from_dict(record["state"]).matrix, states[1])

    def test_zero_excess_passes(self):
        assert self.sweep([-1.0, 0.0, -0.0])[1] is None

    def test_nan_excess_is_reported(self):
        states, record = self.sweep([0.0, np.nan, 1.0])
        assert record["value"] == 0.1
        assert np.array_equal(state_from_dict(record["state"]).matrix, states[1])

    def test_no_violation_no_record(self):
        assert self.sweep([-1.0, -2.0, -1e-300])[1] is None
