"""Suite registry: determinism, small runs, golden instances, shortcut check."""

from __future__ import annotations

import math
from types import SimpleNamespace

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
from povmcoarse.coarseness import CoarsenessCertificate, check_coarser_projective
from povmcoarse.distributions import JointDistribution, push_forward
from povmcoarse.entropy import kl_divergence, measurement_state_joint, mutual_information, s_obs_classical
from povmcoarse.errors import InvalidRangeError, UnknownSuiteError
from povmcoarse.measurements import compose_measurements, outcome_probabilities
from povmcoarse.randomgen import (
    random_density_stack,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_subspace_state_stack,
    trial_rng,
)
from povmcoarse.serialization import (
    distribution_to_dict,
    measurement_from_dict,
    measurement_to_dict,
    state_from_dict,
    state_to_dict,
    subspace_from_dict,
)
from povmcoarse.suites import SUITE_NAMES


class TestRegistry:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nonsense", 1, 2, 0)

    def test_all_suites_pass_smoke(self):
        for report in run_all(trials=25, dim=3, seed=11):
            assert report.passed, f"{report.suite}: {report.details[:1]}"

    def test_deterministic_reports(self):
        for name in SUITE_NAMES:
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

    # a float or bool is refused, not truncated: 2.5 trials must not run 2, nor True run 1
    @pytest.mark.parametrize("trials, dim", [(3, 0), (3, -2), (-1, 2), (2.5, 2), (True, 2), (3, 2.9)])
    def test_out_of_range_dim_or_trials_raise(self, trials, dim):
        for name in SUITE_NAMES:
            with pytest.raises(InvalidRangeError):
                run_suite(name, trials=trials, dim=dim, seed=0)

    def test_seed_is_any_integer(self):
        for seed in (1.7, True, "1"):
            with pytest.raises(InvalidRangeError):
                run_suite("dpi_mi", trials=2, dim=2, seed=seed)
        report = run_suite("dpi_mi", trials=np.int64(2), dim=np.int32(2), seed=-5)
        assert report.trials == 2 and type(report.trials) is int

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
            fine, coarse = suites._random_coarser_pair(trial_rng(9, t), 3)
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
            fine, coarse, inside = suites._random_subspace_coarser_pair(trial_rng(9, t), 3)
            assert np.array_equal(subspace_from_dict(record["subspace"]).basis, inside.basis)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)

    def test_coarser_entropy_state_record(self, monkeypatch):
        """The pair and the state rebuild from trial_rng(seed, t) alone: pair, five ranks, states."""
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
            fine, coarse = suites._random_coarser_pair(rng, 2)
            rho = random_density_stack(2, rng.integers(1, 3, size=5), rng)[0]
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)
            rebuilt_fine = measurement_from_dict(record["fine"])
            rebuilt_coarse = measurement_from_dict(record["coarse"])
            assert record["fine_entropy"] == observational_entropy(rebuilt_fine, state).s_obs
            assert record["coarse_entropy"] == observational_entropy(rebuilt_coarse, state).s_obs

    def test_subspace_mi_state_record(self, monkeypatch):
        """The pair and the state rebuild from trial_rng(seed, t) alone: pair, then 50 states."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1.0)
        report = run_suite("subspace_mi", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == [
                "trial", "violated", "fine_mi", "coarse_mi", "state", "subspace", "coarse", "fine",
            ]
            assert record["trial"] == t
            rng = trial_rng(9, t)
            fine, coarse, inside = suites._random_subspace_coarser_pair(rng, 3)
            rho = random_subspace_state_stack(inside, [inside.rank] * 50, rng)[0]
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho)
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
        """The pair and the state rebuild from trial_rng(seed, t) alone: pair, then 50 states."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1.0)
        report = run_suite("lemma_processing", trials=4, dim=3, seed=9)
        assert report.failures == 4
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "gap", "state", "coarse", "fine"]
            assert record["trial"] == t
            rng = trial_rng(9, t)
            fine, coarse = suites._random_coarser_pair(rng, 3)
            rho = random_density_stack(3, [3] * 50, rng)[0]
            state = state_from_dict(record["state"])
            assert np.array_equal(state.matrix, rho)
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)
            witness = check_coarser(
                measurement_from_dict(record["coarse"]), measurement_from_dict(record["fine"])
            ).witness.matrix
            p_fine = outcome_probabilities(measurement_from_dict(record["fine"]), state).probs
            p_coarse = outcome_probabilities(measurement_from_dict(record["coarse"]), state).probs
            assert record["gap"] == float(np.max(np.abs(p_coarse - witness @ p_fine)))

    @staticmethod
    def replay(draw, seed, dim, t):
        """The inputs of trial ``t``, drawn again from its own generator."""
        return draw(trial_rng(seed, t), dim, t)

    def test_dpi_kl_inequality_records(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1e9)  # the first check fails on every trial
        report = run_suite("dpi_kl", trials=4, dim=3, seed=9)
        assert [record["trial"] for record in report.details] == [0, 1, 2, 3]
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "before", "after", "P", "p", "q"]
            assert record["violated"] == "D(p||q) >= D(Pp||Pq)"
            p_mat, p, q, equality = self.replay(suites._draw_dpi_kl, 9, 3, t)
            assert (equality is None) == (t % 2 == 1)
            assert record["before"] == kl_divergence(p, q)
            assert record["after"] == kl_divergence(p_mat.matrix @ p, p_mat.matrix @ q)
            assert record["P"] == p_mat.matrix.tolist()
            assert record["p"] == p.tolist() and record["q"] == q.tolist()

    def test_dpi_kl_equality_records(self, monkeypatch):
        """Only the even trials draw an equality case, drawn after the general instance."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "EQ_TOL", -1.0)
        report = run_suite("dpi_kl", trials=4, dim=3, seed=9)
        assert [record["trial"] for record in report.details] == [0, 2]
        for record in report.details:
            assert list(record) == ["trial", "violated", "before", "after", "P", "p", "q"]
            assert record["violated"] == "equality case D(p||q) == D(Pp||Pq)"
            merge, p2, q2 = self.replay(suites._draw_dpi_kl, 9, 3, record["trial"])[3]
            assert record["before"] == kl_divergence(p2, q2)
            assert record["after"] == kl_divergence(merge.matrix @ p2, merge.matrix @ q2)
            assert record["P"] == merge.matrix.tolist()
            assert record["p"] == p2.tolist() and record["q"] == q2.tolist()

    def test_obs_monotone_inequality_records(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1e9)
        report = run_suite("obs_monotone", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "before", "after", "P", "w"]
            p_mat, w, mode, merge, _ = self.replay(suites._draw_obs_monotone, 9, 3, t)
            assert mode == t and (merge is None) == (t == 2)
            assert record["before"] == s_obs_classical(w)
            assert record["after"] == s_obs_classical(push_forward(p_mat, w))
            assert record["P"] == p_mat.matrix.tolist()
            assert record["w"] == distribution_to_dict(w)

    def test_obs_monotone_equality_records(self, monkeypatch):
        """Mode 0 (``t % 3 == 0``) builds an equality, drawn after the general instance."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "EQ_TOL", -1.0)
        report = run_suite("obs_monotone", trials=6, dim=3, seed=9)
        assert [record["trial"] for record in report.details] == [0, 3]
        for record in report.details:
            assert list(record) == ["trial", "violated", "delta", "P", "w"]
            _, _, mode, merge, w_eq = self.replay(suites._draw_obs_monotone, 9, 3, record["trial"])
            assert mode == 0
            assert record["delta"] == s_obs_classical(push_forward(merge, w_eq)) - s_obs_classical(w_eq)
            assert record["P"] == merge.matrix.tolist()
            assert record["w"] == distribution_to_dict(w_eq)

    def test_obs_monotone_strict_increase_records(self, monkeypatch):
        """Mode 1 (``t % 3 == 1``) merges two outcomes of distinct ratios."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "EQ_TOL", 1e9)
        monkeypatch.setattr(suites, "INEQ_TOL", 1e9)
        report = run_suite("obs_monotone", trials=6, dim=3, seed=9)
        assert [record["trial"] for record in report.details] == [1, 4]
        for record in report.details:
            assert list(record) == ["trial", "violated", "delta", "w"]
            _, _, mode, merge, w_gap = self.replay(suites._draw_obs_monotone, 9, 3, record["trial"])
            assert mode == 1 and merge.matrix.tolist() == [[1.0, 1.0]]
            assert record["delta"] == s_obs_classical(push_forward(merge, w_gap)) - s_obs_classical(w_gap)
            assert record["w"] == distribution_to_dict(w_gap)

    def test_dpi_mi_records(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1e9)
        report = run_suite("dpi_mi", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "before", "after", "px", "y_given_x", "z_given_y"]
            px, y_given_x, z_given_y = self.replay(suites._draw_dpi_mi, 9, 3, t)
            pxy = px[:, None] * y_given_x.T
            assert record["before"] == mutual_information(JointDistribution(pxy))
            assert record["after"] == mutual_information(JointDistribution(pxy @ z_given_y.T))
            assert record["px"] == px.tolist()
            assert record["y_given_x"] == y_given_x.tolist()
            assert record["z_given_y"] == z_given_y.tolist()

    def test_bounds_records(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1e9)
        report = run_suite("bounds", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "s_obs", "s_vn", "log_dim", "measurement", "state"]
            povm, rho = self.replay(suites._draw_bounds, 9, 3, t)
            entropy = observational_entropy(povm, rho)
            assert record["s_obs"] == entropy.s_obs and record["s_vn"] == entropy.s_vn
            assert record["log_dim"] == math.log(3)
            assert record["measurement"] == measurement_to_dict(povm)
            assert record["state"] == state_to_dict(rho)

    def test_bounds_eigenbasis_records(self, monkeypatch):
        """A trivial measurement in place of the eigenbasis one gives ``ln(dim)``, not ``S_vN``."""
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "measurement_from_state", lambda rho: validate_measurement([np.eye(rho.dim)]))
        report = run_suite("bounds", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "s_obs", "s_vn", "state"]
            _, rho = self.replay(suites._draw_bounds, 9, 3, t)
            assert record["s_obs"] == observational_entropy(validate_measurement([np.eye(3)]), rho).s_obs
            assert record["s_vn"] == von_neumann_entropy(rho)
            assert record["state"] == state_to_dict(rho)

    def test_bounds_maximally_mixed_records(self, monkeypatch):
        """A pure state in place of the maximally mixed one lowers ``S_obs`` below ``ln(dim)``.

        A one-outcome POVM keeps ``S_obs = ln(dim)`` on every state, so its trial passes.
        """
        import povmcoarse.suites as suites

        pure = DensityMatrix.pure(np.eye(3)[0])
        monkeypatch.setattr(DensityMatrix, "maximally_mixed", staticmethod(lambda dim: pure))
        report = run_suite("bounds", trials=6, dim=3, seed=9)
        povms = [self.replay(suites._draw_bounds, 9, 3, t)[0] for t in range(6)]
        assert [record["trial"] for record in report.details] == [
            t for t, povm in enumerate(povms) if povm.n_outcomes > 1
        ]
        assert report.failures > 0
        for record in report.details:
            assert list(record) == ["trial", "violated", "s_obs", "log_dim", "measurement"]
            povm = povms[record["trial"]]
            assert record["s_obs"] == observational_entropy(povm, pure).s_obs
            assert record["log_dim"] == math.log(3)
            assert record["measurement"] == measurement_to_dict(povm)

    def test_composition_marginal_records(self, monkeypatch):
        import povmcoarse.suites as suites

        monkeypatch.setattr(suites, "INEQ_TOL", -1e9)
        report = run_suite("composition", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == ["trial", "violated", "gap", "first", "second"]
            first, second, _ = self.replay(suites._draw_composition, 9, 3, t)
            combined = compose_measurements(first, second)
            marginal = np.zeros_like(first.stacked())
            np.add.at(marginal, [label[0] for label in combined.labels], combined.stacked())
            assert record["gap"] == float(np.max(np.linalg.norm(marginal - first.stacked(), axis=(1, 2))))
            assert record["first"] == measurement_to_dict(first)
            assert record["second"] == measurement_to_dict(second)

    def test_composition_entropy_records(self, monkeypatch):
        """Negated entropies make the finer, combined measurement the larger; the state is drawn last."""
        import povmcoarse.suites as suites

        def negated(measurement, rho):
            return SimpleNamespace(s_obs=-observational_entropy(measurement, rho).s_obs)

        monkeypatch.setattr(suites, "observational_entropy", negated)
        report = run_suite("composition", trials=3, dim=3, seed=9)
        assert report.failures == 3
        for t, record in enumerate(report.details):
            assert list(record) == [
                "trial", "violated", "first_entropy", "combined_entropy", "state", "first", "second",
            ]
            first, second, rho = self.replay(suites._draw_composition, 9, 3, t)
            combined = compose_measurements(first, second)
            assert record["first_entropy"] == -observational_entropy(first, rho).s_obs
            assert record["combined_entropy"] == -observational_entropy(combined, rho).s_obs
            assert record["state"] == state_to_dict(rho)
            assert record["first"] == measurement_to_dict(first)
            assert record["second"] == measurement_to_dict(second)

    @pytest.mark.parametrize("verdict", ["infeasible", "feasible"])
    def test_projective_equiv_records(self, monkeypatch, verdict):
        """Even trials refine the projective measurement, odd ones draw an unrelated POVM.

        A trial is reported when the forced verdict contradicts the partition
        fast path: ``infeasible`` every refined pair (and an unrelated pair that
        happens to have a partition), ``feasible`` every pair without one.
        """
        import povmcoarse.suites as suites

        cert = CoarsenessCertificate(verdict, None, float("inf"), 1.0)
        monkeypatch.setattr(suites, "check_coarser", lambda *a, **k: cert)
        report = run_suite("projective_equiv", trials=8, dim=3, seed=9)
        drawn = [self.replay(suites._projective_trial, 9, 3, t) for t in range(8)]
        assert [expected for _, _, _, expected in drawn] == [True, None] * 4
        partitions = [check_coarser_projective(coarse, fine) for fine, coarse, _, _ in drawn]
        failing = [t for t, partition in enumerate(partitions) if (partition is None) == (verdict == "feasible")]
        assert [record["trial"] for record in report.details] == failing
        if verdict == "infeasible":
            assert set(range(0, 8, 2)) <= set(failing)
        else:
            assert failing and all(t % 2 for t in failing)
        for record in report.details:
            assert list(record) == ["trial", "violated", "partition", "verdict", "coarse", "fine"]
            fine, coarse, _, _ = drawn[record["trial"]]
            partition = partitions[record["trial"]]
            assert record["partition"] == (None if partition is None else [list(b) for b in partition])
            assert record["verdict"] == verdict
            self.assert_same_measurement(record["coarse"], coarse)
            self.assert_same_measurement(record["fine"], fine)

class TestSweepStates:
    """One pass: the first state whose excess is not ``<= 0`` is reported with its values."""

    @staticmethod
    def sweep(excess):
        import povmcoarse.suites as suites

        fine = coarse = random_povm(2, 2, 0, with_kraus=False)
        states = suites.random_density_stack(2, [2] * len(excess))
        values = np.arange(len(excess)) / 10.0

        def check(fine, coarse, states):
            return np.asarray(excess, dtype=float), {"value": values}

        return states, suites._sweep_states("statement", check, fine, coarse, None, states)

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


class TestProportionalInBlocks:
    """The equality-case construction against the masked per-block sums it replaced."""

    @pytest.mark.parametrize("n", [2, 5, 7, 8, 12])
    def test_matches_masked_block_sums(self, n):
        import povmcoarse.suites as suites

        rng = np.random.default_rng(n)
        for _ in range(50):
            k = int(rng.integers(1, n + 1))
            block = rng.integers(0, k, size=n)
            ref = rng.exponential(size=n) + 0.05
            weights = rng.exponential(size=k)
            mass = np.array([ref[block == j].sum() for j in range(k)])
            want = ref * weights[block] / mass[block]
            got = suites._proportional_in_blocks(block, ref, weights)
            if n < 8:
                # fewer than 8 terms: numpy's sum adds in index order, like bincount
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=n * np.finfo(float).eps, atol=0.0)
