"""Acceptance suite: golden-instance reproduction plus full property runs.

Each check prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them live). Runtime limits are asserted alongside the numerical tolerances.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np
import pytest

from povmcoarse import (
    DensityMatrix,
    Subspace,
    WeightedDistribution,
    check_coarser,
    check_coarser_classical,
    check_coarser_in_subspace,
    check_coarser_projective,
    coarsen,
    mixture_residual,
    observational_entropy,
    outcome_probabilities,
    push_forward,
    run_suite,
    s_obs_classical,
    validate_measurement,
    von_neumann_entropy,
)
from povmcoarse.cli import main as cli_main
from povmcoarse.randomgen import (
    random_left_stochastic,
    random_povm,
    random_projective,
    random_weighted_distribution,
)

from conftest import KET_MINUS, KET_PLUS, exhaustive_partition_exists, ket, proj

THEOREM_SUITES = (
    "dpi_kl",
    "obs_monotone",
    "dpi_mi",
    "projective_equiv",
    "lemma_processing",
    "coarser_entropy",
    "coarser_mi",
    "subspace_processing",
    "subspace_entropy",
    "subspace_mi",
    "restriction",
    "bounds",
    "composition",
)
DIMS = (2, 3, 4, 5, 6)
TRIALS = 500
SEED = 20240914

_suite_elapsed: dict[tuple[str, int], float] = {}


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_converse_counterexample():
    """Infeasible processing relation despite strictly larger entropy."""
    start = time.perf_counter()
    w_fine = WeightedDistribution([0.75, 0.25], [1.0, 1.0])
    w_coarse = WeightedDistribution([1.0, 0.0], [1.8, 0.2])
    cert = check_coarser_classical(w_fine, w_coarse)
    s_fine = s_obs_classical(w_fine)
    s_coarse = s_obs_classical(w_coarse)

    psi = ket(math.sqrt(3) / 2, 0.5)
    psi_perp = ket(0.5, -math.sqrt(3) / 2)
    coarse_q = validate_measurement(
        [proj(psi) + 0.8 * proj(psi_perp), 0.2 * proj(psi_perp)]
    )
    fine_q = validate_measurement([proj(ket(1, 0)), proj(ket(0, 1))])
    rho = DensityMatrix.pure(psi)
    wq_fine = outcome_probabilities(fine_q, rho)
    wq_coarse = outcome_probabilities(coarse_q, rho)
    elapsed = time.perf_counter() - start

    checks = {
        "relation infeasible": cert.verdict == "infeasible",
        "s_coarse = ln(9/5)": abs(s_coarse - math.log(9 / 5)) <= 1e-9,
        "s_fine matches": abs(s_fine - (0.75 * math.log(4 / 3) + 0.25 * math.log(4))) <= 1e-9,
        "entropy strictly larger": s_coarse > s_fine,
        "quantum p fine": np.max(np.abs(wq_fine.probs - [0.75, 0.25])) <= 1e-12,
        "quantum V fine": np.max(np.abs(wq_fine.volumes - [1.0, 1.0])) <= 1e-12,
        "quantum p coarse": np.max(np.abs(wq_coarse.probs - [1.0, 0.0])) <= 1e-12,
        "quantum V coarse": np.max(np.abs(wq_coarse.volumes - [1.8, 0.2])) <= 1e-12,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report("converse-counterexample", ok,
            f"s_coarse={s_coarse:.4f} > s_fine={s_fine:.4f}, verdict={cert.verdict}")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_vn_relation_failure_margin():
    """Mixture-entropy identity failure, pinned to its exact separation.

    For projective measurements ``S_obs`` equals the von Neumann entropy of
    the mixture ``sum_i p_i Pi_i / V_i``; for this POVM it does not. With
    ``p = (1/2, 1/2)`` and ``V = (1/2, 3/2)``, ``S_obs = (1/2) ln 3`` while the
    mixture is ``diag(2/3, 1/3)`` with entropy ``ln 3 - (2/3) ln 2``, so the
    separation is exactly ``(1/2) ln 3 - (2/3) ln 2 ~= 0.0872``.
    """
    start = time.perf_counter()
    povm = validate_measurement(
        [0.5 * proj(ket(1, 0)), 0.5 * proj(ket(1, 0)) + proj(ket(0, 1))]
    )
    rho = DensityMatrix.pure(ket(1, 0))
    w = outcome_probabilities(povm, rho)
    s_obs = observational_entropy(povm, rho).s_obs
    mixture = sum(p / v * e for p, v, e in zip(w.probs, w.volumes, povm.elements))
    s_mixture = von_neumann_entropy(DensityMatrix(mixture, atol=1e-9))
    gap = abs(s_obs - s_mixture)
    elapsed = time.perf_counter() - start

    exact_s_obs = 0.5 * math.log(3)
    exact_s_mixture = math.log(3) - (2 / 3) * math.log(2)
    exact_gap = 0.5 * math.log(3) - (2 / 3) * math.log(2)
    checks = {
        "identity fails": gap > 1e-6,
        "s_obs = (1/2)ln3": abs(s_obs - exact_s_obs) <= 1e-12,
        "s_mixture = ln3 - (2/3)ln2": abs(s_mixture - exact_s_mixture) <= 1e-12,
        "gap = (1/2)ln3 - (2/3)ln2": abs(gap - exact_gap) <= 1e-12,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report("vn-relation-failure (exact gap (1/2)ln3 - (2/3)ln2)", ok,
            f"s_obs={s_obs:.6f}, s_mixture={s_mixture:.6f}, gap={gap:.6f}")
    assert ok, (
        f"{[k for k, v in checks.items() if not v]}: s_obs={s_obs!r}, "
        f"s_mixture={s_mixture!r}, gap={gap!r}; expected gap "
        f"(1/2)ln3 - (2/3)ln2 = {exact_gap!r}"
    )


def test_criterion_subspace_counterexamples():
    """Subspace relations: feasible per axis, infeasible jointly; non-extendable witness."""
    start = time.perf_counter()
    x_m = validate_measurement([proj(KET_PLUS), proj(KET_MINUS)])
    z_m = validate_measurement([proj(ket(1, 0)), proj(ket(0, 1))])
    span0 = Subspace.span([ket(1, 0)])
    span1 = Subspace.span([ket(0, 1)])

    cert0 = check_coarser_in_subspace(x_m, z_m, span0)
    cert1 = check_coarser_in_subspace(x_m, z_m, span1)
    cert_full = check_coarser_in_subspace(x_m, z_m, Subspace.full(2))

    plus_span = Subspace.span([KET_PLUS])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    pg = plus_span.projector.matrix
    projected = np.stack([pg @ e @ pg for e in z_m.elements])
    swap_residual = float(np.max(np.linalg.norm(
        np.einsum("ji,iab->jab", swap, projected) - projected, axis=(1, 2))))
    volumes = z_m.volumes()
    swap_volumes_ok = bool(np.all(swap @ volumes <= volumes + 1e-12))
    cert_plus = check_coarser_in_subspace(z_m, z_m, plus_span)
    cert_self = check_coarser(z_m, z_m)
    identity_gap = float(np.max(np.abs(cert_self.witness.matrix - np.eye(2))))
    swap_full_residual = mixture_residual(z_m, z_m, swap)
    elapsed = time.perf_counter() - start

    checks = {
        "feasible in span(|0>)": cert0.feasible,
        "feasible in span(|1>)": cert1.feasible,
        "infeasible in the sum": cert_full.verdict == "infeasible",
        "swap witness valid in span(|+>)": swap_residual <= 1e-12 and swap_volumes_ok,
        "span(|+>) check feasible": cert_plus.feasible,
        "full space feasible only with identity": cert_self.feasible and identity_gap <= 1e-6,
        "swap does not extend to the full space": swap_full_residual > 1.0,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report("subspace-counterexamples", ok,
            f"verdicts: span0={cert0.verdict}, span1={cert1.verdict}, full={cert_full.verdict}")
    assert ok, {k: v for k, v in checks.items() if not v}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("suite", THEOREM_SUITES)
def test_criterion_theorem_suites(suite, dim):
    """Every theorem suite passes with zero failures at each dimension."""
    start = time.perf_counter()
    report = run_suite(suite, trials=TRIALS, dim=dim, seed=SEED)
    elapsed = time.perf_counter() - start
    _suite_elapsed[(suite, dim)] = elapsed
    ok = report.failures == 0
    _report(f"suite {suite} (dim={dim}, trials={TRIALS})", ok, f"{elapsed:.1f} s")
    assert ok, report.details[:2]


def test_criterion_golden_suite_runs_once():
    report = run_suite("counterexamples", trials=1, dim=2, seed=SEED)
    ok = report.failures == 0
    _report("suite counterexamples (golden instances)", ok)
    assert ok, report.details


def test_criterion_suites_total_runtime():
    """The full suite matrix stays under five minutes."""
    total = sum(_suite_elapsed.values())
    complete = len(_suite_elapsed) == len(THEOREM_SUITES) * len(DIMS)
    ok = complete and total < 300.0
    _report("theorem suites total runtime", ok, f"{total:.1f} s over {len(_suite_elapsed)} runs")
    assert ok, f"total={total:.1f} s, runs={len(_suite_elapsed)}"


def test_criterion_projective_oracle_equivalence():
    """Feasibility vs exhaustive partition search on 200 projective-coarse pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    agreements = 0
    for k in range(200):
        d = int(rng.integers(2, 5))
        blocks = int(rng.integers(1, d + 1))
        coarse = random_projective(d, blocks, rng)
        if k % 2 == 0:
            pieces = []
            budget = 6 - coarse.n_outcomes  # keep the oracle within 6 fine outcomes
            for p in coarse.elements:
                w, v = np.linalg.eigh(p)
                basis = v[:, w > 0.5]
                split = int(rng.integers(1, 3)) if budget > 0 else 1
                budget -= split - 1
                small = random_povm(basis.shape[1], split, rng, with_kraus=False)
                pieces.extend(basis @ e @ basis.conj().T for e in small.elements)
            order = rng.permutation(len(pieces))
            fine = validate_measurement([pieces[i] for i in order], atol=1e-9)
        else:
            fine = random_povm(d, int(rng.integers(2, 7)), rng, with_kraus=False)
        assert fine.n_outcomes <= 6

        lp_verdict = check_coarser(coarse, fine).feasible
        oracle_verdict = exhaustive_partition_exists(coarse, fine)
        fast_verdict = check_coarser_projective(coarse, fine) is not None
        assert lp_verdict == oracle_verdict == fast_verdict, f"pair {k}"
        agreements += 1
    elapsed = time.perf_counter() - start
    ok = agreements == 200 and elapsed < 60.0
    _report("projective oracle equivalence", ok, f"200 pairs in {elapsed:.1f} s")
    assert ok


def test_criterion_region_scan(tmp_path):
    """101x101 scan: feasibility region strictly inside the entropy region."""
    start = time.perf_counter()
    out_path = tmp_path / "regions.csv"
    code = cli_main([
        "region-scan", "--p1", "0.75", "--v1", "1.0", "--vtot", "2.0",
        "--grid", "101", "--out", str(out_path),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101 * 101

    violations = sum(1 for r in rows if r["feasible"] == "1" and r["s_greater"] == "0")
    orange_not_blue = sum(1 for r in rows if r["s_greater"] == "1" and r["feasible"] == "0")
    target = [
        r for r in rows
        if abs(float(r["p2"]) - 1.0) <= 1e-12 and abs(float(r["v2"]) - 1.8) <= 1e-9
    ]
    checks = {
        "no feasible point outside the entropy region": violations == 0,
        "strict inclusion": orange_not_blue > 0,
        "(1, 1.8) is entropy-only": len(target) == 1
        and target[0]["s_greater"] == "1" and target[0]["feasible"] == "0",
        "runtime < 10 s": elapsed < 10.0,
    }
    ok = all(checks.values())
    _report("region-scan", ok,
            f"{violations} violations, {orange_not_blue} strict cells, {elapsed:.1f} s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_witness_soundness():
    """Every feasible certificate survives an independent recomputation at 1e-7."""
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    worst = 0.0

    def recompute_quantum(cert, coarse, fine) -> float:
        w = cert.witness.matrix
        gap = 0.0
        for j in range(coarse.n_outcomes):
            mix = np.zeros((fine.dim, fine.dim), dtype=complex)
            for i in range(fine.n_outcomes):
                mix = mix + w[j, i] * fine.elements[i]
            gap = max(gap, float(np.linalg.norm(mix - coarse.elements[j])))
        return gap

    for _ in range(60):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 5))
        fine = random_povm(d, n, rng, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(int(rng.integers(1, n + 1)), n, rng))
        cert = check_coarser(coarse, fine)
        assert cert.feasible
        worst = max(worst, recompute_quantum(cert, coarse, fine))
        checked += 1

    for _ in range(60):
        n = int(rng.integers(2, 6))
        w = random_weighted_distribution(n, rng)
        out = push_forward(random_left_stochastic(int(rng.integers(1, 5)), n, rng), w)
        cert = check_coarser_classical(w, out)
        assert cert.feasible
        mat = cert.witness.matrix
        gap = max(
            float(np.max(np.abs(mat @ w.probs - out.probs))),
            float(np.max(np.abs(mat @ w.volumes - out.volumes))),
        )
        worst = max(worst, gap)
        checked += 1

    from povmcoarse.suites import _random_subspace_coarser_pair

    for k in range(60):
        d = int(rng.integers(2, 7))
        fine, coarse, inside = _random_subspace_coarser_pair(rng, d)
        cert = check_coarser_in_subspace(coarse, fine, inside)
        assert cert.feasible
        pg = inside.projector.matrix
        w = cert.witness.matrix
        gap = 0.0
        for row, j in enumerate(cert.coarse_outcomes):
            mix = np.zeros((d, d), dtype=complex)
            for col, i in enumerate(cert.fine_outcomes):
                mix = mix + w[row, col] * (pg @ fine.elements[i] @ pg)
            gap = max(gap, float(np.linalg.norm(mix - pg @ coarse.elements[j] @ pg)))
        worst = max(worst, gap)
        assert float(cert.volume_slack.min()) >= -1e-7
        checked += 1

    ok = worst <= 1e-7 and checked == 180
    _report("witness soundness", ok, f"{checked} certificates, worst residual {worst:.2e}")
    assert ok
