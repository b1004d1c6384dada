"""CLI contract: exit codes, JSON/CSV output shapes, file round trips."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from povmcoarse import cli
from povmcoarse.cli import main
from povmcoarse.coarseness import majorization_verdicts
from povmcoarse.distributions import WeightedDistribution, weighted_rows
from povmcoarse.randomgen import random_povm
from povmcoarse.serialization import (
    dump_json,
    measurement_from_dict,
    measurement_to_dict,
    state_to_dict,
    subspace_to_dict,
)
from povmcoarse import DensityMatrix, Subspace, validate_measurement

from conftest import KET_MINUS, KET_PLUS, ket, proj


@pytest.fixture
def files(tmp_path):
    """Measurement/state/subspace files used across the commands."""
    z = validate_measurement([proj(ket(1, 0)), proj(ket(0, 1))],
                             [[proj(ket(1, 0))], [proj(ket(0, 1))]])
    x = validate_measurement([proj(KET_PLUS), proj(KET_MINUS)])
    halves = validate_measurement([0.5 * proj(ket(1, 0)), 0.5 * proj(ket(1, 0)) + proj(ket(0, 1))])
    zero_state = DensityMatrix.pure(ket(1, 0))
    span0 = Subspace.span([ket(1, 0)])

    paths = {}
    for name, payload in {
        "z.json": measurement_to_dict(z),
        "x.json": measurement_to_dict(x),
        "halves.json": measurement_to_dict(halves),
        "zero_state.json": state_to_dict(zero_state),
        "span0.json": subspace_to_dict(span0),
    }.items():
        target = tmp_path / name
        dump_json(payload, target)
        paths[name] = str(target)
    paths["dir"] = tmp_path
    return paths


class TestEntropyCommand:
    def test_halves_instance(self, files, capsys):
        code = main(["entropy", files["halves.json"], files["zero_state.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s_obs"] == pytest.approx(0.5 * math.log(3), abs=1e-12)
        assert out["p"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert out["V"] == pytest.approx([0.5, 1.5], abs=1e-12)
        assert out["ln_v_tot"] == pytest.approx(math.log(2), abs=1e-12)

    def test_single_outcome_log_dim(self, files, tmp_path, capsys):
        trivial = tmp_path / "trivial.json"
        dump_json(measurement_to_dict(validate_measurement([np.eye(2)])), trivial)
        code = main(["entropy", str(trivial), files["zero_state.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s_obs"] == pytest.approx(math.log(2), abs=1e-12)

    def test_invalid_file_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "elements": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}')
        code = main(["entropy", str(bad), files["zero_state.json"]])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err
        assert captured.out == ""


class TestCheckCoarserCommand:
    def test_reflexive_exit_0(self, files, capsys):
        code = main(["check-coarser", files["z.json"], files["z.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["feasible"] is True
        np.testing.assert_allclose(out["P"], np.eye(2), atol=1e-8)

    def test_x_vs_z_full_space_exit_1(self, files, capsys):
        code = main(["check-coarser", files["x.json"], files["z.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["feasible"] is False

    def test_x_vs_z_in_span0_exit_0(self, files, capsys):
        code = main([
            "check-coarser", files["x.json"], files["z.json"], "--subspace", files["span0.json"],
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["coarse_outcomes"] == [0, 1]
        assert out["fine_outcomes"] == [0]

    def test_missing_file_exit_2(self, files):
        assert main(["check-coarser", files["x.json"], "/nonexistent.json"]) == 2


class TestMalformedFiles:
    """A field that must be a JSON array but is not is a validation error (exit 2), not a verdict."""

    @pytest.mark.parametrize(
        "command, name, payload",
        [
            (["check-coarser", "BAD", "z.json"], "elements.json", {"dim": 2, "elements": 5}),
            (["compose", "BAD", "z.json"], "kraus.json", {"kraus": 7}),
            (["compose", "BAD", "z.json"], "group.json", {"kraus": [7, 7]}),
            (["check-coarser", "x.json", "z.json", "--subspace", "BAD"], "basis.json",
             {"dim": 2, "basis": 5}),
        ],
        ids=["elements", "kraus", "kraus-group", "basis"],
    )
    def test_non_array_field_exit_2(self, files, tmp_path, capsys, command, name, payload):
        if "kraus" in payload:
            payload = {**json.loads((files["dir"] / "z.json").read_text()), **payload}
        bad = tmp_path / name
        dump_json(payload, bad)
        code = main([str(bad) if arg == "BAD" else files.get(arg, arg) for arg in command])
        captured = capsys.readouterr()
        assert code == 2
        assert "ValidationError" in captured.err
        assert captured.out == ""


class TestNonNumberEntries:
    """JSON strings, booleans and nulls are not numbers, in entries or in ``dim`` (exit 2)."""

    @pytest.mark.parametrize(
        "path, value",
        [(("elements", 0, 0, 0, 0), "1"), (("elements", 0, 0, 0, 0), True),
         (("elements", 1, 1, 1, 1), None), (("dim",), True), (("dim",), "2")],
        ids=["entry-string", "entry-true", "entry-null", "dim-true", "dim-string"],
    )
    def test_check_coarser_exit_2(self, files, tmp_path, capsys, path, value):
        payload = json.loads(Path(files["z.json"]).read_text())
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        bad = tmp_path / "bad.json"
        dump_json(payload, bad)
        code = main(["check-coarser", str(bad), files["z.json"]])
        captured = capsys.readouterr()
        assert code == 2
        assert "ValidationError" in captured.err
        assert captured.out == ""

    def test_bool_dim_of_a_one_dimensional_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "trivial.json"
        dump_json({"dim": True, "elements": [[[[1.0, 0.0]]]]}, bad)
        assert main(["check-coarser", str(bad), str(bad)]) == 2
        assert "ValidationError" in capsys.readouterr().err


class TestToleranceOption:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command",
        [["check-coarser", "x.json", "z.json"], ["check-coarser", "z.json", "z.json"],
         ["entropy", "halves.json", "zero_state.json"]],
        ids=["x-vs-z", "z-vs-z", "entropy"],
    )
    def test_non_finite_tol_exit_2(self, files, capsys, command, tol):
        code = main([command[0], *(files[name] for name in command[1:]), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--tol" in captured.err
        assert captured.out == ""


class TestComposeCommand:
    def test_round_trip_operator_equality(self, files, tmp_path, capsys):
        out_path = tmp_path / "composed.json"
        code = main(["compose", files["z.json"], files["x.json"], "--out", str(out_path)])
        assert code == 0
        composed = measurement_from_dict(json.loads(out_path.read_text()))
        assert composed.n_outcomes == 4
        direct_first = proj(ket(1, 0)) @ proj(KET_PLUS) @ proj(ket(1, 0))
        np.testing.assert_allclose(composed.elements[0], direct_first, atol=1e-15)

    def test_written_file_reparses_exactly(self, tmp_path, capsys):
        first = random_povm(3, 3, seed=31, with_kraus=True)
        second = random_povm(3, 2, seed=32, with_kraus=False)
        f1, f2, out_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        dump_json(measurement_to_dict(first), f1)
        dump_json(measurement_to_dict(second), f2)
        assert main(["compose", str(f1), str(f2), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        reparsed = measurement_from_dict(payload)
        rewritten = measurement_to_dict(reparsed)
        assert rewritten["elements"] == payload["elements"]  # lossless float round trip

    def test_povm_without_kraus_exit_2(self, files, capsys):
        code = main(["compose", files["halves.json"], files["z.json"]])
        assert code == 2
        assert "Kraus" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite_pass(self, capsys):
        code = main(["verify", "bounds", "--trials", "10", "--dim", "2", "--seed", "3"])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0
        assert reports[0]["suite"] == "bounds"
        assert reports[0]["failures"] == 0

    def test_all_suites_small(self, capsys):
        code = main(["verify", "all", "--trials", "5", "--dim", "2", "--seed", "4"])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(reports) == 14

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "bogus"]) == 2

    def test_bad_trials_exit_2(self, capsys):
        assert main(["verify", "bounds", "--trials", "0"]) == 2

    @pytest.mark.parametrize("suite", ["composition", "bounds", "lemma_processing", "all"])
    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_bad_dim_exit_2(self, capsys, suite, dim):
        code = main(["verify", suite, "--trials", "2", "--dim", dim])
        captured = capsys.readouterr()
        assert code == 2
        assert "InvalidRangeError" in captured.err
        assert captured.out == ""


class TestRegionScanCommand:
    def test_small_grid_structure(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        code = main([
            "region-scan", "--p1", "0.75", "--v1", "1.0", "--vtot", "2.0",
            "--grid", "11", "--out", str(out_path),
        ])
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 121
        assert set(rows[0]) == {"p2", "v2", "s_greater", "feasible"}
        # volumes stay strictly inside (0, vtot): boundary cells are clamped inward
        v_values = sorted({float(r["v2"]) for r in rows})
        assert v_values[0] == pytest.approx(0.1)
        assert v_values[-1] == pytest.approx(1.9)
        # the identity point is both feasible and entropy-non-decreasing
        identical = [r for r in rows if abs(float(r["p2"]) - 0.7) < 0.06 and abs(float(r["v2"]) - 1.0) < 1e-9]
        assert identical
        # monotonicity: every feasible cell is an entropy-non-decreasing cell
        for r in rows:
            if r["feasible"] == "1":
                assert r["s_greater"] == "1"

    def test_default_grid_matches_recorded_reference(self, capsys):
        reference = json.loads(
            (Path(__file__).parents[1] / "perfbench" / "region_reference.json").read_text()
        )
        assert main(list(reference["argv"])) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p2,v2,s_greater,feasible"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == reference["cells"]
        assert "".join(r[2] for r in rows) == reference["s_greater"]
        assert "".join(r[3] for r in rows) == reference["feasible"]

    # sha256 and size of the whole output, p2 and v2 text included
    @pytest.mark.parametrize(("argv", "digest", "size"), [
        (["--grid", "101"],
         "bed1ee9f9498416b754cc7a815675a23a5d3ea455b12ab0dcc98ade747baa5a7", 363_625),
        (["--grid", "101", "--format", "json"],
         "d9c54f835b7c9f69f4daf48fc554f3c626f8791c4a143904ed8866ac50435776", 907_003),
        (["--p1", "0.3", "--v1", "0.7", "--vtot", "2.5", "--grid", "37"],
         "f76bf1bd6a12fd7986dd87744c91ac94a8f10c5553d2eb4baa0984ef6326b2b4", 54_896),
        (["--p1", "0.3", "--v1", "0.5", "--grid", "37"],
         "da9f8fc330cba78a0fe259d6548a541afcbf723271474f93f6b6c2bbca132a36", 54_785),
    ])
    def test_output_bytes_match_recorded_digest(self, tmp_path, argv, digest, size):
        out_path = tmp_path / "scan.out"
        assert main(["region-scan", *argv, "--out", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_invalid_range_exit_2(self, capsys):
        assert main(["region-scan", "--p1", "1.5"]) == 2
        assert main(["region-scan", "--v1", "5.0"]) == 2
        assert main(["region-scan", "--grid", "1"]) == 2

    def test_json_format(self, capsys):
        code = main(["region-scan", "--grid", "3", "--format", "json"])
        cells = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(cells) == 9
        assert set(cells[0]) == {"p2", "v2", "s_greater", "feasible"}

    def test_feasible_column_is_the_public_verdict(self, tmp_path):
        """The CSV's ``feasible`` flags are ``majorization_verdicts(...) == "feasible"`` on its own cells.

        Twenty seeded ``(p1, v1, vtot)`` triples at ``--grid 37``; their
        tolerances (1e-4 to 1e-3) leave some cells ``ambiguous``, whose flag
        must be 0.
        """
        ambiguous = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p1, vtot = rng.uniform(0.05, 0.95), rng.uniform(0.5, 4.0)
            v1, tol = vtot * rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-4, -3)
            out_path = tmp_path / f"scan{seed}.csv"
            argv = ["--p1", repr(p1), "--v1", repr(v1), "--vtot", repr(vtot), "--grid", "37", "--tol", repr(tol)]
            assert main(["region-scan", *argv, "--out", str(out_path)]) == 0
            with out_path.open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 37 * 37
            p2 = np.array([float(r["p2"]) for r in rows])
            v2 = np.array([float(r["v2"]) for r in rows])
            probs, volumes = weighted_rows(np.stack([p2, 1.0 - p2], axis=1), np.stack([v2, vtot - v2], axis=1))
            base = WeightedDistribution([p1, 1.0 - p1], [v1, vtot - v1])
            verdicts = majorization_verdicts(base, probs, volumes, tol)[0]
            got = np.array([r["feasible"] == "1" for r in rows])
            assert np.array_equal(got, verdicts == "feasible"), seed
            assert "feasible" in verdicts and "infeasible" in verdicts
            ambiguous += np.count_nonzero(verdicts == "ambiguous")
        assert ambiguous > 0

    def test_memory_error_exits_2_with_one_line(self, monkeypatch, capsys):
        """An allocation failure is an error (exit 2), not the "infeasible" exit 1, and prints no traceback."""
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")
        monkeypatch.setattr(cli, "weighted_rows", no_memory)
        assert main(["region-scan", "--grid", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MemoryError: Unable to allocate 7.45 GiB for an array with shape (1000000000,)\n"


class TestEntropyOnQuantumCounterexampleFiles:
    def test_fine_measurement_statistics(self, tmp_path, capsys):
        psi = ket(math.sqrt(3) / 2, 0.5)
        z = validate_measurement([proj(ket(1, 0)), proj(ket(0, 1))])
        m_path, s_path = tmp_path / "z.json", tmp_path / "psi.json"
        dump_json(measurement_to_dict(z), m_path)
        dump_json(state_to_dict(DensityMatrix.pure(psi)), s_path)
        code = main(["entropy", str(m_path), str(s_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["p"] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert out["V"] == pytest.approx([1.0, 1.0], abs=1e-12)


class TestCounterexamplesCommand:
    def test_four_pass_lines(self, capsys):
        code = main(["counterexamples"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 4
        assert all(line.startswith("PASS ") for line in out)

    def test_failing_golden_prints_fail_and_exits_1(self, capsys, monkeypatch):
        """The lines come from the suite's records, so one rule decides whether a golden passed."""
        import povmcoarse.suites as suites

        goldens = suites._COUNTEREXAMPLES
        name, runner = goldens[2]
        broken = (name, lambda: {**runner(), "passed": False})
        monkeypatch.setattr(suites, "_COUNTEREXAMPLES", goldens[:2] + (broken,) + goldens[3:])
        code = main(["counterexamples"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert out == [f"{'FAIL' if i == 2 else 'PASS'} {golden}" for i, (golden, _) in enumerate(goldens)]


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
