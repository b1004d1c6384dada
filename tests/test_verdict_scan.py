"""The seed-range verdict scan in ``tools/verdict_scan.py``."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_scan.py"


@pytest.fixture(scope="module")
def scan():
    spec = importlib.util.spec_from_file_location("verdict_scan", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges(scan):
    assert list(scan.seed_range("3")) == [3]
    assert list(scan.seed_range("1-4")) == [1, 2, 3, 4]


def test_one_seed_is_correct_and_round_trips(scan, tmp_path, capsys):
    saved = tmp_path / "verdicts.json"
    assert scan.main(["--seeds", "1", "--save", str(saved)]) == 0
    out = capsys.readouterr().out
    # 96 generic and 72 rank-deficient decisions
    assert "decisions 168  wrong 0  moved 0  ambiguous 0" in out
    assert re.search(r"^lp_calls [1-9]\d*  pivots \d+  pivots_max \d+$", out, re.M)
    assert float(re.search(r"^residual_max (\S+)$", out, re.M).group(1)) <= 1e-7
    letters = json.loads(saved.read_text())["1"]
    assert len(letters) == 168 and set(letters) == {"f", "i"}
    assert scan.main(["--seeds", "1", "--against", str(saved)]) == 0
    # a saved verdict that differs is reported and fails the scan
    saved.write_text(json.dumps({"1": "a" + letters[1:]}))
    assert scan.main(["--seeds", "1", "--against", str(saved)]) == 1
    assert "moved  seed 1  instance 0: a -> f" in capsys.readouterr().out


def test_witness_residual_above_the_bound_fails_the_scan(scan, monkeypatch, capsys):
    monkeypatch.setattr(scan, "witness_residual", lambda instance, cert: 2e-7)
    assert scan.main(["--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "wrong 0  moved 0" in out
    assert "residual_max 2.000e-07" in out and "residual_max exceeds 1e-07" in out
    # at the bound itself the scan passes
    monkeypatch.setattr(scan, "witness_residual", lambda instance, cert: scan.RESIDUAL_BOUND)
    assert scan.main(["--seeds", "1"]) == 0
