"""The code-line counter in ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_counted(counter):
    source = (
        '"""Module."""\n\n# comment\ndef f(x):\n'
        '    """Doc\n    string."""\n    return (x +\n            1)  # sum\n'
    )
    assert counter.code_lines(source) == 3


def test_default_path_and_total(counter, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert counter.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("  total") and counts[-1] == sum(counts[:-1])
    assert any(line.endswith("src/povmcoarse/simplex.py") for line in lines)


def test_file_and_directory_arguments(counter, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3\n")
    assert counter.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "     3  total"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_docstring(counter, flag, capsys):
    with pytest.raises(SystemExit) as info:
        counter.main([flag])
    assert info.value.code == 0
    assert "Count code lines" in capsys.readouterr().out


def test_missing_path_exits_2_with_one_line(counter, tmp_path, capsys):
    missing = tmp_path / "absent.py"
    assert counter.main([str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no such file or directory: {missing}\n"
