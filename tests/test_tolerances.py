"""The table of tolerances: it holds every threshold literal of the package, and the README lists it."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "povmcoarse"
TABLE = PACKAGE / "tolerances.py"

# Float literals in (0, 1e-3) that may live outside the table, as (module,
# function name prefix, values):
# - the golden instances' closed-form checks, which compare hand-derived
#   values and decide no verdict of the library;
# - random_simplex's + 1e-12, which is part of a draw, not a threshold:
#   moving it would move every random stream.
ALLOWED = (
    ("suites.py", "_golden_", {1e-6, 1e-9, 1e-12}),
    ("randomgen.py", "random_simplex", {1e-12}),
)


def _small_literals(path: Path):
    """``(line, value, enclosing function name)`` of each float literal in (0, 1e-3)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-3:
            found.append((node.lineno, node.value, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _table() -> dict[str, str]:
    """Each name of the table with its value as written there."""
    source = TABLE.read_text(encoding="utf-8")
    entries = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            entries[node.targets[0].id] = ast.get_source_segment(source, node.value)
    return entries


def test_no_tolerance_literal_outside_the_table():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path == TABLE:
            continue
        for line, value, function in _small_literals(path):
            allowed = any(
                path.name == module and function.startswith(prefix) and value in values
                for module, prefix, values in ALLOWED
            )
            if not allowed:
                stray.append(f"{path.relative_to(ROOT)}:{line}: {value!r}")
    assert not stray, "threshold literals outside tolerances.py:\n" + "\n".join(stray)


def test_the_scan_sees_a_stray_literal(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("def f(x):\n    return x > 1e-9 or x < 2.0 or x == 0.5e-3\n")
    assert _small_literals(module) == [(2, 1e-9, "f"), (2, 0.5e-3, "f")]


def test_the_table_holds_float_constants_only():
    body = ast.parse(TABLE.read_text(encoding="utf-8")).body
    docstring, assignments = body[0], body[1:]
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    for node in assignments:
        assert isinstance(node, ast.Assign) and len(node.targets) == 1, ast.dump(node)
        assert isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()
        assert isinstance(node.value, ast.Constant) and type(node.value.value) is float


def test_readme_lists_every_entry_with_its_value():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Tolerances\n(.*?)(?=^## )", readme, flags=re.S | re.M)
    assert section is not None, "README.md has no 'Tolerances' section"
    rows = [line for line in section.group(1).splitlines() if line.startswith("|")]
    entries = _table()
    assert entries
    for name, value in entries.items():
        assert any(f"`{name}`" in row and f"`{value}`" in row for row in rows), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("operators", "DEFAULT_ATOL"),
        ("operators", "DEFAULT_DEGENERACY_TOL"),
        ("distributions", "DEFAULT_NORM_TOL"),
        ("distributions", "DEFAULT_COLUMN_TOL"),
        ("coarseness", "DEFAULT_FEAS_TOL"),
        ("entropy", "ZERO_PROB_TOL"),
        ("suites", "INEQ_TOL"),
        ("suites", "EQ_TOL"),
    ],
)
def test_public_names_stay_importable_from_their_modules(module, name):
    tolerances = importlib.import_module("povmcoarse.tolerances")
    assert getattr(importlib.import_module(f"povmcoarse.{module}"), name) == getattr(tolerances, name)
