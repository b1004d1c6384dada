"""Count code lines: non-blank lines that are neither comments nor docstrings.

Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a Python file or a directory searched recursively for ``*.py``
files; the default is ``src/povmcoarse``, relative to the working directory.
Prints one ``count  path`` line per file, then the total. A docstring is the
string expression that opens a module, class or function body, as the ``ast``
module finds it. Exits 2 with one ``error:`` line on standard error when a
PATH does not exist. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of non-blank lines of ``source`` that hold a token other than a comment or docstring."""
    text = source.splitlines()
    touched: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED_TOKENS:
            touched.update(range(tok.start[0], tok.end[0] + 1))
    touched -= _docstring_lines(ast.parse(source))
    return sum(1 for line in touched if text[line - 1].strip())


def _python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/code_lines.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("paths", nargs="*", default=["src/povmcoarse"], metavar="PATH")
    args = parser.parse_args(argv)
    for arg in args.paths:
        if not Path(arg).exists():
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            return 2
    total = 0
    for path in _python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
