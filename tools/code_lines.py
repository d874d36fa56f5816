"""Count the code lines of the stampcover package and of its tests.

A code line is a physical line of ``src/stampcover/*.py`` that holds at
least one real token (not a comment, blank line, newline or indentation
marker) and is not part of a docstring (a module, class or function body
that opens with a string literal).  Stdlib only; run from anywhere as
``python3 tools/code_lines.py``: it prints one count per module, then the
total of ``tests/*.py`` by the same rule, then the package's total on the
last line.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stampcover"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The code lines of one module."""
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    tests = sum(code_lines(path) for path in (ROOT / "tests").glob("*.py"))
    print(f"{tests:6d}  tests/*.py")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
