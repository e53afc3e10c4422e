"""Count the code-only lines of each module of src/descentsum.

A code-only line holds a Python token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body).  Blank
lines, comment lines and docstrings do not count; a line that holds code and
a trailing comment does, and so does a line that holds code and a docstring
(``def f(): '''doc'''``).  Every line a multi-line token (a string that is
not a docstring) spans counts.

    python tools/code_lines.py [package directory]

prints one line per module and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_spans(source: str) -> list[tuple[int, int]]:
    """The first and last line of each docstring of a module's source."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append((first.lineno, first.end_lineno))
    return spans


def code_lines(path: Path) -> int:
    """The number of code-only lines in one Python file."""
    spans = docstring_spans(path.read_text())
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIP or (tok.type == tokenize.STRING and any(
                    first <= tok.start[0] and tok.end[0] <= last
                    for first, last in spans)):
                continue  # a docstring token: the code on its lines still counts
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).parents[1] / "src" / "descentsum"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
