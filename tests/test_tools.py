"""The repository's tools: tools/code_lines.py counts code-only lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring."""
import os


def g(): """A docstring on the line of its def."""


class C:
    """A class docstring,
    over two lines."""

    x = """a string that is
    not a docstring"""  # a trailing comment
    # a comment line
    y = os.sep
'''


def test_code_lines_counts_code_beside_a_docstring(tmp_path):
    # import, def g, class C, the two lines of x, y: the def line counts
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == 6
