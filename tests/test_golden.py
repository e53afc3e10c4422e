"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations.

The exact commands (``oracle``, ``sequence``) must reproduce their recorded
output byte for byte.  The float commands (``spectrum``, ``constants``,
``verify``) must reproduce the exit code and every non-numeric token exactly,
integers exactly, and floats to 1e-9 relative (values below 1e-14 in
magnitude, float64 rounding noise, count as equal).  stderr is compared
without its ``elapsed:`` line.

To record the outputs of the code on the path afresh::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from descentsum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

PRESETS = ("sec5-1", "sec5-2", "sec6", "no-descents", "no-peaks", "alternating", "all-ones")

EXACT_JOBS = [
    ["oracle", "--preset", "sec6", "--n", "6"],
    ["oracle", "--preset", "sec5-1", "--n", "9"],
    ["oracle", "--preset", "alternating", "--n", "9", "--format", "json"],
    ["oracle", "--preset", "no-peaks", "--n", "80", "--method", "dp"],
    ["oracle", "--preset", "sec6", "--n", "30", "--method", "operator", "--format", "csv"],
    ["oracle", "--preset", "sec6", "--n", "6", "--start", "a", "--end", "a"],
    ["oracle", "--preset", "sec6", "--n", "3", "--method", "dp", "--start", "b", "--end", "b"],
    ["oracle", "--preset", "sec6", "--n", "8", "--start", "b", "--format", "json"],
    ["oracle", "--preset", "no-peaks", "--n", "7", "--end", "a"],
    ["oracle", "--preset", "alternating", "--n", "2", "--start", "a", "--end", "b"],
    ["oracle", "--preset", "sec6", "--n", "9", "--method", "operator", "--start", "a",
     "--end", "b", "--format", "csv"],
    ["oracle", "--preset", "sec6", "--n", "40", "--method", "dp", "--end", "b"],
    ["oracle", "--preset", "sec5-1", "--n", "5", "--start", "a"],
    ["oracle", "--preset", "sec6", "--n", "1", "--end", "b"],
    ["oracle", "--preset", "sec6", "--n", "1", "--method", "dp", "--start", "a"],
    ["sequence"],
    ["sequence", "--n-max", "40", "--format", "json"],
    ["sequence", "--n-max", "20", "--format", "csv"],
]

FLOAT_JOBS = [
    [command, "--preset", name]
    for command in ("spectrum", "constants", "verify")
    for name in PRESETS
] + [
    ["verify", "--preset", "no-peaks", "--format", "json"],
]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not line.startswith("elapsed:")
    )
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: str, b: str) -> bool:
    if re.fullmatch(r"-?\d+", a) and re.fullmatch(r"-?\d+", b):
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y)) or max(abs(x), abs(y)) < 1e-14


def assert_text_close(got: str, want: str, what: str) -> None:
    """Equal outside numbers; numbers equal as _close has it."""
    assert _NUMBER.split(got) == _NUMBER.split(want), what
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert _close(a, b), f"{what}: {a} != {b}"


def _golden() -> dict[str, dict]:
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", EXACT_JOBS, ids=" ".join)
def test_exact_commands_byte_identical(argv):
    want = _golden()[" ".join(argv)]
    assert run_cli(argv) == want


@pytest.mark.parametrize("argv", FLOAT_JOBS, ids=" ".join)
def test_float_commands_match(argv):
    want = _golden()[" ".join(argv)]
    got = run_cli(argv)
    assert got["exit"] == want["exit"]
    assert_text_close(got["stdout"], want["stdout"], "stdout")
    assert_text_close(got["stderr"], want["stderr"], "stderr")


def test_comparison_tells_floats_from_text():
    assert_text_close("x 1.0000000001 2", "x 1.0 2", "close")
    assert_text_close("r 3e-17", "r 1.2e-16", "noise floor")
    with pytest.raises(AssertionError):
        assert_text_close("x 1.00001", "x 1.0", "far")
    with pytest.raises(AssertionError):
        assert_text_close("n 12", "n 13", "integers are exact")
    with pytest.raises(AssertionError):
        assert_text_close("true 1.0", "false 1.0", "text is exact")


if __name__ == "__main__":
    records = [run_cli(argv) for argv in EXACT_JOBS + FLOAT_JOBS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
