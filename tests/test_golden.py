"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations.

The exact commands (``oracle``, ``sequence``) must reproduce their recorded
output byte for byte.  The float commands (``spectrum``, ``constants``,
``verify``) must reproduce the exit code and every non-numeric token exactly,
integers exactly, and each float to the resolution of the column it is in:

- by default 1e-9 relative; values below 1e-14 in magnitude, float64
  rounding noise, count as equal;
- ``abs_error`` of ``verify`` is |exact - predicted|, known only as well as
  ``predicted``: to 1e-9 |predicted| absolute;
- the constant and the pairings of an eigenvalue lambda (the ``constants``
  columns after lambda) come from integrals of exponentials e^(mu x), |mu| up
  to rho(A - B)/|lambda|, over unit cells, which cancel down to the
  constant: they are known to eps e^(rho(A - B)/|lambda|) absolute.  The
  imaginary residue ``verify`` reports sums them over every kept eigenvalue,
  so it takes that resolution at the smallest modulus kept, --min-modulus.

A table (a header of column names, then rows of numbers and flags) is
compared cell by cell, as its columns are padded to their widest cell;
other text is compared as it stands.  stderr is compared without its
``elapsed:`` line.

To record the outputs of some jobs afresh, from the code on the path, and
leave every other record as it stands, name the jobs as the test ids do::

    PYTHONPATH=src python tests/test_golden.py 'verify --preset sec5-2'
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from descentsum import build_transfer, load_scheme, preset_scheme
from descentsum.cli import main

ROOT = Path(__file__).resolve().parent.parent  # scheme files are named from here
GOLDEN = ROOT / "tests" / "golden_cli.json"

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
    # a wide window: constants down to |lambda| = 0.1 at m = 5, where the
    # generalized eigenspace of A - B at 0 is 8-dimensional, of index 2
    ["constants", "--scheme", "tests/schemes/no-runs-5.scheme", "--min-modulus", "0.1"],
]


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    args = list(argv)
    if "--scheme" in args:  # a scheme file named from the repository root
        at = args.index("--scheme") + 1
        args[at] = str(ROOT / args[at])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    stderr = "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not line.startswith("elapsed:")
    )
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_CELL = re.compile(rf"{_NUMBER.pattern}|true|false")
_PAIRING_COLUMN = re.compile(r"(?:const|phi_mu|kappa_psi|phi_psi)_(?:re|im)")
MIN_MODULUS = 0.05  # the CLI's default --min-modulus


def _close(a: str, b: str, atol: float = 0.0) -> bool:
    if re.fullmatch(r"-?\d+", a) and re.fullmatch(r"-?\d+", b):
        return a == b
    x, y = float(a), float(b)
    big = max(abs(x), abs(y))
    return abs(x - y) <= max(1e-9 * big, atol) or big < 1e-14


def assert_text_close(got: str, want: str, what: str, atol: float = 0.0) -> None:
    """Equal outside numbers; numbers equal as _close has it."""
    assert _NUMBER.split(got) == _NUMBER.split(want), what
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert _close(a, b, atol), f"{what}: {a} != {b}"


def pairing_resolution(source: str, modulus: float) -> float:
    """eps e^(rho(A - B)/modulus): how well a constant at |lambda| = modulus
    is known (see the module docstring), for a preset name or a scheme file
    named from the repository root."""
    path = ROOT / source
    scheme = load_scheme(path.read_text()) if path.is_file() else preset_scheme(source)
    pair = build_transfer(scheme)
    rho = float(np.max(np.abs(np.linalg.eigvals(pair.A - pair.B))))
    return float(np.finfo(float).eps) * math.exp(rho / modulus)


def _split_table(text: str) -> tuple[list[str], list[list[str]], str]:
    """(column names, rows of cells, the text after the table); no names
    when the text does not open with a table."""
    lines = text.splitlines(keepends=True)
    names = lines[0].split() if lines else []
    if not names or not all(re.fullmatch(r"[a-z_]+", name) for name in names):
        return [], [], text
    end = 1
    while end < len(lines) and lines[end].split() and all(
        _CELL.fullmatch(cell) for cell in lines[end].split()
    ):
        end += 1
    return names, [line.split() for line in lines[1:end]], "".join(lines[end:])


def assert_output_close(got: str, want: str, what: str, resolution) -> None:
    """A table cell by cell, each column at its resolution; the rest as
    assert_text_close has it.  resolution(modulus) is how well a constant at
    |lambda| = modulus is known."""
    names, rows, rest = _split_table(got)
    want_names, want_rows, want_rest = _split_table(want)
    assert names == want_names and len(rows) == len(want_rows), what
    for row, want_row in zip(rows, want_rows):
        assert len(row) == len(want_row), what
        cell = dict(zip(names, want_row))
        for name, a, b in zip(names, row, want_row):
            atol = 0.0
            if name == "abs_error":
                atol = 1e-9 * abs(float(cell["predicted"]))
            elif _PAIRING_COLUMN.fullmatch(name):
                lam = complex(float(cell["lambda_re"]), float(cell["lambda_im"]))
                atol = resolution(abs(lam))
            if _NUMBER.fullmatch(b):
                assert _NUMBER.fullmatch(a) and _close(a, b, atol), f"{what}: {name} {a} != {b}"
            else:
                assert a == b, f"{what}: {name} {a} != {b}"
    assert_text_close(rest, want_rest, what)


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
    source = _flag(argv, "--preset") or _flag(argv, "--scheme")

    def resolution(modulus):
        return pairing_resolution(source, modulus)

    assert got["exit"] == want["exit"]
    assert_output_close(got["stdout"], want["stdout"], "stdout", resolution)
    residue = "imaginary residue" in want["stderr"]
    min_modulus = float(_flag(argv, "--min-modulus") or MIN_MODULUS)
    atol = resolution(min_modulus) if residue else 0.0
    assert_text_close(got["stderr"], want["stderr"], "stderr", atol)


def test_comparison_tells_floats_from_text():
    assert_text_close("x 1.0000000001 2", "x 1.0 2", "close")
    assert_text_close("r 3e-17", "r 1.2e-16", "noise floor")
    with pytest.raises(AssertionError):
        assert_text_close("x 1.00001", "x 1.0", "far")
    with pytest.raises(AssertionError):
        assert_text_close("n 12", "n 13", "integers are exact")
    with pytest.raises(AssertionError):
        assert_text_close("true 1.0", "false 1.0", "text is exact")
    with pytest.raises(AssertionError):
        assert_text_close("x  1.0", "x 1.0", "padding outside a table is exact")


def test_tables_compare_each_column_at_its_resolution():
    def close(got, want, resolution=lambda modulus: 0.0):
        assert_output_close(got, want, "table", resolution)

    spectrum = "lambda_re  simple  residual\n{}  true  {}\nr_hat: none\n"
    close(spectrum.format("0.5", "3e-17"), spectrum.format("0.5", " 1.2e-16"))
    with pytest.raises(AssertionError):
        close(spectrum.format("0.5000001", "0"), spectrum.format("0.5", "0"))
    with pytest.raises(AssertionError):
        close(spectrum.format("0.5", "0").replace("true", "false"),
              spectrum.format("0.5", "0"))
    with pytest.raises(AssertionError):
        close(spectrum.format("0.5", "0").replace("none", "0.1"),
              spectrum.format("0.5", "0"))
    with pytest.raises(AssertionError):  # rows are exact in number
        close(spectrum.format("0.5", "0"), "lambda_re simple residual\nr_hat: none\n")
    # abs_error is known to 1e-9 |predicted|
    verify = "n  predicted  abs_error\n{}  1.5  {}\n"
    close(verify.format(3, "4.2103e-05"), verify.format(3, "4.2104e-05"))
    with pytest.raises(AssertionError):
        close(verify.format(3, "4.2103e-05"), verify.format(3, "4.2113e-05"))
    with pytest.raises(AssertionError):
        close(verify.format(4, "4.2103e-05"), verify.format(3, "4.2103e-05"))
    # the constants of an eigenvalue at their resolution there, lambda exactly
    constants = "lambda_re  lambda_im  const_re\n{}  0  {}\n"
    at = {0.05: 1e-8, 0.9: 1e-15}.__getitem__
    close(constants.format(0.05, "3.3845e-05"), constants.format(0.05, "3.3854e-05"), at)
    with pytest.raises(AssertionError):
        close(constants.format(0.9, "0.3384500"), constants.format(0.9, "0.3384501"), at)
    with pytest.raises(AssertionError):
        close(constants.format(0.0500001, "1"), constants.format(0.05, "1"),
              lambda modulus: 1.0)


def test_pairing_resolution_grows_as_the_modulus_falls():
    # sec5-1: rho(A - B) = sqrt((1 + sqrt 5)/2), the golden ratio's root
    rho = math.sqrt((1 + math.sqrt(5)) / 2)
    eps = float(np.finfo(float).eps)
    for modulus in (0.9, 0.1, 0.05):
        want = eps * math.exp(rho / modulus)
        assert pairing_resolution("sec5-1", modulus) == pytest.approx(want, rel=1e-10)
    assert pairing_resolution("sec5-1", 0.9) < 1e-15


def rerecord(jobs: list[list[str]], path: Path = GOLDEN) -> None:
    """Record the outputs of jobs afresh in the golden file at path: each
    replaces its own record, or is appended when it has none, and every
    other record stays byte for byte as it is."""
    records = json.loads(path.read_text())
    keys = [" ".join(rec["argv"]) for rec in records]
    for argv in jobs:
        if " ".join(argv) in keys:
            records[keys.index(" ".join(argv))] = run_cli(argv)
        else:
            records.append(run_cli(argv))
    path.write_text(json.dumps(records, indent=1) + "\n")


def test_rerecording_one_job_leaves_every_other_record_as_it_is(tmp_path, monkeypatch):
    job = EXACT_JOBS[0]
    records = json.loads(GOLDEN.read_text())
    at = [rec["argv"] for rec in records].index(job)
    records[at]["stdout"] = "stale"
    copy = tmp_path / "golden_cli.json"
    copy.write_text(json.dumps(records, indent=1) + "\n")
    calls, real = [], run_cli
    monkeypatch.setattr(
        sys.modules[__name__], "run_cli", lambda argv: calls.append(argv) or real(argv)
    )
    rerecord([job], copy)
    assert calls == [job]
    assert copy.read_text() == GOLDEN.read_text()


if __name__ == "__main__":
    named = {" ".join(argv): argv for argv in EXACT_JOBS + FLOAT_JOBS}
    unknown = [job for job in sys.argv[1:] if job not in named]
    if unknown or len(sys.argv) < 2:
        sys.exit(f"name one or more of the jobs: {unknown or sorted(named)}")
    rerecord([named[job] for job in sys.argv[1:]])
    print(f"re-recorded {len(sys.argv) - 1} of the records in {GOLDEN}", file=sys.stderr)
