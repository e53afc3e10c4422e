"""Command-line front end: reproducible runs with machine-readable output.

Five subcommands tie the library together: ``oracle`` (the exact counting
routes, cross-checked), ``spectrum`` (eigenvalues of the transfer operator),
``constants`` (asymptotic coefficients from eigenfunction pairings),
``verify`` (exact counts against spectral predictions with a decay check),
and ``sequence`` (the two-letter wt(aa)=0, wt(bb)=2 scheme's four integer
sequences and their identities).  Each process runs one command, so this
module loads only words and presets, and each command imports what it
runs: oracle exact, whichever methods it runs; sequence exact and sec6;
spectrum linalg and spectral; constants the module constants, linalg and
spectral; verify those three and exact.  No command loads expfun.  The
csv module loads with --format csv alone.

Output is deterministic: floats are fixed at 12 significant digits, row
order is fixed, and timing goes to stderr so identical invocations produce
byte-identical stdout.  Exit codes: 0 success, 1 a numeric check failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import islice
from math import factorial, isfinite
from pathlib import Path
from typing import Callable, Sequence

from .presets import PRESETS, preset_scheme
from .words import SchemeParseError, WeightScheme, _Frozen, load_scheme, restrict_ends

__all__ = ["main"]

# Relative accuracy of a spectral prediction of alpha_n/n!: the computed
# eigenvalues and constants carry errors near 1e-14 relative, so verify
# holds no decay bound below this multiple of alpha_n/n!.
PREDICTION_RTOL = 1e-13


class UsageFailure(Exception):
    """Bad flags or inputs; maps to exit code 2."""


class CheckFailure(Exception):
    """A numeric assertion failed before any table was produced; exit 1."""


class RunReport(_Frozen):
    """One command's output: a table with its column names, and summary lines."""

    __slots__ = ("command", "scheme_label", "params", "columns", "rows", "summary")
    command: str
    scheme_label: str
    params: dict
    columns: list[str]
    rows: list[Sequence]  # one value per column, in column order
    summary: list[str]

    def __init__(
        self,
        command: str,
        scheme_label: str,
        params: dict,
        columns: list[str],
        rows: list[Sequence],
        summary: list[str] | None = None,
    ) -> None:
        self._set(command, scheme_label, params, columns, rows, summary or [])


# --- value formatting ---


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_cell(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, Fraction):
        return str(v)
    return v


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "command": report.command,
            "scheme": report.scheme_label,
            "params": {k: _json_cell(v) for k, v in report.params.items()},
            "columns": report.columns,
            "rows": [
                {col: _json_cell(v) for col, v in zip(report.columns, row)}
                for row in report.rows
            ],
            "summary": report.summary,
        }
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows([_fmt_cell(v) for v in row] for row in report.rows)
        return
    cells = [[_fmt_cell(v) for v in row] for row in report.rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(report.columns)
    ]
    print("  ".join(col.ljust(w) for col, w in zip(report.columns, widths)).rstrip())
    for r in cells:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip())
    for line in report.summary:
        print(line)


# --- shared plumbing ---


def _resolve_scheme(args) -> tuple[WeightScheme, str]:
    if getattr(args, "preset", None):
        try:
            return preset_scheme(args.preset), args.preset
        except KeyError as exc:
            raise UsageFailure(exc.args[0]) from None
    if getattr(args, "scheme", None):
        path = Path(args.scheme)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UsageFailure(f"cannot read scheme file {path}: {exc}") from None
        return load_scheme(text), str(path)
    raise UsageFailure("one of --scheme FILE or --preset NAME is required")


def _spectrum_report(command: str, label: str, params: dict, points) -> RunReport:
    columns = ["lambda_re", "lambda_im", "abs_lambda", "simple", "residual"]
    rows = [(p.lam.real, p.lam.imag, abs(p.lam), p.simple, p.residual) for p in points]
    return RunReport(command, label, params, columns, rows)


# each complex value of a constants row, split into _re and _im columns
_CONSTANT_PARTS = ("lambda", "const", "phi_mu", "kappa_psi", "phi_psi")
_CONSTANT_COLUMNS = [f"{name}_{part}" for name in _CONSTANT_PARTS for part in ("re", "im")]


# --- subcommands ---


def _cmd_oracle(args) -> tuple[RunReport, list[str]]:
    from .exact import (
        BRUTE_FORCE_CAP,
        alpha_by_operator_iteration,
        brute_force_alpha,
        dp_alpha,
    )

    scheme, label = _resolve_scheme(args)
    n = args.n
    start, end = args.start, args.end
    if start or end:
        try:
            scheme = restrict_ends(scheme, start, end)
        except ValueError as exc:
            raise UsageFailure(str(exc)) from None
        if n < scheme.m:
            raise UsageFailure(f"start/end refinements require n >= {scheme.m}")
    methods: list[str] = []
    if args.method == "all":
        methods.append("dp")
        if n <= BRUTE_FORCE_CAP:
            methods.append("brute")
        if n >= scheme.m:
            methods.append("operator")
    else:
        methods.append(args.method)

    oracles: dict[str, Callable] = {
        "dp": dp_alpha,
        "brute": brute_force_alpha,
        "operator": alpha_by_operator_iteration,
    }
    rows: list[tuple] = []
    failures: list[str] = []
    values: dict[str, Fraction] = {}
    for method in methods:
        try:
            value = oracles[method](scheme, n).value
        except ValueError as exc:
            raise UsageFailure(str(exc)) from None
        values[method] = value
        rows.append((n, method, value, float(value / factorial(n))))
    summary = []
    if args.method == "all":
        agree = len(set(values.values())) == 1
        summary.append(f"agreement: {'true' if agree else 'false'}")
        if not agree:
            detail = ", ".join(f"{k}={v}" for k, v in values.items())
            failures.append(f"oracle disagreement at n={n}: {detail}")
    report = RunReport(
        command="oracle",
        scheme_label=label,
        params={"n": n, "method": args.method, "start": start, "end": end},
        columns=["n", "method", "alpha", "alpha_over_n_factorial"],
        rows=rows,
        summary=summary,
    )
    return report, failures


def _cmd_spectrum(args) -> tuple[RunReport, list[str]]:
    from .spectral import build_transfer, top_eigenvalues

    scheme, label = _resolve_scheme(args)
    points, _ = top_eigenvalues(build_transfer(scheme), args.min_modulus, args.top)
    params = {"min_modulus": args.min_modulus, "top": args.top}
    return _spectrum_report("spectrum", label, params, points), []


def _cmd_constants(args) -> tuple[RunReport, list[str]]:
    from .constants import asymptotics

    scheme, label = _resolve_scheme(args)
    terms, refused, _ = asymptotics(scheme, args.min_modulus, args.top).constants()
    if refused:
        p, reason = refused[0]
        raise CheckFailure(f"at lambda = {p.lam:.12g}: {reason}")
    rows = [
        [z for v in map(complex, (p.lam, const, *pairings)) for z in (v.real, v.imag)]
        for p, const, pairings in terms
    ]
    report = RunReport(
        command="constants",
        scheme_label=label,
        params={"min_modulus": args.min_modulus, "top": args.top},
        columns=_CONSTANT_COLUMNS,
        rows=rows,
    )
    return report, []


def _cmd_verify(args) -> tuple[RunReport, list[str]]:
    from .constants import asymptotics, predict_alpha
    from .exact import _dp_pass

    scheme, label = _resolve_scheme(args)
    m = scheme.m
    n_max = args.n_max
    if n_max < m:
        raise UsageFailure(f"--n-max must be at least m = {m}")
    tol = args.tol

    analysis = asymptotics(scheme, args.min_modulus, args.top)
    if analysis.defect is not None:
        print(
            f"note: scheme is not reversal-symmetric ({analysis.defect}); "
            "constants are unavailable, showing the spectrum only",
            file=sys.stderr,
        )
        params = {
            "mode": "spectrum-only",
            "min_modulus": args.min_modulus,
            "top": args.top,
        }
        return _spectrum_report("verify", label, params, analysis.points), []

    found, refused, r_hat = analysis.constants()
    for p, msg in refused:
        print(
            f"note: no constant at lambda = {p.lam:.12g} ({msg}); "
            "treating it as excluded",
            file=sys.stderr,
        )
    terms = [(complex(const), complex(p.lam)) for p, const, _ in found]
    # reference decay scale when every found eigenvalue is in the prediction:
    # remaining-spectrum contributions shrink at least factorially
    ref_base = max(2.0, 2.0 * float(scheme.max_abs_weight()))

    rows: list[tuple] = []
    failures: list[str] = []
    prev_err: float | None = None
    # alpha_m..alpha_n_max, read off one insertion-DP pass
    for n, exact in enumerate(islice(_dp_pass(scheme, n_max), m, None), m):
        exact_norm = exact / factorial(n)
        predicted = predict_alpha(terms, n, m)
        err = abs(predicted - float(exact_norm))
        if r_hat is not None:
            bound = tol * r_hat**n
        else:
            bound = tol * ref_base**n / factorial(n + 1)
        bound = max(bound, PREDICTION_RTOL * float(exact_norm))
        rows.append((n, exact, float(exact_norm), predicted, err, bound))
        if n >= m + 5:
            if err > bound:
                failures.append(
                    f"n={n}: error {err:.6g} exceeds the decay bound {bound:.6g}"
                )
            if (
                prev_err is not None
                and max(err, prev_err) > 1e-9  # ignore the fp noise floor
                and err > prev_err * (1 + 1e-9) + 1e-12
            ):
                failures.append(
                    f"n={n}: error {err:.6g} grew from {prev_err:.6g}"
                )
        prev_err = err
    summary = [
        "r_hat: "
        + (f"{r_hat:.12g}" if r_hat is not None else "none (all found eigenvalues used)")
    ]
    report = RunReport(
        command="verify",
        scheme_label=label,
        params={
            "n_max": n_max,
            "top": args.top,
            "tol": tol,
            "min_modulus": args.min_modulus,
        },
        columns=[
            "n", "alpha", "alpha_over_n_factorial", "predicted", "abs_error", "bound"
        ],
        rows=rows,
        summary=summary,
    )
    return report, failures


def _cmd_sequence(args) -> tuple[RunReport, list[str]]:
    from .sec6 import SEQUENCE_COLUMNS, sequence_table

    if args.n_max < 4:
        raise UsageFailure("--n-max must be at least 4")
    rows, summary, failures = sequence_table(args.n_max)
    report = RunReport(
        command="sequence",
        scheme_label="sec6",
        params={"n_max": args.n_max},
        columns=SEQUENCE_COLUMNS,
        rows=rows,
        summary=summary,
    )
    return report, failures


# --- parser ---


def _add_scheme_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--scheme", metavar="FILE", help="weight scheme file")
    group.add_argument(
        "--preset",
        metavar="NAME",
        help="built-in scheme: " + ", ".join(sorted(PRESETS)),
    )


def _add_format_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value > 0 and isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _add_region_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--min-modulus",
        type=_positive_float,
        default=0.05,
        metavar="R",
        help="report every eigenvalue with |lambda| > R, certified complete "
        "by a winding number (default 0.05)",
    )
    sp.add_argument(
        "--top",
        type=_nonnegative_int,
        default=0,
        metavar="K",
        help="keep only the K largest-modulus eigenvalues "
        "(conjugate pairs are never split; 0 = all)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descentsum",
        description="Weighted permutation counts by consecutive descent "
        "patterns: exact oracles, transfer-operator spectra, and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser(
        "oracle", help="exact alpha_n by up to three independent routes"
    )
    _add_scheme_flags(oracle)
    oracle.add_argument(
        "--n", type=_nonnegative_int, required=True, help="permutation length"
    )
    oracle.add_argument(
        "--method",
        choices=("dp", "brute", "operator", "all"),
        default="all",
        help="counting route (default all: cross-checked)",
    )
    oracle.add_argument(
        "--start", choices=("a", "b"), help="restrict the first descent letter"
    )
    oracle.add_argument(
        "--end", choices=("a", "b"), help="restrict the last descent letter"
    )
    _add_format_flag(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    spectrum = sub.add_parser(
        "spectrum", help="nonzero eigenvalues of the transfer operator"
    )
    _add_scheme_flags(spectrum)
    _add_region_flags(spectrum)
    _add_format_flag(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)

    constants = sub.add_parser(
        "constants", help="asymptotic coefficients from eigenfunction pairings"
    )
    _add_scheme_flags(constants)
    _add_region_flags(constants)
    _add_format_flag(constants)
    constants.set_defaults(func=_cmd_constants)

    verify = sub.add_parser(
        "verify", help="exact counts against the spectral prediction"
    )
    _add_scheme_flags(verify)
    _add_region_flags(verify)
    verify.add_argument(
        "--n-max", type=int, default=14, help="largest n to check (default 14)"
    )
    verify.add_argument(
        "--tol",
        type=_positive_float,
        default=3.0,
        help="multiplier on the decay bound (default 3)",
    )
    _add_format_flag(verify)
    verify.set_defaults(func=_cmd_verify)

    sequence = sub.add_parser(
        "sequence",
        help="integer sequences and identities of the wt(aa)=0, wt(bb)=2 scheme",
    )
    sequence.add_argument(
        "--n-max", type=int, default=12, help="largest n in the table (default 12)"
    )
    _add_format_flag(sequence)
    sequence.set_defaults(func=_cmd_sequence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, failures = args.func(args)
    except UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemeParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckFailure, ValueError, OverflowError) as exc:
        # a library ValueError or OverflowError is a numeric check that failed
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    _emit(report, args.format)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
