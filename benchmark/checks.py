"""Checks of one job's output against the independent references.

A check returns a list of (property, message) problems; an empty list means
the job's output is correct.  Two properties belong to named faults of the
program, so a job failing only those is reported under the fault's name:

    F1  complete      the spectrum misses eigenvalues above R_COMPLETE
    F2  real-constant a real eigenvalue gets a non-real asymptotic constant
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref
from workloads import R_COMPLETE, Job

FAULTS = {"complete": "F1", "real-constant": "F2"}

ROOT_TOL = 1e-8  # Newton step on f, relative to |lambda|, where f resolves it
PAIR_TOL = 1e-9  # conjugates and known eigenvalues, relative
IMAG_TOL = 1e-9  # the tolerance predict_alpha applies to imaginary residue


class References:
    """Transfer pairs and certified eigenvalue counts, one per scheme."""

    def __init__(self):
        self._pairs: dict[str, tuple] = {}
        self._counts: dict[str, tuple[float, int]] = {}
        self._alphas: dict[tuple[str, int], Fraction] = {}

    def pair(self, scheme: ref.Scheme):
        key = scheme.text()
        if key not in self._pairs:
            self._pairs[key] = ref.transfer(scheme)
        return self._pairs[key]

    def count(self, scheme: ref.Scheme) -> tuple[float, int]:
        """(r, eigenvalues above r), r as near R_COMPLETE as gives a stable
        winding number: an eigenvalue on the circle itself moves r off it."""
        key = scheme.text()
        if key not in self._counts:
            A, B = self.pair(scheme)
            for r in (R_COMPLETE, R_COMPLETE * 1.03, R_COMPLETE * 0.97):
                try:
                    self._counts[key] = (r, ref.eigenvalue_count(A, B, r))
                    break
                except ValueError:
                    continue
            else:
                raise ValueError(f"no stable winding number near r = {R_COMPLETE}")
        return self._counts[key]

    def alpha(self, job: Job, n: int) -> Fraction | None:
        """alpha_n from a closed form, or by enumeration for n <= 8."""
        if job.preset in ref.CLOSED_FORMS:
            return Fraction(ref.CLOSED_FORMS[job.preset](n))
        if job.scheme is None or not job.scheme.m <= n <= 8:
            return None
        key = (job.scheme.text(), n)
        if key not in self._alphas:
            self._alphas[key] = ref.enumerate_alpha(job.scheme, n)
        return self._alphas[key]

    def prepare(self, jobs: list[Job]) -> None:
        """Compute every reference the jobs need before anything is timed."""
        for job in jobs:
            if job.kind == "spectrum":
                self.count(job.scheme)
            if job.kind == "verify":
                for n in range(job.scheme.m, 9):
                    self.alpha(job, n)


def check(job: Job, rc: int, stdout: str, stderr: str, refs: References) -> list[tuple[str, str]]:
    if rc != 0:
        if job.kind == "verify" and "imaginary residue" in stderr:
            return [("real-constant", _last_line(stderr))]
        return [("exit", f"exit code {rc}: {_last_line(stderr)}")]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [("output", f"stdout is not JSON: {exc}")]
    return CHECKS[job.kind](job, payload, refs)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _lambdas(rows) -> list[complex]:
    return [complex(r["lambda_re"], r["lambda_im"]) for r in rows]


def _root_problems(job: Job, lams: list[complex], refs: References):
    problems = []
    if lams:
        offsets, resolutions = ref.root_offsets(*refs.pair(job.scheme), lams)
        for lam, off, res in zip(lams, offsets, resolutions):
            if not off <= max(ROOT_TOL, res):
                problems.append(("zero", f"{lam:.12g} is not a zero of f "
                                         f"(offset {off:.3g}, resolution {res:.3g})"))
    for lam in lams:
        if abs(lam.imag) > 0 and not any(
            abs(mu - lam.conjugate()) <= PAIR_TOL * abs(lam) for mu in lams
        ):
            problems.append(("conjugate", f"{lam:.12g} has no conjugate"))
    return problems


def _known_problems(lams: list[complex], known: list[float]):
    return [
        ("known-eigenvalue", f"eigenvalue {x:.12g} is missing")
        for x in known
        if not any(abs(lam - x) <= PAIR_TOL * abs(x) for lam in lams)
    ]


def check_spectrum(job: Job, payload, refs: References):
    rows = payload["rows"]
    lams = _lambdas(rows)
    problems = _root_problems(job, lams, refs)
    problems += [("simple", f"{lam:.12g} is not certified simple")
                 for lam, row in zip(lams, rows) if row["simple"] is not True]
    r, expected = refs.count(job.scheme)
    found = sum(abs(lam) > r for lam in lams)
    if found != expected:
        problems.append(("complete", f"{found} eigenvalues above {r:g}, reference counts {expected}"))
    problems += _known_problems(lams, job.known_eigenvalues)
    return problems


def check_constants(job: Job, payload, refs: References):
    rows = payload["rows"]
    lams = _lambdas(rows)
    problems = _root_problems(job, lams, refs)
    consts = [complex(r["const_re"], r["const_im"]) for r in rows]
    for lam, c in zip(lams, consts):
        if lam.imag == 0 and abs(c.imag) > IMAG_TOL * max(1.0, abs(c.real)):
            problems.append(("real-constant", f"constant {c:.6g} at real lambda {lam.real:.12g}"))
    for x, want in ref.KNOWN_CONSTANTS.get(job.preset, {}).items():
        hits = [c for lam, c in zip(lams, consts) if abs(lam - x) <= PAIR_TOL * abs(x)]
        if not hits:
            problems.append(("known-constant", f"no constant at lambda = {x:.12g}"))
        elif abs(hits[0] - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(("known-constant", f"constant {hits[0]:.12g} at {x:.12g}, want {want:.12g}"))
    return problems


def check_verify(job: Job, payload, refs: References):
    problems = []
    for row in payload["rows"]:
        n = row["n"]
        want = refs.alpha(job, n)
        if want is not None and Fraction(row["alpha"]) != want:
            problems.append(("alpha", f"alpha_{n} = {row['alpha']}, want {want}"))
    if [row["n"] for row in payload["rows"]] != list(range(job.scheme.m, payload["params"]["n_max"] + 1)):
        problems.append(("rows", "verify did not report every n from m to n-max"))
    return problems


def check_oracle(job: Job, payload, refs: References):
    rows = payload["rows"]
    values = {row["method"]: Fraction(row["alpha"]) for row in rows}
    problems = []
    if "--method" not in job.args:
        methods = {"dp", "operator"} | ({"brute"} if job.n <= 10 else set())
        if set(values) != methods:
            problems.append(("routes", f"routes {sorted(values)}, want {sorted(methods)}"))
        if len(set(values.values())) != 1 or "agreement: true" not in payload["summary"]:
            problems.append(("agreement", f"routes disagree: {values}"))
    want = refs.alpha(job, job.n)
    for row in rows:
        value = Fraction(row["alpha"])
        if want is not None and value != want:
            problems.append(("alpha", f"{row['method']} gives {value}, want {want}"))
        if not math.isclose(float(value / math.factorial(job.n)),
                            row["alpha_over_n_factorial"], rel_tol=1e-11):
            problems.append(("normalised", f"{row['method']}: alpha_over_n_factorial disagrees with alpha"))
    return problems


def check_sequence(job: Job, payload, refs: References):
    problems = []
    rows = payload["rows"]
    if [row["n"] for row in rows] != list(range(2, job.n + 1)):
        problems.append(("rows", "sequence did not report every n from 2 to n-max"))
    for row in rows:
        n = row["n"]
        if not (row["dp_ok"] is row["derangement_ok"] is row["genfun_ok"] is True):
            problems.append(("flags", f"n = {n}: a flag is false"))
        if any(row[f"nearest_{k}"] not in ("ok", "-") for k in ("aa", "ab", "bb", "total")):
            problems.append(("flags", f"n = {n}: a nearest-integer formula failed"))
        if row["total"] != ref.sec6_total(n) or row["bb"] != ref.derangement(n):
            problems.append(("alpha", f"n = {n}: total or bb differs from the reference"))
    if not (payload["summary"][0].endswith(": ok") and payload["summary"][1].endswith("fails as expected")):
        problems.append(("flags", f"summary: {payload['summary']}"))
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "constants": check_constants,
    "verify": check_verify,
    "oracle": check_oracle,
    "sequence": check_sequence,
}


def cross_check(jobs: list[Job], outputs: list[tuple[int, str]]) -> dict[int, str]:
    """Oracle jobs on one (scheme, n) by different routes must agree.

    ``outputs[i]`` is job i's (exit code, stdout).  Returns job index ->
    problem for every job of a group whose values disagree.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    values: dict[int, set[Fraction]] = {}
    for i, (job, (rc, stdout)) in enumerate(zip(jobs, outputs)):
        if job.kind != "oracle" or rc != 0:
            continue
        try:
            values[i] = {Fraction(row["alpha"]) for row in json.loads(stdout)["rows"]}
        except json.JSONDecodeError:
            continue  # check() has already reported it
        groups.setdefault((job.scheme.text(), job.n), []).append(i)
    bad = {}
    for idxs in groups.values():
        seen = set().union(*(values[i] for i in idxs))
        if len(seen) > 1:
            for i in idxs:
                bad[i] = f"routes on one scheme and n disagree: {sorted(seen)}"
    return bad
