"""Tests of the independent references, run with

    python3 -m pytest benchmark

They tie each reference to another one computed a different way, so a job
check that reads from them rests on more than one derivation.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(ref.CLOSED_FORMS))
def test_closed_forms_match_enumeration(name):
    s = ref.preset(name)
    for n in range(s.m, 9):
        assert ref.enumerate_alpha(s, n) == ref.CLOSED_FORMS[name](n)


def test_known_small_values():
    assert [ref.zigzag(n) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]
    assert [ref.derangement(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]
    assert ref.sec6_total(6) == 782


def test_enumeration_takes_rational_weights():
    s = ref.Scheme(2, {"aa": Fraction(1, 2)}, {"a": 3}, {"b": Fraction(1, 3)})
    # n = 2: the word is one letter, weighted wt1(u) * wt2(u)
    assert ref.enumerate_alpha(s, 2) == 3 + Fraction(1, 3)
    # n = 3: 'aa' once (1/2 * 3), 'ab' twice (3 * 1/3), 'ba' twice (1), 'bb' once (1/3)
    assert ref.enumerate_alpha(s, 3) == Fraction(3, 2) + 2 + 2 + Fraction(1, 3)


def test_scheme_text_round_trips():
    rng = random.Random(5)
    s = workloads.rational_scheme(rng)
    t = ref.Scheme.parse(s.text())
    assert (t.m, t.wt, t.wt1, t.wt2) == (s.m, s.wt, s.wt1, s.wt2)


@pytest.mark.parametrize("r", [0.5, 0.2, 0.1, 0.07])
def test_count_matches_alternating_closed_form(r):
    A, B = ref.transfer(ref.preset("alternating"))
    assert ref.eigenvalue_count(A, B, r) == len(ref.alternating_eigenvalues(r))


def test_count_is_invariant_under_lifting():
    # the same operator read through length-5 windows keeps its spectrum
    c = Fraction(5, 4)
    A, B = ref.transfer(workloads.lifted_alternating(5, c))
    assert ref.eigenvalue_count(A, B, 0.1) == len(ref.alternating_eigenvalues(0.1 / 1.25))


def test_count_matches_documented_sec5_spectra():
    for name, want in (("sec5-1", 14), ("sec5-2", 13), ("sec6", 1), ("all-ones", 1)):
        A, B = ref.transfer(ref.preset(name))
        assert ref.eigenvalue_count(A, B, 0.1) == want, name


def test_undersampled_winding_is_refused():
    A, B = ref.transfer(ref.preset("alternating"))
    with pytest.raises(ValueError):
        ref.eigenvalue_count(A, B, 0.07, points=4)


def test_root_offsets_tell_roots_from_non_roots():
    A, B = ref.transfer(ref.preset("alternating"))
    offsets, _ = ref.root_offsets(A, B, [2 / math.pi, -2 / (3 * math.pi), 0.5])
    assert offsets[0] < 1e-12 and offsets[1] < 1e-12
    assert offsets[2] > 1e-3


def test_spectrum_check_flags_a_missing_eigenvalue():
    job = workloads.Job("spectrum alternating", "spectrum", [], ref.preset("alternating"),
                        "alternating", known_eigenvalues=ref.alternating_eigenvalues(0.1))
    rows = [{"lambda_re": x, "lambda_im": 0.0, "simple": True} for x in job.known_eigenvalues]
    refs = checks.References()
    assert checks.check_spectrum(job, {"rows": rows}, refs) == []
    problems = checks.check_spectrum(job, {"rows": rows[:-1]}, refs)
    assert {p for p, _ in problems} == {"complete", "known-eigenvalue"}


def test_constants_check_flags_complex_constant_at_real_eigenvalue():
    job = workloads.Job("constants sec6", "constants", [], ref.preset("sec6"), "sec6")
    row = {"lambda_re": 1.0, "lambda_im": 0.0, "const_re": math.e - 2 + 1 / math.e,
           "const_im": 0.0}
    refs = checks.References()
    assert checks.check_constants(job, {"rows": [row]}, refs) == []
    row["const_im"] = 4.5e-9
    assert "real-constant" in {p for p, _ in checks.check_constants(job, {"rows": [row]}, refs)}
