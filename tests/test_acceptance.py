"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric tolerance here is part of the package contract.  The helpers
compute everything they assert about from scratch (spectra are shared within
this module for speed, with the dominant-scheme computation timed where the
criterion carries a runtime budget).
"""

import math
import random
from fractions import Fraction
from itertools import permutations
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from descentsum import (
    WeightScheme,
    all_words,
    alpha_by_operator_iteration,
    apply_J,
    asymptotics,
    brute_force_alpha,
    build_transfer,
    count_barred,
    derangements,
    descent_word,
    det_P,
    double_descents,
    dp_alpha,
    eigenfunction,
    eigenvalues,
    gamma,
    genfun_coeffs,
    is_simple,
    mat_exp,
    nearest_integer_formula,
    pairing,
    preset_scheme,
    restrict_ends,
    scheme_constant,
    section6_recursion,
    verify_genfun_equation,
)

E = math.e
TAU = math.sqrt((1 + math.sqrt(5)) / 2)
SIGMA = math.sqrt((-1 + math.sqrt(5)) / 2)


def report(ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


def spectrum_with_constant(name):
    t0 = perf_counter()
    scheme = preset_scheme(name)
    analysis = asymptotics(scheme, 0.05)
    elapsed = perf_counter() - t0
    pair, points = analysis.pair, analysis.points
    top = points[0]
    const, pairings = scheme_constant(scheme, pair, top)
    return SimpleNamespace(
        scheme=scheme, pair=pair, points=points, elapsed=elapsed,
        top=top, pairings=pairings, const=const,
    )


@pytest.fixture(scope="module")
def s51():
    return spectrum_with_constant("sec5-1")


@pytest.fixture(scope="module")
def s52():
    return spectrum_with_constant("sec5-2")


def aaa_bbb_sum(lam):
    s, t = SIGMA, TAU
    return (
        (3 + 1j + math.sqrt(5) * (t + s * 1j)) * np.exp((s + t * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (t - s * 1j)) * np.exp((s - t * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (-t + s * 1j)) * np.exp((-s + t * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (-t - s * 1j)) * np.exp((-s - t * 1j) / lam)
    )


def aba_bab_sum(lam):
    s, t = SIGMA, TAU
    return (
        (3 - 1j + math.sqrt(5) * (-t + s * 1j)) * np.exp((t + s * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (-t - s * 1j)) * np.exp((t - s * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (t + s * 1j)) * np.exp((-t + s * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (t - s * 1j)) * np.exp((-t - s * 1j) / lam)
    )


def euler_numbers(n_max):
    out = [1]
    row = [1]
    for _ in range(n_max):
        prev = row
        row = [0]
        for x in reversed(prev):
            row.append(row[-1] + x)
        out.append(row[-1])
    return out


def test_criterion_01_sec51_spectrum(s51):
    lam0 = s51.top.lam
    err0 = abs(lam0 - 0.9240358576)
    pair_target = -0.2875224461 + 0.4015233122j
    err_pair = min(abs(p.lam - pair_target) for p in s51.points)
    err_conj = min(abs(p.lam - pair_target.conjugate()) for p in s51.points)
    ok = err0 < 1e-7 and err_pair < 1e-6 and err_conj < 1e-6 and s51.elapsed < 5.0
    report(
        ok,
        "criterion 1: sec5-1 spectrum",
        f"lambda0 err {err0:.2e} < 1e-7, pair errs {err_pair:.2e}/{err_conj:.2e} < 1e-6, "
        f"runtime {s51.elapsed:.2f}s < 5s",
    )


def test_criterion_02_sec51_constant(s51):
    p1, p2, p3 = s51.pairings
    e_const = abs(s51.const - 0.9936198319)
    e_p1 = abs(p1 - 0.6020376937)
    e_p2 = abs(p2 - 0.6020376937)
    e_p3 = abs(p3 - 0.3647767214)
    ok = e_const < 1e-6 and max(e_p1, e_p2, e_p3) < 1e-7
    report(
        ok,
        "criterion 2: sec5-1 asymptotic constant",
        f"constant err {e_const:.2e} < 1e-6, pairing errs "
        f"{e_p1:.2e}/{e_p2:.2e}/{e_p3:.2e} < 1e-7",
    )


def test_criterion_03_sec52_spectrum_and_constant(s52):
    lam0 = s52.top.lam
    e_lam = abs(lam0 - 0.6869765032)
    pair_target = 0.1559951131 + 0.5317098371j
    e_pair = min(abs(p.lam - pair_target) for p in s52.points)
    e_conj = min(abs(p.lam - pair_target.conjugate()) for p in s52.points)
    p1, _, p3 = s52.pairings
    e_const = abs(s52.const - 0.8908970548)
    e_p1 = abs(p1 - 0.2798342976)
    e_p3 = abs(p3 - 0.0878970625)
    ok = (
        e_lam < 1e-7
        and e_pair < 1e-6
        and e_conj < 1e-6
        and e_const < 1e-6
        and max(e_p1, e_p3) < 1e-7
    )
    report(
        ok,
        "criterion 3: sec5-2 spectrum and constant",
        f"lambda0 err {e_lam:.2e} < 1e-7, pair errs {e_pair:.2e}/{e_conj:.2e} < 1e-6, "
        f"constant err {e_const:.2e} < 1e-6, pairing errs {e_p1:.2e}/{e_p3:.2e} < 1e-7",
    )


def test_criterion_04_transcendental_equations(s51, s52):
    r1 = abs(aaa_bbb_sum(s51.top.lam.real) - (-8.0))
    r2 = abs(aba_bab_sum(s52.top.lam.real) - (-8.0))
    ok = r1 < 1e-6 and r2 < 1e-6
    report(
        ok,
        "criterion 4: four-exponential sums at the dominant roots",
        f"|sum + 8| = {r1:.2e} (sec5-1), {r2:.2e} (sec5-2), both < 1e-6",
    )


def test_criterion_05_sec6_spectrum():
    pair = build_transfer(preset_scheme("sec6"))
    grid_err = max(
        abs(det_P(pair, lam) - math.exp(-1.0 / lam) * lam * (lam - 1.0))
        for lam in np.linspace(0.1, 2.0, 50)
    )
    points = eigenvalues(pair, 0.05)
    only_one = len(points) == 1
    root_err = abs(points[0].lam - 1.0)
    v = points[0].vector
    dir_err = abs(v[1] / v[0] - 2.0)
    simple = points[0].simple and is_simple(pair, points[0].lam, v)
    ok = grid_err < 1e-10 and only_one and root_err < 1e-10 and dir_err < 1e-9 and simple
    report(
        ok,
        "criterion 5: sec6 spectrum",
        f"det grid err {grid_err:.2e} < 1e-10, sole root err {root_err:.2e} < 1e-10, "
        f"eigenvector ratio err {dir_err:.2e}, simple={simple}",
    )


def test_criterion_06_sec6_constants():
    scheme = preset_scheme("sec6")
    pair = build_transfer(scheme)
    top = eigenvalues(pair, 0.05)[0]
    targets = {
        ("a", "a"): E - 4 + 4 / E,
        ("a", "b"): 1 - 2 / E,
        ("b", "b"): 1 / E,
        (None, None): E - 2 + 1 / E,
    }
    worst = 0.0
    for (x, y), want in targets.items():
        c, _ = scheme_constant(restrict_ends(scheme, x, y), pair, top)
        worst = max(worst, abs(c - want))
    ok = worst < 1e-10
    report(
        ok,
        "criterion 6: sec6 refined constants",
        f"max |constant - target| = {worst:.2e} < 1e-10 over aa/ab/bb/total",
    )


def random_rational_schemes(count, seed=20260818):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, 3)
        wt = {
            w: Fraction(rng.randint(0, 3), rng.randint(1, 3)) for w in all_words(m)
        }
        wt1 = {u: Fraction(rng.randint(0, 2), 1) for u in all_words(m - 1)}
        wt2 = {u: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for u in all_words(m - 1)}
        out.append(WeightScheme(m=m, wt=wt, wt1=wt1, wt2=wt2))
    return out


def test_criterion_07_exact_oracle_equality():
    t0 = perf_counter()
    presets = [preset_scheme(name) for name in (
        "sec5-1", "sec5-2", "sec6", "no-descents", "no-peaks", "alternating", "all-ones"
    )]
    schemes = presets + random_rational_schemes(20)
    checked_triple = 0
    checked_pair = 0
    for s in schemes:
        for n in range(1, 10):
            b = brute_force_alpha(s, n)
            d = dp_alpha(s, n)
            assert b == d, (s, n)
            if n >= s.m:
                o = alpha_by_operator_iteration(s, n)
                assert d == o, (s, n)
            checked_triple += 1
        for n in range(10, 13):
            d = dp_alpha(s, n)
            o = alpha_by_operator_iteration(s, n)
            assert d == o, (s, n)
            checked_pair += 1
    elapsed = perf_counter() - t0
    ok = elapsed < 60.0
    report(
        ok,
        "criterion 7: exact oracle equality",
        f"{checked_triple} brute=dp(=operator) checks at n<=9 and {checked_pair} "
        f"dp=operator checks at n<=12 over {len(schemes)} schemes, all exact; "
        f"runtime {elapsed:.1f}s < 60s",
    )


def decay_errors(box, n_lo, n_hi):
    scheme = box.scheme
    c = box.const.real
    lam0 = box.top.lam.real
    m = scheme.m
    errs = []
    for n in range(n_lo, n_hi + 1):
        exact = Fraction(dp_alpha(scheme, n), math.factorial(n))
        errs.append(abs(float(exact) - c * lam0 ** (n - m)))
    return errs


def test_criterion_08_convergence_rate(s51, s52):
    results = []
    for box, r in ((s51, 0.4938523335), (s52, 0.5541207686)):
        errs = decay_errors(box, 8, 14)
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        bounded = all(e < 3 * r**n for n, e in zip(range(8, 15), errs))
        results.append((decreasing, bounded, errs[0], errs[-1]))
    ok = all(d and b for d, b, _, _ in results)
    report(
        ok,
        "criterion 8: single-term prediction decay for sec5-1 and sec5-2",
        "; ".join(
            f"errors {e0:.1e} -> {e1:.1e}, decreasing={d}, below 3|lambda_1|^n={b}"
            for d, b, e0, e1 in results
        ),
    )


def test_criterion_09_sec6_exact_sequences():
    scheme = preset_scheme("sec6")
    coeffs = genfun_coeffs(20)
    thresholds = {"aa": 8, "ab": 3, "bb": 2, "total": 4}
    checks = 0
    for n in range(2, 21):
        rec = section6_recursion(n)
        assert rec["aa"] == dp_alpha(restrict_ends(scheme, "a", "a"), n)
        assert rec["ab"] == dp_alpha(restrict_ends(scheme, "a", "b"), n)
        assert rec["ab"] == dp_alpha(restrict_ends(scheme, "b", "a"), n)
        assert rec["bb"] == dp_alpha(restrict_ends(scheme, "b", "b"), n)
        assert rec["total"] == dp_alpha(scheme, n)
        assert rec["bb"] == derangements(n)
        for key in ("aa", "ab", "bb", "total"):
            assert coeffs[key][n] == rec[key], (key, n)
        for which, n0 in thresholds.items():
            if n >= n0:
                assert nearest_integer_formula(n, which) == rec[which], (which, n)
                checks += 1
        checks += 10
    identity_ok = verify_genfun_equation(12)
    assert identity_ok
    report(
        True,
        "criterion 9: sec6 exact sequences for 2 <= n <= 20",
        f"{checks} exact identities (recursion, derangement, series coefficients, "
        f"nearest-integer from thresholds); order-12 series identity {identity_ok}",
    )


def test_criterion_10_classical_examples():
    ok_nd = all(
        dp_alpha(preset_scheme("no-descents"), n) == 1 for n in range(1, 15)
    )
    ok_np = all(
        dp_alpha(preset_scheme("no-peaks"), n) == 2 ** (n - 1)
        for n in range(1, 15)
    )
    euler = euler_numbers(12)
    alt = preset_scheme("alternating")
    ok_alt = all(dp_alpha(alt, n) == 2 * euler[n] for n in range(2, 13))
    ok = ok_nd and ok_np and ok_alt
    report(
        ok,
        "criterion 10: classical counts",
        f"no-descents alpha_n=1 (n<=14): {ok_nd}; no-peaks 2^(n-1) (n<=14): {ok_np}; "
        f"alternating 2*E_n (n<=12, boustrophedon oracle): {ok_alt}",
    )


def test_criterion_11_kernel_identities():
    # matrix identity M gamma(M) = e^M - I
    rng = np.random.default_rng(20260818)
    worst_gamma = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M *= float(rng.uniform(0.1, 1.0))
        resid = np.max(np.abs(M @ gamma(M) - (mat_exp(M) - np.eye(d))))
        worst_gamma = max(worst_gamma, float(resid))
    ok_gamma = worst_gamma < 1e-12

    # adjoint pairing identity <f, conj(psi)> = <phi, J f> on symmetric
    # presets with a located eigenvalue, f a random polynomial on each cell
    worst_pair = 0.0
    rng2 = np.random.default_rng(7)
    for name in ("sec5-1", "sec5-2", "sec6", "alternating", "all-ones"):
        scheme = preset_scheme(name)
        pair = build_transfer(scheme)
        top = eigenvalues(pair, 0.05)[0]
        phi = eigenfunction(pair, top.lam, top.vector)
        psi = apply_J(phi)
        for _ in range(10):
            f = rng2.integers(-4, 5, size=(pair.dim, 3)).astype(float)
            gap = abs(pairing(f, psi) - pairing(phi, apply_J(f)))
            worst_pair = max(worst_pair, gap)
    ok_pair = worst_pair < 1e-10

    # J involution is exact on Chebyshev coefficients
    rng3 = random.Random(3)
    ok_J = True
    for m in (2, 3, 4):
        f = np.array(
            [[rng3.randint(-5, 5) / rng3.randint(1, 4) for _ in range(3)]
             for _ in all_words(m - 1)]
        )
        ok_J = ok_J and np.array_equal(apply_J(apply_J(f)), f)

    # descent polytope volumes partition the cube, to rounding
    worst_vol = max(
        abs(pairing(np.ones((2 ** (m - 1), 1)), np.ones((2 ** (m - 1), 1))) - 1)
        for m in range(1, 6)
    )
    ok_vol = worst_vol < 1e-15

    ok = ok_gamma and ok_pair and ok_J and ok_vol
    report(
        ok,
        "criterion 11: kernel identities",
        f"gamma identity worst {worst_gamma:.2e} < 1e-12 (100 matrices); "
        f"pairing identity worst {worst_pair:.2e} < 1e-10; "
        f"J involution exact: {ok_J}; volumes sum to 1 for m <= 5 "
        f"within {worst_vol:.1e} < 1e-15",
    )


def test_criterion_12_barred_counts():
    checked = 0
    for n in range(1, 9):
        for pi in permutations(range(1, n + 1)):
            if "aa" in descent_word(pi):
                continue
            assert count_barred(pi) == 2 ** double_descents(pi), pi
            checked += 1
    report(
        True,
        "criterion 12: barred-permutation counts",
        f"count_barred = 2^(double descents) on all {checked} "
        f"double-ascent-free permutations with n <= 8",
    )
