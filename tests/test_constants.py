"""The constants of the array pass against the quadrature route of expfun.

descentsum.constants takes the pairings of every eigenvalue of a scheme
from the cell moments of phi alone, through two identities: the reflection
of the cells, and the residue that makes the reversed moments a left null
vector of P(lambda).  It reads the moments through the block decomposition
of A - B (TransferPair.blocks).  expfun computes the pairings from their
definition, reflecting phi and integrating products of two eigenfunctions,
one eigenvalue at a time by Chebyshev quadrature from A and B alone
(eigenfunction, apply_J, pairing, scheme_constant).  So the parity test
checks the identities against the definition: the two routes must agree
to the resolution of the pairings, and refuse the same points for the same
cause.  The null vector half of the residue identity is also checked on its
own, without expfun.  The module also tests the rest of
descentsum.constants: the truncation, the schemes with no symmetry, the
refusals and predict_alpha.
"""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import descentsum.constants as constants
import descentsum.linalg as linalg
import descentsum.spectral as spectral
from descentsum import (
    PRESETS,
    SpectralPoint,
    WeightScheme,
    all_words,
    asymptotics,
    build_transfer,
    dp_alpha,
    load_scheme,
    predict_alpha,
    preset_scheme,
    restrict_ends,
    scheme_constant,
    symmetry_defect,
)
from descentsum.cli import main
from descentsum.expfun import apply_J, eigenfunction, pairing

EPS = float(np.finfo(float).eps)
ROOT = Path(__file__).resolve().parent.parent
RANDOM_WEIGHTS = ["0", "1", "-1", "2", "3", "1/2", "-1/2"]


def random_symmetric_schemes(count: int, seed: int = 7):
    """Reversal-symmetric window weights with m <= 4, free signed boundary
    weights."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(1, 4)
        wt: dict[str, Fraction] = {}
        for w in all_words(m):
            drawn = wt.get(w[::-1])
            wt[w] = Fraction(rng.choice(RANDOM_WEIGHTS)) if drawn is None else drawn
        wt1 = {u: Fraction(rng.choice(RANDOM_WEIGHTS)) for u in all_words(m - 1)}
        wt2 = {u: Fraction(rng.choice(RANDOM_WEIGHTS)) for u in all_words(m - 1)}
        yield f"random-{i:02}", WeightScheme(m, wt, wt1, wt2)


def schemes_under_test():
    for name in PRESETS:
        if name != "no-peaks":  # not reversal-symmetric: no J route
            yield name, preset_scheme(name)
    yield "no-runs-4", WeightScheme(4, {"aaaa": 0, "bbbb": 0})
    yield from random_symmetric_schemes(60)


def reference(scheme, pair, point):
    """(constant, pairings) of expfun.scheme_constant, or its refusal."""
    try:
        return scheme_constant(scheme, pair, point)
    except ValueError as exc:
        return str(exc)


# a refusal's cause by a phrase of its message: the noise digits it quotes
# (a vanishing pairing of 5.38e-18 by one route, 5.41e-18 by the other) are
# not the routes' to agree on
CAUSES = {
    "vanishes at tolerance 1e-10": "vanishing denominator",
    "reversal-symmetric scheme": "asymmetric window",
    "cond(W)": "ill-conditioned basis",
}


def cause(reason: str) -> str:
    return next(c for phrase, c in CAUSES.items() if phrase in reason)


def denominator(pair, point):
    """The reference's <phi, conj(psi)> at point, refused or not."""
    phi = eigenfunction(pair, point.lam, point.vector)
    return pairing(phi, apply_J(phi))


def assert_matches_reference(scheme, analysis, rho):
    """Every kept point's constant and pairings against the quadrature route.

    <phi, mu> and <kappa, conj(psi)> are linear in the eigenfunction, whose
    terms e^(mu x) reach |mu| = rho(A - B)/|lambda|: they are known to
    eps e^(rho/|lambda|) absolute.  <phi, conj(psi)> is quadratic, a sum of
    products of two such terms, so its resolution is that squared over eps.
    The constant c = p1 p2/p3 carries all three to first order, and the
    product of the errors of p1 and p2 on top: the two routes read no basis
    in common, so their errors are independent, and where p1 and p2 are
    themselves noise (a true constant of 0) that product is the difference.

    p2 and p3 are in the scale of the left null vector l in the array pass,
    and in that of J phi in the reference: they agree up to one complex
    factor, read off the one of them resolved better relative to its size.
    The 1e-10 guard on p3 sees those two scales, so the routes must refuse
    the same points only where the reference's p3 is resolved.
    """
    got = {p.lam: (const, *pairings) for p, const, pairings in analysis.terms}
    why = {p.lam: reason for p, reason in analysis.refused}
    # the reference at the real and upper-half points; a lower-half point
    # has the conjugate vector, constant and pairings
    upper = {
        p.lam: reference(scheme, analysis.pair, p)
        for p in analysis.points if p.lam.imag >= 0
    }
    for p in analysis.points:
        want = upper[p.lam.conjugate()] if p.lam.imag < 0 else upper[p.lam]
        if p.lam.imag < 0 and not isinstance(want, str):
            want = (want[0].conjugate(), tuple(z.conjugate() for z in want[1]))
        linear = EPS * math.exp(rho / abs(p.lam))
        resolution = (linear, linear, linear**2 / EPS)
        if isinstance(want, str) or p.lam in why:
            p3 = denominator(analysis.pair, p) if isinstance(want, str) else want[1][2]
            causes = {cause(r) for r in (want, why.get(p.lam)) if isinstance(r, str)}
            if causes == {"vanishing denominator"} and abs(p3) <= resolution[2]:
                continue  # p3 is noise: either route may refuse it
            assert isinstance(want, str) and p.lam in why, (p.lam, want, why.get(p.lam))
            assert cause(why[p.lam]) == cause(want), (p.lam, want)
            continue
        const, pairings = want
        tols = [max(1e-9 * abs(w), res) for w, res in zip(pairings, resolution)]
        p1, p2, p3 = map(abs, pairings)
        tol_const = (
            p2 * tols[0] + p1 * tols[1] + tols[0] * tols[1] + p1 * p2 * tols[2] / p3
        ) / p3
        for a, b, tol in zip(got[p.lam][:2], (const, pairings[0]), (tol_const, tols[0])):
            assert abs(a - b) <= max(1e-9 * abs(b), tol), (p.lam, a, b)
        k = 1 if p2 * tols[2] >= p3 * tols[1] else 2
        scale = got[p.lam][1 + k] / pairings[k]
        rel = tols[k] / abs(pairings[k])
        for j in (1, 2):
            a, b = got[p.lam][1 + j], scale * pairings[j]
            tol = abs(scale) * (tols[j] + rel * abs(pairings[j]))
            assert abs(a - b) <= tol, (p.lam, j, a, b)


SCHEMES = dict(schemes_under_test())


# the test names keep the ExpPoly route the array pass was first held to
@pytest.mark.parametrize("name", list(SCHEMES))
def test_array_pass_matches_the_expoly_route(name):
    with warnings.catch_warnings():
        # some draws are certified complete only above a larger modulus, with
        # a warning; the points found are what both routes are given
        warnings.simplefilter("ignore", UserWarning)
        analysis = asymptotics(SCHEMES[name], 0.05)
    pair = analysis.pair
    rho = float(np.max(np.abs(np.linalg.eigvals(pair.A - pair.B))))
    assert_matches_reference(SCHEMES[name], analysis, rho)


NULL_VECTOR_SCHEMES = {
    name: SCHEMES[name]
    for name in [*(n for n in PRESETS if n != "no-peaks"), "no-runs-4"]
} | {"sec5-1 from a": restrict_ends(preset_scheme("sec5-1"), "a", None)}


@pytest.mark.parametrize("name", list(NULL_VECTOR_SCHEMES))
def test_reversed_moments_are_a_left_null_vector(name):
    # the paper's J identity: on reversal-symmetric windows the adjoint
    # eigenfunction is the reflection J phi, so the cell moments m, read in
    # reversed cell order, are parallel to the left null vector l of
    # P(lambda) that the constants read, at every simple eigenvalue
    analysis = asymptotics(NULL_VECTOR_SCHEMES[name], 0.05)
    pair = analysis.pair
    points = [p for p in analysis.points if abs(p.lam) > 0.1]
    if not points:
        assert name == "no-descents"  # a Volterra operator: no nonzero eigenvalue
        return
    moments, _ = constants._moments(pair, [p.lam for p in points], [p.vector for p in points])
    words = pair.index_words
    for p, m in zip(points, moments):
        reversed_m = m[[words.index(w[::-1]) for w in words]]
        P = -p.lam * np.eye(pair.dim) + pair.B @ linalg.gamma((pair.A - pair.B) / p.lam)
        assert np.linalg.norm(p.left @ P) <= 1e-12 * np.linalg.norm(P, 2), (name, p.lam)
        # |l^H Rm| = |Rm| exactly when they are parallel, l being a unit vector
        gap = np.linalg.norm(reversed_m) - abs(np.vdot(p.left, reversed_m))
        assert gap <= 1e-9 * np.linalg.norm(reversed_m), (name, p.lam)


def test_basis_refusal_covers_every_point_with_the_same_message(monkeypatch):
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=3)
    refused = analysis.refused
    assert analysis.terms == () and [p for p, _ in refused] == list(analysis.points)
    assert len({reason for _, reason in refused}) == 1
    for p, reason in refused:
        assert reason.startswith("the basis W of the generalized eigenspaces")
        # the quadrature route reads no W, so it has the constant
        assert not isinstance(reference(scheme, analysis.pair, p), str)
    assert analysis.r_hat == abs(analysis.points[0].lam)


def test_a_vanishing_denominator_is_refused_as_the_expoly_route_refuses(
    monkeypatch,
):
    # scaling both null vectors by s scales <phi, conj(psi)> by s^2 on either
    # route (the reference reads v twice, the array pass v and l once each):
    # at s = 1e-6 every denominator of sec5-1 falls under the 1e-10 guard
    def shrunk(pair, r_min, top):
        points, r_hat = spectral.top_eigenvalues(pair, r_min, top)
        small = [
            SpectralPoint(p.lam, p.vector * 1e-6, p.left * 1e-6, p.simple, p.residual)
            for p in points
        ]
        return small, r_hat

    monkeypatch.setattr(constants, "top_eigenvalues", shrunk)
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=3)
    refused = analysis.refused
    assert analysis.terms == () and len(refused) == len(analysis.points) == 3
    for p, reason in refused:
        assert "vanishes at tolerance 1e-10" in reason
        assert cause(reference(scheme, analysis.pair, p)) == cause(reason)


# reversal-symmetric windows with a simple eigenvalue at -0.0521460 whose
# denominator pairing, for the unit null vector, is 2.87e-11
SMALL_DENOMINATOR = (
    "m = 3\nwt aaa = 2\nwt abb = -1\nwt bab = 0\nwt bba = -1\nwt bbb = -1\n"
)


# The 1e-10 guard of asymptotic_constant is absolute (ROADMAP item 12): it
# sees <phi, conj(psi)> in the scale of the unit null vectors v and l.  For
# J phi in place of l the pairing here was 2.87e-11, and the eigenvalue was
# refused; with l it is 4.2e-7, and the constant is kept.
def test_a_simple_eigenvalue_with_a_small_denominator_keeps_its_constant(
    tmp_path, capsys
):
    # the eigenvalue is certified simple (residual 2.7e-17) and its constant
    # is 301.690753616 (the exact Taylor series of f, 40 digits); refused, it
    # left verify 1.44e-5 off at n = 8, above the bound 1.64e-10
    scheme = load_scheme(SMALL_DENOMINATOR)
    analysis = asymptotics(scheme, 0.05)
    assert analysis.refused == ()
    (c,) = [c for p, c, _ in analysis.terms if abs(p.lam + 0.0521460) < 1e-6]
    assert abs(c - 301.690753616) <= 1e-6 * 301.690753616
    f = tmp_path / "small-denominator.scheme"
    f.write_text(SMALL_DENOMINATOR)
    assert main(["verify", "--scheme", str(f), "--n-max", "16"]) == 0
    capsys.readouterr()


def test_an_asymmetric_window_is_refused_naming_the_same_defect():
    # the quadrature route takes the adjoint eigenfunction to be J phi, which
    # it is only on reversal-symmetric windows: it refuses any other scheme
    # before any eigenfunction, naming the pair that words.symmetry_defect
    # names.  The array pass reads the left null vector and needs no symmetry.
    scheme = preset_scheme("no-peaks")
    point = SpectralPoint(1.0, np.ones(2), np.ones(2), True, 0.0)
    with pytest.raises(ValueError) as refusal:
        scheme_constant(scheme, build_transfer(scheme), point)
    defect = symmetry_defect(scheme)
    assert defect == "wt(ab) = 0 differs from wt(ba) = 1"
    assert str(refusal.value).endswith(defect)
    # boundary weights are free: only the window weights are read
    ends = WeightScheme(2, {"aa": 0, "bb": 2}, {"a": 3}, {"a": -1})
    assert symmetry_defect(ends) is not None
    scheme_constant(ends, build_transfer(ends), point)


# A - B has eigenvalues 3, 3.029 and a conjugate pair: a cluster tolerance
# of 0.05 ||A - B||_1 merges the first two into one cluster that no centre
# makes nilpotent.  The window weights are reversal-symmetric.
SYMMETRIC_NEAR_PAIR = (
    "m = 3\nwt aaa = 3\nwt aab = 0\nwt baa = 0\nwt aba = 1/2\n"
    "wt abb = 3\nwt bba = 3\nwt bab = 3\nwt bbb = -1/2\n"
)


def test_eigenfunction_refuses_a_fallback_block(monkeypatch, tmp_path, capsys):
    # the merged cluster passes the looser null space test of test_spectral's
    # merged kernel case but not the nilpotency test: it is split into its
    # eigenvalues again, and every constant stays what it is unmerged
    scheme = load_scheme(SYMMETRIC_NEAR_PAIR)
    unmerged = asymptotics(scheme, 0.5)
    with monkeypatch.context() as merge:
        merge.setattr(spectral, "_CLUSTER_TOL", 0.05)
        merge.setattr(linalg, "_JORDAN_TOL", 1e-4)
        merged = asymptotics(scheme, 0.5)
    for analysis in (unmerged, merged):
        assert analysis.refused == () and analysis.r_hat is None
        assert len(analysis.terms) == 6
    for (p, c, _), (q, d, _) in zip(unmerged.terms, merged.terms):
        assert p.lam == q.lam and abs(c - d) <= 1e-12 * abs(c)
    # an ill-conditioned W keeps its eigenvalues, and only the constants of
    # the eigenfunctions read through it are refused
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    refusal = (
        r"the basis W of the generalized eigenspaces of A - B has cond\(W\) = "
        r"\S+ > 0\.5: the eigenfunction would lose digits"
    )
    analysis = asymptotics(scheme, 0.5)
    assert [p.lam for p in analysis.points] == [p.lam for p, _, _ in unmerged.terms]
    top = analysis.points[0]
    refused = analysis.refused
    assert analysis.terms == () and [p for p, _ in refused] == list(analysis.points)
    assert all(re.match(refusal, reason) for _, reason in refused)
    assert analysis.r_hat == abs(top.lam)
    scheme_file = tmp_path / "near-pair.scheme"
    scheme_file.write_text(SYMMETRIC_NEAR_PAIR)
    assert main(["constants", "--scheme", str(scheme_file), "--min-modulus", "0.5"]) == 1
    err = capsys.readouterr().err
    assert re.search(re.escape(f"at lambda = {top.lam:.12g}: ") + refusal, err), err


def test_asymptotics_truncates_without_splitting_a_conjugate_pair(spectra):
    scheme = preset_scheme("sec5-1")
    _, every = spectra["sec5-1"]
    full = asymptotics(scheme, 0.05)
    assert [p.lam for p in full.points] == [p.lam for p in every]
    assert full.r_hat is None
    assert len(asymptotics(scheme, 0.05, top=len(every)).points) == len(every)
    # the 2nd and 3rd eigenvalues are a conjugate pair: top 2 keeps both
    two = asymptotics(scheme, 0.05, top=2)
    assert [p.lam for p in two.points] == [p.lam for p in every[:3]]
    assert two.r_hat == abs(every[3].lam)
    one = asymptotics(scheme, 0.05, top=1)
    assert len(one.points) == 1 and one.r_hat == abs(every[1].lam)


def test_asymptotics_computes_each_conjugate_pair_once(monkeypatch):
    calls = []
    real = constants._pairings

    def counted(pair, lams, *args):
        calls.append(list(lams))
        rows = real(pair, lams, *args)
        rows[1, 2] = 0  # the second eigenvalue's <phi, conj(psi)> vanishes
        return rows

    monkeypatch.setattr(constants, "_pairings", counted)
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=4)
    terms, refused = analysis.terms, analysis.refused
    # one pass over the real and upper-half eigenvalues: points 1 and 2 are
    # a conjugate pair, lower half first, and only point 2 is computed
    assert calls == [[analysis.points[i].lam for i in (0, 2, 3)]]
    assert [p.lam for p, _, _ in terms] == [
        analysis.points[i].lam for i in (0, 3)
    ]
    # <kappa, conj(psi)> and <phi, conj(psi)> are in the scale of the left
    # null vector here and of J phi there: the constant and <phi, mu> agree
    const, pairings = scheme_constant(scheme, analysis.pair, analysis.points[0])
    assert terms[0][1] == pytest.approx(const, rel=1e-12)
    assert terms[0][2][0] == pytest.approx(pairings[0], rel=1e-12)
    # the refusal covers both members of the pair, and a refused point is
    # excluded, so it widens r_hat past the truncation's
    vanishes = (
        "pairing <phi, conj(psi)> = 0 vanishes at tolerance 1e-10; "
        "the eigenvalue may not be simple"
    )
    assert [(p.lam, why) for p, why in refused] == [
        (analysis.points[i].lam, vanishes) for i in (1, 2)
    ]
    _, truncated = spectral.top_eigenvalues(analysis.pair, 0.05, 4)
    assert truncated < analysis.r_hat == abs(analysis.points[1].lam)


@pytest.mark.parametrize("name", ["sec5-1", "sec5-2"])
def test_conjugate_constants_are_conjugated_not_recomputed(name):
    # asymptotics computes each conjugate pair once, at its upper-half member;
    # the lower-half member's constant and pairings are the exact conjugates,
    # and its constant and <phi, mu> agree with a direct computation there to
    # the golden tolerance (the pairings with psi are in another scale there)
    from test_golden import pairing_resolution

    scheme = preset_scheme(name)
    analysis = asymptotics(scheme, 0.05)
    terms = analysis.terms
    assert analysis.refused == ()
    found = {p.lam: (const, *pairings) for p, const, pairings in terms}
    lower = [p for p, _, _ in terms if p.lam.imag < 0]
    assert len(lower) == sum(p.lam.imag > 0 for p, _, _ in terms) > 0
    for p in lower:
        assert found[p.lam] == tuple(z.conjugate() for z in found[p.lam.conjugate()])
        const, pairings = scheme_constant(scheme, analysis.pair, p)
        atol = pairing_resolution(name, abs(p.lam))
        for got, want in zip(found[p.lam][:2], (const, pairings[0])):
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                big = max(abs(a), abs(b))
                assert abs(a - b) <= max(1e-9 * big, atol) or big < 1e-14, (p.lam, a, b)


def test_asymptotics_has_no_symmetry_gate():
    # no window weight of the scheme equals its reversal's, and its boundary
    # weights are lopsided: the constants predict the exact counts all the
    # same, as every window weight and boundary weight enter them only
    # through P(lambda), kappa and mu
    scheme = load_scheme((ROOT / "tests" / "schemes" / "asymmetric-3.scheme").read_text())
    assert symmetry_defect(WeightScheme(scheme.m, scheme.wt)) is not None
    analysis = asymptotics(scheme, 0.1)
    terms = analysis.terms
    assert analysis.refused == () and len(terms) == 6
    # the top constant from the exact Taylor series of f (ROADMAP item 15)
    assert abs(terms[0][1] - 2.69422688033) <= 1e-9 * 2.69422688033
    assert_predicts_the_dp(scheme, terms)


def assert_predicts_the_dp(scheme, terms, ns=(30, 40)):
    """The prediction of alpha_n/n! within 1e-10 relative at each n of ns."""
    pairs = [(c, p.lam) for p, c, _ in terms]
    for n in ns:
        exact = dp_alpha(scheme, n) / Fraction(math.factorial(n))
        predicted = predict_alpha(pairs, n, scheme.m)
        assert abs(predicted - float(exact)) <= 1e-10 * abs(float(exact)), n


def random_asymmetric_schemes(count: int, seed: int = 11):
    """Window weights with no reversal symmetry, m <= 4, free signed boundary
    weights: one window weight is redrawn until it differs from its
    reversal's."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(2, 4)
        wt = {w: Fraction(rng.choice(RANDOM_WEIGHTS)) for w in all_words(m)}
        w = "a" + rng.choice(all_words(m - 2)) + "b"
        while wt[w] == wt[w[::-1]]:
            wt[w] = Fraction(rng.choice(RANDOM_WEIGHTS))
        wt1 = {u: Fraction(rng.choice(RANDOM_WEIGHTS)) for u in all_words(m - 1)}
        wt2 = {u: Fraction(rng.choice(RANDOM_WEIGHTS)) for u in all_words(m - 1)}
        yield f"asymmetric-{i:02}", WeightScheme(m, wt, wt1, wt2)


ASYMMETRIC = dict(random_asymmetric_schemes(30))
# The draws the prediction misses at 1e-10, for causes outside the constants.
# These have no nonzero eigenvalue down to |lambda| = 0.09 or below: the
# prediction is 0, and alpha_n/n! falls faster than any geometric rate.
NO_EIGENVALUE = {f"asymmetric-{i:02}" for i in (6, 7, 10, 11, 13, 19, 25, 26)}
# On asymmetric-02 (eigenvalues +-i sqrt(2)/((2k + 1) pi)) a remainder that
# no eigenvalue carries, and that falls faster than any geometric rate, is
# still 8.4e-8 of alpha_30/30!; at n = 40 it is below 1e-13.
LATE = {"asymmetric-02": (40,)}


@pytest.mark.parametrize("name", list(ASYMMETRIC))
def test_constants_of_asymmetric_schemes_predict_the_dp(name):
    scheme = ASYMMETRIC[name]
    assert symmetry_defect(WeightScheme(scheme.m, scheme.wt)) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        analysis = asymptotics(scheme, 0.1)
    assert analysis.refused == ()
    if name in NO_EIGENVALUE:
        assert analysis.terms == ()
    else:
        assert_predicts_the_dp(scheme, analysis.terms, LATE.get(name, (30, 40)))


def test_asymptotics_searches_eigenvalues_once_per_call(monkeypatch):
    calls = []
    real = spectral.eigenvalues
    monkeypatch.setattr(
        spectral, "eigenvalues", lambda *args: calls.append(args) or real(*args)
    )
    analysis = asymptotics(preset_scheme("sec5-1"), 0.05, top=1)
    assert len(calls) == 1
    assert len(analysis.points) == len(analysis.terms) == 1
    assert analysis.r_hat is not None


def test_predict_alpha_examples(spectra):
    # total constant of sec6 predicts alpha_n/n! superexponentially well
    scheme = preset_scheme("sec6")
    pair, points = spectra["sec6"]
    top = points[0]
    c, _ = scheme_constant(scheme, pair, top)
    pred = predict_alpha([(c, top.lam)], 10, 2)
    exact = dp_alpha(scheme, 10) / Fraction(math.factorial(10))
    assert abs(pred - float(exact)) < 1e-7
    # all-ones: constant 1, eigenvalue 1
    ones = preset_scheme("all-ones")
    pair1, points1 = spectra["all-ones"]
    c1, _ = scheme_constant(ones, pair1, points1[0])
    assert abs(predict_alpha([(c1, points1[0].lam)], 7, 2) - 1.0) < 1e-10


def test_predict_alpha_sec51_relative_error(spectra):
    scheme = preset_scheme("sec5-1")
    pair, points = spectra["sec5-1"]
    top = points[0]
    c, _ = scheme_constant(scheme, pair, top)
    n = 14
    pred = predict_alpha([(c, top.lam)], n, 3)
    exact = float(dp_alpha(scheme, n) / Fraction(math.factorial(n)))
    rel = abs(pred - exact) / exact
    assert rel <= (0.4938523335 / 0.9240358576) ** (n - 3) * 10


def test_predict_alpha_validation():
    with pytest.raises(ValueError):
        predict_alpha([(1.0, 0.9)], 2, 3)  # n < m
    with pytest.raises(ValueError, match="imaginary"):
        predict_alpha([(1.0 + 1.0j, 0.5 + 0.5j)], 6, 2)  # missing the conjugate
