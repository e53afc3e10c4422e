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
descentsum.constants: the truncation, the symmetry gate, the refusals and
predict_alpha.
"""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction

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
)
from descentsum.cli import main

EPS = float(np.finfo(float).eps)
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
        if name != "no-peaks":  # not reversal-symmetric
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
    """
    terms, refused, _ = analysis.constants()
    got = {p.lam: (const, *pairings) for p, const, pairings in terms}
    why = {p.lam: reason for p, reason in refused}
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
        if isinstance(want, str):
            assert p.lam in why and cause(why[p.lam]) == cause(want), (p.lam, want)
            continue
        assert p.lam not in why, (p.lam, why[p.lam])
        const, pairings = want
        linear = EPS * math.exp(rho / abs(p.lam))
        tols = [
            max(1e-9 * abs(w), res)
            for w, res in zip(pairings, (linear, linear, linear**2 / EPS))
        ]
        p1, p2, p3 = map(abs, pairings)
        tol_const = (
            p2 * tols[0] + p1 * tols[1] + tols[0] * tols[1] + p1 * p2 * tols[2] / p3
        ) / p3
        for a, b, tol in zip(got[p.lam], (const, *pairings), (tol_const, *tols)):
            assert abs(a - b) <= max(1e-9 * abs(b), tol), (p.lam, a, b)


SCHEMES = dict(schemes_under_test())


# the test names keep the ExpPoly route the array pass was first held to
@pytest.mark.parametrize("name", list(SCHEMES))
def test_array_pass_matches_the_expoly_route(name):
    analysis = asymptotics(SCHEMES[name], 0.05)
    assert analysis.defect is None
    with warnings.catch_warnings():
        # some draws are certified complete only above a larger modulus, with
        # a warning; the points found are what both routes are given
        warnings.simplefilter("ignore", UserWarning)
        analysis.points
    pair = analysis.pair
    rho = float(np.max(np.abs(np.linalg.eigvals(pair.A - pair.B))))
    assert_matches_reference(SCHEMES[name], analysis, rho)


NULL_VECTOR_SCHEMES = {
    name: SCHEMES[name]
    for name in [*(n for n in PRESETS if n != "no-peaks"), "no-runs-4"]
} | {"sec5-1 from a": restrict_ends(preset_scheme("sec5-1"), "a", None)}


@pytest.mark.parametrize("name", list(NULL_VECTOR_SCHEMES))
def test_reversed_moments_are_a_left_null_vector(name):
    # the residue identity behind <phi, conj(psi)> = (Rm)^T B phi(1)/lambda:
    # the cell moments m, read in reversed cell order, are a left null
    # vector of P(lambda) at every simple eigenvalue
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
        scale = np.linalg.norm(reversed_m) * np.linalg.norm(P, 2)
        assert np.linalg.norm(reversed_m @ P) <= 1e-9 * scale, (name, p.lam)


def test_basis_refusal_covers_every_point_with_the_same_message(monkeypatch):
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=3)
    terms, refused, r_hat = analysis.constants()
    assert terms == [] and [p for p, _ in refused] == list(analysis.points)
    assert len({reason for _, reason in refused}) == 1
    for p, reason in refused:
        assert reason.startswith("the basis W of the generalized eigenspaces")
        # the quadrature route reads no W, so it has the constant
        assert not isinstance(reference(scheme, analysis.pair, p), str)
    assert r_hat == abs(analysis.points[0].lam)


def test_a_vanishing_denominator_is_refused_as_the_expoly_route_refuses():
    # scaling a null vector by s scales <phi, conj(psi)> by s^2: at s = 1e-6
    # every denominator of sec5-1 falls under the 1e-10 guard
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=3)
    small = tuple(
        SpectralPoint(p.lam, p.vector * 1e-6, p.simple, p.residual)
        for p in analysis.points
    )
    analysis.__dict__["_kept"] = (small, analysis.r_hat)
    terms, refused, _ = analysis.constants()
    assert terms == [] and len(refused) == len(small)
    for p, reason in refused:
        assert "vanishes at tolerance 1e-10" in reason
        assert cause(reference(scheme, analysis.pair, p)) == cause(reason)


def test_an_asymmetric_window_is_refused_naming_the_same_defect():
    # the array pass refuses the scheme before any eigenvalue search (see
    # test_cli), the quadrature route before any eigenfunction; both name
    # the pair
    scheme = preset_scheme("no-peaks")
    with pytest.raises(ValueError) as batch:
        asymptotics(scheme, 0.05).constants()
    point = SpectralPoint(1.0, np.ones(2), True, 0.0)
    with pytest.raises(ValueError) as per_point:
        scheme_constant(scheme, build_transfer(scheme), point)
    defect = "wt(ab) = 0 differs from wt(ba) = 1"
    assert str(batch.value).endswith(defect) and str(per_point.value).endswith(defect)


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
    unmerged = asymptotics(scheme, 0.5).constants()
    with monkeypatch.context() as merge:
        merge.setattr(spectral, "_CLUSTER_TOL", 0.05)
        merge.setattr(linalg, "_JORDAN_TOL", 1e-4)
        merged = asymptotics(scheme, 0.5).constants()
    assert unmerged[1:] == merged[1:] == ([], None)
    assert len(unmerged[0]) == len(merged[0]) == 6
    for (p, c, _), (q, d, _) in zip(unmerged[0], merged[0]):
        assert p.lam == q.lam and abs(c - d) <= 1e-12 * abs(c)
    # an ill-conditioned W keeps its eigenvalues, and only the constants of
    # the eigenfunctions read through it are refused
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    refusal = (
        r"the basis W of the generalized eigenspaces of A - B has cond\(W\) = "
        r"\S+ > 0\.5: the eigenfunction would lose digits"
    )
    analysis = asymptotics(scheme, 0.5)
    assert [p.lam for p in analysis.points] == [p.lam for p, _, _ in unmerged[0]]
    top = analysis.points[0]
    terms, refused, r_hat = analysis.constants()
    assert terms == [] and [p for p, _ in refused] == list(analysis.points)
    assert all(re.match(refusal, reason) for _, reason in refused)
    assert r_hat == abs(top.lam)
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
    assert full.r_hat is None and full.defect is None
    assert len(asymptotics(scheme, 0.05, top=len(every)).points) == len(every)
    # the 2nd and 3rd eigenvalues are a conjugate pair: top 2 keeps both
    two = asymptotics(scheme, 0.05, top=2)
    assert [p.lam for p in two.points] == [p.lam for p in every[:3]]
    assert two.r_hat == abs(every[3].lam)
    one = asymptotics(scheme, 0.05, top=1)
    assert len(one.points) == 1 and one.r_hat == abs(every[1].lam)


def test_asymptotics_computes_constants_only_when_asked(monkeypatch):
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
    assert calls == []
    terms, refused, r_hat = analysis.constants()
    # one pass over the real and upper-half eigenvalues: points 1 and 2 are
    # a conjugate pair, lower half first, and only point 2 is computed
    assert calls == [[analysis.points[i].lam for i in (0, 2, 3)]]
    assert [p.lam for p, _, _ in terms] == [
        analysis.points[i].lam for i in (0, 3)
    ]
    const, pairings = scheme_constant(scheme, analysis.pair, analysis.points[0])
    assert terms[0][1] == pytest.approx(const, rel=1e-12)
    assert terms[0][2] == pytest.approx(pairings, rel=1e-12)
    # the refusal covers both members of the pair, and a refused point is
    # excluded, so it widens r_hat past the truncation's
    vanishes = (
        "pairing <phi, conj(psi)> = 0 vanishes at tolerance 1e-10; "
        "the eigenvalue may not be simple"
    )
    assert [(p.lam, why) for p, why in refused] == [
        (analysis.points[i].lam, vanishes) for i in (1, 2)
    ]
    assert analysis.r_hat < r_hat == abs(analysis.points[1].lam)


@pytest.mark.parametrize("name", ["sec5-1", "sec5-2"])
def test_conjugate_constants_are_conjugated_not_recomputed(name):
    # constants() computes each conjugate pair once, at its upper-half member;
    # the lower-half member's constant and pairings are the exact conjugates,
    # and agree with a direct computation there to the golden tolerance
    from test_golden import pairing_resolution

    scheme = preset_scheme(name)
    analysis = asymptotics(scheme, 0.05)
    terms, refused, _ = analysis.constants()
    assert refused == []
    found = {p.lam: (const, *pairings) for p, const, pairings in terms}
    lower = [p for p, _, _ in terms if p.lam.imag < 0]
    assert len(lower) == sum(p.lam.imag > 0 for p, _, _ in terms) > 0
    for p in lower:
        assert found[p.lam] == tuple(z.conjugate() for z in found[p.lam.conjugate()])
        const, pairings = scheme_constant(scheme, analysis.pair, p)
        atol = pairing_resolution(name, abs(p.lam))
        for got, want in zip(found[p.lam], (const, *pairings)):
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                big = max(abs(a), abs(b))
                assert abs(a - b) <= max(1e-9 * big, atol) or big < 1e-14, (p.lam, a, b)


def test_asymptotics_symmetry_gate():
    analysis = asymptotics(preset_scheme("no-peaks"), 0.05)
    assert analysis.defect == "wt(ab) = 0 differs from wt(ba) = 1"
    with pytest.raises(ValueError, match="reversal-symmetric scheme: wt\\(ab\\)"):
        analysis.constants()
    # the gate reads the window weights only: boundary weights are free
    lopsided_ends = WeightScheme(m=2, wt={"aa": 0, "bb": 2}, wt1={"a": 3}, wt2={"a": -1})
    analysis = asymptotics(lopsided_ends, 0.05)
    assert analysis.defect is None
    (point, const, _), = analysis.constants()[0]
    want = scheme_constant(lopsided_ends, analysis.pair, point)[0]
    assert const == pytest.approx(want, rel=1e-12)


def test_asymptotics_searches_eigenvalues_once_on_first_access(monkeypatch):
    import descentsum.spectral as spectral

    calls = []
    real = spectral.eigenvalues
    monkeypatch.setattr(
        spectral, "eigenvalues", lambda *args: calls.append(args) or real(*args)
    )
    analysis = asymptotics(preset_scheme("sec5-1"), 0.05, top=1)
    assert calls == []
    assert len(analysis.points) == 1 and analysis.r_hat is not None
    analysis.constants()
    assert len(calls) == 1


def test_predict_alpha_examples(spectra):
    # total constant of sec6 predicts alpha_n/n! superexponentially well
    scheme = preset_scheme("sec6")
    pair, points = spectra["sec6"]
    top = points[0]
    c, _ = scheme_constant(scheme, pair, top)
    pred = predict_alpha([(c, top.lam)], 10, 2)
    exact = dp_alpha(scheme, 10).value / Fraction(math.factorial(10))
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
    exact = float(dp_alpha(scheme, n).value / Fraction(math.factorial(n)))
    rel = abs(pred - exact) / exact
    assert rel <= (0.4938523335 / 0.9240358576) ** (n - 3) * 10


def test_predict_alpha_validation():
    with pytest.raises(ValueError):
        predict_alpha([(1.0, 0.9)], 2, 3)  # n < m
    with pytest.raises(ValueError, match="imaginary"):
        predict_alpha([(1.0 + 1.0j, 0.5 + 0.5j)], 6, 2)  # missing the conjugate
