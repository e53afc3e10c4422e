"""The constants of the array pass against the ExpPoly route of expfun.

descentsum.constants computes the pairings of every eigenvalue of a scheme
in one pass over coefficient arrays; expfun builds them one eigenvalue at a
time from ExpPoly term lists (eigenfunction_pieces, apply_J,
inner_products, scheme_constant).  The two must agree to the resolution of
the pairings, and refuse the same points with the same messages.
"""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import descentsum.constants as constants
from descentsum import (
    PRESETS,
    SpectralPoint,
    WeightScheme,
    adjoint_eigenfunction,
    all_words,
    asymptotics,
    constant_piecewise,
    preset_scheme,
    scheme_constant,
)

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


def assert_matches_reference(scheme, analysis, rho):
    """Every kept point's constant and pairings against the ExpPoly route.

    <phi, mu> and <kappa, conj(psi)> are linear in the eigenfunction, whose
    terms e^(mu x) reach |mu| = rho(A - B)/|lambda|: they are known to
    eps e^(rho/|lambda|) absolute.  <phi, conj(psi)> is quadratic, a sum of
    products of two such terms, so its resolution is that squared over eps;
    the constant c = p1 p2/p3 carries all three to first order.
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
            assert why.get(p.lam) == want, (p.lam, want)
            continue
        assert p.lam not in why, (p.lam, why[p.lam])
        const, pairings = want
        linear = EPS * math.exp(rho / abs(p.lam))
        tols = [
            max(1e-9 * abs(w), res)
            for w, res in zip(pairings, (linear, linear, linear**2 / EPS))
        ]
        p1, p2, p3 = map(abs, pairings)
        tol_const = (p2 * tols[0] + p1 * tols[1] + p1 * p2 * tols[2] / p3) / p3
        for a, b, tol in zip(got[p.lam], (const, *pairings), (tol_const, *tols)):
            assert abs(a - b) <= max(1e-9 * abs(b), tol), (p.lam, a, b)


SCHEMES = dict(schemes_under_test())


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


def test_basis_refusal_covers_every_point_with_the_same_message(monkeypatch):
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=3)
    terms, refused, r_hat = analysis.constants()
    assert terms == [] and [p for p, _ in refused] == list(analysis.points)
    for p, reason in refused:
        assert reason == reference(scheme, analysis.pair, p)
        assert reason.startswith("the basis W of the generalized eigenspaces")
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
        assert reason == reference(scheme, analysis.pair, p)


def test_an_asymmetric_window_is_refused_naming_the_same_defect():
    # the array pass refuses the scheme before any eigenvalue search (see
    # test_cli), the ExpPoly route at the reflection J; both name the pair
    scheme = preset_scheme("no-peaks")
    with pytest.raises(ValueError) as batch:
        asymptotics(scheme, 0.05).constants()
    with pytest.raises(ValueError) as per_point:
        adjoint_eigenfunction(scheme, constant_piecewise(2, 1))
    defect = "wt(ab) = 0 differs from wt(ba) = 1"
    assert str(batch.value).endswith(defect) and str(per_point.value).endswith(defect)
