"""The quadrature route: eigenfunctions, the reflection J, pairings, the operator."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev

import descentsum.spectral as spectral
from descentsum import (
    WeightScheme,
    all_words,
    apply_J,
    apply_operator,
    asymptotic_constant,
    asymptotics,
    build_transfer,
    dp_alpha,
    eigenfunction,
    eigenvalues,
    load_scheme,
    pairing,
    preset_scheme,
    restrict_ends,
    scheme_constant,
)

E = math.e
EPS = float(np.finfo(float).eps)


def series(*pieces, n=40):
    """One function of one variable per cell, as Chebyshev coefficients on
    [0, 1] interpolated at n points; a number is a constant piece."""
    def coefficients(piece):
        if callable(piece):
            return chebyshev.chebinterpolate(lambda t: piece((t + 1) / 2), n - 1)
        return np.eye(1, n)[0] * piece
    return np.array([coefficients(p) for p in pieces], dtype=complex)


def values(f, x):
    """f on every cell at the points x: shape (cells, len(x))."""
    return chebyshev.chebval(np.asarray(x, dtype=float) * 2 - 1, f.T)


def indicator(m, u):
    """1 on the cell P_u, 0 on the others."""
    return series(*(float(w == u) for w in all_words(m - 1)), n=1)


def sec6_eigenfunction():
    pair = build_transfer(preset_scheme("sec6"))
    return eigenfunction(pair, 1.0, np.array([1.0, 2.0]))


# ------------------------------------------------------------ cell volumes


def test_polytope_volumes_small():
    for m, u, volume in ((2, "a", 1 / 2), (2, "b", 1 / 2), (3, "aa", 1 / 6), (1, "", 1)):
        assert pairing(indicator(m, u), indicator(m, u)) == pytest.approx(volume, abs=EPS)


def test_polytope_volumes_partition_unit_cube():
    from descentsum.exact import _word_multiplicities

    for m in range(1, 6):
        vols = {u: pairing(indicator(m, u), indicator(m, u)) for u in all_words(m - 1)}
        assert sum(vols.values()) == pytest.approx(1, abs=4 * EPS)
        # each volume is (number of permutations with that word)/m!
        counts = _word_multiplicities(m)
        for u, v in vols.items():
            assert abs(v - int(counts[u]) / math.factorial(m)) <= EPS, (m, u)


def test_polytope_integral_exact_rational():
    # int over x1 <= x2 >= x3 of 2 x1 dx = int 2 x1 (1 - x1^2)/2 dx1 = 1/4
    x1 = series(0, lambda x: x, 0, 0, n=2)  # cells aa, ab, ba, bb
    assert pairing(x1, series(2, 2, 2, 2, n=1)) == pytest.approx(1 / 4, abs=EPS)


def test_polytope_integral_section6_indicator_values():
    phi = sec6_eigenfunction()
    assert abs(pairing(phi * indicator(2, "a"), series(1, 1, n=1)) - (1 - 2 / E)) < 1e-14
    assert abs(pairing(phi * indicator(2, "b"), series(1, 1, n=1)) - 1 / E) < 1e-14


def test_polytope_integral_exponents_that_cancel_to_near_zero():
    # the exponents of f and g sum to 4e-10: the product is nearly a
    # polynomial, which the quadrature integrates like any other function
    mu = 0.7 + 0.2j
    nu = -mu + 4e-10
    f = series(lambda x: 1.5 * x * np.exp(mu * x) + 0.5, 0)
    g = series(lambda x: 2.0 * np.exp(nu * x), 0)
    got = pairing(f, g)
    # P_a is x_1 <= x_2: the integral of f(x) times int_x^1 g(t) dt over [0, 1]
    with mpmath.workdps(30):
        m, n = mpmath.mpc(mu), mpmath.mpc(nu)
        inner = lambda x: 2 * (mpmath.exp(n) - mpmath.exp(n * x)) / n
        want = complex(
            mpmath.quad(lambda x: (1.5 * x * mpmath.exp(m * x) + 0.5) * inner(x), [0, 1])
        )
    assert abs(got - want) < 1e-14 * abs(want)


# ----------------------------------------------------------- eigenfunctions


def test_eigenfunction_section6_exact_shape():
    x = np.linspace(0, 1, 11)
    got = values(sec6_eigenfunction(), x)
    assert np.abs(got[0] - (1 - x) * np.exp(-x)).max() < 1e-12
    assert np.abs(got[1] - (2 - x) * np.exp(-x)).max() < 1e-12


def test_eigenfunction_all_ones_constant():
    pair = build_transfer(preset_scheme("all-ones"))
    phi = eigenfunction(pair, 1.0, np.array([1.0, 1.0]))
    assert np.abs(values(phi, np.linspace(0, 1, 11)) - 1).max() < 1e-12


def test_eigenfunction_sec51_exponent_set():
    # A - B has the simple eigenvalues +-sigma and +-i tau: on every cell,
    # phi is a combination of the four pure exponentials e^(s x/lambda)
    tau = math.sqrt((1 + math.sqrt(5)) / 2)
    sigma = math.sqrt((-1 + math.sqrt(5)) / 2)
    pair = build_transfer(preset_scheme("sec5-1"))
    top = eigenvalues(pair, 0.05)[0]
    phi = eigenfunction(pair, top.lam, top.vector)
    x = np.linspace(0, 1, 30)
    basis = np.exp(np.outer(x, [sigma, -sigma, 1j * tau, -1j * tau]) / top.lam)
    for piece in values(phi, x):
        coef = np.linalg.lstsq(basis, piece, rcond=None)[0]
        assert np.abs(basis @ coef - piece).max() < 1e-12 * np.abs(piece).max()


def test_eigenfunction_validation():
    pair = build_transfer(preset_scheme("sec6"))
    with pytest.raises(ValueError):
        eigenfunction(pair, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        eigenfunction(pair, 1.0, np.array([1.0, 2.0, 3.0]))


def test_scheme_constant_reads_neither_the_blocks_nor_the_kernel_factors(monkeypatch):
    # the array pass of descentsum.constants reads TransferPair.blocks, the
    # eigenvalue search its factors; the reference reads A and B alone, so a
    # fault in the block decomposition cannot hide in both
    scheme = preset_scheme("sec5-1")
    analysis = asymptotics(scheme, 0.05, top=1)
    (top, batch, _), = analysis.terms

    def barred(pair):
        raise AssertionError("the reference read the block decomposition")

    # a named tuple's fields are descriptors on its class: a property replaces them
    monkeypatch.setattr(spectral.TransferPair, "blocks", property(barred))
    monkeypatch.setattr(spectral.TransferPair, "factors", property(barred))
    with pytest.raises(AssertionError):
        analysis.pair.blocks
    const, _ = scheme_constant(scheme, analysis.pair, top)
    assert abs(const - 0.9936198319) < 1e-9
    assert abs(const - batch) < 1e-12


# ------------------------------------------------------------------- J


def test_apply_J_section6_shape():
    y = np.linspace(0, 1, 11)
    psi = values(apply_J(sec6_eigenfunction()), y)
    assert np.abs(psi[0] - y * np.exp(y - 1)).max() < 1e-12
    assert np.abs(psi[1] - (y + 1) * np.exp(y - 1)).max() < 1e-12


def test_apply_J_fixes_constants():
    f = series(1, 1, 1, 1, n=1)
    assert np.array_equal(apply_J(f), f)


def test_apply_J_involution():
    # exact: J permutes the cells and flips the signs of the odd terms
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        f = rng.standard_normal((2 ** (m - 1), 7))
        assert np.array_equal(apply_J(apply_J(f)), f)
    phi = sec6_eigenfunction()
    assert np.array_equal(apply_J(apply_J(phi)), phi)


def test_apply_J_swaps_cells_by_word_reversal():
    # distinct constants reveal which source cell each target cell reads
    g = apply_J(series(1, 2, 3, 4, n=1))  # cells aa, ab, ba, bb
    assert g[:, 0].real.tolist() == [1, 3, 2, 4]


# ------------------------------------------------------ pairings, constants


def test_inner_products_sec51(spectra):
    scheme = preset_scheme("sec5-1")
    pair, points = spectra["sec5-1"]
    c, (p1, p2, p3) = scheme_constant(scheme, pair, points[0])
    assert abs(p1 - 0.6020376937) < 1e-8
    assert abs(p2 - 0.6020376937) < 1e-8
    assert abs(p3 - 0.3647767214) < 1e-8
    assert abs(c - 0.9936198319) < 1e-7


def test_inner_products_sec52(spectra):
    scheme = preset_scheme("sec5-2")
    pair, points = spectra["sec5-2"]
    c, (p1, p2, p3) = scheme_constant(scheme, pair, points[0])
    assert abs(p1 - 0.2798342976) < 1e-8
    assert abs(p3 - 0.0878970625) < 1e-8
    assert abs(c - 0.8908970548) < 1e-7


def test_inner_products_sec6_exact_targets():
    phi = sec6_eigenfunction()
    assert abs(pairing(phi, indicator(2, "b")) - 1 / E) < 1e-14
    assert abs(pairing(phi, apply_J(phi)) - 1 / E) < 1e-14


def test_section6_refined_constants():
    scheme = preset_scheme("sec6")
    pair = build_transfer(scheme)
    top = eigenvalues(pair, 0.05)[0]
    targets = {
        ("a", "a"): E - 4 + 4 / E,
        ("a", "b"): 1 - 2 / E,
        ("b", "b"): 1 / E,
        (None, None): E - 2 + 1 / E,
    }
    for (x, y), want in targets.items():
        c, _ = scheme_constant(restrict_ends(scheme, x, y), pair, top)
        assert abs(c - want) < 1e-10, (x, y)


def test_adjoint_refuses_asymmetric_scheme():
    lopsided = WeightScheme(m=3, wt={"aab": 0})
    point = spectral.SpectralPoint(1.0, np.ones(4), np.ones(4), True, 0.0)
    with pytest.raises(ValueError, match="aab"):
        scheme_constant(lopsided, build_transfer(lopsided), point)


def test_asymptotic_constant_degenerate_denominator():
    ones, zero = series(1, 1, n=1), series(0, 0, n=1)
    with pytest.raises(ValueError, match="simple"):
        asymptotic_constant(pairing(ones, ones), pairing(ones, zero), pairing(ones, zero))
    # the guard sits at 1e-10: just under it refuses, just over it divides
    with pytest.raises(ValueError, match="tolerance 1e-10"):
        asymptotic_constant(2.0, 3.0, 5e-11j)
    assert asymptotic_constant(2.0, 3.0, 2e-10) == pytest.approx(3e10, rel=1e-15)


def test_lemma_pairing_identity_random_f(spectra):
    # <f, conj(psi)> = <phi, J f> for any f of the first coordinate
    rng = np.random.default_rng(42)
    for name in ("sec5-1", "sec5-2", "sec6"):
        pair, points = spectra[name]
        phi = eigenfunction(pair, points[0].lam, points[0].vector)
        psi = apply_J(phi)
        for _ in range(10):
            f = rng.integers(-4, 5, size=(pair.dim, 3)).astype(float)
            lhs, rhs = pairing(f, psi), pairing(phi, apply_J(f))
            assert abs(lhs - rhs) < 1e-13 * max(1, abs(lhs))


def test_constant_invariant_under_eigenfunction_scaling(spectra):
    rng = np.random.default_rng(5)
    scheme = preset_scheme("sec5-1")
    pair, points = spectra["sec5-1"]
    phi = eigenfunction(pair, points[0].lam, points[0].vector)
    psi = apply_J(phi)
    kappa = mu = series(*(1 for _ in range(pair.dim)), n=1)

    def constant(phi, psi):
        return asymptotic_constant(pairing(phi, mu), pairing(kappa, psi), pairing(phi, psi))

    base = constant(phi, psi)
    for _ in range(5):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(constant(phi * a, psi * b) - base) < 1e-10


# ------------------------------------------------------------------ operator


def test_apply_operator_all_ones_fixes_constants():
    got = apply_operator(preset_scheme("all-ones"), series(1, 1, n=1))
    assert np.abs(got - series(1, 1, n=2)).max() < EPS


def test_apply_operator_eigen_residual_sec6():
    phi = sec6_eigenfunction()
    Tphi = apply_operator(preset_scheme("sec6"), phi)
    assert np.abs(Tphi[:, :-1] - phi).max() < 1e-14 and np.abs(Tphi[:, -1]).max() < 1e-14


def test_apply_operator_eigen_residual_presets(spectra):
    # T phi = lambda phi, relative to the largest coefficient of lambda phi;
    # no-runs-5's A - B has an 8-dimensional generalized eigenspace at 0 of
    # nilpotency index 2
    cases = {name: (preset_scheme(name), *spectra[name])
             for name in ("sec5-1", "sec5-2", "sec6", "alternating", "all-ones")}
    no_runs = load_scheme("m = 5\nwt aaaaa = 0\nwt bbbbb = 0\n")
    analysis = asymptotics(no_runs, 0.1)
    cases["no-runs-5"] = (no_runs, analysis.pair, analysis.points[:10])
    for name, (scheme, pair, points) in cases.items():
        for pt in points[:10] if name == "no-runs-5" else points[:3]:
            phi = eigenfunction(pair, pt.lam, pt.vector)
            Tphi = apply_operator(scheme, phi)
            Tphi[:, :-1] -= pt.lam * phi
            resid = np.abs(Tphi).max() / np.abs(pt.lam * phi).max()
            assert resid < 1e-12, (name, pt.lam, resid)


def test_apply_operator_iterated_pairing_matches_dp():
    s = preset_scheme("sec6")
    kappa = series(*(float(s.wt1[u]) for u in all_words(1)), n=1)
    mu = series(*(float(s.wt2[u]) for u in all_words(1)), n=1)
    f = kappa
    for _ in range(2):  # T^2 kappa pairs to alpha_4/4!
        f = apply_operator(s, f)
    assert dp_alpha(s, 4) == 26
    assert pairing(f, mu) == pytest.approx(26 / 24, abs=4 * EPS)


def test_apply_operator_validation():
    with pytest.raises(ValueError, match="4 cells, not 2"):
        apply_operator(preset_scheme("sec6"), series(1, 1, 1, 1, n=1))

