"""Exponential-polynomial algebra, eigenfunctions, pairings, and operator iteration."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descentsum.constants as constants
import descentsum.linalg as linalg
import descentsum.spectral as spectral
from descentsum import (
    ExpPoly,
    PiecewiseFn,
    adjoint_eigenfunction,
    all_words,
    alpha_by_operator_iteration,
    apply_J,
    apply_operator,
    asymptotic_constant,
    asymptotics,
    brute_force_alpha,
    build_transfer,
    constant_piecewise,
    dp_alpha,
    eigenfunction_pieces,
    eigenvalues,
    inner_products,
    kappa_piecewise,
    load_scheme,
    mu_piecewise,
    polytope_integral,
    predict_alpha,
    preset_scheme,
    restrict_ends,
    scheme_constant,
    WeightScheme,
)
from descentsum.cli import main

E = math.e


def expoly_close(f, g, tol=1e-12):
    return (f - g).max_coef() < tol


# ---------------------------------------------------------------- ExpPoly


def test_normalization_merges_and_drops():
    f = ExpPoly([(1, 2, 0), (2, 2, 0), (5, 0, 1), (-5, 0, 1)])
    assert f.terms == ((3, 2, 0),)
    assert ExpPoly([(0, 3, 2)]).is_zero
    assert ExpPoly.zero().is_zero


def test_normalization_merges_close_exponents():
    for f in (
        ExpPoly([(1.0, 0, 1.0), (1.0, 0, 1.0 + 1e-12)]),
        ExpPoly([(1, 0, Fraction(1, 2)), (1.0, 0, 0.5 + 1e-12)]),  # exact + inexact
    ):
        assert len(f.terms) == 1
        assert abs(f.terms[0][0] - 2.0) < 1e-12


def test_normalization_snaps_tiny_exponents_to_zero():
    f = ExpPoly([(1.0, 1, 1e-16)])
    assert f.terms[0][2] == 0
    # the antiderivative must take the polynomial branch, not divide by 1e-16
    F = f.antiderivative()
    assert abs(F(1.0) - 0.5) < 1e-12


def test_exactness_tracking():
    f = ExpPoly([(Fraction(1, 3), 2, 0)])
    assert f.is_exact
    mixed = f + ExpPoly([(0.5, 2, 0)])
    assert not mixed.is_exact
    assert mixed.terms == ((Fraction(1, 3) + 0.5, 2, 0),)
    assert not ExpPoly([(0.5, 1, 0)]).is_exact
    # integer exponents keep the exact flag
    assert ExpPoly([(1, 0, -1)]).is_exact


def test_algebra_basics():
    x = ExpPoly.term(1, 1)
    c = ExpPoly.constant(3)
    assert (x + c)(2.0) == 5.0
    assert (x * x).terms == ((1, 2, 0),)
    assert (x - x).is_zero
    assert (-x).scale(-1) == x
    g = ExpPoly.term(2, 0, 1)  # 2 e^x
    assert abs((x * g)(1.5) - 1.5 * 2 * math.exp(1.5)) < 1e-12


def test_antiderivative_examples():
    one = ExpPoly.constant(1)
    assert one.antiderivative() == ExpPoly.term(1, 1)
    mu = 0.7
    g = ExpPoly.term(1.0, 0, mu).antiderivative()
    for x in (0.0, 0.4, 1.0):
        assert abs(g(x) - (math.exp(mu * x) - 1) / mu) < 1e-13
    xe = ExpPoly.term(1, 1, 1)  # x e^x
    F = xe.antiderivative()
    expected = ExpPoly([(1, 1, 1), (-1, 0, 1), (1, 0, 0)])  # x e^x - e^x + 1
    assert expoly_close(F, expected, 1e-15)


def test_antiderivative_vanishes_at_zero():
    f = ExpPoly([(Fraction(2), 3, 0), (1, 2, -2), (0.5 + 0.5j, 0, 1j)])
    assert abs(f.antiderivative().at_zero()) < 1e-15


def test_antiderivative_exact_rational_path():
    f = ExpPoly([(Fraction(3, 4), 2, 0)])
    F = f.antiderivative()
    assert F.is_exact
    assert F.terms == ((Fraction(1, 4), 3, 0),)


def test_antiderivative_keeps_an_int_coefficient_that_divides():
    # 6x^2 + 5x + 4 -> 2x^3 + (5/2)x^2 + 4x: an exact division stays an int,
    # which keeps the scaled operator iteration on ints
    F = ExpPoly([(6, 2, 0), (5, 1, 0), (4, 0, 0)]).antiderivative()
    assert F.terms == ((4, 1, 0), (Fraction(5, 2), 2, 0), (2, 3, 0))
    assert [type(c) for c, _, _ in F.terms] == [int, Fraction, int]


def test_antiderivative_numeric_derivative_check():
    f = ExpPoly([(1.3, 2, -0.9), (0.4, 0, 2.1), (2, 1, 0)])
    F = f.antiderivative()
    h = 1e-6
    for x in (0.2, 0.5, 0.9):
        dF = (F(x + h) - F(x - h)) / (2 * h)
        assert abs(dF - f(x)) < 1e-8


def test_reflect_composition():
    f = ExpPoly([(2, 1, 0), (1, 0, -1)])  # 2x + e^{-x}
    g = f.reflect()
    for x in (0.0, 0.3, 1.0):
        assert abs(g(x) - f(1 - x)) < 1e-14


def test_reflect_involution_exact_on_rational():
    f = ExpPoly([(Fraction(1, 2), 3, 0), (Fraction(-2), 1, 0)])
    assert f.reflect().reflect() == f
    assert f.reflect().is_exact


def test_conjugate_and_eval():
    f = ExpPoly([(1 + 2j, 1, 1j)])
    g = f.conjugate()
    x = 0.37
    assert abs(g(x) - f(x).conjugate()) < 1e-14


coef_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30)
@given(st.lists(st.tuples(coef_st, st.integers(0, 3)), max_size=4),
       st.lists(st.tuples(coef_st, st.integers(0, 3)), max_size=4))
def test_product_distributes_exactly(ts, us):
    f = ExpPoly([(c, k, 0) for c, k in ts])
    g = ExpPoly([(c, k, 0) for c, k in us])
    h = ExpPoly([(1, 1, 0), (Fraction(1, 2), 0, 0)])
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f


@settings(max_examples=30)
@given(st.lists(st.tuples(coef_st, st.integers(0, 3)), max_size=4))
def test_antiderivative_linear_and_involutive_with_reflect(ts):
    f = ExpPoly([(c, k, 0) for c, k in ts])
    assert f.reflect().reflect() == f
    two_f = f + f
    assert two_f.antiderivative() == f.antiderivative().scale(2)


# ------------------------------------------------------------ PiecewiseFn


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseFn(2, "first", {"a": ExpPoly.constant(1)})  # missing P_b
    with pytest.raises(ValueError):
        PiecewiseFn(2, "middle", {u: ExpPoly.constant(1) for u in all_words(1)})
    f = constant_piecewise(2, 1)
    assert set(f.pieces) == {"a", "b"}
    assert f.which_variable == "first"


def test_kappa_mu_and_indicator_builders():
    s = WeightScheme(m=2, wt1={"a": Fraction(1, 3)}, wt2={"b": 5})
    k = kappa_piecewise(s)
    assert k.which_variable == "first"
    assert k.pieces["a"] == ExpPoly.constant(Fraction(1, 3))
    mu = mu_piecewise(s)
    assert mu.which_variable == "last"
    assert mu.pieces["b"] == ExpPoly.constant(5)
    # a restricted scheme's boundary functions are indicator-weighted
    ind = mu_piecewise(restrict_ends(s, end="b"))
    assert ind.pieces["b"] == ExpPoly.constant(5)
    assert ind.pieces["a"].is_zero
    first = kappa_piecewise(restrict_ends(s, start="b"))
    assert first.pieces["a"].is_zero and first.pieces["b"] == ExpPoly.constant(1)
    with pytest.raises(ValueError):
        restrict_ends(WeightScheme(m=1), start="a")


# --------------------------------------------------- polytope integration


def test_polytope_volumes_small():
    one = ExpPoly.constant(1)
    assert polytope_integral("a", one, one) == Fraction(1, 2)
    assert polytope_integral("b", one, one) == Fraction(1, 2)
    assert polytope_integral("aa", one, one) == Fraction(1, 6)
    assert polytope_integral("", one, one) == 1  # m = 1: the unit interval


def test_polytope_volumes_partition_unit_cube():
    from descentsum.exact import _word_multiplicities

    one = ExpPoly.constant(1)
    for m in range(1, 6):
        vols = {u: polytope_integral(u, one, one) for u in all_words(m - 1)}
        assert sum(vols.values()) == 1
        # each volume is (number of permutations with that word)/m!
        counts = _word_multiplicities(m)
        for u, v in vols.items():
            assert v == Fraction(int(counts[u]), math.factorial(m))


def test_polytope_integral_exact_rational():
    f = ExpPoly([(Fraction(1), 1, 0)])  # x1
    g = ExpPoly([(Fraction(2), 0, 0)])
    val = polytope_integral("ab", f, g)
    assert isinstance(val, Fraction)
    # int over x1<=x2>=x3 of 2 x1 dx = int 2 x1 (1 - x1^2)/2 dx1 = 1/4
    assert val == Fraction(1, 4)


def test_polytope_integral_section6_indicator_values():
    pair = build_transfer(preset_scheme("sec6"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    one = ExpPoly.constant(1)
    got_a = polytope_integral("a", phi.pieces["a"], one)
    assert abs(got_a - (1 - 2 / E)) < 1e-12
    got_b = polytope_integral("b", phi.pieces["b"], one)
    assert abs(got_b - 1 / E) < 1e-12


def test_polytope_integral_exponents_that_cancel_to_near_zero():
    # the exponents of f and g sum to 4e-10, within MU_MERGE_TOL of 0: that
    # product term is integrated as a polynomial, not by parts through 1/mu^2
    mu = 0.7 + 0.2j
    nu = -mu + 4e-10
    f = ExpPoly([(1.5, 1, mu), (0.5, 0, 0)])
    g = ExpPoly.term(2.0, 0, nu)
    got = polytope_integral("a", f, g)
    # P_a is x_1 <= x_2: the integral of f(x) times int_x^1 g(t) dt over [0, 1]
    with mpmath.workdps(30):
        m, n = mpmath.mpc(mu), mpmath.mpc(nu)
        inner = lambda x: 2 * (mpmath.exp(n) - mpmath.exp(n * x)) / n
        want = complex(
            mpmath.quad(lambda x: (1.5 * x * mpmath.exp(m * x) + 0.5) * inner(x), [0, 1])
        )
    assert abs(got - want) < 1e-8 * abs(want)


# ----------------------------------------------------------- eigenfunctions


def test_eigenfunction_section6_exact_shape():
    pair = build_transfer(preset_scheme("sec6"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    expect_a = ExpPoly([(1.0, 0, -1.0), (-1.0, 1, -1.0)])  # (1-x)e^{-x}
    expect_b = ExpPoly([(2.0, 0, -1.0), (-1.0, 1, -1.0)])  # (2-x)e^{-x}
    assert expoly_close(phi.pieces["a"], expect_a, 1e-12)
    assert expoly_close(phi.pieces["b"], expect_b, 1e-12)


def test_eigenfunction_all_ones_constant():
    pair = build_transfer(preset_scheme("all-ones"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 1.0]))
    for u in ("a", "b"):
        assert expoly_close(phi.pieces[u], ExpPoly.constant(1.0), 1e-12)


def test_eigenfunction_sec51_exponent_set():
    tau = math.sqrt((1 + math.sqrt(5)) / 2)
    sigma = math.sqrt((-1 + math.sqrt(5)) / 2)
    pair = build_transfer(preset_scheme("sec5-1"))
    top = eigenvalues(pair, 0.05)[0]
    phi = eigenfunction_pieces(pair, top.lam, top.vector)
    lam0 = top.lam.real
    expected = {sigma / lam0, -sigma / lam0, tau / lam0, -tau / lam0}
    seen = set()
    for piece in phi.pieces.values():
        for _, k, mu in piece.terms:
            assert k == 0  # diagonalizable: pure exponentials
            seen.add(mu)
    for mu in seen:
        if abs(mu.imag) < 1e-9:
            assert any(abs(mu.real - t) < 1e-6 for t in expected)
        else:
            assert abs(mu.real) < 1e-9
            assert any(abs(abs(mu.imag) - t) < 1e-6 for t in expected)


def test_eigenfunction_validation():
    pair = build_transfer(preset_scheme("sec6"))
    with pytest.raises(ValueError):
        eigenfunction_pieces(pair, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0, 3.0]))


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
    # an ill-conditioned W keeps its eigenvalues, and only the eigenfunctions
    # read through it, with their constants, are refused; the bound lives
    # with the constants, and eigenfunction_pieces reads it there too
    monkeypatch.setattr(constants, "_BASIS_COND", 0.5)
    refusal = (
        r"the basis W of the generalized eigenspaces of A - B has cond\(W\) = "
        r"\S+ > 0\.5: the eigenfunction would lose digits"
    )
    analysis = asymptotics(scheme, 0.5)
    assert [p.lam for p in analysis.points] == [p.lam for p, _, _ in unmerged[0]]
    top = analysis.points[0]
    with pytest.raises(ValueError, match=refusal):
        eigenfunction_pieces(analysis.pair, top.lam, top.vector)
    terms, refused, r_hat = analysis.constants()
    assert terms == [] and [p for p, _ in refused] == list(analysis.points)
    assert all(re.match(refusal, reason) for _, reason in refused)
    assert r_hat == abs(top.lam)
    scheme_file = tmp_path / "near-pair.scheme"
    scheme_file.write_text(SYMMETRIC_NEAR_PAIR)
    assert main(["constants", "--scheme", str(scheme_file), "--min-modulus", "0.5"]) == 1
    err = capsys.readouterr().err
    assert re.search(re.escape(f"at lambda = {top.lam:.12g}: ") + refusal, err), err


# ------------------------------------------------------------------- J


def test_apply_J_section6_shape():
    pair = build_transfer(preset_scheme("sec6"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    psi = apply_J(phi)
    assert psi.which_variable == "last"
    for y in (0.0, 0.25, 0.8, 1.0):
        assert abs(psi.pieces["a"](y) - y * math.exp(y - 1)) < 1e-12
        assert abs(psi.pieces["b"](y) - (y + 1) * math.exp(y - 1)) < 1e-12


def test_apply_J_fixes_constants():
    f = constant_piecewise(3, Fraction(1))
    g = apply_J(f)
    assert g.which_variable == "last"
    for u in all_words(2):
        assert g.pieces[u] == ExpPoly.constant(Fraction(1))


def test_apply_J_involution():
    # exact on rational pieces
    f = PiecewiseFn(
        2,
        "first",
        {
            "a": ExpPoly([(Fraction(1, 2), 2, 0)]),
            "b": ExpPoly([(Fraction(-1), 1, 0), (Fraction(3), 0, 0)]),
        },
    )
    assert apply_J(apply_J(f)).pieces == f.pieces
    # within rounding on exponential pieces
    pair = build_transfer(preset_scheme("sec6"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    back = apply_J(apply_J(phi))
    assert (back - phi).max_coef() < 1e-12


def test_apply_J_toggles_variable_both_ways():
    f = constant_piecewise(2, 1)
    g = apply_J(f)
    assert g.which_variable == "last"
    assert apply_J(g).which_variable == "first"


def test_apply_J_swaps_cells_by_word_reversal():
    # distinct constants reveal which source cell each target cell reads
    f = PiecewiseFn(
        3,
        "first",
        {
            "aa": ExpPoly.constant(1),
            "ab": ExpPoly.constant(2),
            "ba": ExpPoly.constant(3),
            "bb": ExpPoly.constant(4),
        },
    )
    g = apply_J(f)
    assert g.pieces["ab"] == ExpPoly.constant(3)
    assert g.pieces["ba"] == ExpPoly.constant(2)
    assert g.pieces["aa"] == ExpPoly.constant(1)
    assert g.pieces["bb"] == ExpPoly.constant(4)


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
    scheme = preset_scheme("sec6")
    pair = build_transfer(scheme)
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    psi = adjoint_eigenfunction(scheme, phi)
    ind_b = mu_piecewise(restrict_ends(scheme, end="b"))
    p_phi_1b, _, p_phi_psi = inner_products(phi, psi, kappa_piecewise(scheme), ind_b)
    assert abs(p_phi_1b - 1 / E) < 1e-12
    assert abs(p_phi_psi - 1 / E) < 1e-12


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
    phi = constant_piecewise(3, 1)
    with pytest.raises(ValueError, match="aab"):
        adjoint_eigenfunction(lopsided, phi)


def test_asymptotic_constant_degenerate_denominator():
    phi = constant_piecewise(2, 1)
    psi = PiecewiseFn(2, "last", {u: ExpPoly.zero() for u in all_words(1)})
    kappa = constant_piecewise(2, 1)
    mu = constant_piecewise(2, 1, which_variable="last")
    with pytest.raises(ValueError, match="simple"):
        asymptotic_constant(*inner_products(phi, psi, kappa, mu))
    # the guard sits at 1e-10: just under it refuses, just over it divides
    with pytest.raises(ValueError, match="tolerance 1e-10"):
        asymptotic_constant(2.0, 3.0, 5e-11j)
    assert asymptotic_constant(2.0, 3.0, 2e-10) == pytest.approx(3e10, rel=1e-15)


def test_lemma_pairing_identity_random_f(spectra):
    rng = np.random.default_rng(42)
    for name in ("sec5-1", "sec5-2", "sec6"):
        scheme = preset_scheme(name)
        pair, points = spectra[name]
        top = points[0]
        phi = eigenfunction_pieces(pair, top.lam, top.vector)
        psi = adjoint_eigenfunction(scheme, phi)
        m = scheme.m
        for _ in range(10):
            pieces = {}
            for u in all_words(m - 1):
                coefs = rng.integers(-4, 5, size=3)
                pieces[u] = ExpPoly(
                    [(Fraction(int(c)), k, 0) for k, c in enumerate(coefs)]
                )
            f = PiecewiseFn(m, "first", pieces)
            lhs = inner_products(phi, psi, f, mu_piecewise(scheme))[1]  # <f, conj(psi)>
            rhs = inner_products(phi, psi, f, apply_J(f))[0]  # <phi, J f>
            assert abs(lhs - rhs) < 1e-10


def test_constant_invariant_under_eigenfunction_scaling(spectra):
    rng = np.random.default_rng(5)
    scheme = preset_scheme("sec5-1")
    pair, points = spectra["sec5-1"]
    top = points[0]
    phi = eigenfunction_pieces(pair, top.lam, top.vector)
    psi = adjoint_eigenfunction(scheme, phi)
    kappa, mu = kappa_piecewise(scheme), mu_piecewise(scheme)
    base = asymptotic_constant(*inner_products(phi, psi, kappa, mu))
    for _ in range(5):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        scaled = asymptotic_constant(
            *inner_products(phi.scale(a), psi.scale(b), kappa, mu)
        )
        assert abs(scaled - base) < 1e-10


# ------------------------------------------------- operator and prediction


def test_apply_operator_all_ones_fixes_constants():
    s = preset_scheme("all-ones")
    f = constant_piecewise(2, Fraction(1))
    g = apply_operator(s, f)
    for u in ("a", "b"):
        assert g.pieces[u] == ExpPoly.constant(Fraction(1))


def test_apply_operator_eigen_residual_sec6():
    pair = build_transfer(preset_scheme("sec6"))
    phi = eigenfunction_pieces(pair, 1.0, np.array([1.0, 2.0]))
    Tphi = apply_operator(preset_scheme("sec6"), phi)
    assert (Tphi - phi).max_coef() < 1e-12


def test_apply_operator_eigen_residual_presets(spectra):
    # no-runs-5: A - B has an 8-dimensional generalized eigenspace at 0 of
    # nilpotency index 2, so its polynomial factors have degree at most 1
    cases = {name: (preset_scheme(name), *spectra[name])
             for name in ("sec5-1", "sec5-2", "sec6", "alternating")}
    no_runs = asymptotics(load_scheme("m = 5\nwt aaaaa = 0\nwt bbbbb = 0\n"), 0.1)
    cases["no-runs-5"] = (no_runs.scheme, no_runs.pair, no_runs.points)
    for name, (scheme, pair, points) in cases.items():
        blocks = pair.blocks
        index = [sum(bool(N[blocks.label == i].any()) for N in blocks.powers)
                 for i in range(len(blocks.centre))]
        for pt in points[:3]:
            phi = eigenfunction_pieces(pair, pt.lam, pt.vector)
            for piece in phi.pieces.values():
                for _, k, mu in piece.terms:
                    block = np.argmin(np.abs(blocks.centre / pt.lam - complex(mu)))
                    assert k < index[block], (name, pt.lam, k, mu)
            resid = (apply_operator(scheme, phi) - phi.scale(pt.lam)).max_coef()
            assert resid < 1e-12, (name, pt.lam, resid)


def test_apply_operator_iterated_pairing_matches_dp():
    s = preset_scheme("sec6")
    f = kappa_piecewise(s)
    for _ in range(2):  # T^2 kappa pairs to alpha_4/4!
        f = apply_operator(s, f)
    total = inner_products(f, constant_piecewise(2, 1, "last"), f, mu_piecewise(s))[0]
    assert total == Fraction(26, 24)


def test_apply_operator_validation():
    s = preset_scheme("sec6")
    with pytest.raises(ValueError):
        apply_operator(s, constant_piecewise(2, 1, which_variable="last"))
    with pytest.raises(ValueError):
        apply_operator(s, constant_piecewise(3, 1))


def test_operator_iteration_examples():
    assert alpha_by_operator_iteration(preset_scheme("sec6"), 3).value == 6
    assert alpha_by_operator_iteration(preset_scheme("all-ones"), 6).value == 720
    got = alpha_by_operator_iteration(preset_scheme("sec5-1"), 5).value
    assert got == brute_force_alpha(preset_scheme("sec5-1"), 5).value
    with pytest.raises(ValueError):
        alpha_by_operator_iteration(preset_scheme("sec5-1"), 2)


def test_operator_iteration_refinements():
    s = preset_scheme("sec6")
    for n in range(2, 8):
        for x in "ab":
            for y in "ab":
                r = restrict_ends(s, x, y)
                assert (
                    alpha_by_operator_iteration(r, n).value == dp_alpha(r, n).value
                )
    with pytest.raises(ValueError, match="m >= 2"):
        restrict_ends(preset_scheme("no-descents"), start="a")


def test_operator_iteration_exact_type():
    got = alpha_by_operator_iteration(preset_scheme("sec6"), 9)
    assert isinstance(got.value, Fraction)
    assert got.value == dp_alpha(preset_scheme("sec6"), 9).value


def test_oracles_and_transfer_pair_at_window_length_one():
    # at m = 1 every index word is empty; alpha_n sums the Eulerian numbers
    # weighted 2 per ascent and 1/2 per descent, times wt1 * wt2 = 1
    s = load_scheme("m = 1\nwt a = 2\nwt b = 1/2\nwt1 = 3\nwt2 = 1/3\n")
    for n in range(1, 10):
        want = dp_alpha(s, n).value
        assert brute_force_alpha(s, n).value == want, n
        assert alpha_by_operator_iteration(s, n).value == want, n
    assert dp_alpha(s, 7).value == Fraction(606033, 64)
    pair = build_transfer(s)
    assert pair.A.tolist() == [[2]] and pair.B.tolist() == [[0.5]]


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
