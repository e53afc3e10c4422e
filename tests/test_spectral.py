"""Transfer pairs, the spectral determinant, and the certified eigenvalue finder."""

import cmath
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import descentsum.constants as constants
import descentsum.linalg as linalg
import descentsum.spectral as spectral

from descentsum import (
    WeightScheme,
    all_words,
    build_transfer,
    det_P,
    eigenvalues,
    is_simple,
    load_scheme,
    preset_scheme,
)
from descentsum.linalg import _exp_and_gamma

# draw 740 of random.Random(11) over m = randint(1, 5) and window weights in
# {0, 1, -1, 2, 3, 1/2, -1/2}: the basis W of A - B has cond(W) = 2.1e4
ILL_CONDITIONED = load_scheme(
    (Path(__file__).parent / "schemes" / "ill-conditioned-4.scheme").read_text()
)
TAU = math.sqrt((1 + math.sqrt(5)) / 2)
SIGMA = math.sqrt((-1 + math.sqrt(5)) / 2)


def aaa_bbb_sum(lam):
    """Four-exponential combination that equals 20/lam^4 det(P) - 8 for sec5-1."""
    s, t = SIGMA, TAU
    return (
        (3 + 1j + math.sqrt(5) * (t + s * 1j)) * cmath.exp((s + t * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (t - s * 1j)) * cmath.exp((s - t * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (-t + s * 1j)) * cmath.exp((-s + t * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (-t - s * 1j)) * cmath.exp((-s - t * 1j) / lam)
    )


def aba_bab_sum(lam):
    """The analogous combination for sec5-2 (eigenvalues swap to +-tau, +-sigma i)."""
    s, t = SIGMA, TAU
    return (
        (3 - 1j + math.sqrt(5) * (-t + s * 1j)) * cmath.exp((t + s * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (-t - s * 1j)) * cmath.exp((t - s * 1j) / lam)
        + (3 + 1j + math.sqrt(5) * (t + s * 1j)) * cmath.exp((-t + s * 1j) / lam)
        + (3 - 1j + math.sqrt(5) * (t - s * 1j)) * cmath.exp((-t - s * 1j) / lam)
    )


def test_build_transfer_sec51_matrices():
    pair = build_transfer(preset_scheme("sec5-1"))
    assert pair.index_words == ["aa", "ab", "ba", "bb"]
    A = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]]
    B = [[0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert np.array_equal(pair.A.real, A)
    assert np.array_equal(pair.B.real, B)


def test_build_transfer_sec52_matrices():
    pair = build_transfer(preset_scheme("sec5-2"))
    A = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    B = [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]
    assert np.array_equal(pair.A.real, A)
    assert np.array_equal(pair.B.real, B)


def test_build_transfer_sec6_and_m1():
    pair = build_transfer(preset_scheme("sec6"))
    assert np.array_equal(pair.A.real, [[0, 0], [1, 0]])
    assert np.array_equal(pair.B.real, [[0, 1], [0, 2]])
    single = build_transfer(preset_scheme("no-descents"))
    assert single.dim == 1
    assert single.A[0, 0] == 1 and single.B[0, 0] == 0


def test_build_transfer_row_column_placement():
    # entry (w, a + prefix) carries wt(a + w): weights land on specific cells
    s = WeightScheme(m=2, wt={"aa": 5, "ba": 7})
    pair = build_transfer(s)
    # row order a, b; A[w, 'a'] = wt('a'+w): A[a,a]=wt(aa)=5, A[b,a]=wt(ab)=1
    assert pair.A[0, 0] == 5 and pair.A[1, 0] == 1
    # B[w, 'b'] = wt('b'+w): B[a,b]=wt(ba)=7, B[b,b]=wt(bb)=1
    assert pair.B[0, 1] == 7 and pair.B[1, 1] == 1


def test_sec5_eigenvalue_structure():
    # A - B for sec5-1 has eigenvalues +-sigma, +-tau i; sec5-2 swaps the pairs
    pair1 = build_transfer(preset_scheme("sec5-1"))
    eig1 = sorted(np.linalg.eigvals(pair1.A - pair1.B), key=lambda z: (round(z.imag, 9), z.real))
    expected1 = sorted([SIGMA, -SIGMA, TAU * 1j, -TAU * 1j], key=lambda z: (round(z.imag, 9), z.real))
    assert np.allclose(eig1, expected1, atol=1e-12)
    pair2 = build_transfer(preset_scheme("sec5-2"))
    eig2 = sorted(np.linalg.eigvals(pair2.A - pair2.B), key=lambda z: (round(z.imag, 9), z.real))
    expected2 = sorted([TAU, -TAU, SIGMA * 1j, -SIGMA * 1j], key=lambda z: (round(z.imag, 9), z.real))
    assert np.allclose(eig2, expected2, atol=1e-12)


def test_det_P_sec6_closed_form():
    pair = build_transfer(preset_scheme("sec6"))
    for lam in np.linspace(0.1, 2.0, 50):
        expected = math.exp(-1.0 / lam) * lam * (lam - 1.0)
        assert abs(det_P(pair, lam) - expected) < 1e-10


def test_det_P_overflow_floor():
    pair = build_transfer(preset_scheme("sec6"))
    floor = pair.overflow_floor()
    assert floor > 0
    with pytest.raises(ValueError, match="overflow floor"):
        det_P(pair, floor * 0.5)
    # the floor is the exp bound of linalg: just above it gamma still runs
    assert np.isfinite(det_P(pair, floor * 1.01))


def test_det_P_at_the_dimension_cap():
    # m = 7 gives d = 64, the documented cap; gamma must not double it
    pair = build_transfer(load_scheme("m = 7\nwt aaaaaaa = 0\nwt bbbbbbb = 0\n"))
    assert pair.dim == 64
    assert np.isfinite(det_P(pair, 0.9))
    # one letter more is refused as the pair is built
    with pytest.raises(ValueError, match="dimension 128 exceeds the cap 64"):
        build_transfer(load_scheme("m = 8\nwt aaaaaaaa = 0\n"))


def test_det_P_20_over_lam4_identity():
    # the packaged determinant matches the explicit four-exponential expansion
    pair1 = build_transfer(preset_scheme("sec5-1"))
    pair2 = build_transfer(preset_scheme("sec5-2"))
    for lam in (0.3, 0.7, 1.1, 1.9, -0.4):
        lhs1 = 20.0 / lam**4 * det_P(pair1, lam)
        assert abs(lhs1 - (8 + aaa_bbb_sum(lam))) < 1e-10 * max(1.0, abs(lhs1))
        lhs2 = 20.0 / lam**4 * det_P(pair2, lam)
        assert abs(lhs2 - (8 + aba_bab_sum(lam))) < 1e-10 * max(1.0, abs(lhs2))


def test_find_real_roots_sec51():
    pair = build_transfer(preset_scheme("sec5-1"))
    roots = eigenvalues(pair, 0.05)
    assert roots
    top = roots[0]
    assert abs(top.lam - 0.9240358576) < 1e-7
    assert top.simple
    assert top.residual < 1e-9
    # unit eigenvector, largest entry positive: (.6536, .6536, .3815, 0)
    expected = np.array([0.6536190979, 0.6536190979, 0.3815287011, 0.0])
    assert np.allclose(top.vector.real, expected, atol=1e-8)
    assert np.max(np.abs(top.vector.imag)) < 1e-10


def test_find_real_roots_sec52_vector():
    pair = build_transfer(preset_scheme("sec5-2"))
    top = eigenvalues(pair, 0.05)[0]
    assert abs(top.lam - 0.6869765032) < 1e-7
    expected = np.array([0.4315640876, 0.0, 0.6378684967, 0.6378684967])
    assert np.allclose(top.vector.real, expected, atol=1e-7)


def test_find_real_roots_sec6():
    pair = build_transfer(preset_scheme("sec6"))
    roots = eigenvalues(pair, 0.05)
    assert len(roots) == 1
    pt = roots[0]
    assert abs(pt.lam - 1.0) < 1e-10
    assert pt.simple
    ratio = pt.vector[1] / pt.vector[0]
    assert abs(ratio - 2.0) < 1e-10


def test_find_real_roots_validation_and_clipping():
    pair = build_transfer(preset_scheme("sec6"))
    for r_min in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            eigenvalues(pair, r_min)
    # clipped to the floor; f = exp(-z)(1 - z) falls under float64 rounding
    # long before it, so only a smaller disc is certified, with a warning
    with pytest.warns(UserWarning) as caught:
        roots = eigenvalues(pair, 1e-9)
    messages = [str(w.message) for w in caught]
    assert any("overflow floor" in msg for msg in messages)
    assert any("certified complete only" in msg for msg in messages)
    assert len(roots) == 1 and abs(roots[0].lam - 1.0) < 1e-10
    # no-descents (A = 1, B = 0) has no eigenvalue, and f = 1 stays resolved
    # right up to the floor
    single = build_transfer(preset_scheme("no-descents"))
    with pytest.warns(UserWarning, match="overflow floor"):
        assert eigenvalues(single, 1e-9) == []


def test_find_complex_roots_sec51_pair():
    pair = build_transfer(preset_scheme("sec5-1"))
    roots = eigenvalues(pair, 0.05)
    target = -0.2875224461 + 0.4015233122j
    hits = [p for p in roots if abs(p.lam - target) < 1e-6]
    conj_hits = [p for p in roots if abs(p.lam - target.conjugate()) < 1e-6]
    assert len(hits) == 1 and len(conj_hits) == 1
    assert hits[0].simple and conj_hits[0].simple
    # no duplicates at the dedup tolerance
    lams = [p.lam for p in roots]
    for i, x in enumerate(lams):
        for y in lams[i + 1 :]:
            assert abs(x - y) > 1e-8


def test_find_complex_roots_sec52_pair():
    pair = build_transfer(preset_scheme("sec5-2"))
    roots = eigenvalues(pair, 0.05)
    target = 0.1559951131 + 0.5317098371j
    assert any(abs(p.lam - target) < 1e-6 for p in roots)
    assert any(abs(p.lam - target.conjugate()) < 1e-6 for p in roots)


def test_find_complex_roots_one_sided_region_completes_conjugates(spectra):
    # every non-real eigenvalue comes with its exact conjugate and conjugated
    # vector
    for name in ("sec5-1", "sec5-2"):
        _, points = spectra[name]
        by_lam = {p.lam: p for p in points}
        for p in points:
            if p.lam.imag == 0:
                continue
            twin = by_lam[p.lam.conjugate()]
            assert np.array_equal(twin.vector, p.vector.conj())
            assert np.array_equal(twin.left, p.left.conj())
            assert twin.simple == p.simple


def test_eigenvalues_complete_on_sec5(spectra):
    # the winding number counts 14 (sec5-1) and 13 (sec5-2) eigenvalues above
    # 0.1, among them small complex pairs that grid scans miss
    for name, count, pair_target in (
        ("sec5-1", 14, -0.01497 + 0.10423j),
        ("sec5-2", 13, 0.01021 + 0.11006j),
    ):
        _, points = spectra[name]
        assert sum(abs(p.lam) > 0.1 for p in points) == count
        for target in (pair_target, pair_target.conjugate()):
            assert min(abs(p.lam - target) for p in points) < 1e-5
        assert all(p.simple for p in points)


def test_eigenvalues_alternating_closed_form(spectra):
    # alternating permutations: eigenvalues +-2/((2k+1) pi)
    _, points = spectra["alternating"]
    expected = [
        s * 2 / ((2 * k + 1) * math.pi)
        for k in range(7)
        for s in (1, -1)
        if 2 / ((2 * k + 1) * math.pi) > 0.05
    ]
    assert len(points) == len(expected) == 12
    assert all(p.lam.imag == 0 for p in points)  # real, exactly
    for x in expected:
        assert min(abs(p.lam - x) for p in points) < 1e-9


def test_eigenvalues_stable_under_doubled_sampling(monkeypatch):
    # the winding numbers and the zeros do not move when every contour
    # carries twice as many points
    pair = build_transfer(preset_scheme("sec5-1"))
    coarse = eigenvalues(pair, 0.1)
    monkeypatch.setattr(spectral, "_CONTOUR_POINTS", 2 * spectral._CONTOUR_POINTS)
    monkeypatch.setattr(
        spectral, "_MAX_CONTOUR_POINTS", 2 * spectral._MAX_CONTOUR_POINTS
    )
    fine = eigenvalues(pair, 0.1)
    assert len(coarse) == len(fine) == 14
    for p, q in zip(coarse, fine):
        assert abs(p.lam - q.lam) < 1e-9 * abs(p.lam)


def test_eigenvalues_certify_a_smaller_disc_where_f_is_unresolved():
    # sec6 below |lambda| ~ 0.028: the certified bound moves up, with a
    # warning naming it, and the one eigenvalue is still returned
    pair = build_transfer(preset_scheme("sec6"))
    with pytest.warns(UserWarning, match=r"complete only for \|lambda\| > 0\.0281959,"):
        roots = eigenvalues(pair, 0.02)
    assert [p.lam for p in roots] == [pytest.approx(1.0, abs=1e-10)]


@pytest.mark.xfail(
    strict=True,
    reason="the finder lists a spurious pair 0.0636679 +- 7.4e-6i in place "
    "of 1/(5 pi) and omits -1/pi",
)
def test_eigenvalues_certified_list_is_the_true_zeros():
    # random-05 of tools/finder_sweep.py; a 60-digit mpmath check finds
    # f(+-pi) = f(+-3 pi) = f(+-5 pi) = 0 and winding 6 inside the bound
    # of about 0.0588 that the finder certifies, so these are its six
    # eigenvalues above 0.05 (the next, +-1/(7 pi), lie below 0.05)
    scheme = WeightScheme(
        m=3,
        wt={"aaa": 2, "aab": 0, "aba": Fraction(1, 2), "abb": 0,
            "baa": 2, "bab": Fraction(1, 2), "bba": -1, "bbb": 2},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        points = eigenvalues(build_transfer(scheme), 0.05)
    want = sorted(sign / (k * math.pi) for k in (1, 3, 5) for sign in (1, -1))
    assert len(points) == len(want)
    got = sorted(points, key=lambda p: (p.lam.real, p.lam.imag))
    for p, lam in zip(got, want):
        assert abs(p.lam - lam) < 1e-8 * abs(lam), (p.lam, lam)


def test_eigenvalues_reach_beyond_the_unscaled_range():
    # |z| rho(A - B) = 64 at r_min = 0.02, where M(z) itself holds entries
    # near e^64: the scaled columns keep the count and the zeros resolved
    pair = build_transfer(preset_scheme("sec5-1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deep = eigenvalues(pair, 0.02)
    shallow = eigenvalues(pair, 0.05)
    assert len(deep) == 66
    assert all(p.simple for p in deep)
    above = [p for p in deep if abs(p.lam) > 0.05]
    assert len(above) == len(shallow) == 26
    for p, q in zip(above, shallow):
        assert abs(p.lam - q.lam) < 1e-12 * abs(q.lam)


def test_eigenvalues_no_runs_5():
    # no 5 consecutive ascents or descents: A - B has an 8-dimensional
    # nilpotent block; an argument-principle count with scipy's expm gives
    # 26 eigenvalues above 0.1 and 51 above 0.05
    text = "m = 5\nwt aaaaa = 0\nwt bbbbb = 0\n"
    points = eigenvalues(build_transfer(load_scheme(text)), 0.05)
    assert len(points) == 51
    assert sum(abs(p.lam) > 0.1 for p in points) == 26
    assert all(p.simple for p in points)
    # the residual is relative to the size of P's terms, so it stays small
    # where they grow like exp(rho(A - B)/|lambda|)
    assert all(p.residual < 1e-9 for p in points)


def test_eigenvalues_no_runs_6():
    # m = 6: A - B has a 22-dimensional nilpotent block of index 3; the
    # argument-principle count of benchmark/reference.py gives 32 above 0.1
    text = "m = 6\nwt aaaaaa = 0\nwt bbbbbb = 0\n"
    pair = build_transfer(load_scheme(text))
    assert len(pair.blocks.powers) == 3
    points = eigenvalues(pair, 0.1)
    assert len(points) == 32
    assert all(p.simple for p in points)


def test_eigenvalues_no_runs_5_split_circles_move_off_zeros(monkeypatch):
    # the midpoint split circle |z| = 15 lies within 0.1% of three zeros;
    # it and its neighbours once doubled to 1024 or 2048 points, 3,983
    # evaluations of f'/f in all (the count of tools/finder_sweep.py)
    text = "m = 5\nwt aaaaa = 0\nwt bbbbb = 0\n"
    pair = build_transfer(load_scheme(text))
    evaluations = []
    log_derivative = spectral._log_derivative

    def counted(pair, zs):
        evaluations.append(len(zs))
        return log_derivative(pair, zs)

    monkeypatch.setattr(spectral, "_log_derivative", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = eigenvalues(pair, 0.05)
    assert len(points) == 51
    assert sum(evaluations) <= 1650


def test_eigenvalues_step_out_before_stepping_in():
    # no 7 consecutive ascents or descents at 0.1: |z| = 10 does not settle
    # by 2048 points, |z| = 10.2 settles at 38 from 1024, and the 36 zeros
    # inside |z| < 10 are certified with no warning (stepping in to 9.8
    # certified them only above 0.102041)
    text = "m = 7\nwt aaaaaaa = 0\nwt bbbbbbb = 0\n"
    pair = build_transfer(load_scheme(text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = eigenvalues(pair, 0.1)
    assert len(points) == 36
    assert all(abs(p.lam) > 0.1 for p in points)


# the schemes of tools/finder_sweep.py whose lists the split and step-out
# rules of eigenvalues changed, all certified down to 0.05 now: each zero z
# of f refined by Newton's method on f'/f at 50 digits (mpmath: the
# exponential of [[zC, I], [0, 0]] gives e^(zC) and gamma(zC)) from a listed
# value, and 1/z recorded to 40 digits, in the upper half plane or on the
# real axis;
# "winding" is the zeros' count in |z| < 20 by the trapezoid rule on z f'/f
# at 50 digits, its points doubled up to 8192: the last mean lay within
# 0.011 of the count on every scheme
SWEEP_ZEROS = json.loads(
    (Path(__file__).parent / "schemes" / "finder-sweep-zeros.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SWEEP_ZEROS))
def test_eigenvalues_are_the_40_digit_zeros(name):
    entry = SWEEP_ZEROS[name]
    scheme = WeightScheme(entry["m"], {w: Fraction(v) for w, v in entry["wt"].items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = eigenvalues(build_transfer(scheme), entry["r_min"])
    upper = [complex(mpmath.mpc(re, im)) for re, im in entry["zeros"]]
    zeros = upper + [z.conjugate() for z in upper if z.imag != 0]
    assert len(zeros) == entry["winding"]
    lams = np.array([p.lam for p in points])
    # each listed value is the nearest listed one to exactly one zero
    nearest = [int(np.argmin(np.abs(lams - z))) for z in zeros]
    assert sorted(nearest) == list(range(len(lams)))
    assert all(abs(lams[i] - z) < 1e-8 * abs(z) for i, z in zip(nearest, zeros))


def scipy_winding_count(pair, r, points):
    """Zeros of f in |z| < 1/r by the phase of f(z) = det(I - z B gamma(zC))
    on the circle, with gamma(M) the top-right block of scipy's
    expm([[M, I], [0, 0]]); None unless points and 2 * points agree."""
    d, C, zero = pair.dim, pair.A - pair.B, np.zeros((pair.dim, pair.dim))
    counts = []
    for n in (points, 2 * points):
        f = []
        for z in np.exp(2j * np.pi * np.arange(n + 1) / n) / r:
            E = expm(np.block([[z * C, np.eye(d)], [zero, zero]]))
            f.append(np.linalg.det(np.eye(d) - z * pair.B @ E[:d, d:]))
        phase = np.unwrap(np.angle(f))
        counts.append(round((phase[-1] - phase[0]) / (2 * np.pi)))
    return counts[0] if counts[0] == counts[1] else None


def test_eigenvalues_through_an_ill_conditioned_basis():
    # the contour kernel runs in the block basis W however ill-conditioned it
    # is, with the growing columns scaled: all 22 zeros above 0.06 are
    # certified (a kernel on the whole of A - B with no growth scaling
    # reached only 0.0612245, with 19)
    pair = build_transfer(ILL_CONDITIONED)
    assert np.linalg.cond(pair.blocks.W) > constants._BASIS_COND
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = eigenvalues(pair, 0.06)
    assert len(points) == 22 == scipy_winding_count(pair, 0.06, 512)
    assert all(p.residual < 1e-9 for p in points)


def test_residual_at_window_length_1():
    # m = 1 with wt(a) = 2, wt(b) = 1: P(lambda) = lambda (e^(1/lambda) - 2),
    # so the eigenvalues are 1/(log 2 + 2 pi i k); P is 1 x 1 here, where
    # sigma_min/sigma_max would read 1 at every eigenvalue
    text = "m = 1\nwt a = 2\nwt b = 1\n"
    points = eigenvalues(build_transfer(load_scheme(text)), 0.05)
    expected = [1 / complex(np.log(2), 2 * np.pi * k) for k in range(-3, 4)]
    assert len(points) == len(expected)
    for lam in expected:
        assert min(abs(p.lam - lam) for p in points) < 1e-12
    assert all(p.residual < 1e-12 for p in points)


def test_log_derivative_closed_forms():
    # alternating: f(z) = cos z, so f'/f = -tan z; sec6: f(z) = e^-z (1 - z)
    # with a Jordan block at -1, so f'/f = -1 + 1/(z - 1)
    z = 50 * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)
    alt = build_transfer(preset_scheme("alternating"))
    assert np.allclose(spectral._log_derivative(alt, z), -np.tan(z), rtol=1e-12)
    sec6 = build_transfer(preset_scheme("sec6"))
    w = z / 5
    assert np.allclose(spectral._log_derivative(sec6, w), -1 + 1 / (w - 1), rtol=1e-10)


def dense_log_derivative(pair, z):
    """f'/f and cond(M) by the whole-matrix formula the closed forms replace:
    one linalg._exp_and_gamma on z(T - shift) over all of T = W^-1 C W, with
    the growing columns of exp(-z shift) z gamma(zT) taken as
    (exp(z(T - shift)) - exp(-z shift)) T^-1."""
    Bw, label, centre, _, W, Winv = pair.blocks
    T = Winv @ (pair.A - pair.B) @ W
    T = np.where(label[:, None] == label[None, :], T, 0)
    c, eye, zs = centre[label], np.eye(pair.dim), z[:, None, None]
    grows = (z[:, None] * c).real > 1
    shift = np.where(grows, c, 0)[:, None, :]
    Tinv = np.linalg.inv(np.where((c == 0)[:, None] & (c == 0)[None, :], eye, T))
    with np.errstate(all="ignore"):
        E, G = _exp_and_gamma(zs * (T - shift * eye))
        S = np.exp(-zs * shift) * eye
        Psi = np.where(grows[:, None, :], (E - S) @ Tinv, zs * G)
        M = S - Bw @ Psi
        trace = -np.trace(np.linalg.solve(M, Bw @ E), axis1=1, axis2=2)
        return trace, np.linalg.cond(M)


KERNEL_SCHEMES = {name: preset_scheme(name) for name in (
    "sec5-1", "sec5-2", "sec6", "no-descents", "no-peaks", "alternating", "all-ones"
)} | {
    "no-runs-5": load_scheme("m = 5\nwt aaaaa = 0\nwt bbbbb = 0\n"),
    "alternating-5x1": WeightScheme(
        5, {w: int(all(w[i] != w[i + 1] for i in range(4))) for w in all_words(5)}
    ),
    "ill-conditioned-4": ILL_CONDITIONED,
}
# A - B has eigenvalues 0, 0, 1 and 1.01: a cluster tolerance above 0.01
# merges the last two into one cluster that no centre makes nilpotent, which
# invariant_subspaces splits again
NEAR_PAIR = load_scheme("m = 3\nwt aba = 0\nwt abb = 0\nwt bbb = -101/100\n")


@pytest.mark.parametrize("basis", ["clusters", "merged"])
def test_log_derivative_matches_the_dense_formula(basis, monkeypatch):
    # 1e-12 relative, widened only by the rounding bound d eps cond(M) of the
    # reference's own solve: where M is ill-conditioned (sec6 and no-peaks
    # at |z| = 20, cond up to 1e16) neither formula resolves f'/f further;
    # ill-conditioned-4 has cond(W) > 1e4
    schemes = dict(KERNEL_SCHEMES, near=NEAR_PAIR)
    if basis == "merged":
        # with a looser null space test the merged space passes it, and only
        # the nilpotency test splits it
        monkeypatch.setattr(spectral, "_CLUSTER_TOL", 0.05)
        monkeypatch.setattr(linalg, "_JORDAN_TOL", 1e-4)
        schemes = {"near": NEAR_PAIR}
    for name, scheme in schemes.items():
        pair = build_transfer(scheme)
        if basis == "merged":
            assert len(pair.blocks.centre) == 3
        for radius in (10, 20):
            z = radius * np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
            want, cond = dense_log_derivative(pair, z)
            got = spectral._log_derivative(pair, z)
            finite = np.isfinite(want)
            assert finite.sum() >= 32, (name, radius)
            tol = (1e-12 + pair.dim * np.finfo(float).eps * cond) * np.abs(want)
            assert np.all(np.abs(got - want)[finite] <= tol[finite]), (name, radius)


@pytest.mark.parametrize("basis", ["clusters", "merged"])
def test_log_derivative_is_conjugate_symmetric(basis, monkeypatch):
    # A and B are real, so f(conj z) = conj f(z), which lets the finder
    # sample only the upper half of each circle; 1e-12 relative, widened as
    # in the dense comparison where M is ill-conditioned
    m1 = load_scheme("m = 1\nwt a = 2\nwt b = 1\n")
    schemes = dict(KERNEL_SCHEMES, near=NEAR_PAIR, m1=m1)
    if basis == "merged":  # as in the dense comparison
        monkeypatch.setattr(spectral, "_CLUSTER_TOL", 0.05)
        monkeypatch.setattr(linalg, "_JORDAN_TOL", 1e-4)
        schemes = {"near": NEAR_PAIR}
    for name, scheme in schemes.items():
        pair = build_transfer(scheme)
        if basis == "merged":
            assert len(pair.blocks.centre) == 3
        for radius in (5, 10, 20):
            z = radius * np.exp(1j * np.pi * (np.arange(32) + 0.3) / 32)
            upper = spectral._log_derivative(pair, z)
            lower = spectral._log_derivative(pair, z.conj())
            _, cond = dense_log_derivative(pair, z)
            tol = (1e-12 + pair.dim * np.finfo(float).eps * cond) * np.abs(upper)
            assert np.all(np.abs(lower - upper.conj()) <= tol), (name, radius)


def test_circle_evaluates_its_upper_half(monkeypatch):
    # a settled circle of n points evaluates f'/f at the n/2 + 1 with
    # 0 <= arg z <= pi, those on the real axis exactly real; each point off
    # the axis stands for its conjugate too (weight 2/n against 1/n on the
    # axis), so the real mean and moments are those of the whole circle;
    # radius 0 evaluates nothing
    pair = build_transfer(preset_scheme("sec5-1"))
    seen = []
    log_derivative = spectral._log_derivative

    def counted(pair, zs):
        seen.append(zs)
        return log_derivative(pair, zs)

    monkeypatch.setattr(spectral, "_log_derivative", counted)
    circle = spectral._Circle(pair, 5.0)
    assert circle.count == 6  # the eigenvalues above 0.2
    n = round(1 / circle.weight.min())  # the weight of a point on the axis
    assert n >= 2 * spectral._CONTOUR_POINTS
    z = np.concatenate(seen)
    assert len(z) == n // 2 + 1
    assert np.allclose(np.sort(np.angle(z)), 2 * np.pi * np.arange(n // 2 + 1) / n)
    assert sorted(z[z.imag == 0].real) == [-5.0, 5.0]
    assert np.all(z.imag >= 0)
    assert np.array_equal(circle.weight, np.where(circle.z.imag == 0, 1, 2) / n)
    whole = np.concatenate([circle.z, circle.z[circle.z.imag != 0].conj()])
    zg = whole * log_derivative(pair, whole)
    assert abs(circle.mean() - zg.mean()) < 1e-13
    moments = circle.moments(5.0, 4)
    want = ((whole / 5.0)[None, :] ** np.arange(4)[:, None] * zg).mean(axis=1)
    assert np.allclose(moments, want, rtol=0, atol=1e-13)
    seen.clear()
    empty = spectral._Circle(pair, 0.0)
    assert seen == [] and empty.count == 0
    assert np.array_equal(empty.moments(5.0, 4), np.zeros(4))


def test_psi_is_its_integral():
    # psi_j(x) = int_0^1 t^j e^(tx) dt / j!, on both sides of |x| = 1 where
    # the series hands over to the recurrence, and at 0; where Re x > 1 the
    # recurrence runs on e^-x psi_j(x), which stays bounded however large x
    xs = np.array([
        0, 1e-9, 0.3 - 0.5j, 0.99j, -1.01, 1.5 + 2j, -7 + 1j, 30j, -40,
        1.01, 40, 3 - 30j, 800 + 5j,
    ])
    got = spectral._psi(xs[:, None], 4)[:, :, 0]
    for x, row in zip(xs, got):
        for j, value in enumerate(row):
            with mpmath.workdps(30):
                scaled = mpmath.exp(-complex(x)) if x.real > 1 else 1
                want = scaled * mpmath.quad(
                    lambda t: t**j * mpmath.exp(t * complex(x)), [0, 1]
                ) / math.factorial(j)
            assert abs(value - complex(want)) <= 1e-14 * abs(complex(want)), (x, j)


def test_psi_matches_its_closed_form_across_the_series_boundary():
    # int_0^1 t^j e^(tx) dt / j! = (-1)^(j+1) x^-(j+1) (1 - e^x sum_(i<=j)
    # (-x)^i/i!), evaluated in 80 digits, which the cancellation at
    # |x| = 1e-12 needs; the series runs inside |x| = 1,
    # the recurrence outside, and x = 0 takes the series' first term
    angles = np.exp(1j * np.array([0, 0.7, np.pi / 2, 2.5, np.pi, -1.1]))
    xs = np.concatenate([[0], 0.999 * angles, 1.001 * angles, [1e-12, -1e-12j]])
    got = spectral._psi(xs[:, None], 4)[:, :, 0]
    for x, row in zip(xs, got):
        for j, value in enumerate(row):
            if x == 0:
                assert value == spectral._PSI_SERIES[0, j]
                assert value == pytest.approx(1 / math.factorial(j + 1), rel=1e-16)
                continue
            with mpmath.workdps(80):
                z = mpmath.mpc(complex(x))
                tail = sum((-z) ** i / mpmath.factorial(i) for i in range(j + 1))
                want = (-1) ** (j + 1) * (1 - mpmath.exp(z) * tail) / z ** (j + 1)
                if z.real > 1:
                    want *= mpmath.exp(-z)
            assert abs(value - complex(want)) <= 1e-14 * abs(complex(want)), (x, j)


def test_psi_has_every_column_the_cell_moments_ask_for():
    # the cell moments of descentsum.constants ask for j < p + m - 1, up to
    # MAX_DIM + 6.  The series (|x| < 1) and the recurrence while j <= |x|
    # hold every column to rounding; past j = |x| the recurrence loses the
    # digits _psi's docstring counts, 89 of them at x = 1.5 and j = 70
    n = spectral.MAX_DIM + 7
    xs = np.array([0.3, -0.9 + 0.2j, 0.5j, 1.5, -2, 3j, -10 + 5j, 80, -80, 75 - 60j])
    got = spectral._psi(xs[:, None], n)[:, :, 0]
    with mpmath.workdps(250):  # the closed form cancels 140 digits at x = 0.3
        for x, row in zip(xs, got):
            z = mpmath.mpc(complex(x))
            for j, value in enumerate(row):
                tail = sum((-z) ** i / mpmath.factorial(i) for i in range(j + 1))
                want = (-1) ** (j + 1) * (1 - mpmath.exp(z) * tail) / z ** (j + 1)
                if z.real > 1:
                    want *= mpmath.exp(-z)
                loss = 1
                if j > abs(x) >= 1:
                    loss = mpmath.exp(max(0, -x.real)) * mpmath.factorial(j + 1)
                    loss /= abs(z) ** (j + 1)
                assert abs(value - want) <= 1e-14 * loss * abs(want), (x, j)


def test_newton_drops_iterates_that_leave_their_annulus(monkeypatch):
    # alternating permutations through windows of length 5, each weighted
    # 5/4: the 16 eigenvalues +-(5/4) 2/((2k + 1) pi) above 0.05.  A spurious
    # pencil pair near +-10.4i once walked outward for the 50-step cap
    alternates = lambda w: all(w[i] != w[i + 1] for i in range(4))
    weights = {w: Fraction(5, 4) if alternates(w) else 0 for w in all_words(5)}
    pair = build_transfer(WeightScheme(5, weights))
    calls, polishing = [], []
    log_derivative, polish = spectral._log_derivative, spectral._polish

    def counted(pair, zs):
        calls.extend(polishing)
        return log_derivative(pair, zs)

    def newton(*args):
        polishing.append(1)
        try:
            return polish(*args)
        finally:
            polishing.clear()

    monkeypatch.setattr(spectral, "_log_derivative", counted)
    monkeypatch.setattr(spectral, "_polish", newton)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = eigenvalues(pair, 0.05)
    want = sorted(2.5 / ((2 * k + 1) * math.pi) * s for k in range(8) for s in (1, -1))
    assert sorted(p.lam.real for p in points) == pytest.approx(want, rel=1e-12)
    assert all(p.lam.imag == 0 for p in points)
    assert len(calls) <= 41


def test_transcendental_sums_at_top_roots():
    pair1 = build_transfer(preset_scheme("sec5-1"))
    lam1 = eigenvalues(pair1, 0.05)[0].lam.real
    assert abs(aaa_bbb_sum(lam1) - (-8.0)) < 1e-6
    pair2 = build_transfer(preset_scheme("sec5-2"))
    lam2 = eigenvalues(pair2, 0.05)[0].lam.real
    assert abs(aba_bab_sum(lam2) - (-8.0)) < 1e-6


def test_root_scaling_covariance():
    # doubling every window weight doubles each eigenvalue
    doubled = load_scheme("m = 2\nwt aa = 0\nwt ab = 2\nwt ba = 2\nwt bb = 4\n")
    pair2 = build_transfer(doubled)
    pair1 = build_transfer(preset_scheme("sec6"))
    roots2 = eigenvalues(pair2, 0.2)
    roots1 = eigenvalues(pair1, 0.1)
    mods2 = sorted(p.lam.real for p in roots2)
    mods1 = sorted(2 * p.lam.real for p in roots1)
    assert len(mods2) == len(mods1)
    assert np.allclose(mods2, mods1, atol=1e-9)
    assert abs(max(mods2) - 2.0) < 1e-9


def test_is_simple_on_located_roots(spectra):
    for name in ("sec5-1", "sec5-2", "sec6"):
        pair, points = spectra[name]
        for pt in points:
            assert is_simple(pair, pt.lam, pt.vector) == pt.simple
            assert pt.simple  # all located roots of these schemes are simple


def test_spectrum_sorted_by_modulus(spectra):
    tie = spectral._TIE_TOL
    for name in ("sec5-1", "sec5-2", "alternating"):
        _, points = spectra[name]
        # falling modulus; neighbours whose moduli agree to _TIE_TOL (a pair
        # +-lambda, equal in modulus only to rounding) by |angle|, then angle
        for a, b in zip(points, points[1:]):
            if abs(b.lam) < abs(a.lam) * (1 - tie):
                continue
            assert abs(b.lam) <= abs(a.lam) * (1 + tie), name
            key_a, key_b = (
                (abs(np.angle(p.lam)), np.angle(p.lam)) for p in (a, b)
            )
            assert key_a <= key_b, name
        assert abs(points[0].lam.imag) < 1e-10  # dominant root is real
    _, points = spectra["alternating"]
    assert [p.lam.real > 0 for p in points[:4]] == [True, False, True, False]


def test_ties_in_modulus_sort_by_angle(monkeypatch):
    # +-lambda one ulp of modulus apart either way, then a real zero and a
    # conjugate pair of one modulus: each run comes out by |angle|, the
    # conjugates adjacent, and the next modulus after it
    pair = build_transfer(preset_scheme("alternating"))
    monkeypatch.setattr(spectral, "_MAX_PENCIL", 64)
    monkeypatch.setattr(
        spectral, "_make_points",
        lambda pair, lams: [
            spectral.SpectralPoint(lam, np.ones(1), np.ones(1), True, 0.0)
            for lam in lams
        ],
    )
    half_pi = math.pi / 2
    shorter = float(np.nextafter(half_pi, 0))
    assert 1 / shorter != 1 / half_pi
    for top in ([half_pi, -shorter], [shorter, -half_pi]):
        zeros = top + [2j, 2.0, 3.0]
        monkeypatch.setattr(spectral, "_annulus_zeros", lambda *args: zeros)
        lams = [p.lam for p in eigenvalues(pair, 0.3)]
        assert lams == [1 / top[0], 1 / top[1], 0.5, -0.5j, 0.5j, 1 / 3]


def test_alternating_top_root_is_2_over_pi(spectra):
    # alternating permutations: growth rate 2/pi
    _, points = spectra["alternating"]
    assert abs(points[0].lam - 2.0 / math.pi) < 1e-9


def test_all_ones_top_root_is_1(spectra):
    _, points = spectra["all-ones"]
    assert abs(points[0].lam - 1.0) < 1e-10
