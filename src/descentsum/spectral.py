"""Transfer matrices and the spectrum of the weighted descent operator.

A scheme with window length m induces two d x d matrices (d = 2^(m-1), rows
and columns indexed by the words of length m - 1 in lexicographic order):

    A[uy, au] = wt(auy)      B[uy, bu] = wt(buy)

with all other entries zero (for m = 1 they are the 1x1 matrices wt(a) and
wt(b)).  The nonzero eigenvalues lambda of the underlying integral operator
are exactly the nonzero roots of

    det P(lambda) = 0,    P(lambda) = -lambda I + B gamma((A - B)/lambda),

and the eigenfunctions are built from vectors in the nullspace of P(lambda).
An eigenvalue is certified simple when B exp((A-B)/lambda) c is nonzero for
the nullspace vector c.

With z = 1/lambda and C = A - B, P(lambda) = -lambda M(z) where
M(z) = I - z B gamma(zC), and f(z) = det M(z) is entire, with
f'/f = -tr(M^-1 B exp(zC)).  The eigenvalues with |lambda| > r are the zeros
of f in the disc |z| < 1/r, so the winding number of f on that circle counts
them, and contour moments of f'/f locate them (Delves & Lyness, Math. Comp.
21, 1967; Kravanja & Van Barel, Computing the Zeros of Analytic Functions,
LNM 1727, 2000).  A and B are real, so f(conj z) = conj f(z): f'/f is
evaluated on the upper half of each circle only, and the lower half is its
conjugate.  Only the r <= d/2 columns of B of the words that start with b
are nonzero, so B = B[:, cols] I[cols] and each point needs one d x d solve
with r right-hand sides: f'/f = -tr(I[cols] exp(zC) M^-1 B[:, cols]).

f'/f is evaluated in a basis W that splits C into one block T_i per cluster
of its eigenvalues.  Removing the cluster's centre c leaves N = T_i - cI,
nilpotent of some index p (exactly 0 on a 1 x 1 block; p <= 4 on the no-runs
schemes up to m = 7), so every contour point needs only scalar factors
times the powers of N, which are computed once per pair (TransferPair.blocks,
which the eigenfunctions behind the constants read too):

    exp(zT_i) = e^(zc) sum_{j<p} (zN)^j / j!
    z gamma(zT_i) = z sum_{j<p} (zN)^j psi_j(zc),  psi_j(x) = int_0^1 t^j e^(tx) dt / j!

A cluster that is not one Jordan structure is split into its eigenvalues,
each a 1 x 1 block (linalg.invariant_subspaces).  Every pair is evaluated
this way, however ill-conditioned W is: f'/f is a trace, the same in any
basis, though rounding through an ill-conditioned W can cost it digits.
Only the eigenfunctions, which are read through W itself, refuse an
ill-conditioned W (constants._basis_refusal).
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import _EXP_NORM_LIMIT, MAX_DIM, _exp_and_gamma, det, gamma
from .linalg import invariant_subspaces, mat_exp, nullspace_vector
from .words import WeightScheme, _Frozen, all_words

_SIMPLE_TOL = 1e-8
_CLUSTER_TOL = 1e-3  # eigenvalues of A - B this close (relative) share a block
_CONTOUR_POINTS = 32  # first sampling of a circle, doubled until its count settles
_MAX_CONTOUR_POINTS = 2048
_COUNT_TOL = 0.02  # how far a winding number may sit from an integer
_MAX_PENCIL = 16  # most zeros taken from one Hankel pencil
_UNCHECKED_PENCIL = 8  # a larger pencil is polished only if its roots lie inside
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-10  # largest last Newton step of a zero, relative to |z|
_STEP_IN = 0.98  # a circle whose count does not settle moves in by this factor
_STEP_OUT = 1.02  # the outer circle tries this factor out once before it moves in
_SPLIT_POINTS = 256  # a split circle not settled by this many points may move
_SPLIT_AT = (0.5, 0.4, 0.6, 0.3, 0.7)  # split radii, as fractions across the annulus
_NEAR_ZERO = 100  # max |z f'/f| above this: a zero within about 1% of the circle
_SAME_TOL = 1e-5  # polished zeros this close, relative to |z|, are one zero
_TIE_TOL = 1e-12  # moduli this close, relative, sort by |angle|
_STACK_BYTES = 2**16  # one (points, d, d) or (points, p, clusters) array: bounds memory
# 1/j! and psi_j for j < MAX_DIM + 7: the kernel asks for j below the index
# of a block, the cell moments of descentsum.constants for m - 1 more
_INV_FACTORIAL = 1 / np.cumprod([1.0, *range(1, MAX_DIM + 7)])
_PSI_TERMS = 18  # Taylor terms of psi_j on |x| < 1: truncation error below 1e-17
_PSI_SERIES = (  # [i, j] -> 1 / (i! j! (i + j + 1))
    _INV_FACTORIAL[:_PSI_TERMS, None] * _INV_FACTORIAL[None, :]
    / (np.arange(_PSI_TERMS)[:, None] + np.arange(MAX_DIM + 7)[None, :] + 1)
)

__all__ = [
    "TransferPair",
    "SpectralPoint",
    "build_transfer",
    "det_P",
    "eigenvalues",
    "top_eigenvalues",
    "is_simple",
]


class TransferPair(_Frozen):
    """The pair (A, B) for a scheme, with the index order recorded."""

    __slots__ = ("m", "A", "B", "__dict__")
    m: int
    A: np.ndarray
    B: np.ndarray

    def __init__(self, m: int, A: np.ndarray, B: np.ndarray) -> None:
        self._set(m, A, B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def index_words(self) -> list[str]:
        return all_words(self.m - 1)

    def overflow_floor(self) -> float:
        """Smallest |lambda| for which (A-B)/lambda stays below the exp bound."""
        norm = float(np.linalg.norm(self.A - self.B, 1))
        return norm / _EXP_NORM_LIMIT

    @cached_property
    def blocks(self) -> _Blocks:
        """B in a basis W of generalized eigenspaces of C = A - B.

        The one decomposition of C that the contour kernel and the
        eigenfunctions (descentsum.constants) share, from
        linalg.invariant_subspaces with clusters of eigenvalues within
        _CLUSTER_TOL: cluster by cluster, W holds orthonormal columns V_i on
        which C acts as T_i = V_i^H C V_i = c_i I + N_i, N_i nilpotent, so
        W^-1 C W is block-diagonal.  The centre c_i is tr(T_i)/k_i, so
        N_i = 0 on a 1 x 1 block; a larger cluster at 0 has c_i = 0.  A
        cluster that is not one Jordan structure has been split into 1 x 1
        blocks.  W is kept however ill-conditioned it is; the eigenfunctions
        refuse to be read through one with cond(W) > constants._BASIS_COND.
        """
        C, d = self.A - self.B, self.dim
        tol = _CLUSTER_TOL * max(1.0, float(np.linalg.norm(C, 1)))
        spaces = invariant_subspaces(C, tol)
        W = np.hstack([V for _, V, _ in spaces])
        sizes = [V.shape[1] for _, V, _ in spaces]
        label = np.repeat(np.arange(len(sizes)), sizes)
        powers = [np.eye(d, dtype=complex)]
        for (_, _, chain), b, k in zip(spaces, np.cumsum(sizes), sizes):
            for j, power in enumerate(chain, 1):
                if j == len(powers):
                    powers.append(np.zeros((d, d), dtype=complex))
                powers[j][b - k : b, b - k : b] = power
        Winv = np.linalg.inv(W)
        centre = np.array([c for c, _, _ in spaces])
        return _Blocks(Winv @ self.B @ W, label, centre, np.array(powers), W, Winv)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, B' N^j and V^T N^j (N^0 = I, the N^j of blocks.powers) for the
        contour kernel, where B' = W^-1 B W = U V^T through the r nonzero
        columns of B: U = W^-1 B[:, cols] (d x r), V^T = W[cols] (r x d)."""
        Bw, _, _, powers, W, Winv = self.blocks
        cols = np.flatnonzero(self.B.any(axis=0))
        return Winv @ self.B[:, cols], Bw @ powers, W[cols] @ powers


class _Blocks(NamedTuple):
    """The decomposition of a pair, TransferPair.blocks: what the contour
    kernel and the eigenfunctions need of it, none of which depends on z."""

    B: np.ndarray  # W^-1 B W
    label: np.ndarray  # per column, the index of its cluster
    centre: np.ndarray  # per cluster, its centre c_i
    powers: np.ndarray  # (p, d, d): I, then N^j, each block zero past its index
    W: np.ndarray  # columns: the generalized eigenspaces, cluster by cluster
    Winv: np.ndarray  # W^-1


class SpectralPoint(_Frozen):
    """One located eigenvalue with its certificate data.

    ``residual`` is |P(lambda) vector| / (|lambda| + |B gamma((A-B)/lambda)|)
    in 2-norms: how far P is from singular, relative to the size of its two
    terms, so it stays near float64 rounding however large P's entries get.
    """

    __slots__ = ("lam", "vector", "simple", "residual")
    lam: complex
    vector: np.ndarray
    simple: bool
    residual: float

    def __init__(
        self, lam: complex, vector: np.ndarray, simple: bool, residual: float
    ) -> None:
        self._set(lam, vector, simple, residual)


def build_transfer(scheme: WeightScheme) -> TransferPair:
    """Assemble the transfer pair of a scheme."""
    m = scheme.m
    d = 2 ** (m - 1)
    A = np.zeros((d, d), dtype=complex)
    B = np.zeros((d, d), dtype=complex)
    index = {w: i for i, w in enumerate(all_words(m - 1))}
    for w in all_words(m - 1):
        A[index[w], index[("a" + w)[: m - 1]]] = float(scheme.wt["a" + w])
        B[index[w], index[("b" + w)[: m - 1]]] = float(scheme.wt["b" + w])
    return TransferPair(m=m, A=A, B=B)


def _kernel(
    pair: TransferPair, z: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stacks M, L with f'(z)/f(z) = -tr(L M^-1 U), _STACK_BYTES of z at a time.

    In the basis W, M(z) = I - B' z gamma(zT) and f'/f = -tr(M^-1 B' exp(zT)),
    with B' = W^-1 B W.  Only the r columns of B of the words that start
    with b are nonzero (r <= d/2), so B' = U V^T with U = W^-1 B[:, cols]
    and V^T = W[cols] (TransferPair._factors), and f'/f = -tr(L M^-1 U)
    with L = V^T exp(zT): one d x d solve with r right-hand sides.  Where a
    block's centre c has Re(zc) > 1, its columns in M and L are multiplied
    by exp(-zc): the trace is unchanged, but the entries stay bounded, so
    f'/f keeps its digits much further out than with the growing
    exponentials of M itself.

    Both matrix functions have a closed form on a block T_i = cI + N with
    N^p = 0:

        exp(z(T_i - shift)) = exp(z(c - shift)) sum_{j<p} (zN)^j / j!
        exp(-z shift) z gamma(zT_i) = z sum_{j<p} (zN)^j exp(-z shift) psi_j(zc)

    with psi_j(x) = int_0^1 t^j e^(tx) dt / j!, which _psi scales by e^-x
    exactly where Re x > 1.  The scalar factors are computed per cluster,
    for as many points at once as fit _STACK_BYTES in a (points, p,
    clusters) array, so a stack is p column-weighted sums of the
    precomputed B' N^j and V^T N^j.
    """
    _, label, centre, powers, *_ = pair.blocks
    _, BN, VN = pair._factors
    d = pair.dim
    chunk = max(1, _STACK_BYTES // (16 * d**2))  # points per (d, d) stack
    p = len(powers)
    piece = chunk * max(1, d**2 // (p * len(centre)))  # per (p, clusters)
    for start in range(0, len(z), piece):
        zp = z[start : start + piece]
        x = zp[:, None] * centre
        grows = x.real > 1
        e = np.exp(np.where(grows, 0, x))  # exp(z(c - shift)), shift = c if it grows
        s = np.exp(-np.where(grows, x, 0))  # exp(-z shift)
        zj = zp[:, None] ** np.arange(p)
        # per cluster, the weight of N^j in exp(z(T - shift)) and in
        # exp(-z shift) z gamma(zT)
        e_coef = (zj * _INV_FACTORIAL[:p])[:, :, None] * e[:, None, :]
        g_coef = (zp[:, None] * zj)[:, :, None] * _psi(x, p)
        for a in range(0, len(zp), chunk):
            b = slice(a, a + chunk)
            ec, gc = e_coef[b][:, :, None, label], g_coef[b][:, :, None, label]
            M, L = BN[0] * gc[:, 0], VN[0] * ec[:, 0]
            for j in range(1, p):
                M += BN[j] * gc[:, j]
                L += VN[j] * ec[:, j]
            np.negative(M, out=M)
            M.reshape(len(M), d * d)[:, :: d + 1] += s[b][:, label]  # the diagonal
            yield M, L


def _psi(x: np.ndarray, p: int) -> np.ndarray:
    """psi_j(x) = int_0^1 t^j e^(tx) dt / j! for j < p at the points x of a
    (points, clusters) array, on a new axis 1, times e^-x where Re x > 1.

    psi_0(x) = expm1(x)/x, and psi_j = (e^x/j! - psi_(j-1))/x by parts,
    which loses few digits for j <= |x|; where Re x > 1 the same recurrence
    runs on e^-x psi_j, from -expm1(-x)/x with 1/j! in place of e^x/j!, so
    nothing overflows.  Past j = |x| >= 1 a step shrinks the error by |x|
    but psi_j by about j + 1, so the recurrence loses about
    log10(e^max(0, -Re x) (j + 1)!/|x|^(j + 1)) digits.  The cell moments of
    descentsum.constants ask for j up to a block's index plus m - 2, 9 on
    the no-runs schemes up to m = 7, where about 6 digits go at |x| = 1.  Below
    |x| = 1 the Taylor series psi_j(x) = sum_i x^i / (i! j! (i + j + 1)) is
    used, at x = 0 its first term 1/(j+1)!.  Each x takes one of the three, on its own.
    (psi_j is not the phi_(j+1) of exponential integrators.)
    """
    out = np.empty((len(x), p, x.shape[1]), dtype=complex)
    each = out.transpose(0, 2, 1)  # a view: x's shape, then j
    small = np.abs(x) < 1
    zero, near = x == 0, small & (x != 0)
    each[zero] = _PSI_SERIES[0, :p]
    if near.any():  # most circles have no such point: skip the 17 steps
        xs, series = x[near][:, None], _PSI_SERIES[-1, :p]
        for row in _PSI_SERIES[-2::-1, :p]:  # Horner
            series = series * xs + row
        each[near] = series
    big = x[~small]
    sign = np.where(big.real > 1, -1, 1)
    ex, psi = np.exp(np.where(sign < 0, 0, big)), [sign * np.expm1(sign * big) / big]
    for j in range(1, p):
        psi.append((ex * _INV_FACTORIAL[j] - psi[-1]) / big)
    each[~small] = np.stack(psi, axis=-1)
    return out


def det_P(pair: TransferPair, lam: complex) -> complex:
    """det(-lambda I + B gamma((A-B)/lambda)).

    Refuses |lambda| at or below the overflow floor ||A-B||_1 divided by
    linalg._EXP_NORM_LIMIT, where the matrix exponential inside gamma would
    overflow float64.
    """
    floor = pair.overflow_floor()
    if abs(lam) <= floor:
        raise ValueError(
            f"|lambda| = {abs(lam):.3g} is at or below the overflow floor "
            f"{floor:.3g} for this scheme"
        )
    return det(-lam * np.eye(pair.dim) + pair.B @ gamma((pair.A - pair.B) / lam))


def _log_derivative(pair: TransferPair, zs: np.ndarray) -> np.ndarray:
    """f'(z)/f(z) = -tr(M(z)^-1 B exp(zC)) at every z of a 1-d array."""
    U = pair._factors[0]
    # where f is not resolved in float64 the values come out non-finite,
    # which the callers reject
    with np.errstate(all="ignore"):
        return np.concatenate([_trace_solve(M, U, L) for M, L in _kernel(pair, zs)])


def _trace_solve(M: np.ndarray, U: np.ndarray, L: np.ndarray):
    """-tr(L M^-1 U) per matrix of a stack; infinite where M is exactly singular."""
    try:
        return -np.einsum("...rd,...dr->...", L, np.linalg.solve(M, U))
    except np.linalg.LinAlgError:  # z is exactly a zero of f
        if M.ndim == 2:
            return complex(np.inf)
        return np.array([_trace_solve(m, U, l) for m, l in zip(M, L)])


def _make_points(pair: TransferPair, lams: list[complex]) -> list[SpectralPoint]:
    """The SpectralPoint of each lambda above the overflow floor, from one
    stack of P(lambda): one exp and gamma, and one SVD each for the null
    vectors and the 2-norms, for them all."""
    if not lams:
        return []
    lam = np.array(lams, dtype=complex)[:, None, None]
    E, G = _exp_and_gamma((pair.A - pair.B) / lam)
    BG = pair.B @ G
    P = BG - lam * np.eye(pair.dim)
    vectors = nullspace_vector(P)
    # not |det P|, which grows with the entries of P, and not
    # sigma_min/sigma_max, which is 1 for any nonzero 1 x 1 P (m = 1)
    scale = np.abs(lam[:, 0, 0]) + np.linalg.svd(BG, compute_uv=False)[:, 0]
    residual = np.linalg.norm(_apply(P, vectors), axis=-1) / scale
    simple = _maps_to_nonzero(pair.B @ E, vectors)
    return list(map(SpectralPoint, lams, vectors, simple.tolist(), residual.tolist()))


def is_simple(pair: TransferPair, lam: complex, vector: np.ndarray) -> bool:
    """Certificate that the root is simple: B exp((A-B)/lambda) c != 0."""
    return bool(_maps_to_nonzero(pair.B @ mat_exp((pair.A - pair.B) / lam), vector))


def _apply(M: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """M @ vector, per matrix and vector of a stack."""
    return np.einsum("...ij,...j->...i", M, vector)


def _maps_to_nonzero(M: np.ndarray, vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm
    return norm(_apply(M, vector), axis=-1) > _SIMPLE_TOL * norm(vector, axis=-1)


class _Circle:
    """Samples of z f'(z)/f(z) on |z| = radius.

    The n points radius e^(2 pi i j/n) double until the winding number (the
    mean of the samples) is within _COUNT_TOL of an integer and moves less
    than that between the last two samplings; ``count`` is that integer, or
    None while no sampling up to ``points`` (_MAX_CONTOUR_POINTS unless
    given) has settled: a zero lies too close to the circle, or f is not
    resolved in float64 there.  ``refine`` resumes the doubling from the
    samples already taken.  A circle whose mean comes out non-finite is
    ``stuck``: more points cannot settle it.

    A and B are real, so f(conj z) = conj f(z).  The grid is closed under
    conjugation, with its points on the real axis exactly real, and f'/f is
    evaluated only on its upper half, 0 <= arg z <= pi: n/2 + 1 points of n.
    Each point off the axis stands for its conjugate too, with twice the
    quadrature weight, so the mean and the moments come out real.  Radius 0
    gives the empty disc: count 0, no samples, zero moments.
    """

    def __init__(self, pair: TransferPair, radius: float, points: int | None = None):
        self.radius = radius
        self.count = 0 if radius == 0 else None
        self.z = self.zg = np.zeros(0, dtype=complex)  # the upper half
        self.weight = np.zeros(0)  # 1/n on the real axis, 2/n off it
        self.n, self.stuck = 0, False
        if radius == 0:
            return
        self.n = _CONTOUR_POINTS
        self._sample(pair, np.arange(self.n // 2 + 1), self.n)
        self.refine(pair, points)

    def refine(self, pair: TransferPair, points: int | None = None) -> None:
        """Doubles the points, up to ``points`` (_MAX_CONTOUR_POINTS unless
        given), until the count settles or the circle is stuck."""
        points = _MAX_CONTOUR_POINTS if points is None else points
        while self.count is None and not self.stuck and 2 * self.n <= points:
            coarse = self.mean()
            self.n *= 2
            self._sample(pair, np.arange(1, self.n // 2, 2), self.n)
            fine = self.mean()
            if not np.isfinite(fine):
                self.stuck = True
                break
            nearest = round(fine)
            if max(abs(fine - coarse), abs(fine - nearest)) <= _COUNT_TOL:
                self.count = nearest

    def _sample(self, pair: TransferPair, j: np.ndarray, n: int) -> None:
        """Adds the points radius e^(2 pi i j/n), 0 <= j <= n/2, making the
        grid n points: the weights of the points already sampled halve."""
        on_axis = 2 * j % n == 0
        z = self.radius * np.exp(2j * np.pi * j / n)
        z[on_axis] = z[on_axis].real
        self.z = np.concatenate([self.z, z])
        with np.errstate(all="ignore"):  # non-finite samples leave count None
            self.zg = np.concatenate([self.zg, z * _log_derivative(pair, z)])
        self.weight = np.concatenate([self.weight / 2, np.where(on_axis, 1, 2) / n])

    def mean(self) -> float:
        """The mean of z f'/f over the whole circle: the winding number."""
        with np.errstate(all="ignore"):
            return float(self.zg.real @ self.weight)

    def spike(self) -> float:
        """max |z f'/f| over the samples: about radius/delta for a zero at a
        distance delta from the circle; infinite on a stuck circle."""
        return np.inf if self.stuck else float(np.max(np.abs(self.zg)))

    def resolved(self) -> bool:
        """Whether f'/f is resolved as finely as Newton's method needs: on the
        real axis it is real, so its imaginary part there is rounding, and
        it must be within _NEWTON_TOL of its size."""
        axis = self.zg[self.z.imag == 0]
        within = np.abs(axis.imag) <= _NEWTON_TOL * np.abs(axis)
        return not self.stuck and bool(within.all())

    def moments(self, scale: float, k: int) -> np.ndarray:
        """(1/2 pi i) times the integral of (z/scale)^j f'/f dz, j < k."""
        w = self.z / scale
        return (w[None, :] ** np.arange(k)[:, None] * self.zg).real @ self.weight


def eigenvalues(pair: TransferPair, r_min: float) -> list[SpectralPoint]:
    """Every eigenvalue with |lambda| > r_min, certified complete.

    The winding number of f on |z| = 1/r_min counts the eigenvalues; where
    that circle's count does not settle (a zero lies on it, or f is not
    resolved in float64 there), the circle _STEP_OUT times as large is tried
    once, and only its zeros inside |z| < 1/r_min are kept.  Further
    circles (_split_circle) cut the disc into annuli until each holds at
    most _MAX_PENCIL zeros; the contour moments of an annulus form a small
    Hankel pencil whose eigenvalues approximate its zeros, and Newton's
    method on f'/f polishes them.  A pencil of more than _UNCHECKED_PENCIL
    zeros is polished only when its eigenvalues all lie in the annulus.  An
    annulus that does not yield as many distinct zeros as it counts is split
    again.

    When no circle settles, the outer one (after the step out) or the last
    one tried in an annulus moves in by _STEP_IN steps.  When the outer
    circle has to move in, or an annulus cannot be split, the list is
    complete only above a larger modulus, which a UserWarning names; no
    eigenvalue beyond that modulus is returned.

    Real eigenvalues have an imaginary part of exactly 0; every non-real one
    is reported with its exact conjugate and the conjugated vector.  An
    r_min at or below the overflow floor is raised above it, with a warning;
    a nonpositive or non-finite r_min raises ValueError.  The result is
    sorted by falling modulus, except that a run of moduli each within
    _TIE_TOL (relative) of the one before is sorted by |angle|, the lower
    half plane first: a pair +-lambda is equal in modulus only to rounding,
    and a conjugate pair stays adjacent.
    """
    if not 0 < r_min < np.inf:
        raise ValueError(f"need a finite r_min > 0, got {r_min}")
    floor = pair.overflow_floor()
    if r_min <= floor:
        r_min = floor * 1.01 + 1e-12
        warnings.warn(
            f"r_min raised to {r_min:.3g} (overflow floor of the scheme)",
            stacklevel=2,
        )
    outer = _outer_circle(pair, 1 / r_min)
    # the zeros are certified complete in |z| < bound
    bound = min(outer.radius, 1 / r_min)
    zeros: list[complex] = []
    regions = [(_Circle(pair, 0.0), outer)]
    while regions:
        inner, outer = regions.pop()
        k = outer.count - inner.count
        if k == 0 or inner.radius >= bound:
            continue
        if k <= _MAX_PENCIL:
            found = _annulus_zeros(pair, inner, outer, k)
            if found is not None:
                zeros.extend(found)
                continue
        mid = _split_circle(pair, inner, outer)
        if mid is None or not inner.count <= mid.count <= outer.count:
            bound = inner.radius  # its zeros could not be separated
            continue
        regions += [(inner, mid), (mid, outer)]
    if bound * r_min < 1:
        warnings.warn(
            f"eigenvalues certified complete only for |lambda| > {1 / bound:.6g}, "
            f"not down to {r_min:.6g}: no contour nearer gave a settled winding "
            "number (f is not resolved in float64 there, or zeros lie on them)",
            stacklevel=2,
        )
    kept = [z for z in zeros if abs(z) < bound]
    lams = [complex(1 / z.real, 0.0) if z.imag == 0 else 1 / z for z in kept]
    points = []
    for p in _make_points(pair, lams):
        points.append(p)
        if p.lam.imag != 0:
            points.append(
                SpectralPoint(p.lam.conjugate(), p.vector.conj(), p.simple, p.residual)
            )
    # a pair +-lambda is equal in modulus only to rounding: runs of moduli
    # that agree to _TIE_TOL sort by |angle|, which keeps conjugates adjacent
    runs: list[list[SpectralPoint]] = []
    for p in sorted(points, key=lambda p: -abs(p.lam)):
        if runs and abs(p.lam) >= abs(runs[-1][-1].lam) * (1 - _TIE_TOL):
            runs[-1].append(p)
        else:
            runs.append([p])
    return [p for run in runs for p in sorted(run, key=_angle_key)]


def top_eigenvalues(
    pair: TransferPair, r_min: float, top: int
) -> tuple[list[SpectralPoint], float | None]:
    """The eigenvalues above r_min kept to the top K by modulus, and r_hat,
    the modulus of the largest one left out (None when none is).

    top = K > 0 keeps the K largest, or K + 1 when the K-th is non-real and
    its conjugate comes next, so a conjugate pair is never split; top <= 0
    keeps all.
    """
    points = eigenvalues(pair, r_min)
    k = min(top, len(points)) if top > 0 else len(points)
    if 0 < k < len(points):
        last, nxt = points[k - 1].lam, points[k].lam
        if last.imag != 0 and nxt == last.conjugate():
            k += 1
    return points[:k], abs(points[k].lam) if k < len(points) else None


def _angle_key(p: SpectralPoint) -> tuple[float, float]:
    angle = float(np.angle(p.lam))
    return abs(angle), angle


def _outer_circle(pair: TransferPair, radius: float) -> _Circle:
    """The circle of radius whose count settles, else the one of radius *
    _STEP_OUT, whose zeros beyond radius the caller drops, else the first
    of radius * _STEP_IN, radius * _STEP_IN^2, ... that settles."""
    for r in (radius, radius * _STEP_OUT):
        circle = _Circle(pair, r)
        if circle.count is not None:
            return circle
    return _settled_circle(pair, radius * _STEP_IN, 0.0)


def _split_circle(pair: TransferPair, inner: _Circle, outer: _Circle) -> _Circle | None:
    """A circle between inner and outer whose count settles; None when none
    does.

    Unlike the outer circle's, a split circle's radius is free.  The
    midpoint comes first, sampled up to _SPLIT_POINTS.  When it has not
    settled there, a zero lies near it (its spike exceeds _NEAR_ZERO) and f
    is resolved on it, the next radius of _SPLIT_AT across the annulus is
    tried the same way, and so on.  If none settles, the doubling resumes
    on the samples taken: first on the circle of the lowest spike, the
    farthest from a zero, then on the midpoint; where f is resolved on the
    midpoint, then on the radii of _SPLIT_AT not yet tried, and on the rest.
    Last, _settled_circle steps in from the midpoint.
    """
    lo, hi = inner.radius, outer.radius
    tried = []
    for t in _SPLIT_AT:
        circle = _Circle(pair, lo + t * (hi - lo), _SPLIT_POINTS)
        if circle.count is not None:
            return circle
        tried.append(circle)
        if not (circle.spike() > _NEAR_ZERO and circle.resolved()):
            break
    mid = tried[0]

    def resumed() -> Iterator[_Circle]:
        yield min(tried, key=_Circle.spike)
        yield mid
        if mid.resolved():
            for t in _SPLIT_AT[len(tried) :]:
                yield _Circle(pair, lo + t * (hi - lo), _CONTOUR_POINTS)
            yield from tried[1:]

    for circle in resumed():
        circle.refine(pair)
        if circle.count is not None:
            return circle
    return _settled_circle(pair, mid.radius * _STEP_IN, lo)


def _settled_circle(pair: TransferPair, radius: float, lo: float) -> _Circle | None:
    """The first circle of radius, radius * _STEP_IN, ... above lo whose count
    settles, each doubled up to _MAX_CONTOUR_POINTS; None when none does.
    The last resort of the outer circle and of a split."""
    while radius > lo:
        circle = _Circle(pair, radius)
        if circle.count is not None:
            return circle
        radius *= _STEP_IN
    return None


def _annulus_zeros(
    pair: TransferPair, inner: _Circle, outer: _Circle, k: int
) -> list[complex] | None:
    """The k zeros between two circles, each real or in the upper half plane.

    None when the polished pencil roots are not k distinct zeros there.  A
    zero within _SAME_TOL of the real axis is taken as real.
    """
    scale = outer.radius
    mu = outer.moments(scale, 2 * k) - inner.moments(scale, 2 * k)
    idx = np.add.outer(np.arange(k), np.arange(k))
    try:
        w = np.linalg.eigvals(np.linalg.solve(mu[idx], mu[idx + 1]))
    except np.linalg.LinAlgError:
        return None
    r = np.abs(w) * scale
    if k > _UNCHECKED_PENCIL and not np.all((inner.radius < r) & (r < outer.radius)):
        return None  # the pencil does not separate these zeros: split instead
    z = _polish(pair, w * scale, inner.radius, outer.radius)
    z = np.where(np.abs(z.imag) <= _SAME_TOL * np.abs(z), z.real + 0j, z)
    canon: list[complex] = []  # distinct zeros, each real or in the upper half
    for c in sorted(np.where(z.imag < 0, z.conj(), z), key=abs):
        if all(abs(c - o) > _SAME_TOL * abs(c) for o in canon):
            canon.append(c)
    if any(not inner.radius < abs(c) < outer.radius for c in canon):
        return None
    return canon if sum(1 if c.imag == 0 else 2 for c in canon) == k else None


def _polish(
    pair: TransferPair, z: np.ndarray, inner: float, outer: float
) -> np.ndarray:
    """Newton's method z <- z - f/f' on every z at once; the converged ones.

    A zero is polished until the step falls to rounding level, or stops
    shrinking (the steps then wander inside the rounding noise of f'/f).
    Only zeros whose last step is at most _NEWTON_TOL relative come back.
    An iterate is dropped, as unconverged, once |z| leaves (inner/2,
    2 outer): a zero it reached out there would lie outside the annulus
    inner < |z| < outer it was started in, which _annulus_zeros rejects,
    and one that has wandered that far tends to walk on to the step cap.
    The margin keeps an iterate that crosses a wall on its way in.
    """
    z = np.array(z, dtype=complex)
    size = np.full(z.shape, np.inf)  # last step relative to |z|
    active = np.ones(z.shape, dtype=bool)
    floor = pair.overflow_floor()
    for _ in range(_NEWTON_STEPS):
        r = np.abs(z)
        gone = active & ~((inner / 2 < r) & (r < 2 * outer))
        z[gone] = np.nan
        active &= np.isfinite(z) & (r * floor < 1)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 1 / _log_derivative(pair, z[active])
            z[active] -= step
            new = np.abs(step) / np.abs(z[active])
        stalled = (new <= _NEWTON_TOL) & (new >= size[active])
        size[active] = new
        active[active] = ~((new <= 4 * np.finfo(float).eps) | stalled)
    return z[np.isfinite(z) & (np.abs(z) * floor < 1) & (size <= _NEWTON_TOL)]

