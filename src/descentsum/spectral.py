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
LNM 1727, 2000).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import _EXP_NORM_LIMIT, _exp_and_gamma, det, gamma
from .linalg import invariant_subspaces, mat_exp, nullspace_vector
from .words import WeightScheme, all_words

_SIMPLE_TOL = 1e-8
_CLUSTER_TOL = 1e-3  # eigenvalues of A - B this close (relative) share a block
_BASIS_COND = 1e4  # largest condition number of a usable block basis
_CONTOUR_POINTS = 32  # first sampling of a circle, doubled until its count settles
_MAX_CONTOUR_POINTS = 2048
_COUNT_TOL = 0.02  # how far a winding number may sit from an integer
_MAX_PENCIL = 8  # most zeros taken from one Hankel pencil
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-10  # largest last Newton step of a zero, relative to |z|
_STEP_IN = 0.98  # a circle whose count does not settle moves in by this factor
_SAME_TOL = 1e-5  # polished zeros this close, relative to |z|, are one zero
_STACK_BYTES = 2**16  # one stacked (points, d, d) array; bounds peak memory

__all__ = [
    "TransferPair",
    "SpectralPoint",
    "build_transfer",
    "det_P",
    "eigenvalues",
    "is_simple",
    "det_M_product_check",
]


@dataclass(frozen=True)
class TransferPair:
    """The pair (A, B) for a scheme, with the index order recorded."""

    m: int
    A: np.ndarray
    B: np.ndarray

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
    def _blocks(self) -> tuple[np.ndarray, ...]:
        """B and C = A - B in a basis W of generalized eigenspaces of C.

        Returns W^-1 B W; the block-diagonal T = W^-1 C W, one block per
        cluster of eigenvalues within _CLUSTER_TOL; per column the centre c
        of its cluster (0 for a cluster at 0); and the inverse of T with
        the blocks where c = 0 taken as I.  When W is ill-conditioned,
        T = C and c = 0.
        """
        C, d = self.A - self.B, self.dim
        tol = _CLUSTER_TOL * max(1.0, float(np.linalg.norm(C, 1)))
        try:
            clusters, W = invariant_subspaces(C, tol)
            usable = np.linalg.cond(W) <= _BASIS_COND
        except ValueError:
            usable = False
        if not usable:
            clusters, W = [(0j, d)], np.eye(d)
        sizes = [k for _, k in clusters]
        label = np.repeat(np.arange(len(sizes)), sizes)
        c = np.repeat([0j if abs(rep) <= tol else rep for rep, _ in clusters], sizes)
        Winv = np.linalg.inv(W)
        T = np.where(label[:, None] == label[None, :], Winv @ C @ W, 0)
        flat = (c == 0)[:, None] & (c == 0)[None, :]
        return Winv @ self.B @ W, T, c, np.linalg.inv(np.where(flat, np.eye(d), T))


@dataclass(frozen=True)
class SpectralPoint:
    """One located eigenvalue with its certificate data.

    ``residual`` is |P(lambda) vector| / (|lambda| + |B gamma((A-B)/lambda)|)
    in 2-norms: how far P is from singular, relative to the size of its two
    terms, so it stays near float64 rounding however large P's entries get.
    """

    lam: complex
    vector: np.ndarray
    simple: bool
    residual: float


def build_transfer(scheme: WeightScheme) -> TransferPair:
    """Assemble the transfer pair of a scheme."""
    m = scheme.m
    d = 2 ** (m - 1)
    A = np.zeros((d, d), dtype=complex)
    B = np.zeros((d, d), dtype=complex)
    if m == 1:
        A[0, 0] = float(scheme.wt["a"])
        B[0, 0] = float(scheme.wt["b"])
    else:
        index = {w: i for i, w in enumerate(all_words(m - 1))}
        for w in all_words(m - 1):
            A[index[w], index["a" + w[:-1]]] = float(scheme.wt["a" + w])
            B[index[w], index["b" + w[:-1]]] = float(scheme.wt["b" + w])
    return TransferPair(m=m, A=A, B=B)


def _kernel(pair: TransferPair, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacks N, R over a 1-d array z with f'(z)/f(z) = -tr(N^-1 R).

    In the basis W, M(z) = I - B' z gamma(zT) and B exp(zC) = B' exp(zT),
    with B' = W^-1 B W.  Where a block's centre c has Re(zc) > 1, its
    columns in both are multiplied by exp(-zc): the trace is unchanged, but
    the entries stay bounded, so f'/f keeps its digits much further out
    than with the growing exponentials of M itself.
    """
    Bw, T, c, Tinv = pair._blocks
    zs, eye = z[:, None, None], np.eye(pair.dim)
    grows = (z[:, None] * c).real > 1
    shift = np.where(grows, c, 0)[:, None, :]
    E, G = _exp_and_gamma(zs * (T - shift * eye))  # exp(zT - z shift): bounded
    S = np.exp(-zs * shift) * eye
    # exp(-zc) z gamma(zT) = (exp(z(T - c)) - exp(-zc)) T^-1 on a growing block
    Psi = np.where(grows[:, None, :], (E - S) @ Tinv, zs * G)
    return S - Bw @ Psi, Bw @ E


def _P(pair: TransferPair, lam: complex) -> np.ndarray:
    floor = pair.overflow_floor()
    if abs(lam) <= floor:
        raise ValueError(
            f"|lambda| = {abs(lam):.3g} is at or below the overflow floor "
            f"{floor:.3g} for this scheme"
        )
    return -lam * np.eye(pair.dim) + pair.B @ gamma((pair.A - pair.B) / lam)


def det_P(pair: TransferPair, lam: complex) -> complex:
    """det(-lambda I + B gamma((A-B)/lambda)).

    Refuses |lambda| at or below the overflow floor ||A-B||_1 divided by
    linalg._EXP_NORM_LIMIT, where the matrix exponential inside gamma would
    overflow float64.
    """
    return det(_P(pair, lam))


def _log_derivative(pair: TransferPair, zs: np.ndarray) -> np.ndarray:
    """f'(z)/f(z) = -tr(M(z)^-1 B exp(zC)) at every z of a 1-d array."""
    chunk = max(1, _STACK_BYTES // (16 * pair.dim**2))
    pieces = (zs[i : i + chunk] for i in range(0, len(zs), chunk))
    # where f is not resolved in float64 the values come out non-finite,
    # which the callers reject
    with np.errstate(all="ignore"):
        return np.concatenate([_trace_solve(*_kernel(pair, z)) for z in pieces])


def _trace_solve(M: np.ndarray, BE: np.ndarray):
    """-tr(M^-1 BE) per matrix of a stack; infinite where M is exactly singular."""
    try:
        return -np.trace(np.linalg.solve(M, BE), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:  # z is exactly a zero of f
        if M.ndim == 2:
            return complex(np.inf)
        return np.array([_trace_solve(m, be) for m, be in zip(M, BE)])


def _make_point(pair: TransferPair, lam: complex) -> SpectralPoint:
    P = _P(pair, lam)
    vector = nullspace_vector(P)
    # not |det P|, which grows with the entries of P, and not
    # sigma_min/sigma_max, which is 1 for any nonzero 1 x 1 P (m = 1)
    scale = abs(lam) + np.linalg.norm(P + lam * np.eye(pair.dim), 2)
    return SpectralPoint(
        lam=lam,
        vector=vector,
        simple=is_simple(pair, lam, vector),
        residual=float(np.linalg.norm(P @ vector) / scale),
    )


def is_simple(pair: TransferPair, lam: complex, vector: np.ndarray) -> bool:
    """Certificate that the root is simple: B exp((A-B)/lambda) c != 0."""
    image = pair.B @ mat_exp((pair.A - pair.B) / lam) @ vector
    return bool(np.linalg.norm(image) > _SIMPLE_TOL * np.linalg.norm(vector))


class _Circle:
    """Samples of z f'(z)/f(z) on |z| = radius.

    The points double until the winding number (the mean of the samples) is
    within _COUNT_TOL of an integer and moves less than that between the last
    two samplings; ``count`` is that integer, or None when no sampling up to
    _MAX_CONTOUR_POINTS settles: a zero lies too close to the circle, or f
    is not resolved in float64 there.  Radius 0 gives the empty disc.
    """

    def __init__(self, pair: TransferPair, radius: float):
        self.radius = radius
        self.count = None
        n = _CONTOUR_POINTS
        self.z = radius * np.exp(2j * np.pi * np.arange(n) / n)
        with np.errstate(all="ignore"):  # non-finite samples leave count None
            self.zg = self.z * _log_derivative(pair, self.z)
            while self.count is None and 2 * n <= _MAX_CONTOUR_POINTS:
                coarse = self.zg.mean()
                mid = self.z * np.exp(1j * np.pi / n)
                self.z = np.concatenate([self.z, mid])
                self.zg = np.concatenate([self.zg, mid * _log_derivative(pair, mid)])
                n *= 2
                fine = self.zg.mean()
                if not np.isfinite(fine):
                    break
                nearest = round(fine.real)
                if max(abs(fine - coarse), abs(fine - nearest)) <= _COUNT_TOL:
                    self.count = nearest

    def moments(self, scale: float, k: int) -> np.ndarray:
        """(1/2 pi i) times the integral of (z/scale)^j f'/f dz, j < k."""
        w = self.z / scale
        return (w[None, :] ** np.arange(k)[:, None] * self.zg).mean(axis=1)


def eigenvalues(pair: TransferPair, r_min: float) -> list[SpectralPoint]:
    """Every eigenvalue with |lambda| > r_min, certified complete.

    The winding number of f on |z| = 1/r_min counts the eigenvalues.  Further
    circles cut the disc into annuli until each holds at most _MAX_PENCIL
    zeros; the contour moments of an annulus form a small Hankel pencil whose
    eigenvalues approximate its zeros, and Newton's method on f'/f polishes
    them.  An annulus that does not yield as many distinct zeros as it counts
    is split again.

    A circle whose count does not settle (a zero lies on it, or f is not
    resolved in float64 there) is moved in by _STEP_IN steps.  When the
    outer circle has to move, or an annulus cannot be split, the list is
    complete only above a larger modulus, which a UserWarning names; no
    eigenvalue beyond that modulus is returned.

    Real eigenvalues have an imaginary part of exactly 0; every non-real one
    is reported with its exact conjugate and the conjugated vector.  An
    r_min at or below the overflow floor is raised above it, with a warning;
    a nonpositive or non-finite r_min raises ValueError.  The result is
    sorted by falling modulus.
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
    outer = _settled_circle(pair, 1 / r_min, 0.0)
    bound = outer.radius  # the zeros are certified complete in |z| < bound
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
        mid = _settled_circle(pair, (inner.radius + outer.radius) / 2, inner.radius)
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
    points = []
    for z in zeros:
        if abs(z) >= bound:
            continue
        if z.imag == 0:
            points.append(_make_point(pair, complex(1 / z.real, 0.0)))
        else:
            p = _make_point(pair, 1 / z)
            points += [p, replace(p, lam=p.lam.conjugate(), vector=p.vector.conj())]
    return sorted(points, key=lambda p: (-abs(p.lam), np.angle(p.lam)))


def _settled_circle(pair: TransferPair, radius: float, lo: float) -> _Circle | None:
    """The first circle of radius, radius * _STEP_IN, ... above lo whose count
    settles; None when none does."""
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
    z = _polish(pair, w * scale)
    z = np.where(np.abs(z.imag) <= _SAME_TOL * np.abs(z), z.real + 0j, z)
    canon: list[complex] = []  # distinct zeros, each real or in the upper half
    for c in sorted(np.where(z.imag < 0, z.conj(), z), key=abs):
        if all(abs(c - o) > _SAME_TOL * abs(c) for o in canon):
            canon.append(c)
    if any(not inner.radius < abs(c) < outer.radius for c in canon):
        return None
    return canon if sum(1 if c.imag == 0 else 2 for c in canon) == k else None


def _polish(pair: TransferPair, z: np.ndarray) -> np.ndarray:
    """Newton's method z <- z - f/f' on every z at once; the converged ones.

    A zero is polished until the step falls to rounding level, or stops
    shrinking (the steps then wander inside the rounding noise of f'/f).
    Only zeros whose last step is at most _NEWTON_TOL relative come back.
    """
    z = np.array(z, dtype=complex)
    size = np.full(z.shape, np.inf)  # last step relative to |z|
    active = np.ones(z.shape, dtype=bool)
    floor = pair.overflow_floor()
    for _ in range(_NEWTON_STEPS):
        active &= np.isfinite(z) & (np.abs(z) * floor < 1)
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


def det_M_product_check(pair: TransferPair, lam: complex) -> complex:
    """det(-A + B exp((A-B)/lambda)), the equivalent form for invertible A-B.

    Vanishes at the same nonzero lambda as det_P when A - B is invertible;
    raises ValueError when A - B is singular and the form is not available.
    """
    M = pair.A - pair.B
    sing = np.linalg.svd(M, compute_uv=False)
    if float(sing[-1]) < 1e-12 * max(1.0, float(sing[0])):
        raise ValueError("A - B is singular; the product form is unavailable")
    return det(-pair.A + pair.B @ mat_exp(M / lam))
