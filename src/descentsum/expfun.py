"""The asymptotic constants by quadrature, one eigenvalue at a time.

The unit cube [0,1]^m splits into 2^(m-1) descent cells P_u, one per
{a,b}-word u of length m - 1: inside P_u consecutive coordinates satisfy
x_i <= x_(i+1) exactly when u_i = a.  A function that is, on each cell, a
function of one coordinate of its cell (the first or the last) is a
(cells, n) array: per cell, in the order of words.all_words(m - 1), the
coefficients of its Chebyshev series on [0, 1], of T_k(2x - 1).

The eigenfunction phi = exp((A - B)x/lambda) v of an eigenvalue lambda
with null vector v is sampled with linalg.mat_exp at n first-kind Chebyshev
points and interpolated by one cosine transform.  phi is entire, so its
Chebyshev series converges geometrically (Trefethen, Approximation Theory
and Approximation Practice, SIAM 2013, ch. 8), and n = ||A - B||_2/|lambda|
+ 40 terms resolve it to rounding.  The reflection J reverses the cell word
and flips x -> 1 - x, which takes T_k to (-1)^k T_k.  A pairing integrates
the last coordinate's function over P_u innermost-out, one Chebyshev
antiderivative per letter, and the product with the first coordinate's
function over [0, 1] by Gauss-Legendre.  The maps and nodes of each size
are cached.

This route reads only A and B of the transfer pair: neither the block
decomposition of A - B (TransferPair.blocks) that the array pass of
descentsum.constants computes every pairing from, nor the contour kernel's
factors.  So the tests hold that pass to it as an independent reference.
No command loads this module.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import chebyshev, legendre

from .constants import asymptotic_constant
from .linalg import mat_exp
from .words import WeightScheme, all_words, symmetry_defect

if TYPE_CHECKING:
    from .spectral import SpectralPoint, TransferPair

__all__ = ["eigenfunction", "apply_J", "pairing", "scheme_constant", "apply_operator"]


def _cells(f: np.ndarray) -> list[str]:
    """The cell words of a function on 2^(m-1) cells."""
    return all_words(len(f).bit_length() - 1)


@cache
def _antiderivative(n: int) -> np.ndarray:
    """The (n + 1, n) map from a series of n terms to its antiderivative,
    0 at x = 0: column k is that of T_k(2x - 1)."""
    return chebyshev.chebint(np.eye(n), lbnd=-1, scl=0.5)


@cache
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first 2n Chebyshev polynomials at the n Gauss-Legendre nodes of
    [0, 1], and the weights, which integrate a degree below 2n exactly."""
    t, w = legendre.leggauss(n)
    return chebyshev.chebvander(t, 2 * n - 1), w / 2


def _integral(f: np.ndarray) -> np.ndarray:
    """The antiderivative of each row, 0 at x = 0."""
    return f @ _antiderivative(f.shape[1]).T


def _from_above(F: np.ndarray) -> np.ndarray:
    """F(1) - F(x) of each row."""
    out = -F
    out[:, 0] += F.sum(axis=1)
    return out


def eigenfunction(pair: TransferPair, lam: complex, vector: np.ndarray) -> np.ndarray:
    """phi = exp((A - B)x/lambda) v on every cell, a function of the first
    coordinate: its (cells, n) Chebyshev coefficients."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    M = (pair.A - pair.B) / lam
    n = int(np.linalg.norm(M, 2)) + 40
    sample = lambda t: mat_exp((t[:, None, None] + 1) / 2 * M) @ vector
    return chebyshev.chebinterpolate(sample, n - 1).T


def apply_J(f: np.ndarray) -> np.ndarray:
    """(Jf)(x_1, ..., x_m) = f(1 - x_m, ..., 1 - x_1): the piece of f on
    P_(reversed u), composed with x -> 1 - x, on P_u.  A function of the
    first coordinate becomes one of the last, and back."""
    words = _cells(f)
    return f[[words.index(u[::-1]) for u in words]] * (-1.0) ** np.arange(f.shape[1])


def pairing(f: np.ndarray, g: np.ndarray) -> complex:
    """The sum over the cells P_u of the integral of f_u(x_1) g_u(x_m): f a
    function of the first coordinate, g of the last.  The inner product
    <f, g> of the constants is pairing(f, conj(g))."""
    words = _cells(f)
    for i in reversed(range(len(words[0]))):  # x_m down to x_2
        g = _integral(g)
        upper = np.array([w[i] == "a" for w in words])  # over [x_i, 1]
        g[upper] = _from_above(g[upper])
    V, w = _gauss((f.shape[1] + g.shape[1]) // 2 + 1)
    values = (V[:, : f.shape[1]] @ f.T) * (V[:, : g.shape[1]] @ g.T)
    return complex(w @ values.sum(axis=1))


def scheme_constant(
    scheme: WeightScheme, pair: TransferPair, point: SpectralPoint
) -> tuple[complex, tuple[complex, complex, complex]]:
    """One eigenvalue's constant <phi, mu> <kappa, conj(psi)> / <phi, conj(psi)>
    and the three pairings behind it: phi the eigenfunction of point.vector,
    psi = J phi its adjoint, kappa and mu the boundary weights wt1(u), wt2(u)
    on the cells.  Raises ValueError when the window weights are not
    reversal-symmetric, where J phi is not the adjoint eigenfunction, or
    the denominator pairing vanishes (constants.asymptotic_constant)."""
    defect = symmetry_defect(WeightScheme(scheme.m, scheme.wt))  # windows alone
    if defect is not None:
        raise ValueError(
            "adjoint eigenfunctions via the J reflection need a "
            f"reversal-symmetric scheme: {defect}"
        )
    phi = eigenfunction(pair, point.lam, point.vector)
    psi = apply_J(phi)
    words = all_words(scheme.m - 1)
    kappa = np.array([[float(scheme.wt1[u])] for u in words])
    mu = np.array([[float(scheme.wt2[u])] for u in words])
    pairings = (pairing(phi, mu), pairing(kappa, psi), pairing(phi, psi))
    return asymptotic_constant(*pairings), pairings


def apply_operator(scheme: WeightScheme, f: np.ndarray) -> np.ndarray:
    """One application of the weighted descent operator T to a function of
    the first coordinate.  On the cell P_w the result is
    wt(aw) int_0^(x_1) f_(au) + wt(bw) int_(x_1)^1 f_(bu), with
    au = (aw)[:m-1] and bu = (bw)[:m-1], again a function of x_1."""
    m, words = scheme.m, all_words(scheme.m - 1)
    if len(f) != len(words):
        raise ValueError(f"a function on {len(f)} cells, not {len(words)}")
    F = _integral(f)
    below = F[[words.index(("a" + w)[: m - 1]) for w in words]]
    above = _from_above(F[[words.index(("b" + w)[: m - 1]) for w in words]])
    wa, wb = ([[float(scheme.wt[x + w])] for w in words] for x in "ab")
    return np.multiply(wa, below) + np.multiply(wb, above)
