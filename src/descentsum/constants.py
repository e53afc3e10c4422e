"""Asymptotic constants: the pairings of every eigenvalue in one array pass.

alpha_n/n! is a sum of c lambda^(n-m) over the eigenvalues lambda of the
weighted descent operator T, and the constant of a simple lambda is

    c = <phi, mu> <kappa, conj(psi)> / <phi, conj(psi)>

(descentsum, arXiv 2013, after Ehrenborg, Kitaev and Perry): phi is the
eigenfunction exp((A - B)x/lambda) v of the null vector v of P(lambda), psi
the adjoint eigenfunction, and kappa, mu the boundary weights wt1(u),
wt2(u), constant on the descent cell P_u.  A pairing is a sum over the
cells of an integral over P_u of f(x_1) times g(x_m).

Only phi itself is integrated.  With the cell moments
m_u = int_(P_u) phi_u(x_1) dx and l the left null vector of P(lambda),
l^T P(lambda) = 0 (SpectralPoint.left),

    <phi, mu> = wt2 . m,   <kappa, conj(psi)> = wt1 . l,
    <phi, conj(psi)> = l^T B phi(1) / lambda.

The first is the definition.  The other two are a residue.  With z =
1/lambda and C = A - B, f = (I - zT)^-1 kappa solves f' = zCf with
f(0) - zB int_0^1 f = kappa, so

    (I - zT)^-1 kappa = exp(zCx) M(z)^-1 kappa,   M(z) = I - zB gamma(zC),

for every kappa constant on the cells.  At z = 1/lambda the left side has
the residue -phi <kappa, conj(psi)> / (lambda <phi, conj(psi)>) of the
spectral projector, and the right side phi (l . kappa) / (l^T M' v), as l
is a left null vector of M(1/lambda) = -P(lambda)/lambda, with
M'(z) = -B exp(zC) and M' v = -B phi(1).  So for every kappa the ratio of
the last two pairings is that of wt1 . l to l^T B phi(1)/lambda: psi is
fixed up to a scale that c does not see, and l fixes it.  Nothing asks
for a symmetry of the weights.  When the window weights are
reversal-symmetric, psi is the reflection J phi, psi_u(x) =
phi_(reversed u)(1 - x), and <kappa, conj(psi)> = kappa . Rm, R the
reversal of the cell words, for every kappa: Rm is parallel to l, the
paper's J identity.

The moments come from the block basis of TransferPair.blocks: per block
T_i = c_i I + N_i, phi has the terms x^j e^(mu x) with mu = c_i/lambda and
j below the index p of N_i, for every eigenvalue at once.  Integrating 1
from x_m down to x_2, x_(i+1) over [x_i, 1] where u_i is a and over
[0, x_i] where it is b, leaves the volume vol_u(x_1) of the slice of P_u,
a polynomial of degree m - 1, so m_u pairs the coefficients of phi_u
and vol_u through int_0^1 x^k e^(mu x) dx = k! psi_k(mu), k < p + m - 1,
the contour kernel's spectral._psi.  m and phi(1) are known to about
eps e^(rho(A - B)/|lambda|) absolute, as their terms reach e^|mu|.  The
tests hold the pass to expfun, which computes the pairings from their
definition, one eigenvalue at a time by Chebyshev quadrature from A and B
alone, with psi = J phi on the reversal-symmetric schemes it takes.

asymptotics() is the analysis entry point: a scheme's spectrum, truncated
to the top eigenvalues, and one constant per eigenvalue, computed once per
conjugate pair.  Every scheme has them, a count restricted to a first or
last descent letter (words.restrict_ends) too.
Read through an ill-conditioned basis W of the blocks, the eigenfunctions
would lose digits: when cond(W) exceeds _BASIS_COND, every constant of
the pair is refused, though its eigenvalues are not.

The module imports numpy and spectral, as spectral imports numpy; the
package and the command line import it only when constants are asked for.
"""

from __future__ import annotations

from typing import Sequence

# spectral before numpy: its source is compiled before numpy loads, and
# numpy's import reuses the freed memory, 1.3 MB of peak RSS per command
from .spectral import SpectralPoint, TransferPair, _psi, build_transfer, top_eigenvalues
from .words import WeightScheme, _Frozen, all_words

import numpy as np

_BASIS_COND = 1e4  # largest cond(W) an eigenfunction is read through

__all__ = [
    "Asymptotics",
    "asymptotics",
    "asymptotic_constant",
    "predict_alpha",
]


def _basis_refusal(pair: TransferPair) -> str | None:
    """Why no eigenfunction is read through the pair's basis W, or None."""
    cond = np.linalg.cond(pair.blocks.W)
    if cond > _BASIS_COND:
        return (
            f"the basis W of the generalized eigenspaces of A - B has cond(W) = "
            f"{cond:.3g} > {_BASIS_COND:.3g}: the eigenfunction would lose digits"
        )
    return None


def asymptotic_constant(p_phi_mu, p_kappa_psi, p_phi_psi) -> complex:
    """The coefficient <phi, mu> <kappa, conj(psi)> / <phi, conj(psi)>.

    This is the weight of one eigenvalue's lambda^(n-m) term in the
    n!-normalized asymptotics, formed from its three pairings.  A
    denominator pairing below 1e-10 is refused: it signals a possibly
    non-simple eigenvalue, where this formula is wrong.
    """
    if abs(p_phi_psi) < 1e-10:
        raise ValueError(
            f"pairing <phi, conj(psi)> = {abs(p_phi_psi):.3g} vanishes at "
            "tolerance 1e-10; the eigenvalue may not be simple"
        )
    return p_phi_mu * p_kappa_psi / p_phi_psi


def _moments(
    pair: TransferPair, lams: Sequence[complex], vectors: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The cell moments m and the values phi(1) of the eigenfunctions of
    the eigenvalues lams with null vectors vectors: two (L, cells) arrays."""
    blocks = pair.blocks
    words, m, p = pair.index_words, pair.m, len(blocks.powers)
    lam = np.asarray(lams, dtype=complex)
    # phi[l, j, u, i]: the coefficient of x^j e^(mu_i x), mu_i = c_i/lambda,
    # on cell u: the sum over the columns b of block i of
    # W[u, b] (N^j W^-1 v)_b/(lambda^j j!)
    scale = lam[:, None] ** np.arange(p) * np.cumprod([1.0, *range(1, p)])
    Ny = np.einsum("jab,lb->lja", blocks.powers, np.asarray(vectors) @ blocks.Winv.T)
    Ny /= scale[:, :, None]
    onehot = blocks.label[:, None] == np.arange(len(blocks.centre))
    phi = (blocks.W * Ny[:, :, None, :]) @ onehot
    mu = blocks.centre / lam[:, None]
    # vol[u, k]: the coefficient of x^k in vol_u(x), 1 integrated from x_m down
    one = np.eye(1, m)
    vol = one.repeat(len(words), axis=0)
    antiderivative = np.diag(1 / np.arange(1.0, m), 1)  # F, 0 at 0
    for i in reversed(range(m - 1)):
        vol = vol @ antiderivative
        upper = np.array([w[i] == "a" for w in words])  # over [x, 1]: F(1) - F
        vol[upper] = one * vol[upper].sum(axis=1, keepdims=True) - vol[upper]
    # ints[l, k, i]: int_0^1 x^k e^(mu_i x) dx, undoing _psi's e^-mu
    n = p + m - 1
    ints = _psi(mu, n) * np.cumprod([1.0, *range(1, n)])[:, None]
    ints *= np.exp(np.where(mu.real > 1, mu, 0))[:, None]
    degree = np.arange(p)[:, None] + np.arange(m)
    vol_ints = np.einsum("uk,ljki->ljui", vol, ints[:, degree])
    return (
        np.einsum("ljui,ljui->lu", phi, vol_ints),
        np.einsum("ljui,li->lu", phi, np.exp(mu)),
    )


def _pairings(
    pair: TransferPair,
    lams: Sequence[complex],
    vectors: Sequence[np.ndarray],
    lefts: Sequence[np.ndarray],
    wt1: Sequence[float],
    wt2: Sequence[float],
) -> np.ndarray:
    """(<phi, mu>, <kappa, conj(psi)>, <phi, conj(psi)>) per eigenvalue: an
    (L, 3) array for the eigenvalues lams with right and left null vectors
    vectors and lefts, and the boundary weights wt1 and wt2 per cell in
    index order."""
    moments, at_one = _moments(pair, lams, vectors)
    left = np.asarray(lefts)
    # complex like the rest: a real product would load numpy's real matrix
    # kernels for this alone, 0.1 MB of peak memory
    wt1, wt2 = (np.asarray(wt, dtype=complex) for wt in (wt1, wt2))
    return np.stack(
        [
            moments @ wt2,
            left @ wt1,
            np.einsum("lu,uv,lv->l", left, pair.B, at_one) / np.asarray(lams),
        ],
        axis=1,
    )


def _constants(
    scheme: WeightScheme, pair: TransferPair, points: Sequence[SpectralPoint]
) -> list[tuple[complex, tuple[complex, complex, complex]] | str]:
    """(constant, pairings) per point, or why it has none."""
    if not points:
        return []
    refusal = _basis_refusal(pair)
    if refusal is not None:
        return [refusal] * len(points)
    cells = all_words(scheme.m - 1)
    rows = _pairings(
        pair,
        [p.lam for p in points],
        [p.vector for p in points],
        [p.left for p in points],
        [float(scheme.wt1[u]) for u in cells],
        [float(scheme.wt2[u]) for u in cells],
    )
    out: list = []
    for row in rows.tolist():
        try:
            out.append((asymptotic_constant(*row), tuple(row)))
        except ValueError as exc:
            out.append(str(exc))
    return out


class Asymptotics(_Frozen):
    """A scheme's kept eigenvalues and their constants.

    ``pair`` is the scheme's transfer pair, and ``points`` are the
    eigenvalues above r_min kept, by falling modulus.  ``terms`` holds
    (point, constant, pairings) per point with a constant, and ``refused``
    (point, reason) per point without one.  ``r_hat`` is the modulus of the
    largest eigenvalue left out, by the truncation or by a refusal (None
    when none is).
    """

    __slots__ = ("pair", "points", "terms", "refused", "r_hat")
    pair: TransferPair
    points: tuple[SpectralPoint, ...]
    terms: tuple[tuple[SpectralPoint, complex, tuple[complex, complex, complex]], ...]
    refused: tuple[tuple[SpectralPoint, str], ...]
    r_hat: float | None

    def __init__(self, pair, points, terms, refused, r_hat) -> None:
        self._set(pair, points, terms, refused, r_hat)


def asymptotics(scheme: WeightScheme, r_min: float, top: int = 0) -> Asymptotics:
    """The scheme's eigenvalues above r_min, kept to the top K by modulus,
    with their constants.

    The truncation is spectral.top_eigenvalues: top = K > 0 keeps the K
    largest, and one more when that completes a conjugate pair; top <= 0
    keeps all.  The pairings of every real or upper-half eigenvalue come
    from one array pass.  Its conjugate is listed with the conjugated
    vectors (spectral.eigenvalues), so it gets the conjugated constant and
    pairings, and a refusal covers both.  At a real lambda the constant and
    the pairings are real, as A, B, kappa, mu and the null vectors are:
    their imaginary parts, rounding from the complex basis W, are dropped.
    A point is refused when the basis W is ill-conditioned (every point
    then) or its denominator pairing vanishes (asymptotic_constant).
    """
    pair = build_transfer(scheme)
    points, r_hat = top_eigenvalues(pair, r_min, top)
    # per real or upper-half lambda: (constant, pairings), or why not
    upper = [p for p in points if p.lam.imag >= 0]
    found = dict(zip((p.lam for p in upper), _constants(scheme, pair, upper)))
    terms, refused = [], []
    for p in points:
        got = found[p.lam.conjugate()] if p.lam.imag < 0 else found[p.lam]
        if isinstance(got, str):
            refused.append((p, got))
            r_hat = abs(p.lam) if r_hat is None else max(r_hat, abs(p.lam))
        elif p.lam.imag < 0:
            const, pairings = got
            pairings = tuple(z.conjugate() for z in pairings)
            terms.append((p, const.conjugate(), pairings))
        elif p.lam.imag == 0:
            const, pairings = got
            pairings = tuple(complex(z.real) for z in pairings)
            terms.append((p, complex(const.real), pairings))
        else:
            terms.append((p, *got))
    return Asymptotics(pair, tuple(points), tuple(terms), tuple(refused), r_hat)


def predict_alpha(
    terms: Sequence[tuple[complex, complex]], n: int, m: int
) -> float:
    """Sum of c * lambda^(n-m) over the given (c, lambda) pairs, as a real.

    Conjugate eigenvalue pairs must both be present so the sum is real; an
    imaginary residue above 1e-9 (relative) raises.
    """
    if n < m:
        raise ValueError("prediction needs n >= m")
    total = sum(c * lam ** (n - m) for c, lam in terms)
    total = complex(total)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ValueError(
            f"prediction has imaginary residue {total.imag:.3g}; "
            "conjugate eigenvalues must be included in pairs"
        )
    return total.real
