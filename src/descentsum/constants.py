"""Asymptotic constants: the pairings of every eigenvalue in one array pass.

alpha_n/n! is a sum of c lambda^(n-m) over the eigenvalues lambda of the
weighted descent operator T, and the constant of a simple lambda is

    c = <phi, mu> <kappa, conj(psi)> / <phi, conj(psi)>

(descentsum, arXiv 2013, after Ehrenborg, Kitaev and Perry): phi is the
eigenfunction exp((A - B)x/lambda) v of the null vector v of P(lambda), psi
= J phi its reflection, psi_u(x) = phi_(reversed u)(1 - x), which is the
adjoint eigenfunction when the window weights are reversal-symmetric, and
kappa, mu the boundary weights wt1(u), wt2(u), constant on the descent cell
P_u.  A pairing is a sum over the cells of an integral over P_u of f(x_1)
times g(x_m).

Only phi itself is integrated.  With the cell moments
m_u = int_(P_u) phi_u(x_1) dx and R the reversal of the cell words,

    <phi, mu> = wt2 . m,   <kappa, conj(psi)> = wt1 . Rm,
    <phi, conj(psi)> = (Rm)^T B phi(1) / lambda.

The second holds because x -> (1 - x_m, ..., 1 - x_1) maps P_u onto
P_(reversed u) and takes psi_u(x_m) to phi_(reversed u)(x_1).  The third
is a residue.  With z = 1/lambda and C = A - B, f = (I - zT)^-1 kappa
solves f' = zCf with f(0) - zB int_0^1 f = kappa, so

    (I - zT)^-1 kappa = exp(zCx) M(z)^-1 kappa,   M(z) = I - zB gamma(zC),

for every kappa constant on the cells.  At z = 1/lambda the left side has
the residue -phi <kappa, conj(psi)> / (lambda <phi, conj(psi)>) of the
spectral projector, and the right side phi (l . kappa) / (l^T M' v), l a
left null vector of M(1/lambda) = -P(lambda)/lambda and
M'(z) = -B exp(zC).  As <kappa, conj(psi)> = kappa . Rm for every kappa,
Rm is such an l, and with l = Rm and M' v = -B phi(1) the residues give
the third identity.

The moments come from the block basis of TransferPair.blocks: per block
T_i = c_i I + N_i, phi has the terms x^j e^(mu x) with mu = c_i/lambda and
j below the index p of N_i, for every eigenvalue at once.  Integrating 1
from x_m down to x_2, x_(i+1) over [x_i, 1] where u_i is a and over
[0, x_i] where it is b, leaves the volume vol_u(x_1) of the slice of P_u,
a polynomial of degree m - 1, so m_u pairs the coefficients of phi_u
and vol_u through int_0^1 x^k e^(mu x) dx = k! psi_k(mu), k < p + m - 1,
the contour kernel's spectral._psi.  m and phi(1) are known to about
eps e^(rho(A - B)/|lambda|) absolute, as their terms reach e^|mu|, and so
is each factor of <phi, conj(psi)>.  The tests hold the pass to expfun,
which computes the pairings from their definition, one eigenvalue at a
time by Chebyshev quadrature from A and B alone.

asymptotics() is the analysis entry point: a scheme's spectrum, truncated
to the top eigenvalues, with the symmetry gate and, on request, one
constant per eigenvalue, computed once per conjugate pair.  The gate asks
only that the window weights be invariant under word reversal: the
boundary weights wt1 and wt2 enter the constants only through kappa and mu
in the pairings, so they are free, and a count restricted to a first or
last descent letter (words.restrict_ends) gets its constant like any other
scheme.  Read through an ill-conditioned basis W of the blocks, the
eigenfunctions would lose digits: when cond(W) exceeds _BASIS_COND, every
constant of the pair is refused, though its eigenvalues are not.

The module loads words alone; numpy and spectral come in when the
eigenvalues are first asked for.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .words import WeightScheme, _Frozen, all_words, symmetry_defect

if TYPE_CHECKING:
    import numpy as np

    from .spectral import SpectralPoint, TransferPair

_BASIS_COND = 1e4  # largest cond(W) an eigenfunction is read through

__all__ = [
    "Asymptotics",
    "asymptotics",
    "asymptotic_constant",
    "predict_alpha",
]


def _window_defect(scheme: WeightScheme) -> str | None:
    """symmetry_defect of the window weights alone, boundary weights aside."""
    return symmetry_defect(WeightScheme(scheme.m, scheme.wt))


def _basis_refusal(pair: TransferPair) -> str | None:
    """Why no eigenfunction is read through the pair's basis W, or None."""
    import numpy as np

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
    import numpy as np

    from .spectral import _psi

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
    wt1: Sequence[float],
    wt2: Sequence[float],
) -> np.ndarray:
    """(<phi, mu>, <kappa, conj(psi)>, <phi, conj(psi)>) per eigenvalue: an
    (L, 3) array for the eigenvalues lams with null vectors vectors, and the
    boundary weights wt1 and wt2 per cell in index order."""
    import numpy as np

    moments, at_one = _moments(pair, lams, vectors)
    words = pair.index_words
    reflected = moments[:, [words.index(w[::-1]) for w in words]]
    # complex like the rest: a real product would load numpy's real matrix
    # kernels for this alone, 0.1 MB of peak memory
    wt1, wt2 = (np.asarray(wt, dtype=complex) for wt in (wt1, wt2))
    return np.stack(
        [
            moments @ wt2,
            reflected @ wt1,
            np.einsum("lu,uv,lv->l", reflected, pair.B, at_one) / np.asarray(lams),
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
    """A scheme's kept eigenvalues, with what their constants need.

    ``points`` are the eigenvalues above ``r_min`` kept, by falling modulus;
    ``r_hat`` is the modulus of the largest one left out by truncation (None
    when none is).  ``defect`` names a window-weight pair that breaks
    reversal symmetry (None when the window weights are symmetric and
    constants are available; the boundary weights wt1 and wt2 are free).
    The transfer pair and the one eigenvalue search behind ``points`` and
    ``r_hat`` are made on first access, and spectral, with numpy, is
    imported then: a refused constants() call pays for neither.
    """

    __slots__ = ("scheme", "r_min", "top", "defect", "__dict__")
    scheme: WeightScheme
    r_min: float
    top: int
    defect: str | None

    def __init__(
        self, scheme: WeightScheme, r_min: float, top: int, defect: str | None
    ) -> None:
        self._set(scheme, r_min, top, defect)

    @cached_property
    def pair(self) -> TransferPair:
        from .spectral import build_transfer

        return build_transfer(self.scheme)

    @cached_property
    def _kept(self) -> tuple[tuple[SpectralPoint, ...], float | None]:
        from .spectral import top_eigenvalues

        points, r_hat = top_eigenvalues(self.pair, self.r_min, self.top)
        return tuple(points), r_hat

    @property
    def points(self) -> tuple[SpectralPoint, ...]:
        return self._kept[0]

    @property
    def r_hat(self) -> float | None:
        return self._kept[1]

    def constants(
        self,
    ) -> tuple[
        list[tuple[SpectralPoint, complex, tuple[complex, complex, complex]]],
        list[tuple[SpectralPoint, str]],
        float | None,
    ]:
        """(point, constant, pairings) per kept point, (point, reason) per
        refused point, and r_hat widened by the refused ones.

        The pairings of every real or upper-half eigenvalue come from one
        array pass.  Its conjugate is listed with the conjugated vector
        (spectral.eigenvalues), so it gets the conjugated constant and
        pairings, and a refusal covers both.  At a real lambda the
        constant and the pairings are real, as A, B, kappa, mu and the
        null vector are: their imaginary parts, rounding from the complex
        basis W, are dropped.  A point is refused when the
        basis W is ill-conditioned (every point then) or its denominator
        pairing vanishes (asymptotic_constant).  Raises ValueError, before
        any eigenvalue search, when the window weights are not
        reversal-symmetric.
        """
        if self.defect is not None:
            raise ValueError(
                f"constants need a reversal-symmetric scheme: {self.defect}"
            )
        # per real or upper-half lambda: (constant, pairings), or why not
        upper = [p for p in self.points if p.lam.imag >= 0]
        found = dict(
            zip((p.lam for p in upper), _constants(self.scheme, self.pair, upper))
        )
        terms, refused, r_hat = [], [], self.r_hat
        for p in self.points:
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
        return terms, refused, r_hat


def asymptotics(scheme: WeightScheme, r_min: float, top: int = 0) -> Asymptotics:
    """The scheme's eigenvalues above r_min, kept to the top K by modulus.

    The truncation is spectral.top_eigenvalues: top = K > 0 keeps the K
    largest, and one more when that completes a conjugate pair; top <= 0
    keeps all.  The eigenvalues are searched for when the record is first
    asked for them, and constants only when it is asked for those.
    """
    return Asymptotics(scheme, r_min, top, _window_defect(scheme))


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
