"""Asymptotic constants: the pairings of every eigenvalue in one array pass.

alpha_n/n! is a sum of c lambda^(n-m) over the eigenvalues lambda of the
weighted descent operator, and the constant of a simple lambda is

    c = <phi, mu> <kappa, conj(psi)> / <phi, conj(psi)>

(descentsum, arXiv 2013, after Ehrenborg, Kitaev and Perry): phi is the
eigenfunction exp((A - B)x/lambda) v of the null vector v of P(lambda), psi
= J phi its reflection, psi_u(x) = phi_(reversed u)(1 - x), which is the
adjoint eigenfunction when the window weights are reversal-symmetric, and
kappa, mu the boundary weights wt1(u), wt2(u), constant on the descent cell
P_u.  A pairing is a sum over the cells of an integral over P_u of f(x_1)
times g(x_m).

Every eigenfunction of a pair has the same terms and only their numbers
change with lambda: per block T_i = c_i I + N_i of TransferPair.blocks,
x^j e^(mu x) with mu = c_i/lambda and j below the index of N_i.  So a
function of one variable on every cell is an array of the coefficients of
x^k e^(mu_e x), indexed by the eigenvalue, the class e, the cell u and the
degree k, with one class per distinct centre c_i (blocks of equal centre
share it) and, in the integrands, a last class for exponent 0.  An
exponent within MU_MERGE_TOL of 0 is taken as 0, as expfun.ExpPoly takes
it.  The integral over P_u runs innermost-out: x_m over [x_(m-1), 1] when
u ends in a and over [0, x_(m-1)] when it ends in b, and so on down to
x_2, each an antiderivative that is one (K x K) matrix per eigenvalue and
class; the product with f(x_1) and the integral over [0, 1] then pair the
degrees a, b of two classes through int_0^1 x^(a+b) e^((mu + mu')x) dx.
This is the calculus of expfun (eigenfunction_pieces, apply_J,
polytope_integral, inner_products) on arrays, for all the eigenvalues of a
scheme at once; the tests hold the two to each other.  The integrals
cancel down to the pairings, which are therefore known only to about
eps e^(rho(A - B)/|lambda|) absolute, and <phi, conj(psi)>, a product of
two eigenfunctions, only to about the square of that over eps.

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
from math import comb
from typing import TYPE_CHECKING, Sequence

from .words import WeightScheme, _Frozen, all_words, symmetry_defect

if TYPE_CHECKING:
    import numpy as np

    from .spectral import SpectralPoint, TransferPair

MU_MERGE_TOL = 1e-9  # exponents closer than this are one, and 0 below it
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


def _snap(mu: np.ndarray) -> np.ndarray:
    """mu, with every exponent within MU_MERGE_TOL of 0 made exactly 0."""
    import numpy as np

    return np.where(abs(mu) <= MU_MERGE_TOL, 0, mu)


def _integrals(mu: np.ndarray, n: int) -> np.ndarray:
    """int_0^1 x^k e^(mu x) dx for k < n, on a new last axis.

    By parts, I_k = (e^mu - k I_(k-1))/mu from I_0 = (e^mu - 1)/mu: the
    closed form of polytope_integral's last step; 1/(k + 1) where mu is 0.
    """
    import numpy as np

    zero = mu == 0
    safe, e = np.where(zero, 1, mu), np.exp(mu)
    out = [np.expm1(safe) / safe]
    for k in range(1, n):
        out.append((e - k * out[-1]) / safe)
    return np.where(zero[..., None], 1 / np.arange(1, n + 1), np.stack(out, axis=-1))


def _antiderivative_maps(mu: np.ndarray, K: int) -> np.ndarray:
    """Per exponent, the (K x K) matrix that takes the row of coefficients of
    x^k e^(mu x), k < K, to that of its antiderivative, before the constant
    that makes it 0 at 0: by parts, x^k e^(mu x) -> sum_(j<=k) (-1)^(k-j)
    k!/j! x^j e^(mu x)/mu^(k-j+1); x^k -> x^(k+1)/(k+1) where mu is 0."""
    import numpy as np

    k, j = np.arange(K)[:, None], np.arange(K)
    fact = np.cumprod([1.0, *range(1, K)])
    by_parts = np.where(j <= k, (-1.0) ** (k - j) * fact[k] / fact[j], 0)
    zero = mu == 0
    inverse = (1 / np.where(zero, 1, mu))[..., None] ** np.arange(1, K + 1)
    maps = by_parts * inverse[..., np.maximum(k - j, 0)]
    shift = np.where(j == k + 1, 1 / (k + 1.0), 0)
    return np.where(zero[..., None, None], shift, maps)


def _integrate_cells(f: np.ndarray, mu: np.ndarray, words: list[str]) -> np.ndarray:
    """f[l, e, u, k] integrated over the cell P_u from x_m down to x_2: a
    function of x_1 of the same shape, the last class of exponent 0."""
    import numpy as np

    maps, e = _antiderivative_maps(mu, f.shape[-1]), np.exp(mu)
    for i in reversed(range(len(words[0]))):
        f = f @ maps
        f[:, -1, :, 0] = -f[:, :, :, 0].sum(axis=1)  # F(0) = 0
        upper = np.array([w[i] == "a" for w in words])  # over [x, 1]: F(1) - F
        f[:, :, upper] *= -1
        f[:, -1, upper, 0] -= np.einsum("leuk,le->lu", f[:, :, upper], e)
    return f


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

    blocks = pair.blocks
    words, m, d, p = pair.index_words, pair.m, pair.dim, len(blocks.powers)
    lam = np.asarray(lams, dtype=complex)
    L = len(lam)
    # phi[l, u, e, j]: the coefficient of x^j e^(nu_e x/lambda) on cell u,
    # summed over the columns i of class e: W[u, i] (N^j W^-1 v)_i/(lambda^j j!)
    centres = blocks.centre.tolist()
    nu = list(dict.fromkeys(centres))  # the distinct centres
    onehot = np.array([nu.index(c) for c in centres])[blocks.label, None]
    onehot, nu = onehot == np.arange(len(nu)), np.array(nu)
    scale = lam[:, None] ** np.arange(p) * np.cumprod([1.0, *range(1, p)])
    Ny = np.einsum("jab,lb->lja", blocks.powers, np.asarray(vectors) @ blocks.Winv.T)
    Ny /= scale[:, :, None]
    phi = ((blocks.W * Ny[:, :, None, :]) @ onehot).transpose(0, 2, 3, 1)
    mu_phi = _snap(nu / lam[:, None])
    # psi[l, e, u, k]: psi_u(x) = phi_(reversed u)(1 - x), (1 - x)^j expanded,
    # exponents -mu_phi and a last class of exponent 0; degrees up to K - 1,
    # as the class of exponent 0 gains one a cell
    K = p + m - 1
    reverse = [words.index(w[::-1]) for w in words]
    binom = [[comb(j, i) * (-1) ** i for i in range(K)] for j in range(p)]
    psi = np.zeros((L, len(nu) + 1, d, K), dtype=complex)
    reflected = phi[:, reverse] * np.exp(mu_phi)[:, None, :, None] @ binom
    psi[:, :-1] = reflected.swapaxes(1, 2)
    mu_psi = np.concatenate([-mu_phi, np.zeros((L, 1))], axis=1)
    psi = _integrate_cells(psi, mu_psi, words)
    # complex like the rest: a real product would load numpy's real matrix
    # kernels for this alone, 0.2 MB of peak memory
    wt2_cells = np.zeros((1, 1, d, K), dtype=complex)
    wt2_cells[0, 0, :, 0] = wt2
    wt2_cells = _integrate_cells(wt2_cells, np.zeros((1, 1), complex), words)[0, 0]
    # X[l, u, e', b]: the sum over (e, a) of phi[l, u, e, a] times
    # int_0^1 x^(a+b) e^((mu_e + mu_e')x) dx
    degree = np.arange(p)[:, None] + np.arange(K)
    inner = _integrals(_snap(mu_phi[:, :, None] + mu_psi[:, None, :]), p + K - 1)
    G = inner[..., degree].transpose(0, 1, 3, 2, 4).reshape(L, len(nu) * p, -1)
    X = (phi.reshape(L, d, -1) @ G).reshape(L, d, len(nu) + 1, K)
    wt1 = np.asarray(wt1, dtype=float)
    return np.stack(
        [
            np.einsum("lub,ub->l", X[:, :, -1], wt2_cells),
            np.einsum("u,leub,leb->l", wt1, psi, _integrals(mu_psi, K)),
            np.einsum("lueb,leub->l", X, psi),
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
        pairings, and a refusal covers both.  A point is refused when the
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
