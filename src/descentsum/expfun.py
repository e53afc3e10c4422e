"""Piecewise exponential-polynomial calculus on descent cells of the cube.

The unit cube [0,1]^m splits into 2^(m-1) full-dimensional cells P_u, one per
{a,b}-word u of length m - 1: inside P_u consecutive coordinates satisfy
x_i <= x_{i+1} exactly when u_i = a.  The weighted descent operator

    T(f)(x_1, ..., x_m) = integral_0^1 wt(word(t, x_1, ..., x_m)) f(t, x_1, ..., x_{m-1}) dt

maps functions that are, on each cell, a function of the first coordinate
alone to functions of the same shape.  Everything here is represented by
ExpPoly -- finite sums c * x^k * exp(mu x) -- so antiderivatives, products,
the end-point reflection J, and integrals over the cells are all closed form.
Coefficients stay exact when the inputs are rational polynomials, and ints
stay ints where the antiderivative's division is exact; otherwise they are
complex.  The antiderivative steps of the operator and of the polytope
integrals carry plain (c, k, mu) term lists; only the pieces of a function
are normalized ExpPoly.  apply_operator applies the operator to these
pieces, against which the eigenfunctions are checked; the exact oracle
that iterates the operator, exact.alpha_by_operator_iteration, runs on
integer coefficient lists of its own and shares no code with this module.

An eigenfunction is exp((A - B)x/lambda) c on every cell.  It is read off
the decomposition A - B = W T W^-1 that the transfer pair already holds for
its contour kernel (spectral.TransferPair.blocks): a block T_i = c_i I + N_i
with N_i^(p_i) = 0 contributes e^(c_i x/lambda) times a polynomial of
degree below p_i, so no eigenvalue decomposes A - B again.  Read through
an ill-conditioned W, the pieces would lose digits: when cond(W) exceeds
constants._BASIS_COND, the eigenfunctions are refused.  The eigenvalues are
not: the contour kernel uses the same W however ill-conditioned it is.

This is the per-eigenvalue route to the asymptotic constants
(eigenfunction_pieces, apply_J, polytope_integral, inner_products,
scheme_constant), one ExpPoly term list at a time.  The constants and verify
commands take the pairings of every eigenvalue from one array pass in
descentsum.constants instead, which shares with this module only its
tolerances, its refusals and asymptotic_constant; the tests hold that pass
to this route.

The module loads words and constants alone, and numpy only when an
eigenfunction is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import cmath

from .constants import (
    MU_MERGE_TOL,
    _basis_refusal,
    _window_defect,
    asymptotic_constant,
)
from .words import WeightScheme, _Frozen, all_words

# numpy is imported by eigenfunction_pieces, where it is needed
if TYPE_CHECKING:
    import numpy as np

    from .spectral import SpectralPoint, TransferPair

__all__ = [
    "ExpPoly",
    "PiecewiseFn",
    "eigenfunction_pieces",
    "apply_J",
    "polytope_integral",
    "inner_products",
    "adjoint_eigenfunction",
    "scheme_constant",
    "apply_operator",
    "kappa_piecewise",
    "mu_piecewise",
    "constant_piecewise",
]

_EXACT_TYPES = (int, Fraction)


def _div_by_int(c, d: int):
    if isinstance(c, int):
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return c / d


def _exp_of(mu):
    if mu == 0:
        return 1
    return cmath.exp(complex(mu))


def _at_one(terms: Iterable[tuple]):
    return sum((c * _exp_of(mu) for c, _, mu in terms), start=0)


def _antiderivative_terms(terms: Iterable[tuple]) -> list[tuple]:
    """The terms of the antiderivative F of a term list, F(0) = 0.

    The result is not normalized.  An int coefficient stays an int where
    the division by k + 1 is exact.
    """
    out = []
    for c, k, mu in terms:
        if mu == 0:
            out.append((_div_by_int(c, k + 1), k + 1, mu))
        else:
            # integral of x^k e^(mu x): by parts, degrees k down to 0
            for j in range(k, -1, -1):
                sign = -1 if (k - j) % 2 else 1
                ratio = factorial(k) // factorial(j)
                out.append((c * sign * ratio / mu ** (k - j + 1), j, mu))
    out.append((-sum((c for c, k, _ in out if k == 0), start=0), 0, 0))  # F(0) = 0
    return out


class ExpPoly:
    """A finite sum of terms c * x^k * exp(mu x), canonically normalized.

    Terms with equal (k, mu) are merged, zero coefficients dropped, and
    exponents closer than MU_MERGE_TOL are identified.  Coefficients and
    exponents are exact (int/Fraction) or inexact (float/complex); mixing the
    two promotes by Python's number rules (Fraction * complex is complex), so
    a polynomial built from exact terms alone stays exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()) -> None:
        by_degree: dict[int, dict] = {}  # k -> {mu: coefficient}
        for c, k, mu in terms:
            if k < 0:
                raise ValueError("degree must be nonnegative")
            if abs(mu) <= MU_MERGE_TOL and not isinstance(mu, _EXACT_TYPES):
                mu = 0  # keep near-zero exponents on the polynomial branch
            row = by_degree.setdefault(k, {})
            if mu not in row:  # exact first: equal values hash equal across types
                mu = next((kept for kept in row if abs(kept - mu) <= MU_MERGE_TOL), mu)
            row[mu] = row.get(mu, 0) + c
        self.terms = tuple(
            sorted(
                (
                    (c, k, mu)
                    for k, row in by_degree.items()
                    for mu, c in row.items()
                    if c != 0
                ),
                key=lambda t: (t[1], t[2].real, t[2].imag),
            )
        )

    # --- constructors ---

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls(())

    @classmethod
    def constant(cls, value) -> "ExpPoly":
        return cls(((value, 0, 0),))

    @classmethod
    def term(cls, coef, degree: int, mu=0) -> "ExpPoly":
        return cls(((coef, degree, mu),))

    # --- predicates ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(c, _EXACT_TYPES) and isinstance(mu, _EXACT_TYPES)
            for c, _, mu in self.terms
        )

    def max_coef(self) -> float:
        return max((abs(complex(c)) for c, _, _ in self.terms), default=0.0)

    # --- ring operations ---

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(self.terms + other.terms)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly((-c, k, mu) for c, k, mu in self.terms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def scale(self, s) -> "ExpPoly":
        if s == 0:
            return ExpPoly.zero()
        return ExpPoly((c * s, k, mu) for c, k, mu in self.terms)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(
            (c1 * c2, k1 + k2, mu1 + mu2)
            for c1, k1, mu1 in self.terms
            for c2, k2, mu2 in other.terms
        )

    # --- calculus ---

    def antiderivative(self) -> "ExpPoly":
        """The antiderivative F with F(0) = 0."""
        return ExpPoly(_antiderivative_terms(self.terms))

    def at_zero(self):
        return sum((c for c, k, _ in self.terms if k == 0), start=0)

    def at_one(self):
        return _at_one(self.terms)

    def __call__(self, x):
        total = 0
        for c, k, mu in self.terms:
            value = c * x**k
            if mu != 0:
                value *= cmath.exp(complex(mu) * x)
            total += value
        return total

    def conjugate(self) -> "ExpPoly":
        return ExpPoly((c.conjugate(), k, mu.conjugate()) for c, k, mu in self.terms)

    def reflect(self) -> "ExpPoly":
        """The composition x -> 1 - x, expanded back into ExpPoly form."""
        out = []
        for c, k, mu in self.terms:
            base = c * _exp_of(mu)
            for j in range(k + 1):
                sign = -1 if j % 2 else 1
                out.append((base * comb(k, j) * sign, j, -mu))
        return ExpPoly(out)

    # --- plumbing ---

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for c, k, mu in self.terms:
            part = f"{c}"
            if k:
                part += f"*x^{k}"
            if mu != 0:
                part += f"*e^({mu}x)"
            bits.append(part)
        return "ExpPoly(" + " + ".join(bits) + ")"


class PiecewiseFn(_Frozen):
    """One ExpPoly per descent cell, depending on one designated coordinate.

    ``which_variable`` records whether each piece is a function of the first
    or the last coordinate of its cell; the operator produces first-variable
    functions, the reflection J swaps the designation.
    """

    __slots__ = ("m", "which_variable", "pieces")
    m: int
    which_variable: str  # 'first' | 'last'
    pieces: Mapping[str, ExpPoly]

    def __init__(self, m: int, which_variable: str, pieces: Mapping[str, ExpPoly]):
        if which_variable not in ("first", "last"):
            raise ValueError("which_variable must be 'first' or 'last'")
        expected = all_words(m - 1)
        if set(pieces) != set(expected):
            raise ValueError(
                f"pieces must cover exactly the {len(expected)} words of "
                f"length {m - 1}"
            )
        self._set(m, which_variable, dict(pieces))

    def map_pieces(self, fn: Callable[[ExpPoly], ExpPoly]) -> "PiecewiseFn":
        return PiecewiseFn(
            self.m, self.which_variable, {u: fn(p) for u, p in self.pieces.items()}
        )

    def scale(self, s) -> "PiecewiseFn":
        return self.map_pieces(lambda p: p.scale(s))

    def conjugate(self) -> "PiecewiseFn":
        return self.map_pieces(lambda p: p.conjugate())

    def __add__(self, other: "PiecewiseFn") -> "PiecewiseFn":
        self._check_compatible(other)
        return PiecewiseFn(
            self.m,
            self.which_variable,
            {u: p + other.pieces[u] for u, p in self.pieces.items()},
        )

    def __sub__(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self + other.scale(-1)

    def _check_compatible(self, other: "PiecewiseFn") -> None:
        if self.m != other.m or self.which_variable != other.which_variable:
            raise ValueError("piecewise functions are not compatible")

    def max_coef(self) -> float:
        return max(p.max_coef() for p in self.pieces.values())


def constant_piecewise(m: int, value, which_variable: str = "first") -> PiecewiseFn:
    return PiecewiseFn(
        m, which_variable, {u: ExpPoly.constant(value) for u in all_words(m - 1)}
    )


def kappa_piecewise(scheme: WeightScheme) -> PiecewiseFn:
    """The initial-weight function: wt1(u) on cell P_u, first-variable."""
    return PiecewiseFn(
        scheme.m,
        "first",
        {u: ExpPoly.constant(scheme.wt1[u]) for u in all_words(scheme.m - 1)},
    )


def mu_piecewise(scheme: WeightScheme) -> PiecewiseFn:
    """The final-weight function: wt2(u) on cell P_u, last-variable."""
    return PiecewiseFn(
        scheme.m,
        "last",
        {u: ExpPoly.constant(scheme.wt2[u]) for u in all_words(scheme.m - 1)},
    )


def eigenfunction_pieces(
    pair: TransferPair, lam: complex, vector: np.ndarray
) -> PiecewiseFn:
    """The eigenfunction exp((A-B)/lambda * x) @ c, one ExpPoly per cell.

    It is read off the pair's decomposition A - B = W T W^-1
    (TransferPair.blocks), whose block T_i = c_i I + N_i has N_i^(p_i) = 0.
    With y = W^-1 c, W_i the columns of W and y_i the entries of y in
    block i,

        exp((A-B)x/lambda) c
            = sum_i e^(c_i x/lambda) sum_{j<p_i} x^j W_i N_i^j y_i / (lambda^j j!)

    so each block gives the exponent c_i/lambda with a polynomial of degree
    below p_i.  ValueError refuses a basis with cond(W) above
    constants._BASIS_COND, through which the pieces would lose digits, and
    names cond(W).
    """
    import numpy as np

    if lam == 0:
        raise ValueError("lambda must be nonzero")
    d = pair.dim
    c = np.asarray(vector, dtype=complex)
    if c.shape != (d,):
        raise ValueError(f"vector must have shape ({d},)")
    refusal = _basis_refusal(pair)
    if refusal is not None:
        raise ValueError(refusal)
    blocks = pair.blocks
    p = len(blocks.powers)
    scale = np.array([lam**j * factorial(j) for j in range(p)])
    Ny = blocks.powers @ (blocks.Winv @ c) / scale[:, None]  # N^j y/(lambda^j j!)
    terms: list[list[tuple]] = [[] for _ in range(d)]  # per cell
    for i, centre in enumerate(blocks.centre):
        inside = blocks.label == i
        coefs = Ny[:, inside] @ blocks.W[:, inside].T  # (p, d); zero for j >= p_i
        for (j, cell), coef in np.ndenumerate(coefs):
            terms[cell].append((complex(coef), j, complex(centre / lam)))
    cells = dict(zip(all_words(pair.m - 1), map(ExpPoly, terms)))
    return PiecewiseFn(pair.m, "first", cells)


def apply_J(f: PiecewiseFn) -> PiecewiseFn:
    """The reflection (Jf)(x_1,...,x_m) = f(1-x_m, ..., 1-x_1) on pieces.

    The point map sends cell P_u onto P_{reversed u} (reversing coordinate
    order and complementing values cancel on the descent word), so the piece
    of Jf on P_u is the piece of f on P_{reversed u} composed with x -> 1-x,
    and a first-variable function becomes a last-variable one (and back).
    """
    flipped = "last" if f.which_variable == "first" else "first"
    return PiecewiseFn(
        f.m,
        flipped,
        {u: f.pieces[u[::-1]].reflect() for u in f.pieces},
    )


def polytope_integral(u: str, f: ExpPoly, g: ExpPoly):
    """Integral over the cell P_u of f(x_1) * g(x_m), in closed form.

    Coordinates are integrated innermost-out: x_m runs over [x_{m-1}, 1] when
    u ends in a and [0, x_{m-1}] when it ends in b, and so on down to x_1
    over [0, 1].  Exact Fraction arithmetic survives when both factors are
    rational polynomials.  The iterated antiderivatives stay plain term
    lists, unmerged; an exponent of the product f * cur within MU_MERGE_TOL
    of 0 is taken as 0, as ExpPoly takes it.
    """
    if any(ch not in "ab" for ch in u):
        raise ValueError(f"word {u!r} has letters outside {{a, b}}")
    cur = g.terms
    for letter in reversed(u):
        F = _antiderivative_terms(cur)
        if letter == "a":  # F(1) - F
            cur = [(-c, k, mu) for c, k, mu in F]
            cur.append((_at_one(F), 0, 0))
        else:
            cur = F
    product = []
    for c1, k1, mu1 in f.terms:
        for c2, k2, mu2 in cur:
            mu = mu1 + mu2
            if abs(mu) <= MU_MERGE_TOL and not isinstance(mu, _EXACT_TYPES):
                mu = 0
            product.append((c1 * c2, k1 + k2, mu))
    return _at_one(_antiderivative_terms(product))


def _pairing(first_fn: PiecewiseFn, last_fn: PiecewiseFn):
    total = 0
    for u in all_words(first_fn.m - 1):
        total += polytope_integral(u, first_fn.pieces[u], last_fn.pieces[u])
    return total


def inner_products(
    phi: PiecewiseFn,
    psi: PiecewiseFn,
    kappa: PiecewiseFn,
    mu: PiecewiseFn,
) -> tuple[complex, complex, complex]:
    """The three pairings (<phi, mu>, <kappa, conj(psi)>, <phi, conj(psi)>).

    The inner product is integral of f times the conjugate of g.  Since the
    second slots hold mu and the already-conjugated adjoint eigenfunction,
    the integrands work out to phi*conj(mu), kappa*psi, and phi*psi.
    """
    return (
        _pairing(phi, mu.conjugate()),
        _pairing(kappa, psi),
        _pairing(phi, psi),
    )


def adjoint_eigenfunction(scheme: WeightScheme, phi: PiecewiseFn) -> PiecewiseFn:
    """The adjoint eigenfunction psi = J(phi).

    Valid only when the window weights are symmetric under word reversal
    (then J conjugates the operator into its adjoint; the boundary weights
    play no part in the operator); any other scheme is refused with a
    diagnostic naming the offending weight pair.
    """
    defect = _window_defect(scheme)
    if defect is not None:
        raise ValueError(
            "adjoint eigenfunctions via the J reflection need a "
            f"reversal-symmetric scheme: {defect}"
        )
    return apply_J(phi)


def scheme_constant(
    scheme: WeightScheme, pair: TransferPair, point: SpectralPoint
) -> tuple[complex, tuple[complex, complex, complex]]:
    """One eigenvalue's asymptotic constant and the three pairings behind it.

    The eigenfunction phi of point.vector, its adjoint psi = J(phi), the
    pairings (<phi, mu>, <kappa, conj(psi)>, <phi, conj(psi)>) with the
    scheme's boundary weight functions kappa and mu, and their ratio, for
    the scheme's transfer pair.  Raises ValueError when the window weights
    are not reversal-symmetric, the basis of the pair's decomposition is
    ill-conditioned (see eigenfunction_pieces), or the denominator pairing
    vanishes.  The boundary weights enter the pairings as floats, so no
    Fraction meets a complex coefficient there.
    """
    phi = eigenfunction_pieces(pair, point.lam, point.vector)
    psi = adjoint_eigenfunction(scheme, phi)
    kappa, mu = kappa_piecewise(scheme).scale(1.0), mu_piecewise(scheme).scale(1.0)
    pairings = inner_products(phi, psi, kappa, mu)
    return asymptotic_constant(*pairings), pairings


def apply_operator(scheme: WeightScheme, f: PiecewiseFn) -> PiecewiseFn:
    """One application of the weighted descent operator T.

    On the cell P_w (w = uy) the result is
    wt(a u y) * integral_0^{x_1} f|_{P_{au}} + wt(b u y) * integral_{x_1}^1 f|_{P_{bu}},
    a function of the first coordinate again, with au = (aw)[:m-1] and
    bu = (bw)[:m-1] (the empty word at m = 1).  Exact on rational inputs.
    The antiderivatives stay term lists, so each output piece is the one
    ExpPoly the step builds.
    """
    if f.which_variable != "first":
        raise ValueError("operator input must be a first-variable function")
    m = scheme.m
    if f.m != m:
        raise ValueError("dimension mismatch between scheme and function")
    F = {u: _antiderivative_terms(piece.terms) for u, piece in f.pieces.items()}
    pieces: dict[str, ExpPoly] = {}
    for w in all_words(m - 1):
        Fa, Fb = F[("a" + w)[: m - 1]], F[("b" + w)[: m - 1]]
        wa, wb = scheme.wt["a" + w], scheme.wt["b" + w]
        terms = [(c * wa, k, mu) for c, k, mu in Fa] if wa else []
        if wb:  # wb * (Fb(1) - Fb)
            terms += [(-c * wb, k, mu) for c, k, mu in Fb]
            terms.append((wb * _at_one(Fb), 0, 0))
        pieces[w] = ExpPoly(terms)
    return PiecewiseFn(m, "first", pieces)
