"""Dense complex linear algebra helpers sized for small transfer matrices.

Matrices are numpy arrays of complex128, dense, capped at 64x64.  The two
hand-rolled routines are the matrix exponential and gamma(M) = sum_k
M^k/(k+1)!, the integral of exp(M t) over t in [0, 1].  Both come from one
scaling and squaring with a fixed-degree Taylor evaluation, and both accept a
single matrix or a stack of them with shape (..., d, d).  Determinants and
nullspaces delegate to LAPACK via numpy (LU with partial pivoting, SVD).
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 64
_EXP_NORM_LIMIT = 700.0  # exp overflows float64 shortly above e^709
_TAYLOR_DEGREE = 18
_JORDAN_TOL = 1e-8

__all__ = ["mat_exp", "gamma", "det", "nullspace_vector", "invariant_subspaces"]


def _as_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {M.shape}"
        )
    if M.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {M.shape[-1]} exceeds the cap {MAX_DIM}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def _exp_and_gamma(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(M) and gamma(M) by coupled scaling and squaring.

    Each matrix is scaled by 2^-s so its 1-norm is at most 1/2, both series
    are summed to degree 18 (giving ~1e-16 truncation at that norm), and the
    pair is doubled s times by E(2X) = E(X)^2, G(2X) = (I + E(X)) G(X) / 2.
    Raises OverflowError when exp(M) cannot be represented in float64.
    """
    M = _as_square(M)
    norms = np.linalg.norm(M, 1, axis=(-2, -1))
    worst = float(np.max(norms, initial=0.0))
    if worst > _EXP_NORM_LIMIT:
        raise OverflowError(
            f"matrix 1-norm {worst:.3g} exceeds the exp overflow bound "
            f"{_EXP_NORM_LIMIT:.0f}"
        )
    s = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    X = M / (2.0**s)[..., None, None]
    eye = np.eye(M.shape[-1], dtype=complex)
    E, G, term = eye, eye, eye
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = term @ X / k
        E = E + term
        G = G + term / (k + 1)
    for step in range(int(np.max(s, initial=0))):
        doubling = (s > step)[..., None, None]
        G = np.where(doubling, (eye + E) @ G / 2, G)
        E = np.where(doubling, E @ E, E)
    return E, G


def mat_exp(M: np.ndarray) -> np.ndarray:
    """exp(M) of a square matrix, or of each matrix in a (..., d, d) stack.

    Raises OverflowError when exp(M) cannot be represented in float64.
    """
    return _exp_and_gamma(M)[0]


def gamma(M: np.ndarray) -> np.ndarray:
    """gamma(M) = sum_k M^k / (k+1)!, i.e. the integral of exp(M t) on [0, 1].

    Accepts a square matrix or a (..., d, d) stack.  Needs no invertibility
    assumption, and satisfies M @ gamma(M) = exp(M) - I.
    """
    return _exp_and_gamma(M)[1]


def det(M: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting."""
    return complex(np.linalg.det(_as_square(M)))


def nullspace_vector(M: np.ndarray, tol: float | None = None) -> np.ndarray:
    """A unit vector spanning the (numerical) nullspace of M.

    The smallest singular value must fall below tol (default 1e-8 * ||M||),
    otherwise ValueError reports the gap.  The returned right singular vector
    has unit 2-norm and its largest-modulus entry rotated to be real positive,
    which pins the sign/phase deterministically.
    """
    M = _as_square(M)
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.linalg.norm(M, 1)))
    _, sing, vh = np.linalg.svd(M)
    smallest = float(sing[-1]) if len(sing) else 0.0
    if smallest >= tol:
        raise ValueError(
            f"matrix is not singular at tolerance {tol:.3g} "
            f"(smallest singular value {smallest:.3g})"
        )
    v = vh[-1].conj()
    j = int(np.argmax(np.abs(v)))
    phase = v[j] / abs(v[j])
    v = v / phase
    return v / np.linalg.norm(v)


def invariant_subspaces(
    M: np.ndarray, tol: float
) -> tuple[list[tuple[complex, int]], np.ndarray]:
    """The generalized eigenspaces of M, one per cluster of its eigenvalues.

    Eigenvalues within tol of each other, transitively, form one cluster (a
    defective eigenvalue, split by rounding, is one cluster).  Returns the
    clusters as (mean, multiplicity), sorted by real then imaginary part,
    and a matrix whose consecutive column blocks span the null spaces of
    (M - mean I)^multiplicity.  Raises ValueError when such a null space
    does not have the cluster's dimension at tolerance 1e-8.
    """
    M = _as_square(M)
    d = M.shape[0]
    groups: list[list[complex]] = []
    for z in sorted(map(complex, np.linalg.eigvals(M)), key=lambda z: (z.real, z.imag)):
        near = [g for g in groups if any(abs(z - w) <= tol for w in g)]
        groups = [g for g in groups if all(g is not h for h in near)]
        groups.append([w for g in near for w in g] + [z])
    clusters = sorted(
        ((complex(sum(g) / len(g)), len(g)) for g in groups),
        key=lambda t: (t[0].real, t[0].imag),
    )
    bases = []
    for rep, mult in clusters:
        _, sing, vh = np.linalg.svd(np.linalg.matrix_power(M - rep * np.eye(d), mult))
        found = int(np.sum(sing <= _JORDAN_TOL * max(1.0, float(sing[0]))))
        if found != mult:
            raise ValueError(
                f"failed to classify the generalized eigenspace at eigenvalue "
                f"{rep:.6g} (tolerance {_JORDAN_TOL:g}): multiplicity {mult}, "
                f"kernel dimension {found}"
            )
        bases.append(vh[d - mult :].conj().T)
    return clusters, np.hstack(bases)
