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
_NILPOTENT_TOL = 1e-12  # relative size of a change of a block that counts as rounding

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


def nullspace_vector(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors v and l spanning the (numerical) right and left
    nullspaces of M, M v = 0 and l^T M = 0, or of each matrix in a
    (..., d, d) stack, each with shape (..., d).

    The smallest singular value must fall below 1e-8 * max(1, ||M||_1),
    otherwise ValueError reports the gap.  Both come from the one SVD, the
    conjugates of its last right and left singular vectors, with unit 2-norm
    and their largest-modulus entry rotated to be real positive, which pins
    the sign/phase deterministically.
    """
    M = _as_square(M)
    tol = 1e-8 * np.maximum(1.0, np.linalg.norm(M, 1, axis=(-2, -1)))
    u, sing, vh = np.linalg.svd(M)
    smallest = sing[..., -1]
    if (smallest >= tol).any():
        i = np.argmax(smallest >= tol)
        raise ValueError(
            f"matrix is not singular at tolerance {tol.flat[i]:.3g} "
            f"(smallest singular value {smallest.flat[i]:.3g})"
        )
    both = np.stack([vh[..., -1, :], u[..., :, -1]]).conj()
    j = np.argmax(np.abs(both), axis=-1)[..., None]
    phase = np.take_along_axis(both, j, axis=-1)
    both = both / (phase / np.abs(phase))
    v, l = both / np.linalg.norm(both, axis=-1, keepdims=True)
    return v, l


def invariant_subspaces(
    M: np.ndarray, tol: float
) -> list[tuple[complex, np.ndarray, list[np.ndarray]]]:
    """The generalized eigenspaces of M, each with the nilpotent part of M on it.

    Eigenvalues within tol of each other, transitively, form a cluster (a
    defective eigenvalue, split by rounding, is one cluster).  A cluster of
    k eigenvalues with mean r spans the null space V of (M - rI)^k, on which
    M acts as T = V^H M V = cI + N: the centre c is 0 when k > 1 and
    |r| <= tol, tr(T)/k otherwise.  A cluster whose null space does not
    have dimension k at _JORDAN_TOL, or whose N is not nilpotent (see
    _nilpotent_powers), is several eigenvalues, not one Jordan structure:
    it is split into its eigenvalues, each a 1 x 1 cluster with N = 0.

    Returns (c, V, [N, ..., N^(p-1)]) per cluster, p the nilpotency index of
    N, V with orthonormal columns, in the order of the real then imaginary
    part of the cluster means (a split cluster's eigenvalues take its place).
    """
    M = _as_square(M)
    groups: list[list[complex]] = []
    for z in sorted(map(complex, np.linalg.eigvals(M)), key=lambda z: (z.real, z.imag)):
        near = [g for g in groups if any(abs(z - w) <= tol for w in g)]
        groups = [g for g in groups if all(g is not h for h in near)]
        groups.append([w for g in near for w in g] + [z])
    spaces = []
    for g in sorted(groups, key=lambda g: (sum(g).real / len(g), sum(g).imag / len(g))):
        space = _space(M, g, tol)
        spaces += [_space(M, [z], tol) for z in g] if space[2] is None else [space]
    return spaces


def _space(
    M: np.ndarray, group: list[complex], tol: float
) -> tuple[complex, np.ndarray, list[np.ndarray] | None]:
    """(c, V, powers of N) for one cluster, the powers None when it fails a
    test of invariant_subspaces; a 1 x 1 cluster passes both."""
    d, k, rep = M.shape[0], len(group), complex(sum(group) / len(group))
    _, sing, vh = np.linalg.svd(np.linalg.matrix_power(M - rep * np.eye(d), k))
    V = vh[d - k :].conj().T
    T = V.conj().T @ M @ V
    centre = 0j if k > 1 and abs(rep) <= tol else complex(np.trace(T)) / k
    if k > 1 and np.sum(sing <= _JORDAN_TOL * max(1.0, float(sing[0]))) != k:
        return centre, V, None
    N = T - centre * np.eye(k)
    return centre, V, _nilpotent_powers(N, float(np.linalg.norm(M, 1)))


def _nilpotent_powers(N: np.ndarray, scale: float) -> list[np.ndarray] | None:
    """[N, ..., N^(p-1)] for the nilpotency index p of N, or None.

    p is the first power with ||N^p||_1 <= _NILPOTENT_TOL scale ||N||_1^(p-1):
    N^p is no larger than a change of N by _NILPOTENT_TOL scale, the
    rounding level of a block of a matrix of norm scale, can make it.  None
    when no p up to the size of N qualifies.
    """
    norm, powers = np.linalg.norm(N, 1), [np.eye(len(N))]
    while len(powers) <= len(N):
        power = powers[-1] @ N
        bound = _NILPOTENT_TOL * scale * norm ** (len(powers) - 1)
        if np.linalg.norm(power, 1) <= bound:
            return powers[1:]
        powers.append(power)
    return None
