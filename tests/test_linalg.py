"""Matrix exponential, the gamma block transform, and nullspace extraction."""

import math

import numpy as np
import pytest

from descentsum import det, gamma, mat_exp, nullspace_vector
from descentsum.linalg import MAX_DIM


def random_matrix(rng, d, scale=1.0, complex_entries=True):
    M = rng.standard_normal((d, d)) * scale
    if complex_entries:
        M = M + 1j * rng.standard_normal((d, d)) * scale
    return M


def exp_by_series(M, terms=60):
    out = np.eye(M.shape[0], dtype=complex)
    acc = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        acc = acc @ M / k
        out = out + acc
    return out


def test_mat_exp_known_values():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))
    D = np.diag([1.0, -2.0, 0.5])
    assert np.allclose(mat_exp(D), np.diag(np.exp([1.0, -2.0, 0.5])), atol=1e-14)
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(mat_exp(N), [[1, 1], [0, 1]], atol=1e-15)


def test_mat_exp_matches_series():
    rng = np.random.default_rng(7)
    for d in (1, 2, 4, 6):
        M = random_matrix(rng, d)
        assert np.allclose(mat_exp(M), exp_by_series(M), atol=1e-12)


def test_mat_exp_scaling_path():
    # norm far above the series radius exercises repeated squaring
    rng = np.random.default_rng(11)
    M = random_matrix(rng, 3, scale=8.0, complex_entries=False)
    E = mat_exp(M)
    assert np.allclose(E @ E, mat_exp(2 * M), rtol=1e-9, atol=1e-9)


def test_mat_exp_group_law_on_commuting_matrices():
    rng = np.random.default_rng(3)
    M = random_matrix(rng, 4)
    assert np.allclose(mat_exp(M) @ mat_exp(-M), np.eye(4), atol=1e-12)


def test_mat_exp_overflow_and_validation():
    with pytest.raises(OverflowError):
        mat_exp(np.array([[800.0]]))
    with pytest.raises(ValueError):
        mat_exp(np.ones((2, 3)))
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        mat_exp(np.eye(MAX_DIM + 1))


def test_gamma_scalar_case():
    # 1x1: gamma(mu) = (e^mu - 1)/mu, with the mu -> 0 limit equal to 1
    for mu in (0.7, -1.3, 2.0 + 1.0j):
        g = gamma(np.array([[mu]]))[0, 0]
        assert abs(g - (np.exp(mu) - 1) / mu) < 1e-12
    assert np.allclose(gamma(np.zeros((1, 1))), [[1.0]])
    assert np.allclose(gamma(np.zeros((4, 4))), np.eye(4))


def test_gamma_functional_identity():
    # M @ gamma(M) = e^M - I, including singular and nilpotent M
    rng = np.random.default_rng(20260818)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        M = random_matrix(rng, d, scale=float(rng.uniform(0.1, 1.0)))
        lhs = M @ gamma(M)
        rhs = mat_exp(M) - np.eye(d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    N = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert np.allclose(N @ gamma(N), mat_exp(N) - np.eye(2), atol=1e-14)


def test_gamma_functional_identity_large_norm():
    # larger matrices only satisfy the identity relative to their own scale
    rng = np.random.default_rng(99)
    M = random_matrix(rng, 6, scale=3.0)
    lhs = M @ gamma(M)
    rhs = mat_exp(M) - np.eye(6)
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_gamma_at_the_dimension_cap():
    rng = np.random.default_rng(64)
    M = random_matrix(rng, MAX_DIM, scale=1.0 / MAX_DIM)
    lhs = M @ gamma(M)
    rhs = mat_exp(M) - np.eye(MAX_DIM)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stacks_match_single_matrices():
    # a (..., d, d) stack gives exactly what each matrix gives alone
    rng = np.random.default_rng(17)
    stack = np.array([random_matrix(rng, 4, scale=s) for s in (0.1, 1.0, 5.0)])
    stack = stack.reshape(3, 1, 4, 4)
    for fn in (mat_exp, gamma):
        out = fn(stack)
        assert out.shape == stack.shape
        for i in range(3):
            assert np.array_equal(out[i, 0], fn(stack[i, 0]))
    with pytest.raises(OverflowError):
        mat_exp(np.array([np.eye(2), 800.0 * np.eye(2)]))


def test_gamma_matches_integral_series():
    # gamma(M) = sum M^k/(k+1)!
    rng = np.random.default_rng(5)
    M = random_matrix(rng, 3)
    expected = np.zeros((3, 3), dtype=complex)
    acc = np.eye(3, dtype=complex)
    for k in range(40):
        expected += acc / math.factorial(k + 1)
        acc = acc @ M
    assert np.allclose(gamma(M), expected, atol=1e-12)


def test_det_matches_numpy():
    rng = np.random.default_rng(13)
    for d in (1, 3, 5):
        M = random_matrix(rng, d)
        assert abs(det(M) - np.linalg.det(M)) < 1e-10 * max(1.0, abs(np.linalg.det(M)))


def test_nullspace_vector_basic():
    M = np.array([[1.0, -1.0], [2.0, -2.0]])
    v = nullspace_vector(M)
    assert np.linalg.norm(M @ v) < 1e-12
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_nullspace_vector_phase_convention():
    # the largest-modulus entry comes out real and positive
    M = np.array([[1.0, -1.0], [2.0, -2.0]]) * (0.3 + 0.4j)
    v = nullspace_vector(M)
    i = int(np.argmax(np.abs(v)))
    assert abs(v[i].imag) < 1e-12
    assert v[i].real > 0


def test_nullspace_vector_rejects_nonsingular():
    with pytest.raises(ValueError, match="singular value"):
        nullspace_vector(np.eye(3))


def test_nullspace_vector_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(7)
    stack = []
    for _ in range(3):  # rank 3 of 4: a one-dimensional nullspace
        M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        stack.append(M @ (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))))
    vectors = nullspace_vector(np.array(stack))
    assert vectors.shape == (3, 4)
    for M, v in zip(stack, vectors):
        assert np.allclose(v, nullspace_vector(M), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="singular value"):
        nullspace_vector(np.array([stack[0], np.eye(4)]))


def test_nullspace_vector_tol_override():
    M = np.diag([1.0, 1e-6])
    with pytest.raises(ValueError):
        nullspace_vector(M)
    v = nullspace_vector(M, tol=1e-3)
    assert abs(abs(v[1]) - 1.0) < 1e-12
