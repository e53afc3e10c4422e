"""A fixed reference job: the benchmark's yardstick of machine speed.

    python3 benchmark/refjob.py

It imports nothing from descentsum and does the same kinds of work as the
jobs, in a fresh interpreter: the numpy import, small-matrix numpy calls
whose cost is interpreter overhead (as in det_P on 4x4 pairs), dense
32x32 complex products (as at m = 6) and exact Fraction and big-integer
sums (as in the DP).  Its work never changes, so on a shared machine its
wall time follows the machine's speed, and run.py scales the jobs' times by
it (see README, "Noise controls").
"""

from fractions import Fraction

import numpy as np

SMALL_CALLS = 4000
DENSE_PRODUCTS = 1000
EXACT_TERMS = 1300


def small_matrices() -> complex:
    a = np.array([[0.3, 0.1, 0, 0.2], [0.1, 0.2, 0.3, 0], [0, 0.3, 0.1, 0.1], [0.2, 0, 0.1, 0.4]])
    eye = np.eye(4)
    acc = 0j
    for k in range(SMALL_CALLS):
        x = (0.3 + 1e-4 * k + 0.2j) * a
        e = eye + x + x @ x / 2 + x @ x @ x / 6
        acc += np.linalg.det(eye - e @ a)
    return acc


def dense_products() -> complex:
    rng = np.random.default_rng(0)
    m = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / 32
    p = np.eye(32, dtype=complex)
    for _ in range(DENSE_PRODUCTS):
        p = m @ p
        p /= np.abs(p).max()
    return p.trace()


def exact_sums() -> Fraction:
    total, term = Fraction(0), Fraction(1)
    for k in range(1, EXACT_TERMS):
        term = term * Fraction(2 * k + 1, 3 * k + 2)
        total += term * k
    return total


if __name__ == "__main__":
    small_matrices()
    dense_products()
    exact_sums()
