"""Independent references that every benchmark job is checked against.

Nothing here imports descentsum.  The weight schemes are re-read from their
text, the transfer pair is rebuilt from its defining formula, gamma is taken
from scipy.linalg.expm rather than the program's own exponential, and the
exact counts come from closed forms or from a plain itertools enumeration.

Eigenvalue completeness uses the argument principle (Delves & Lyness, Math.
Comp. 21, 1967).  With z = 1/lambda the function

    f(z) = det(I - z B gamma(z (A - B)))

is entire, and equals det_P(lambda) / (-lambda)^d.  Its zeros inside
|z| < 1/r are therefore exactly the eigenvalues with |lambda| > r, and the
winding number of f on that circle counts them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
from scipy.linalg import expm

# The built-in schemes of the program, restated so the references do not
# read them from the program.
PRESET_TEXT = {
    "sec5-1": "m = 3\nwt aaa = 0\nwt bbb = 0\n",
    "sec5-2": "m = 3\nwt aba = 0\nwt bab = 0\n",
    "sec6": "m = 2\nwt aa = 0\nwt bb = 2\n",
    "no-peaks": "m = 2\nwt ab = 0\n",
    "alternating": "m = 2\nwt aa = 0\nwt bb = 0\n",
    "all-ones": "m = 2\n",
}


class Scheme:
    """Window weights wt, boundary weights wt1/wt2; unlisted words weigh 1."""

    def __init__(self, m: int, wt=None, wt1=None, wt2=None):
        self.m = m
        self.wt = {w: Fraction(1) for w in words(m)}
        self.wt1 = {w: Fraction(1) for w in words(m - 1)}
        self.wt2 = {w: Fraction(1) for w in words(m - 1)}
        for table, given in ((self.wt, wt), (self.wt1, wt1), (self.wt2, wt2)):
            for w, v in (given or {}).items():
                if w not in table:
                    raise ValueError(f"word {w!r} has the wrong length for m = {m}")
                table[w] = Fraction(v)

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        m = None
        tables: dict[str, dict[str, Fraction]] = {"wt": {}, "wt1": {}, "wt2": {}}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "m":
                m = int(value)
                continue
            name, _, word = key.partition(" ")
            tables[name][word.strip()] = Fraction(value)
        if m is None:
            raise ValueError("scheme text has no 'm = ' line")
        return cls(m, **tables)

    def text(self) -> str:
        lines = [f"m = {self.m}"]
        for name in ("wt", "wt1", "wt2"):
            for w, v in getattr(self, name).items():
                if v != 1:
                    lines.append(f"{name} {w} = {v}")
        return "\n".join(lines) + "\n"


def preset(name: str) -> Scheme:
    return Scheme.parse(PRESET_TEXT[name])


def words(length: int) -> list[str]:
    return ["".join(t) for t in product("ab", repeat=length)]


# --- exact counts ---


def _word_weight(s: Scheme, u: str) -> Fraction:
    m = s.m
    value = s.wt1[u[: m - 1]] * s.wt2[u[len(u) - m + 1 :] if m > 1 else ""]
    for i in range(len(u) - m + 1):
        value *= s.wt[u[i : i + m]]
    return value


def enumerate_alpha(s: Scheme, n: int) -> Fraction:
    """alpha_n by listing S_n with itertools; n <= 8 keeps it under a second."""
    if not s.m <= n <= 8:
        raise ValueError(f"enumeration is for m <= n <= 8, got n = {n}")
    cache: dict[str, Fraction] = {}
    total = Fraction(0)
    for p in permutations(range(n)):
        u = "".join("a" if p[i] < p[i + 1] else "b" for i in range(n - 1))
        if u not in cache:
            cache[u] = _word_weight(s, u)
        total += cache[u]
    return total


def zigzag(n: int) -> int:
    """Euler zigzag number E_n by the boustrophedon (Seidel) triangle."""
    row = [1]
    for _ in range(n):
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def sec6_total(n: int) -> int:
    """t_2 = 2 and t_n = n t_(n-1) + 1 + (-1)^n."""
    t = 2
    for k in range(3, n + 1):
        t = k * t + 1 + (-1) ** k
    return t


def derangement(n: int) -> int:
    """D_n = n D_(n-1) + (-1)^n, D_0 = 1."""
    d = 1
    for k in range(1, n + 1):
        d = k * d + (-1) ** k
    return d


CLOSED_FORMS = {
    "all-ones": math.factorial,
    "no-peaks": lambda n: 2 ** (n - 1),
    "alternating": lambda n: 2 * zigzag(n),
    "sec6": sec6_total,
}


# --- spectra ---

# eigenvalue -> asymptotic constant, where both are known in closed form
KNOWN_CONSTANTS = {
    "alternating": {2 / math.pi: 4 * (2 / math.pi) ** 3, -2 / math.pi: 0.0},
    "sec6": {1.0: math.e - 2 + 1 / math.e},
    "all-ones": {1.0: 1.0},
}


def alternating_eigenvalues(r: float) -> list[float]:
    """+-2/((2k+1) pi) above modulus r."""
    out = []
    k = 0
    while 2 / ((2 * k + 1) * math.pi) > r:
        out += [2 / ((2 * k + 1) * math.pi), -2 / ((2 * k + 1) * math.pi)]
        k += 1
    return out


def transfer(s: Scheme) -> tuple[np.ndarray, np.ndarray]:
    """A[uy, au] = wt(auy), B[uy, bu] = wt(buy) over the words of length m-1."""
    if s.m == 1:
        return np.array([[float(s.wt["a"])]]), np.array([[float(s.wt["b"])]])
    index = {w: i for i, w in enumerate(words(s.m - 1))}
    d = len(index)
    A, B = np.zeros((d, d)), np.zeros((d, d))
    for w, i in index.items():
        A[i, index["a" + w[:-1]]] = float(s.wt["a" + w])
        B[i, index["b" + w[:-1]]] = float(s.wt["b" + w])
    return A, B


def f_values(A: np.ndarray, B: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """f(z) = det(I - z B gamma(z (A - B))) for every z, via scipy's expm.

    gamma(M) is the top-right block of exp([[M, I], [0, 0]]).
    """
    return np.linalg.det(_f_matrices(A, B, zs))


def _f_matrices(A: np.ndarray, B: np.ndarray, zs) -> np.ndarray:
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    d = A.shape[0]
    block = np.zeros((2 * d, 2 * d), dtype=complex)
    block[:d, d:] = np.eye(d)
    out = np.empty((len(zs), d, d), dtype=complex)
    for i, z in enumerate(zs):
        # one matrix at a time: scipy's batched expm is many times slower
        block[:d, :d] = z * (A - B)
        out[i] = np.eye(d) - z * (B @ expm(block)[:d, d:])
    return out


def winding_count(A: np.ndarray, B: np.ndarray, r: float, points: int) -> int:
    """Zeros of f inside |z| < 1/r, from the phase change of f on the circle."""
    zs = np.exp(2j * np.pi * np.arange(points + 1) / points) / r
    phase = np.unwrap(np.angle(f_values(A, B, zs)))
    return int(round((phase[-1] - phase[0]) / (2 * np.pi)))


def eigenvalue_count(A: np.ndarray, B: np.ndarray, r: float, points: int = 512) -> int:
    """Eigenvalues with |lambda| > r, certified by a stable winding number.

    The count must not change when the contour points double; if it does,
    the circle is undersampled and ValueError says so.
    """
    coarse = winding_count(A, B, r, points)
    fine = winding_count(A, B, r, 2 * points)
    if coarse != fine:
        raise ValueError(
            f"winding number at r = {r} is not stable: {coarse} with {points} "
            f"points, {fine} with {2 * points}"
        )
    return fine


def root_offsets(A: np.ndarray, B: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """How far each lambda is from a zero of f, and how far f can tell.

    Returns (offset, resolution), both relative to |lambda|.  offset is the
    size of one Newton step on f; a root printed to 12 significant digits
    is off by about 1e-12.  resolution is the first-order error of f in
    float64 carried into a step: a perturbation eps * sigma_1 of the matrix
    moves its determinant by eps * sigma_1 * (sigma_1 ... sigma_(d-1)).  At
    small |lambda| the exponential makes sigma_1 huge, and no step below the
    resolution means anything.
    """
    z = 1 / np.asarray(lams, dtype=complex)
    h = 1e-6 * np.abs(z)
    vals = f_values(A, B, np.concatenate([z, z + h, z - h])).reshape(3, -1)
    deriv = np.abs((vals[1] - vals[2]) / (2 * h))
    sing = np.linalg.svd(_f_matrices(A, B, z), compute_uv=False)
    noise = np.finfo(float).eps * sing[:, 0] * np.prod(sing[:, :-1], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(vals[0] == 0, 0.0, np.abs(vals[0]) / deriv / np.abs(z))
        resolution = noise / deriv / np.abs(z)
    return offset, resolution
