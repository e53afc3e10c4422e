"""Exact rational computations of weighted descent-pattern sums.

The central quantity is alpha_n: the sum of Wt(pi) over all pi in S_n, where
Wt multiplies the scheme's window weights along the descent word of pi (with
wt1 on the leading m-1 letters and wt2 on the trailing m-1 letters).  This
module holds the three exact routes used to cross-check everything else:
brute-force enumeration over S_n, grouped by descent word; de Bruijn's
prefix-sum recurrence (dp_alpha), which keeps one list of weights over the
ranks of the last entry per descent-word suffix; and operator iteration
(alpha_by_operator_iteration), which applies the weighted descent operator
to polynomials on the cells of the cube [0,1]^m and pairs the result with
the final weights.  The DP and operator iteration add and multiply Python
ints only: each scales the weight tables by the lcms of their denominators,
by code of its own, and divides the integer total once, at the end, by the
power of those lcms that a permutation of length n collects.  Brute force
sums the Fraction weights unscaled.  No route is written in terms of
another, and none uses expfun's float calculus.  Each route takes only
(scheme, n): a count restricted to a first or last descent letter is the
count of the scheme with its boundary weights zeroed off that letter
(words.restrict_ends).  The closed forms of the scheme with wt(aa) = 0,
wt(bb) = 2 are in sec6.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import factorial, lcm
from operator import gt
from typing import Iterator, Sequence

from .words import WeightScheme, _Frozen, descent_word

BRUTE_FORCE_CAP = 10

__all__ = [
    "BRUTE_FORCE_CAP",
    "WeightedCount",
    "wt_of_permutation",
    "brute_force_alpha",
    "brute_force_alpha_direct",
    "dp_alpha",
    "alpha_by_operator_iteration",
]


class WeightedCount(_Frozen):
    """An exact weighted permutation count for one n."""

    __slots__ = ("n", "value")
    n: int
    value: Fraction

    def __init__(self, n: int, value: Fraction) -> None:
        self._set(n, Fraction(value))


def wt_of_permutation(scheme: WeightScheme, pi: Sequence[int]) -> Fraction:
    """Weight of one permutation under the scheme.

    The descent word u of pi has length n - 1.  For n > m the weight is
    wt1(prefix) * product of wt over all length-m windows of u * wt2(suffix);
    for n = m the window product is empty and the weight is wt1(u) * wt2(u).
    Permutations shorter than m are not weighted (raises ValueError).
    """
    n = len(pi)
    m = scheme.m
    if n < m:
        raise ValueError(f"permutation of length {n} is shorter than m = {m}")
    u = descent_word(pi)
    return _wt_of_word(scheme, u)


def _wt_of_word(scheme: WeightScheme, u: str) -> Fraction:
    m = scheme.m
    value = scheme.wt1[u[: m - 1]] * scheme.wt2[u[len(u) - (m - 1) :]]
    for i in range(len(u) - m + 1):
        value *= scheme.wt[u[i : i + m]]
    return value


# the last entries of a permutation, whose orders each n lists once: at most
# 6! = 720 tail orders
_CHUNK_TAIL = 6


def _descents(seq: Sequence[int]) -> str:
    """The descent word of a sequence of distinct numbers, unchecked."""
    return "".join(map("ab".__getitem__, map(gt, seq, seq[1:])))


def _head_key(head: Sequence[int]) -> tuple[str, int]:
    """A head's descent word, and q: how many entries it leaves out below its last."""
    last = head[-1]
    return _descents(head), last - sum(map(last.__gt__, head))


@lru_cache(maxsize=None)
def _word_multiplicities(n: int) -> dict[str, int]:
    """How many permutations in S_n share each descent word (full enumeration).

    S_n is enumerated as pairs (head, tail order).  A head is an ordered
    choice of the first k = n - t entries, t = min(n, 6); a tail order is one
    of the t! orders of the remaining entries, written as their ranks
    0..t-1.  The pair's descent word is the head's word, one junction letter
    and the tail's word, and the junction is a descent exactly when the
    tail's first rank is below q, the number of remaining entries smaller
    than the head's last entry.  So every tail order is listed once and
    tallied per q, every head once and tallied by (word, q), and a word's
    count is a sum of products of the two tallies.
    """
    if n <= _CHUNK_TAIL:  # no head: the tail orders are S_n itself
        return dict(Counter(map(_descents, permutations(range(n)))))
    orders = Counter(
        (order[0], _descents(order)) for order in permutations(range(_CHUNK_TAIL))
    )
    # per q, the tail orders tallied by junction letter plus word
    tails: list[Counter[str]] = [Counter() for _ in range(_CHUNK_TAIL + 1)]
    for (first, word), times in orders.items():
        for q, tally in enumerate(tails):
            tally["ab"[first < q] + word] += times
    heads = Counter(map(_head_key, permutations(range(n), n - _CHUNK_TAIL)))
    counts: Counter[str] = Counter()
    for (word, q), count in heads.items():
        for rest, times in tails[q].items():
            counts[word + rest] += count * times
    return dict(counts)


def brute_force_alpha(scheme: WeightScheme, n: int) -> WeightedCount:
    """alpha_n by enumerating all n! permutations.

    The sum is accumulated per descent word (the weight of a permutation
    depends only on its word), which rearranges but does not change the
    defining sum.  Intended as the ground-truth oracle; n is capped at
    BRUTE_FORCE_CAP -- use dp_alpha for larger n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"n = {n} exceeds the brute-force cap {BRUTE_FORCE_CAP}; use dp_alpha"
        )
    if n < scheme.m:
        return WeightedCount(n, Fraction(factorial(n)))
    total = Fraction(0)
    for word, count in _word_multiplicities(n).items():
        w = _wt_of_word(scheme, word)
        if w:
            total += count * w
    return WeightedCount(n, total)


def brute_force_alpha_direct(scheme: WeightScheme, n: int) -> WeightedCount:
    """alpha_n summed permutation by permutation, with no grouping.

    Quadratically slower than brute_force_alpha; exists so tests can check
    that grouping by descent word is a pure rearrangement.
    """
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"n = {n} exceeds the brute-force cap {BRUTE_FORCE_CAP}; use dp_alpha"
        )
    if n < scheme.m:
        return WeightedCount(n, Fraction(factorial(n)))
    total = sum(
        (wt_of_permutation(scheme, p) for p in permutations(range(1, n + 1))),
        Fraction(0),
    )
    return WeightedCount(n, total)


def _scaled(table: dict[str, Fraction]) -> tuple[dict[str, int], int]:
    """The table times the lcm D of its denominators, as ints, and D."""
    scale = lcm(*(v.denominator for v in table.values()))
    return {w: v.numerator * (scale // v.denominator) for w, v in table.items()}, scale


def _dp_pass(scheme: WeightScheme, n_max: int) -> Iterator[Fraction]:
    """alpha_0, ..., alpha_n_max from one run of the insertion DP.

    The weights run scaled to integers: wt, wt1 and wt2 are multiplied by
    the lcm of their denominators D, D1 and D2.  A permutation of length
    n >= m collects n - m windows, one wt1 and one wt2 factor, so the integer
    total is alpha_n * D^(n-m) * D1 * D2, and one division at the end gives
    alpha_n; below m no weight applies and the total is alpha_n itself.
    """
    m = scheme.m
    wt, d = _scaled(scheme.wt)
    wt1, d1 = _scaled(scheme.wt1)
    wt2, d2 = _scaled(scheme.wt2)
    yield Fraction(1)
    # states: {suffix: weights of ranks 1..i} after i entries
    states: dict[str, list[int]] = {"": [wt1[""] if m == 1 else 1]}
    for i in range(1, n_max + 1):
        total = 0
        nxt: dict[str, list[int]] = {}
        for suffix, weights in states.items():
            # an entry appended at rank r (1..i+1) collects, as an ascent,
            # the ranks below r and, as a descent, the ranks from r on
            below = list(accumulate(weights, initial=0))
            # alpha_i sums the lists, which the prefix sums end with
            if i >= m:
                total += below[-1] * wt2[suffix[len(suffix) - (m - 1) :]]
            else:
                total += below[-1]
            if i == n_max:
                continue
            from_r = list(accumulate(reversed(weights), initial=0))[::-1]
            for letter, sums in (("a", below), ("b", from_r)):
                grown = suffix + letter
                factor = None
                if len(grown) == m:  # a full window just closed
                    factor = wt[grown]
                    grown = grown[1:]
                elif len(grown) == m - 1:  # the prefix is now complete
                    factor = wt1[grown]
                if factor is not None:
                    if not factor:
                        continue
                    sums = [factor * x for x in sums]
                if grown in nxt:
                    nxt[grown] = [x + y for x, y in zip(nxt[grown], sums)]
                else:
                    nxt[grown] = sums
        yield Fraction(total, d ** (i - m) * d1 * d2) if i >= m else Fraction(total)
        states = nxt


def dp_alpha(scheme: WeightScheme, n: int) -> WeightedCount:
    """alpha_n by the insertion dynamic program, exactly.

    Permutations are built by appending entries on the right; the state is
    (last min(m-1, built-1) letters of the descent word, rank of the last
    entry), kept as one list of weights over ranks 1..i per word suffix.
    An entry appended at rank r among i + 1 is an ascent exactly from the
    ranks below r, so the weights it collects are a prefix sum (letter a)
    or a suffix sum (letter b) of that list.  This is the up-down recurrence
    of de Bruijn ("Permutations with given ups and downs", Nieuw Arch. Wisk.
    18, 1970); it costs O(2^(m-1) n^2) additions.  The additions are on
    Python ints: each weight table is scaled by the lcm of its denominators,
    and the total is divided once, by D^(n-m) * D1 * D2, at the end.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for value in _dp_pass(scheme, n):
        pass
    return WeightedCount(n, value)


def _as_ints(table: dict[str, Fraction]) -> tuple[dict[str, int], int]:
    """The weights times the lcm of their denominators, as ints, and that lcm."""
    common = lcm(*(v.denominator for v in table.values()))
    return {w: v.numerator * (common // v.denominator) for w, v in table.items()}, common


def _integrate(coefs: list[int], s: int) -> list[int]:
    """The coefficients of x^1, x^2, ... of the antiderivative of s * p, in ints.

    p has the coefficients coefs, by degree; the antiderivative vanishes at
    0, so its constant term, 0, is left out.  Raises AssertionError when
    s * coefs[k] is not divisible by k + 1.
    """
    out = []
    for k, c in enumerate(coefs, 1):
        q, r = divmod(s * c, k)
        if r:
            raise AssertionError("operator iteration left the exact path")
        out.append(q)
    return out


def alpha_by_operator_iteration(scheme: WeightScheme, n: int) -> WeightedCount:
    """alpha_n as n! <T^(n-m)(kappa), mu>, in integers up to one division.

    T is the weighted descent operator on the cube [0,1]^m: on the cell P_w
    (an {a,b}-word w of length m-1 orders consecutive coordinates), with
    au = (aw)[:m-1], bu = (bw)[:m-1] and F_u the antiderivative of the piece
    on P_u (F_u(0) = 0),

        T(f) = wt(aw) F_au(x_1) + wt(bw) (F_bu(1) - F_bu(x_1)),

    a polynomial in the first coordinate again.  kappa is wt1(u) and mu
    wt2(u) on P_u.  Every piece is a list of Python ints by degree: the
    weight tables run times the lcm of their denominators D, D1 and D2, and
    the iterate is g_j = j! D^j D1 T^j(kappa), so g_0 is the scaled kappa
    and g_(j+1) = T_D((j+1) g_j), with T_D the operator on the scaled window
    weights.  The coefficient of x^k in D^j D1 T^j(kappa) has a denominator
    dividing k! (j-k)!, by induction on j (integrating x^k divides by k + 1
    and raises the degree; the constant term F_bu(1) sums such quotients,
    whose denominators all divide (j+1)!), so the antiderivative of
    (j+1) g_j divides each coefficient by k + 1 exactly, to C(j+1, k+1)
    times an integer.  The pairing with mu integrates x_1, ..., x_m out of
    g_(n-m)(x_1) mu on each cell P_u in turn, x_i over [0, x_(i+1)] where
    u_i = a and over [x_(i+1), 1] where u_i = b, and x_m over [0, 1]; each
    of these m integrations is a step of the same kind, scaled by the next
    factor of n!, so its divisions are exact too.  So the total is
    n! D^(n-m) D1 D2 <T^(n-m)(kappa), mu>, and one division by
    D^(n-m) D1 D2 gives alpha_n.  Requires n >= m.
    """
    m = scheme.m
    if n < m:
        raise ValueError(f"operator iteration needs n >= m = {m}")
    wt, d = _as_ints(scheme.wt)
    wt1, d1 = _as_ints(scheme.wt1)
    wt2, d2 = _as_ints(scheme.wt2)
    g = {u: [c] for u, c in wt1.items()}
    for j in range(1, n - m + 1):
        F = {u: _integrate(p, j) for u, p in g.items()}
        nxt = {}
        for w in g:
            Fa, Fb = F[("a" + w)[: m - 1]], F[("b" + w)[: m - 1]]
            wa, wb = wt["a" + w], wt["b" + w]
            nxt[w] = [wb * sum(Fb), *(wa * a - wb * b for a, b in zip(Fa, Fb))]
        g = nxt
    total = 0
    for u, p in g.items():
        for i, letter in enumerate(u, n - m + 1):  # x_1, ..., x_(m-1) out
            F = _integrate(p, i)
            p = [0, *F] if letter == "a" else [sum(F), *(-c for c in F)]
        total += wt2[u] * sum(_integrate(p, n))
    return WeightedCount(n, Fraction(total, d ** (n - m) * d1 * d2))
