"""Exact rational computations of weighted descent-pattern sums.

The central quantity is alpha_n: the sum of Wt(pi) over all pi in S_n, where
Wt multiplies the scheme's window weights along the descent word of pi (with
wt1 on the leading m-1 letters and wt2 on the trailing m-1 letters).  This
module holds two of the three exact routes used to cross-check everything
else: brute-force enumeration over S_n, grouped by descent word, and
de Bruijn's prefix-sum recurrence (dp_alpha), which keeps one list of
weights over the ranks of the last entry per descent-word suffix.  The DP
adds and multiplies Python ints only: it scales each weight table by the lcm
of its denominators and divides the integer total once, at the end, by the
power of those lcms that a permutation of length n collects.  Brute force
sums the Fraction weights unscaled.  The third route, operator iteration,
is expfun.alpha_by_operator_iteration, scaled the same way by code of its
own; no route is written in terms of another.  Each route takes only
(scheme, n): a count restricted to a first or last descent letter is the
count of the scheme with its boundary weights zeroed off that letter
(words.restrict_ends).  The module also carries the exact
closed-form machinery available for the scheme with wt(aa) = 0, wt(bb) = 2:
recursions, nearest-integer formulas, and generating-function coefficients.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import comb, factorial, lcm
from operator import gt
from typing import Iterable, Iterator, Sequence

from .words import WeightScheme, _Frozen, all_words, descent_word

BRUTE_FORCE_CAP = 10

__all__ = [
    "BRUTE_FORCE_CAP",
    "WeightedCount",
    "wt_of_permutation",
    "brute_force_alpha",
    "brute_force_alpha_direct",
    "dp_alpha",
    "derangements",
    "section6_recursion",
    "nearest_integer_formula",
    "genfun_coeffs",
    "verify_genfun_equation",
    "count_barred",
    "double_descents",
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


def derangements(n: int) -> int:
    """Number of fixed-point-free permutations of n elements."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    d_prev, d = 1, 0  # D_0, D_1
    if n == 0:
        return 1
    for k in range(2, n + 1):
        d_prev, d = d, (k - 1) * (d + d_prev)
    return d


_SEC6_KEYS = ("aa", "ab", "bb", "total")


def section6_recursion(n: int) -> dict[str, int]:
    """Exact refined counts for the wt(aa)=0, wt(bb)=2 scheme via recursion.

    Returns {'aa', 'ab', 'bb', 'total'} for the given n >= 2, where 'ab' is
    the common value of the (a,b) and (b,a) refinements.  Seeds at n = 2 are
    delta_{x,y}; for n >= 3 each value is n times the previous plus a
    signed correction.
    """
    if n < 2:
        raise ValueError("refined counts start at n = 2")
    aa, ab, bb, total = 1, 0, 1, 2
    for k in range(3, n + 1):
        sign = -1 if k % 2 else 1
        aa = k * aa + 1 + 4 * sign
        ab = k * ab - 2 * sign
        bb = k * bb + sign
        total = k * total + 1 + sign
    return {"aa": aa, "ab": ab, "bb": bb, "total": total}


# Truncated-series integer formulas: value = sum_{k<=n} coef(k) * n!/k!,
# where coef(k) comes from the numerator series of the closed form.
_NEAREST_THRESHOLD = {"aa": 8, "ab": 3, "bb": 2, "total": 4}


def _series_coef(which: str, k: int) -> int:
    at0 = 1 if k == 0 else 0
    sign = -1 if k % 2 else 1
    if which == "aa":
        return 1 - 4 * at0 + 4 * sign
    if which == "ab":
        return at0 - 2 * sign
    if which == "bb":
        return sign
    if which == "total":
        return 1 - 2 * at0 + sign
    raise ValueError(f"which must be one of {_SEC6_KEYS}, got {which!r}")


def nearest_integer_formula(n: int, which: str) -> int:
    """Nearest integer to c * n! for the wt(aa)=0, wt(bb)=2 refined counts.

    c is (per refinement) e - 4 + 4/e, 1 - 2/e, 1/e, or e - 2 + 1/e.  The
    value is computed by the exact truncated series sum_{k<=n} coef(k)*n!/k!
    in big-integer arithmetic -- no floating point.  Below the per-refinement
    threshold (aa: 8, ab: 3, bb: 2, total: 4) the rounding claim does not
    hold, so the call is refused.  The series is the one genfun_coeffs
    expands, so the value equals genfun_coeffs(n)[which][n]: the nearest_*
    columns of the sequence command repeat its genfun_ok column.
    """
    if which not in _SEC6_KEYS:
        raise ValueError(f"which must be one of {_SEC6_KEYS}, got {which!r}")
    threshold = _NEAREST_THRESHOLD[which]
    if n < threshold:
        raise ValueError(
            f"nearest-integer formula for {which!r} is only valid for "
            f"n >= {threshold}, got n = {n}"
        )
    nf = factorial(n)
    return sum(_series_coef(which, k) * (nf // factorial(k)) for k in range(n + 1))


# --- exact power series (ordinary coefficients, Fractions) ---


def _series_exp(sign: int, order: int) -> list[Fraction]:
    return [Fraction(sign**k, factorial(k)) for k in range(order + 1)]


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j in range(min(len(b), order + 1 - i)):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _series_int(a: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for k in range(min(len(a), order)):
        out[k + 1] = a[k] / (k + 1)
    return out


def _closed_form_series(order: int) -> dict[str, list[Fraction]]:
    """Ordinary power-series coefficients of the four closed forms.

    Each is (ce e^z + c0 + cm e^-z) / (1 - z), up to a polynomial
    correction, and dividing by 1 - z takes running sums of coefficients.
    """
    ep = _series_exp(1, order)
    em = _series_exp(-1, order)

    def over_1_minus_z(ce: int, c0: int, cm: int) -> list[Fraction]:
        numerator = (ce * ep[k] + cm * em[k] for k in range(order + 1))
        return list(accumulate(numerator, initial=Fraction(c0)))[1:]

    f_aa = over_1_minus_z(1, -4, 4)
    f_aa[0] -= 1
    if order >= 1:
        f_aa[1] += 2
    f_ab = over_1_minus_z(0, 1, -2)
    f_ab[0] += 1
    if order >= 1:
        f_ab[1] -= 1
    f_bb = over_1_minus_z(0, 0, 1)
    f_bb[0] -= 1
    f_tot = over_1_minus_z(1, -2, 1)
    return {"aa": f_aa, "ab": f_ab, "bb": f_bb, "total": f_tot}


def genfun_coeffs(order: int) -> dict[str, list[Fraction]]:
    """Coefficients of z^n/n! of the four closed-form generating functions.

    Returned per refinement ('aa', 'ab', 'bb', 'total') as lists indexed by n
    from 0 to order; entries agree with the refined counts for n >= 2.
    """
    series = _closed_form_series(order)
    return {
        key: [coef * factorial(k) for k, coef in enumerate(s)]
        for key, s in series.items()
    }


def verify_genfun_equation(order: int, bb_weight: int = 2) -> bool:
    """Check the quadratic integral equation tying the four series together.

    For each pair (x, y) the series F_{x,y} must equal

        delta_{x,y} z^2/2! + delta_{x,b} delta_{y,a} 2 z^3/3!
        + int (F_{x,a} + W F_{x,b}) F_{b,y}
        + delta_{x,a} int F_{b,y}  + delta_{x,b} int w F_{b,y}
        + delta_{y,b} int (F_{x,a} + W F_{x,b})
        + delta_{y,a} int (F_{x,a} + W F_{x,b}) w

    with W = bb_weight, compared through z^order in exact arithmetic.  The
    identity holds for the scheme's actual double-descent weight W = 2 and
    must fail for other W (useful as a negative control).
    """
    f = _closed_form_series(order + 1)
    f["ba"] = f["ab"]  # equal by the reversal symmetry of the scheme

    def F(x: str, y: str) -> list[Fraction]:
        return f[x + y]

    z = [Fraction(0)] * (order + 2)
    for x in "ab":
        for y in "ab":
            lhs = F(x, y)
            rhs = [Fraction(0)] * (order + 2)
            if x == y and order >= 2:
                rhs[2] += Fraction(1, 2)
            if x == "b" and y == "a" and order >= 3:
                rhs[3] += Fraction(2, 6)
            bracket = [
                F(x, "a")[k] + bb_weight * F(x, "b")[k] for k in range(order + 2)
            ]
            fby = F("b", y)
            for term in (
                _series_int(_series_mul(bracket, fby, order + 1), order + 1),
                _series_int(fby, order + 1) if x == "a" else z,
                _series_int([Fraction(0)] + fby[:-1], order + 1) if x == "b" else z,
                _series_int(bracket, order + 1) if y == "b" else z,
                _series_int([Fraction(0)] + bracket[:-1], order + 1) if y == "a" else z,
            ):
                for k in range(order + 1):
                    rhs[k] += term[k]
            if any(lhs[k] != rhs[k] for k in range(order + 1)):
                return False
    return True


def _maximal_descent_runs(pi: Sequence[int]) -> list[int]:
    """Sizes of the maximal decreasing intervals partitioning positions 1..n."""
    runs = []
    size = 1
    for i in range(len(pi) - 1):
        if pi[i] > pi[i + 1]:
            size += 1
        else:
            runs.append(size)
            size = 1
    runs.append(size)
    return runs


def _compositions(total: int) -> Iterable[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def count_barred(pi: Sequence[int]) -> int:
    """Ways to split each maximal descent run into barred sub-runs.

    Each maximal descent run of size c may be partitioned into consecutive
    sub-runs, a sub-run of size s admitting s - 1 bar placements; the count
    per run is the sum over compositions of c of the product of (part - 1).
    A double ascent leaves an unbarrable singleton inside, giving 0; singleton
    runs at the two ends are skipped (nothing there needs a bar).
    """
    word = descent_word(pi)
    if "aa" in word:
        return 0
    result = 1
    for size in _maximal_descent_runs(pi):
        if size == 1:
            continue
        result *= sum(_run_product(comp) for comp in _compositions(size))
    return result


def _run_product(comp: tuple[int, ...]) -> int:
    prod = 1
    for part in comp:
        prod *= part - 1
    return prod


def double_descents(pi: Sequence[int]) -> int:
    """Number of positions where two descents are adjacent."""
    # overlapping count: a run of k descents contributes k - 1
    word = descent_word(pi)
    return sum(1 for i in range(len(word) - 1) if word[i] == word[i + 1] == "b")
