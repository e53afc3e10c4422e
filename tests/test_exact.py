"""Exact counting oracles: brute force, insertion DP, recursions, closed forms."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentsum import (
    BRUTE_FORCE_CAP,
    PRESETS,
    WeightScheme,
    all_words,
    alpha_by_operator_iteration,
    brute_force_alpha,
    brute_force_alpha_direct,
    build_transfer,
    count_barred,
    derangements,
    descent_word,
    double_descents,
    dp_alpha,
    genfun_coeffs,
    is_symmetric,
    load_scheme,
    nearest_integer_formula,
    preset_scheme,
    restrict_ends,
    section6_recursion,
    verify_genfun_equation,
    wt_of_permutation,
)
import descentsum.sec6 as sec6
from descentsum.exact import _dp_pass


def euler_numbers(n_max):
    """Zigzag numbers E_0, ..., E_n_max by the boustrophedon transform."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        prev = row
        row = [0]
        for x in reversed(prev):
            row.append(row[-1] + x)
        out.append(row[-1])
    return out


def test_euler_oracle_matches_tabled_values():
    assert euler_numbers(7) == [1, 1, 1, 2, 5, 16, 61, 272]


def test_wt_of_permutation_examples():
    sec6 = preset_scheme("sec6")
    assert wt_of_permutation(sec6, (3, 2, 1)) == 2
    assert wt_of_permutation(sec6, (1, 2, 3)) == 0
    assert wt_of_permutation(sec6, (2, 1)) == 1  # single window: wt1 * wt2 only
    ones = preset_scheme("all-ones")
    for pi in permutations((1, 2, 3, 4)):
        assert wt_of_permutation(ones, pi) == 1
    with pytest.raises(ValueError):
        wt_of_permutation(preset_scheme("sec5-1"), (1, 2))  # n < m


def test_wt_of_permutation_uses_boundary_weights():
    s = WeightScheme(m=2, wt1={"a": 2}, wt2={"b": 3})
    # 1 3 2 has word ab: wt1(a) * wt(ab) * wt2(b) = 2 * 1 * 3
    assert wt_of_permutation(s, (1, 3, 2)) == 6
    assert wt_of_permutation(s, (2, 1, 3)) == 1  # word ba picks neutral entries


def test_brute_force_examples():
    assert brute_force_alpha(preset_scheme("sec5-1"), 4).value == 22
    assert brute_force_alpha(preset_scheme("sec6"), 3).value == 6
    assert brute_force_alpha(preset_scheme("no-peaks"), 4).value == 8
    assert brute_force_alpha(preset_scheme("all-ones"), 5).value == 120


def test_brute_force_short_lengths_are_unweighted():
    # n < m: every permutation has weight 1 regardless of the scheme
    s = WeightScheme(m=3, wt={"aaa": 0}, wt1={"aa": 7})
    assert brute_force_alpha(s, 2).value == 2
    assert brute_force_alpha(s, 1).value == 1


def test_brute_force_cap():
    with pytest.raises(ValueError, match="dp_alpha"):
        brute_force_alpha(preset_scheme("sec6"), BRUTE_FORCE_CAP + 1)


def test_word_table_matches_inclusion_exclusion():
    # MacMahon: the permutations whose descent set is exactly S number
    # the sum over subsets T of S of (-1)^|S - T| n!/(t1! (t2 - t1)! ... (n - tk)!)
    from descentsum.exact import _word_multiplicities

    def at_most(n, cuts):
        bounds = [0, *cuts, n]
        out = factorial(n)
        for lo, hi in zip(bounds, bounds[1:]):
            out //= factorial(hi - lo)
        return out

    for n in range(0, BRUTE_FORCE_CAP + 1):
        table = _word_multiplicities(n)
        assert sum(table.values()) == factorial(n)
        assert all(isinstance(count, int) for count in table.values())
        for word in all_words(max(0, n - 1)):
            descents = [i + 1 for i, letter in enumerate(word) if letter == "b"]
            expected = sum(
                (-1) ** (len(descents) - len(cuts)) * at_most(n, cuts)
                for r in range(len(descents) + 1)
                for cuts in combinations(descents, r)
            )
            assert table.get(word, 0) == expected, (n, word)


def test_word_table_matches_listed_permutations():
    # n <= 6 is all tail orders and no head; 7 and 8 have heads of 1 and 2
    from descentsum.exact import _word_multiplicities

    for n in range(0, 9):
        listed = Counter(map(descent_word, permutations(range(n))))
        assert _word_multiplicities(n) == listed, n


def test_brute_force_grouped_equals_direct():
    schemes = [
        preset_scheme("sec6"),
        preset_scheme("sec5-1"),
        WeightScheme(m=2, wt={"aa": Fraction(1, 3)}, wt2={"b": Fraction(-2, 5)}),
    ]
    for s in schemes:
        for n in range(1, 7):
            assert brute_force_alpha(s, n).value == brute_force_alpha_direct(s, n).value


def test_dp_examples():
    sec6 = preset_scheme("sec6")
    assert dp_alpha(restrict_ends(sec6, "b", "b"), 3).value == 2
    assert dp_alpha(sec6, 4).value == 26
    for n in range(1, 8):
        assert dp_alpha(preset_scheme("all-ones"), n).value == factorial(n)


def test_dp_equals_brute_on_presets():
    for name in ("sec5-1", "sec5-2", "sec6", "no-descents", "no-peaks", "alternating"):
        s = preset_scheme(name)
        for n in range(1, 8):
            assert dp_alpha(s, n).value == brute_force_alpha(s, n).value, (name, n)


def test_dp_refinement_validation():
    sec6 = preset_scheme("sec6")
    with pytest.raises(ValueError, match="m >= 2"):
        restrict_ends(preset_scheme("no-descents"), start="a")
    with pytest.raises(ValueError, match="letter must be 'a' or 'b'"):
        restrict_ends(sec6, start="c")
    assert restrict_ends(preset_scheme("sec5-1")) == preset_scheme("sec5-1")


def test_refinements_partition_the_total():
    schemes = [
        preset_scheme("sec6"),
        preset_scheme("no-peaks"),
        WeightScheme(m=2, wt={"ab": Fraction(3, 2)}, wt1={"b": Fraction(1, 2)}),
    ]
    for s in schemes:
        for n in range(2, 10):
            parts = [
                dp_alpha(restrict_ends(s, x, y), n).value
                for x in "ab"
                for y in "ab"
            ]
            assert sum(parts) == dp_alpha(s, n).value


def test_refinements_cross_symmetry():
    # word reversal swaps the start-/end-letter refinements
    for name in ("sec6", "alternating", "all-ones"):
        s = preset_scheme(name)
        assert is_symmetric(s)
        for n in range(2, 9):
            assert dp_alpha(restrict_ends(s, "a", "b"), n).value == dp_alpha(
                restrict_ends(s, "b", "a"), n
            ).value


# signed, with zero drawn often: zero weights prune DP transitions, and
# signed ones let whole prefix sums cancel
small_fraction = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)


def random_scheme(m, data):
    wt = {w: data.draw(small_fraction) for w in all_words(m)}
    wt1 = {u: data.draw(small_fraction) for u in all_words(m - 1)}
    wt2 = {u: data.draw(small_fraction) for u in all_words(m - 1)}
    return WeightScheme(m=m, wt=wt, wt1=wt1, wt2=wt2)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=5), data=st.data())
def test_dp_equals_brute_on_random_rational_schemes(m, data):
    s = random_scheme(m, data)
    want = [brute_force_alpha(s, n).value for n in range(9)]
    assert list(_dp_pass(s, 8)) == want  # every length from one DP pass
    for n in range(1, 9):
        assert dp_alpha(s, n).value == want[n], n


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dp_refinements_equal_brute_on_random_schemes(data):
    s = random_scheme(2, data)
    for n in range(2, 9):
        for start in (None, "a", "b"):
            for end in (None, "a", "b"):
                r = restrict_ends(s, start, end)
                assert (
                    dp_alpha(r, n).value == brute_force_alpha(r, n).value
                ), (n, start, end)


non_integral = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
    lambda v: v.denominator > 1
)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=3), data=st.data())
def test_operator_iteration_equals_brute_on_random_rational_schemes(m, data):
    # one drawn entry of each of wt, wt1 and wt2 is non-integral, so every
    # table scales by a denominator of its own
    tables = []
    for length in (m, m - 1, m - 1):
        table = {w: data.draw(small_fraction) for w in all_words(length)}
        table[data.draw(st.sampled_from(all_words(length)))] = data.draw(non_integral)
        tables.append(table)
    s = WeightScheme(m, *tables)
    for n in range(m, 9):
        want = brute_force_alpha(s, n).value
        assert alpha_by_operator_iteration(s, n).value == want, n


# m = 3; each of wt, wt1 and wt2 mixes weights with denominators 2, 3 (and 4)
RATIONAL_SCHEME = WeightScheme(
    m=3,
    wt=dict(zip(all_words(3), map(Fraction, "1/2 2/3 3/4 1 4/3 3/2 2 5/2".split()))),
    wt1=dict(zip(all_words(2), map(Fraction, "1/2 1 3/2 2/3".split()))),
    wt2=dict(zip(all_words(2), map(Fraction, "2 3/2 1 1/2".split()))),
)


@pytest.mark.parametrize(
    "oracle, n",
    [(dp_alpha, 50), (alpha_by_operator_iteration, 40)],
    ids=["dp", "operator"],
)
def test_oracles_run_on_ints_for_rational_weights(monkeypatch, oracle, n):
    # the scaled tables keep both routes off Fraction arithmetic, the
    # closing pairing of operator iteration included; only the final
    # division makes a Fraction.  In Fractions they took thousands
    calls = Counter()
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            calls[_name] += 1
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    oracle(RATIONAL_SCHEME, n)
    monkeypatch.undo()
    assert not calls, calls


def test_oracles_agree_on_the_rational_scheme_at_n_40():
    want = dp_alpha(RATIONAL_SCHEME, 40).value
    assert want.denominator > 1
    assert alpha_by_operator_iteration(RATIONAL_SCHEME, 40).value == want


def test_operator_iteration_equals_dp_up_to_n_40_on_presets():
    for name in PRESETS:
        scheme = preset_scheme(name)
        want = list(_dp_pass(scheme, 40))
        for n in range(scheme.m, 41):
            assert alpha_by_operator_iteration(scheme, n).value == want[n], (name, n)


def test_operator_iteration_equals_dp_up_to_n_40_on_random_signed_schemes():
    # 15 schemes for each m = 1..4, from n = m on, with signed weights
    # drawn from a pool of denominators 1 to 4
    rng = random.Random(19)
    pool = [Fraction(x) for x in "0 1 -1 2 3 1/2 -1/2 2/3 -5/4".split()]
    for i in range(60):
        m = 1 + i % 4
        tables = [
            {w: rng.choice(pool) for w in all_words(length)}
            for length in (m, m - 1, m - 1)
        ]
        scheme = WeightScheme(m, *tables)
        want = list(_dp_pass(scheme, 40))
        for n in range(m, 41):
            got = alpha_by_operator_iteration(scheme, n).value
            assert got == want[n], (tables, n)


@lru_cache(maxsize=None)
def words_of_S_n(n):
    """How many permutations of S_n have each descent word, by itertools."""
    return Counter(
        "".join("a" if p[i] < p[i + 1] else "b" for i in range(n - 1))
        for p in permutations(range(n))
    )


def filtered_alpha(scheme, n, start, end):
    """alpha_n (n >= m >= 2) over the permutations whose descent word begins
    with start and ends with end (None: either letter)."""
    m, total = scheme.m, Fraction(0)
    for word, count in words_of_S_n(n).items():
        if start not in (None, word[0]) or end not in (None, word[-1]):
            continue
        weight = scheme.wt1[word[: m - 1]] * scheme.wt2[word[n - m :]]
        for i in range(n - m):
            weight *= scheme.wt[word[i : i + m]]
        total += count * weight
    return total


def assert_restricted_oracles_filter(scheme, lengths=range(2, 10)):
    for n in lengths:
        for start, end in product((None, "a", "b"), repeat=2):
            want = filtered_alpha(scheme, n, start, end)
            r = restrict_ends(scheme, start, end)
            for oracle in (dp_alpha, brute_force_alpha, alpha_by_operator_iteration):
                assert oracle(r, n).value == want, (oracle.__name__, n, start, end)


@pytest.mark.parametrize("name", ["sec6", "no-peaks", "alternating", "all-ones"])
def test_restricted_presets_equal_filtered_enumeration(name):
    assert_restricted_oracles_filter(preset_scheme(name))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_restricted_random_schemes_equal_filtered_enumeration(data):
    assert_restricted_oracles_filter(random_scheme(2, data))


def test_restricted_m3_scheme_equals_filtered_enumeration():
    # signed, not reversal-symmetric, boundary weights on both ends
    scheme = WeightScheme(
        m=3,
        wt={"aab": Fraction(1, 2), "bba": 3, "aba": 0},
        wt1={"ab": 2, "bb": Fraction(-1, 3)},
        wt2={"ba": -1, "aa": Fraction(5, 2)},
    )
    assert_restricted_oracles_filter(scheme, range(3, 8))


def test_derangements_table():
    assert [derangements(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


def test_derangements_match_descent_refinement():
    sec6 = preset_scheme("sec6")
    for n in range(2, 15):
        assert dp_alpha(restrict_ends(sec6, "b", "b"), n).value == derangements(n)


def test_section6_recursion_seeds_and_values():
    r2 = section6_recursion(2)
    # 'ab' is the shared value of the two mixed refinements
    assert (r2["aa"], r2["ab"], r2["bb"], r2["total"]) == (1, 0, 1, 2)
    r4 = section6_recursion(4)
    assert r4["total"] == 26
    assert r4["bb"] == 9
    with pytest.raises(ValueError):
        section6_recursion(1)


def test_section6_recursion_matches_dp():
    sec6 = preset_scheme("sec6")
    for n in [*range(2, 41), *range(50, 151, 10)]:
        rec = section6_recursion(n)
        assert rec["aa"] == dp_alpha(restrict_ends(sec6, "a", "a"), n).value
        assert rec["bb"] == dp_alpha(restrict_ends(sec6, "b", "b"), n).value
        assert rec["ab"] == dp_alpha(restrict_ends(sec6, "a", "b"), n).value
        assert rec["ab"] == dp_alpha(restrict_ends(sec6, "b", "a"), n).value
        assert rec["total"] == dp_alpha(sec6, n).value, n


def test_nearest_integer_examples():
    assert nearest_integer_formula(4, "bb") == 9
    assert nearest_integer_formula(4, "total") == 26
    sec6 = preset_scheme("sec6")
    aa = restrict_ends(sec6, "a", "a")
    assert nearest_integer_formula(8, "aa") == dp_alpha(aa, 8).value


def test_nearest_integer_thresholds():
    # each closed form only rounds correctly from its threshold on
    thresholds = {"aa": 8, "ab": 3, "bb": 2, "total": 4}
    for which, n0 in thresholds.items():
        with pytest.raises(ValueError):
            nearest_integer_formula(n0 - 1, which)
        nearest_integer_formula(n0, which)  # threshold itself is fine
    with pytest.raises(ValueError):
        nearest_integer_formula(5, "ba")  # only the canonical three plus total


def test_nearest_integer_matches_recursion_through_20():
    thresholds = {"aa": 8, "ab": 3, "bb": 2, "total": 4}
    for n in range(2, 21):
        rec = section6_recursion(n)
        for which, n0 in thresholds.items():
            if n >= n0:
                assert nearest_integer_formula(n, which) == rec[which], (n, which)


def test_nearest_integer_is_the_nearest_integer():
    # nearest_integer_formula sums the truncated series that genfun_coeffs
    # expands, so the thresholds are checked by rounding c * n! itself
    thresholds = {"aa": 8, "ab": 3, "bb": 2, "total": 4}
    coeffs = genfun_coeffs(40)
    with mpmath.workdps(80):  # 40! has 48 digits: the fractional part keeps 30
        e = mpmath.e
        constants = {
            "aa": e - 4 + 4 / e, "ab": 1 - 2 / e, "bb": 1 / e, "total": e - 2 + 1 / e
        }
        for which, c in constants.items():
            for n in range(thresholds[which], 41):
                want = section6_recursion(n)[which]
                rounded = int(mpmath.nint(c * mpmath.factorial(n)))
                assert rounded == nearest_integer_formula(n, which) == want, (which, n)
                assert coeffs[which][n] == want, (which, n)
        # below the thresholds rounding c * n! misses the count by one (bb
        # holds from n = 2, where the counts start)
        for which, n in (("aa", 7), ("ab", 2), ("total", 3)):
            miss = abs(constants[which] * mpmath.factorial(n) - section6_recursion(n)[which])
            assert 0.5 < miss < 1, (which, n)


def test_nearest_integer_formula_certifies_its_rounding(monkeypatch):
    # the series leaves out ce r + cm s of c * n!, r and s the tails of n! e
    # and n!/e: their Fraction enclosure bounds the true gap, mpmath's, and
    # stays below 1/2 from every threshold on
    thresholds = {"aa": 8, "ab": 3, "bb": 2, "total": 4}
    with mpmath.workdps(80):
        e = mpmath.e
        constants = {
            "aa": e - 4 + 4 / e, "ab": 1 - 2 / e, "bb": 1 / e, "total": e - 2 + 1 / e
        }
        for which, c in constants.items():
            for n in range(2, 41):
                gap = abs(c * mpmath.factorial(n) - genfun_coeffs(n)[which][n])
                bound = sec6._rounding_gap(n, which)
                assert gap <= mpmath.mpf(bound.numerator) / bound.denominator <= gap + 0.05
    for which, n0 in thresholds.items():
        assert all(sec6._rounding_gap(n, which) < Fraction(1, 2) for n in range(n0, 300))
    # negative control: c * n! is 0.59, 0.528 and 0.517 from the count at
    # these points, so without the thresholds the claim is refused there
    monkeypatch.setattr(sec6, "_NEAREST_THRESHOLD", dict.fromkeys(thresholds, 0))
    for which, n, off in (("aa", 7, 0.59), ("ab", 2, 0.528), ("total", 3, 0.517)):
        miss = abs(constants[which] * mpmath.factorial(n) - section6_recursion(n)[which])
        assert abs(miss - off) < 1e-3, (which, n)
        with pytest.raises(ValueError, match="not certified to round"):
            nearest_integer_formula(n, which)


def test_sequence_flags_an_uncertified_rounding_as_failed(monkeypatch):
    monkeypatch.setattr(sec6, "_rounding_gap", lambda n, which: Fraction(n == 9))
    rows, _, failures = sec6.sequence_table(10)
    flags = {row[0]: row[-4:] for row in rows}
    assert flags[9] == ["fail"] * 4 and flags[10] == ["ok"] * 4
    assert flags[2] == ["-", "-", "ok", "-"]
    assert len(failures) == 4 and all(f.startswith("n=9: ") for f in failures)


def test_genfun_coeffs_examples():
    coeffs = genfun_coeffs(12)
    # the series agree with the refined counts from n = 2 on
    assert coeffs["total"][2] == 2
    assert coeffs["bb"][2:8] == [1, 2, 9, 44, 265, 1854]
    sec6 = preset_scheme("sec6")
    for n in range(2, 13):
        rec = section6_recursion(n)
        for key in ("aa", "ab", "bb", "total"):
            assert coeffs[key][n] == rec[key], (key, n)


def test_genfun_equation_holds_and_negative_control_fails():
    assert verify_genfun_equation(3)
    assert verify_genfun_equation(10)
    assert not verify_genfun_equation(10, bb_weight=3)


def test_count_barred_examples():
    assert count_barred((3, 2, 1)) == 2
    assert count_barred((1, 2, 3)) == 0
    assert count_barred((3, 2, 1, 4)) == 2


def test_count_barred_is_power_of_two_on_double_ascent_free():
    for n in range(1, 8):
        for pi in permutations(range(1, n + 1)):
            if "aa" in descent_word(pi):
                continue
            assert count_barred(pi) == 2 ** double_descents(pi)


def test_alternating_preset_counts_twice_the_euler_numbers():
    alt = preset_scheme("alternating")
    euler = euler_numbers(120)
    for n in range(2, 121):
        assert dp_alpha(alt, n).value == 2 * euler[n], n


def test_no_descents_and_no_peaks_closed_forms():
    for n in range(1, 10):
        assert dp_alpha(preset_scheme("no-descents"), n).value == 1
        assert dp_alpha(preset_scheme("no-peaks"), n).value == 2 ** (n - 1)
    assert dp_alpha(preset_scheme("no-peaks"), 100).value == 2**99
    assert dp_alpha(preset_scheme("all-ones"), 100).value == factorial(100)


def test_operator_iteration_examples():
    assert alpha_by_operator_iteration(preset_scheme("sec6"), 3).value == 6
    assert alpha_by_operator_iteration(preset_scheme("all-ones"), 6).value == 720
    got = alpha_by_operator_iteration(preset_scheme("sec5-1"), 5).value
    assert got == brute_force_alpha(preset_scheme("sec5-1"), 5).value
    with pytest.raises(ValueError):
        alpha_by_operator_iteration(preset_scheme("sec5-1"), 2)


def test_operator_iteration_refinements():
    s = preset_scheme("sec6")
    for n in range(2, 8):
        for x in "ab":
            for y in "ab":
                r = restrict_ends(s, x, y)
                assert (
                    alpha_by_operator_iteration(r, n).value == dp_alpha(r, n).value
                )
    with pytest.raises(ValueError, match="m >= 2"):
        restrict_ends(preset_scheme("no-descents"), start="a")


def test_operator_iteration_exact_type():
    got = alpha_by_operator_iteration(preset_scheme("sec6"), 9)
    assert isinstance(got.value, Fraction)
    assert got.value == dp_alpha(preset_scheme("sec6"), 9).value


def test_oracles_and_transfer_pair_at_window_length_one():
    # at m = 1 every index word is empty; alpha_n sums the Eulerian numbers
    # weighted 2 per ascent and 1/2 per descent, times wt1 * wt2 = 1
    s = load_scheme("m = 1\nwt a = 2\nwt b = 1/2\nwt1 = 3\nwt2 = 1/3\n")
    for n in range(1, 10):
        want = dp_alpha(s, n).value
        assert brute_force_alpha(s, n).value == want, n
        assert alpha_by_operator_iteration(s, n).value == want, n
    assert dp_alpha(s, 7).value == Fraction(606033, 64)
    pair = build_transfer(s)
    assert pair.A.tolist() == [[2]] and pair.B.tolist() == [[0.5]]
