"""Descent words, weight schemes, and the scheme file format."""

import copy
import pickle
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentsum import (
    SchemeParseError,
    WeightScheme,
    all_words,
    descent_word,
    dump_scheme,
    load_scheme,
    pattern_set,
    preset_scheme,
    restrict_ends,
    reverse_complement,
    standardize,
    symmetry_defect,
)

words_st = st.text(alphabet="ab", max_size=12)


def test_all_words_order():
    assert all_words(0) == [""]
    assert all_words(1) == ["a", "b"]
    assert all_words(2) == ["aa", "ab", "ba", "bb"]
    assert all_words(3)[0] == "aaa"
    assert len(all_words(3)) == 8
    assert all_words(3) == sorted(all_words(3))


def test_descent_word_examples():
    assert descent_word((1, 2, 3)) == "aa"
    assert descent_word((2, 1, 3)) == "ba"
    assert descent_word((2, 4, 1, 3)) == "aba"
    assert descent_word((1,)) == ""


def test_descent_word_accepts_distinct_values_only():
    with pytest.raises(ValueError):
        descent_word((1, 1, 2))
    # distinct non-contiguous values are fine, only comparisons matter
    assert descent_word((1, 3)) == "a"
    assert descent_word((0.5, -2.0, 7.0)) == "ba"


def test_standardize_examples():
    assert standardize((0.3, 0.1, 0.9)) == (2, 1, 3)
    assert standardize((5, 1, 4, 2)) == (4, 1, 3, 2)
    assert standardize((7,)) == (1,)
    with pytest.raises(ValueError):
        standardize((1.0, 1.0))


@given(st.lists(st.integers(), unique=True, min_size=1, max_size=10))
def test_standardize_preserves_comparisons(values):
    pi = standardize(values)
    assert sorted(pi) == list(range(1, len(values) + 1))
    for i in range(len(values) - 1):
        assert (pi[i] < pi[i + 1]) == (values[i] < values[i + 1])


def test_reverse_complement_examples():
    assert reverse_complement("aab") == "abb"
    assert reverse_complement("ab") == "ab"
    assert reverse_complement("bbb") == "aaa"
    assert reverse_complement("") == ""


@given(words_st)
def test_reverse_complement_involution(w):
    assert reverse_complement(reverse_complement(w)) == w


def test_reverse_complement_tracks_value_reversal():
    # reversing the values of a permutation reverse-complements its word
    for pi in permutations(range(1, 6)):
        assert descent_word(pi[::-1]) == reverse_complement(descent_word(pi))


def test_weight_scheme_defaults_and_validation():
    s = WeightScheme(m=2)
    assert s.wt == {w: Fraction(1) for w in all_words(2)}
    assert s.wt1 == {"a": Fraction(1), "b": Fraction(1)}
    assert s.max_abs_weight() == 1
    with pytest.raises(ValueError):
        WeightScheme(m=0)
    with pytest.raises(ValueError):
        WeightScheme(m=2, wt={"aaa": 0})
    with pytest.raises(ValueError):
        WeightScheme(m=2, wt1={"aa": 0})


def test_weight_scheme_m1_boundary_word_is_empty():
    s = WeightScheme(m=1, wt={"b": 0}, wt1={"": 3})
    assert set(s.wt1) == {""}
    assert s.wt1[""] == 3


def test_is_symmetric_presets():
    assert symmetry_defect(preset_scheme("sec6")) is None
    assert symmetry_defect(preset_scheme("sec5-1")) is None
    assert symmetry_defect(preset_scheme("sec5-2")) is None
    assert symmetry_defect(WeightScheme(m=3, wt={"aaa": 0, "bbb": 0})) is None


def test_is_symmetric_needs_reversed_mate():
    # aab reversed is baa; zeroing only one of them breaks the symmetry
    lopsided = WeightScheme(m=3, wt={"aab": 0})
    msg = symmetry_defect(lopsided)
    assert "aab" in msg and "baa" in msg
    balanced = WeightScheme(m=3, wt={"aab": 0, "baa": 0})
    assert symmetry_defect(balanced) is None


def test_is_symmetric_couples_wt1_to_wt2():
    assert symmetry_defect(WeightScheme(m=2, wt1={"a": 2})) is not None
    s = WeightScheme(m=2, wt1={"a": 2}, wt2={"a": 2})
    assert symmetry_defect(s) is None
    # reversal swaps the boundary tables, so a lone wt2 entry also breaks it
    msg = symmetry_defect(WeightScheme(m=2, wt2={"b": 3}))
    assert "wt1" in msg or "wt2" in msg


def test_restrict_ends_zeroes_boundary_weights():
    s = WeightScheme(m=2, wt={"aa": 0}, wt1={"a": 3, "b": Fraction(1, 2)}, wt2={"a": -1})
    r = restrict_ends(s, start="b", end="a")
    assert r.wt == s.wt
    assert r.wt1 == {"a": 0, "b": Fraction(1, 2)}
    assert r.wt2 == {"a": -1, "b": 0}
    assert restrict_ends(s, end="b").wt1 == s.wt1
    assert restrict_ends(s) is s


def test_pattern_set_examples():
    assert pattern_set({"aa"}) == {(1, 2, 3)}
    assert pattern_set({"aaa", "bbb"}) == {(1, 2, 3, 4), (4, 3, 2, 1)}
    alternating = {
        (1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2),
        (2, 1, 4, 3), (3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 3, 1),
    }
    assert pattern_set({"aba", "bab"}) == alternating
    assert pattern_set(set()) == set()


def test_pattern_set_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        pattern_set({"a", "ab"})
    with pytest.raises(ValueError):
        pattern_set({"ac"})


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pattern_set_sizes_partition_the_symmetric_group(m):
    by_word = Counter(descent_word(pi) for pi in permutations(range(1, m + 2)))
    total = 0
    for w in all_words(m):
        assert len(pattern_set({w})) == by_word[w]
        total += by_word[w]
    assert total == factorial(m + 1)


def test_load_scheme_basic():
    s = load_scheme("m = 2\nwt aa = 0\nwt bb = 2\n")
    assert s.m == 2
    assert s.wt["aa"] == 0 and s.wt["bb"] == 2
    assert s.wt["ab"] == 1 and s.wt["ba"] == 1


def test_load_scheme_rationals_comments_and_boundaries():
    text = """
    # tilted three-letter scheme
    m = 3
    wt aba = 1/3   # rational weight
    wt1 aa = 2
    wt2 bb = -1/2
    """
    s = load_scheme(text)
    assert s.wt["aba"] == Fraction(1, 3)
    assert s.wt1["aa"] == 2
    assert s.wt2["bb"] == Fraction(-1, 2)
    assert s.max_abs_weight() == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("wt aa = 0\n", "missing 'm"),
        ("m = 2\nm = 3\n", "line 2"),
        ("m = x\n", "malformed window length"),
        ("m = 0\n", "must be >= 1"),
        ("m = 2\nwt aaa = 0\n", "length 3"),
        ("m = 2\nwt ac = 1\n", "outside"),
        ("m = 2\nwt aa = oops\n", "malformed rational"),
        ("m = 2\nwt aa = 1/0\n", "malformed rational"),
        ("m = 2\nwt aa = 0\nwt aa = 1\n", "duplicate entry"),
        ("m = 2\nnonsense\n", "key = value"),
        ("m = 2\nwt3 aa = 1\n", "unrecognized"),
    ],
)
def test_load_scheme_errors_name_the_line(text, fragment):
    with pytest.raises(SchemeParseError, match=fragment):
        load_scheme(text)


def test_dump_scheme_round_trip():
    for name in ("sec5-1", "sec6", "no-descents", "all-ones"):
        s = preset_scheme(name)
        assert load_scheme(dump_scheme(s)) == s


def test_weight_scheme_is_immutable_and_hashable():
    s = preset_scheme("sec6")
    for table in (s.wt, s.wt1, s.wt2):
        with pytest.raises(TypeError):
            table[next(iter(table))] = Fraction(5)
    assert s.wt["aa"] == 0
    with pytest.raises(AttributeError):
        s.m = 3
    again = load_scheme(dump_scheme(s))
    assert again == s and hash(again) == hash(s)
    assert len({s, again, preset_scheme("sec5-1")}) == 2
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert copied == s and hash(copied) == hash(s)
        with pytest.raises(TypeError):
            copied.wt["aa"] = Fraction(5)


def test_dump_scheme_round_trip_m1_boundary():
    s = WeightScheme(m=1, wt={"a": Fraction(1, 3)}, wt1={"": 2}, wt2={"": Fraction(5, 7)})
    text = dump_scheme(s)
    assert "wt1 = 2" in text
    assert load_scheme(text) == s


small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@settings(max_examples=40)
@given(
    m=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_dump_load_round_trip_random(m, data):
    wt = {w: data.draw(small_fraction) for w in all_words(m)}
    wt1 = {u: data.draw(small_fraction) for u in all_words(m - 1)}
    s = WeightScheme(m=m, wt=wt, wt1=wt1)
    assert load_scheme(dump_scheme(s)) == s
