"""Descent words, permutations, and weight schemes.

A permutation pi of {1, ..., n} is encoded by its descent word u(pi), the
string over the alphabet {a, b} of length n - 1 whose i-th letter is ``a``
when pi_i < pi_{i+1} (an ascent) and ``b`` when pi_i > pi_{i+1} (a descent).

A weight scheme assigns an exact rational weight to every word of a fixed
window length m (``wt``), plus boundary weights on words of length m - 1
(``wt1`` for the prefix, ``wt2`` for the suffix).  The weight of a
permutation is the wt1/wt2-decorated product of ``wt`` over all length-m
windows of its descent word; forbidding a set of windows amounts to giving
them weight zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Letter = str  # 'a' or 'b'

__all__ = [
    "WeightScheme",
    "SchemeParseError",
    "all_words",
    "descent_word",
    "standardize",
    "reverse_complement",
    "symmetry_defect",
    "restrict_ends",
    "pattern_set",
    "load_scheme",
    "dump_scheme",
]


def all_words(length: int) -> list[str]:
    """All {a,b}-words of the given length in lexicographic order (a < b).

    >>> all_words(2)
    ['aa', 'ab', 'ba', 'bb']
    """
    return ["".join(w) for w in product("ab", repeat=length)]


def _check_word(word: str) -> None:
    if any(ch not in "ab" for ch in word):
        raise ValueError(f"word {word!r} has letters outside {{a, b}}")


def descent_word(pi: Sequence[int]) -> str:
    """Descent word of a sequence of distinct numbers.

    >>> descent_word((2, 3, 1))
    'ab'
    >>> descent_word((1,))
    ''
    """
    if len(set(pi)) != len(pi):
        raise ValueError("sequence has repeated entries")
    return "".join("a" if pi[i] < pi[i + 1] else "b" for i in range(len(pi) - 1))


def standardize(values: Sequence[float]) -> tuple[int, ...]:
    """Replace each entry by its rank, giving a permutation of {1, ..., n}.

    >>> standardize((5, 1, 4, 2))
    (4, 1, 3, 2)
    """
    if len(set(values)) != len(values):
        raise ValueError("entries must be distinct")
    order = sorted(range(len(values)), key=lambda i: values[i])
    rank = [0] * len(values)
    for r, i in enumerate(order, start=1):
        rank[i] = r
    return tuple(rank)


def reverse_complement(word: str) -> str:
    """Reverse the word and swap a <-> b.

    >>> reverse_complement('aab')
    'abb'
    >>> reverse_complement('ab')
    'ab'
    """
    _check_word(word)
    return word[::-1].translate(str.maketrans("ab", "ba"))


class _Frozen:
    """Base of the package's immutable records.

    A record's fields are its ``__slots__`` (a ``__dict__`` slot only holds
    cached properties), which its __init__ sets once, in order, through
    _set.  Records compare and hash as the tuple of their field values.
    """

    __slots__ = ()

    def _fields(self) -> list[str]:
        return [f for f in self.__slots__ if f != "__dict__"]

    def _set(self, *values) -> None:
        for name, value in zip(self._fields(), values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields())
        return f"{type(self).__name__}({fields})"


class WeightScheme(_Frozen):
    """Rational weights on length-m windows plus boundary weights.

    ``wt`` is total on all 2^m words of length m; ``wt1`` and ``wt2`` are
    total on all 2^(m-1) words of length m - 1 (for m = 1 that is the single
    empty word).  Unlisted weights default to 1.  Instances are immutable:
    the tables are read-only views, and a scheme hashes by their items.
    """

    __slots__ = ("m", "wt", "wt1", "wt2")
    m: int
    wt: Mapping[str, Fraction]
    wt1: Mapping[str, Fraction]
    wt2: Mapping[str, Fraction]

    def __init__(
        self,
        m: int,
        wt: Mapping[str, Fraction] | None = None,
        wt1: Mapping[str, Fraction] | None = None,
        wt2: Mapping[str, Fraction] | None = None,
    ) -> None:
        if m < 1:
            raise ValueError("window length m must be at least 1")
        tables = []
        for name, table, length in (
            ("wt", wt or {}, m),
            ("wt1", wt1 or {}, m - 1),
            ("wt2", wt2 or {}, m - 1),
        ):
            full = {}
            for word in all_words(length):
                full[word] = Fraction(table.get(word, 1))
            extra = set(table) - set(full)
            if extra:
                raise ValueError(f"{name} has words of wrong length: {sorted(extra)}")
            tables.append(MappingProxyType(full))
        self._set(m, *tables)

    def __hash__(self) -> int:
        return hash((self.m, *(tuple(sorted(t.items())) for t in self._values()[1:])))

    def __reduce__(self):  # a read-only view does not pickle: plain dicts do
        return type(self), (self.m, *map(dict, self._values()[1:]))

    def max_abs_weight(self) -> Fraction:
        vals = [abs(v) for v in self.wt.values()]
        return max(vals)

    def __repr__(self) -> str:  # compact: only non-default entries
        parts = [f"m={self.m}"]
        for name in ("wt", "wt1", "wt2"):
            table = getattr(self, name)
            odd = {w: str(v) for w, v in table.items() if v != 1}
            if odd:
                parts.append(f"{name}={odd}")
        return f"WeightScheme({', '.join(parts)})"


def symmetry_defect(scheme: WeightScheme) -> str | None:
    """None when the scheme is invariant under reading words backwards, else
    a message naming one offending pair.

    The reflection pi -> (n+1-pi_n, ..., n+1-pi_1) reverses the descent word,
    so a scheme with wt(w) = wt(reversed w) for every window and
    wt1(u) = wt2(reversed u) on the boundary gives every permutation and its
    reflection the same weight.
    """
    for w, v in scheme.wt.items():
        if v != scheme.wt[w[::-1]]:
            return f"wt({w}) = {v} differs from wt({w[::-1]}) = {scheme.wt[w[::-1]]}"
    for u, v in scheme.wt1.items():
        if v != scheme.wt2[u[::-1]]:
            return f"wt1({u}) = {v} differs from wt2({u[::-1]}) = {scheme.wt2[u[::-1]]}"
    return None


def restrict_ends(
    scheme: WeightScheme, start: Letter | None = None, end: Letter | None = None
) -> WeightScheme:
    """The scheme restricted to descent words that begin with ``start`` and
    end with ``end`` (None leaves that end free).

    The restriction is a change of boundary weights: wt1 is zeroed on the
    words that do not start with ``start``, wt2 on those that do not end
    with ``end``.  Defined for m >= 2, where the boundary words are the
    first and the last m - 1 letters; it acts on counts with n >= m, since
    shorter permutations carry no weights.
    """
    if start is None and end is None:
        return scheme
    if scheme.m < 2:
        raise ValueError("start/end refinements are defined only for m >= 2")
    for letter in (start, end):
        if letter not in (None, "a", "b"):
            raise ValueError(f"letter must be 'a' or 'b', got {letter!r}")
    return WeightScheme(
        scheme.m,
        scheme.wt,
        {u: v if start in (None, u[0]) else 0 for u, v in scheme.wt1.items()},
        {u: v if end in (None, u[-1]) else 0 for u, v in scheme.wt2.items()},
    )


def pattern_set(words: Iterable[str]) -> set[tuple[int, ...]]:
    """Permutations of length m + 1 whose descent word lies in the given set.

    All words must share one length m.  This realizes a set of forbidden (or
    selected) windows as the corresponding set of consecutive patterns.

    >>> sorted(pattern_set({'aa'}))
    [(1, 2, 3)]
    """
    words = set(words)
    if not words:
        return set()
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise ValueError(f"words of mixed lengths: {sorted(lengths)}")
    for w in words:
        _check_word(w)
    m = lengths.pop()
    return {
        sigma
        for sigma in permutations(range(1, m + 2))
        if descent_word(sigma) in words
    }


class SchemeParseError(ValueError):
    """Raised for malformed scheme text; message names the offending line."""


def _parse_rational(text: str, lineno: int, line: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            p_str, q_str = text.split("/", 1)
            p, q = int(p_str), int(q_str)
            if q <= 0:
                raise ValueError
            return Fraction(p, q)
        return Fraction(int(text))
    except ValueError:
        raise SchemeParseError(
            f"line {lineno}: malformed rational {text!r} in {line!r}"
        ) from None


def load_scheme(text: str) -> WeightScheme:
    """Parse scheme text into a WeightScheme.

    Format, one entry per line (``#`` starts a comment, order irrelevant)::

        m = 2
        wt aa = 0
        wt bb = 2
        wt1 a = 1/3

    Unlisted weights default to 1.  Each key may appear once.
    """
    entries: list[tuple[int, str, str, str, str]] = []  # lineno, line, kind, word, value
    m_decl: tuple[int, int] | None = None  # lineno, value
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemeParseError(f"line {lineno}: expected 'key = value' in {raw!r}")
        left, value = line.split("=", 1)
        fields = left.split()
        if len(fields) == 1 and fields[0] == "m":
            if m_decl is not None:
                raise SchemeParseError(f"line {lineno}: duplicate declaration of m")
            try:
                m_val = int(value.strip())
            except ValueError:
                raise SchemeParseError(
                    f"line {lineno}: malformed window length {value.strip()!r}"
                ) from None
            if m_val < 1:
                raise SchemeParseError(f"line {lineno}: window length m must be >= 1")
            m_decl = (lineno, m_val)
            continue
        if len(fields) == 1 and fields[0] in ("wt1", "wt2"):
            kind, word = fields[0], ""  # boundary weight on the empty word (m = 1)
        elif len(fields) == 2 and fields[0] in ("wt", "wt1", "wt2"):
            kind, word = fields
        else:
            raise SchemeParseError(f"line {lineno}: unrecognized entry {raw!r}")
        if any(ch not in "ab" for ch in word):
            raise SchemeParseError(
                f"line {lineno}: word {word!r} has letters outside {{a, b}}"
            )
        entries.append((lineno, raw, kind, word, value))
    if m_decl is None:
        raise SchemeParseError("missing 'm = <int>' declaration")
    m = m_decl[1]
    tables: dict[str, dict[str, Fraction]] = {"wt": {}, "wt1": {}, "wt2": {}}
    for lineno, raw, kind, word, value in entries:
        want = m if kind == "wt" else m - 1
        if len(word) != want:
            raise SchemeParseError(
                f"line {lineno}: {kind} word {word!r} has length {len(word)}, "
                f"expected {want} for m = {m}"
            )
        if word in tables[kind]:
            raise SchemeParseError(f"line {lineno}: duplicate entry {kind} {word!r}")
        tables[kind][word] = _parse_rational(value, lineno, raw)
    return WeightScheme(m=m, wt=tables["wt"], wt1=tables["wt1"], wt2=tables["wt2"])


def dump_scheme(scheme: WeightScheme) -> str:
    """Serialize a scheme so that load_scheme round-trips to an equal one."""
    lines = [f"m = {scheme.m}"]
    for name in ("wt", "wt1", "wt2"):
        table = getattr(scheme, name)
        for word in sorted(table):
            if word == "":  # m = 1 boundary weight on the empty word
                lines.append(f"{name} = {table[word]}")
            else:
                lines.append(f"{name} {word} = {table[word]}")
    return "\n".join(lines) + "\n"
