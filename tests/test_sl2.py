import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.errors import DomainError
from plumbcalc.sl2 import (
    BundleType,
    MonodromyWord,
    SL2Element,
    TraceSign,
    _least_rotation,
    classify,
    format_word,
    lex_min_rotation,
    parse_word,
    rotation_equivalent,
    square_trace_check,
    torsion_order,
    word_to_matrix,
)

from conftest import brute_lex_min_rotation, hyperbolic_strings

words = st.builds(
    MonodromyWord,
    st.lists(st.integers(-9, 9), max_size=10).map(tuple),
    st.sampled_from([1, -1]),
)


class TestWordToMatrix:
    def test_single_three(self):
        assert word_to_matrix(MonodromyWord((3,))) == SL2Element(3, 1, -1, 0)

    def test_two_three(self):
        assert word_to_matrix(MonodromyWord((2, 3))) == SL2Element(5, 2, -3, -1)

    def test_empty_negative_is_minus_identity(self):
        assert word_to_matrix(MonodromyWord((), -1)) == SL2Element(-1, 0, 0, -1)

    def test_parabolic_exact_form(self):
        # T^{-n} S S = -T^{-n}: the word (n, 0) represents -T^{-n} exactly
        assert word_to_matrix(MonodromyWord((5, 0))) == SL2Element(-1, 5, 0, -1)
        assert word_to_matrix(MonodromyWord((-5, 0))) == SL2Element(-1, -5, 0, -1)

    @given(words)
    def test_determinant_is_one(self, w):
        m = word_to_matrix(w)
        assert m.a * m.d - m.b * m.c == 1

    @given(
        st.lists(st.integers(-9, 9), max_size=6).map(tuple),
        st.lists(st.integers(-9, 9), max_size=6).map(tuple),
    )
    def test_concatenation(self, a, b):
        lhs = word_to_matrix(MonodromyWord(a + b))
        rhs = word_to_matrix(MonodromyWord(a)) @ word_to_matrix(MonodromyWord(b))
        assert lhs == rhs

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8).map(tuple), st.integers(0, 7))
    def test_trace_is_rotation_invariant(self, a, r):
        r %= len(a)
        rotated = a[r:] + a[:r]
        assert word_to_matrix(MonodromyWord(a)).trace == word_to_matrix(MonodromyWord(rotated)).trace


class TestClassify:
    def test_hyperbolic_positive(self):
        assert classify(SL2Element(3, 1, -1, 0)) == (BundleType.HYPERBOLIC, TraceSign.POSITIVE)

    def test_minus_identity(self):
        assert classify(SL2Element(-1, 0, 0, -1)) == (BundleType.PARABOLIC, TraceSign.NEGATIVE)

    def test_s_is_elliptic_zero_trace(self):
        assert classify(SL2Element(0, 1, -1, 0)) == (BundleType.ELLIPTIC, TraceSign.ZERO)

    def test_hyperbolic_normal_forms_exhaustively(self):
        # all entries >= 2 and some >= 3 force a hyperbolic positive bundle
        for a in hyperbolic_strings(6, 6):
            m = word_to_matrix(MonodromyWord(a))
            assert m.trace > 2, a


class TestTorsionOrder:
    def test_examples(self):
        assert torsion_order(word_to_matrix(MonodromyWord((3,)))) == 1
        assert torsion_order(word_to_matrix(MonodromyWord((2, 3)))) == 2
        assert torsion_order(SL2Element(-1, -5, 0, -1)) == 4

    def test_trace_two_degenerate(self):
        with pytest.raises(DomainError) as err:
            torsion_order(word_to_matrix(MonodromyWord((2, 2))))
        assert err.value.code == "parabolic-positive"

    def test_squared_bundle_identity(self):
        # torsion of the squared monodromy is tr^2 - 4
        for a in hyperbolic_strings(6, 6):
            m = word_to_matrix(MonodromyWord(a))
            assert torsion_order(m @ m) == m.trace**2 - 4


class TestSquareTraceCheck:
    def test_examples(self):
        assert square_trace_check(word_to_matrix(MonodromyWord((3,)))) == (5, False)
        assert square_trace_check(word_to_matrix(MonodromyWord((3, 3, 3)))) == (320, False)

    def test_trace_eighteen(self):
        assert word_to_matrix(MonodromyWord((3, 3, 3))).trace == 18

    def test_parabolic_rejected(self):
        with pytest.raises(DomainError) as err:
            square_trace_check(word_to_matrix(MonodromyWord((2, 2))))
        assert err.value.code == "not-hyperbolic"


class TestRotationEquivalent:
    def test_examples(self):
        assert rotation_equivalent((4, 2), (2, 4))
        assert rotation_equivalent((4, 2), (4, 2))
        assert not rotation_equivalent((4, 2), (2, 2))

    def test_length_mismatch(self):
        assert not rotation_equivalent((4, 2), (4, 2, 2))

    def test_empty(self):
        assert rotation_equivalent((), ())


class TestWordSyntax:
    def test_parse_plain(self):
        assert parse_word("3,2,2") == MonodromyWord((3, 2, 2), 1)

    def test_parse_negative_sign(self):
        assert parse_word("-:2,2") == MonodromyWord((2, 2), -1)

    def test_parse_negative_entries(self):
        assert parse_word("-:-2,-2") == MonodromyWord((-2, -2), -1)

    def test_parse_empty(self):
        assert parse_word("-:") == MonodromyWord((), -1)

    def test_roundtrip(self):
        for text in ("3,2,2", "-:2,2", "-5,0"):
            assert format_word(parse_word(text)) == text

    def test_bad_token(self):
        with pytest.raises(DomainError):
            parse_word("3,x")


class TestSL2Element:
    def test_unimodular_enforced(self):
        with pytest.raises(DomainError):
            SL2Element(1, 0, 0, 2)

    def test_inverse(self):
        m = SL2Element(5, 2, -3, -1)
        assert m @ m.inverse() == SL2Element.identity()
        assert str(SL2Element(2, 1, 1, 1)) == "[[2,1],[1,1]]"


class TestLeastRotationOracle:
    """The least-rotation kernel against the comparison of every rotation."""

    @settings(max_examples=500)
    @given(st.lists(st.integers(-3, 3), max_size=16))
    def test_lex_min_rotation_matches_brute_force(self, s):
        assert lex_min_rotation(s) == brute_lex_min_rotation(s)
        if s:
            k = _least_rotation(tuple(s))
            assert 0 <= k < len(s)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4), st.integers(1, 6))
    def test_periodic_words(self, unit, copies):
        s = tuple(unit) * copies
        assert lex_min_rotation(s) == brute_lex_min_rotation(s)

    def test_periodic_examples(self):
        for k in range(1, 9):
            s = (2, 2, 3) * k
            for r in range(len(s)):
                assert lex_min_rotation(s[r:] + s[:r]) == s

    def test_lengths_zero_and_one(self):
        assert lex_min_rotation(()) == ()
        assert lex_min_rotation((-7,)) == (-7,)
        assert _least_rotation((5,)) == 0

    def test_negative_entries(self):
        assert lex_min_rotation((0, -1, 3, -1, -2)) == (-2, 0, -1, 3, -1)

    @settings(max_examples=500)
    @given(
        st.lists(st.integers(-2, 2), max_size=9),
        st.lists(st.integers(-2, 2), max_size=9),
    )
    def test_rotation_equivalent_matches_brute_force(self, a, b):
        a, b = tuple(a), tuple(b)
        expected = len(a) == len(b) and (
            not a or any(a[r:] + a[:r] == b for r in range(len(a)))
        )
        assert rotation_equivalent(a, b) == expected

    @settings(max_examples=200)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=12), st.integers(0, 100))
    def test_every_rotation_is_equivalent(self, s, shift):
        s = tuple(s)
        r = shift % len(s)
        assert rotation_equivalent(s, s[r:] + s[:r])


class _Counted:
    """A word entry that adds each comparison made on it to ``tally[0]``.
    ``==`` and ``!=`` count too: tuple comparison scans with them."""

    __slots__ = ("value", "tally")
    __hash__ = None

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def _compare(self, op, other):
        self.tally[0] += 1
        return op(self.value, other.value)

    def __lt__(self, other):
        return self._compare(operator.lt, other)

    def __le__(self, other):
        return self._compare(operator.le, other)

    def __eq__(self, other):
        return self._compare(operator.eq, other)

    def __ne__(self, other):
        return self._compare(operator.ne, other)


def _fibonacci_word(n):
    a, b = (2,), (2, 3)
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


ROTATION_WORDS = {
    "all-equal": lambda n: (2,) * n,
    "last-smaller": lambda n: (2,) * (n - 1) + (1,),
    "periodic": lambda n: (2, 2, 3) * (n // 3),
    "fibonacci": _fibonacci_word,
    "random": lambda n: tuple(random.Random(n).choices((2, 3), k=n)),
}


class TestLeastRotationComparisons:
    """The kernel makes O(n) entry comparisons, counted rather than timed.
    Taking the least of the n rotations makes n^2/6 or more on the
    all-equal, last-smaller and periodic words."""

    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    @pytest.mark.parametrize("family", sorted(ROTATION_WORDS))
    def test_at_most_six_per_entry(self, family, n):
        word = ROTATION_WORDS[family](n)
        tally = [0]
        k = _least_rotation(tuple(_Counted(x, tally) for x in word))
        assert word[k:] + word[:k] == brute_lex_min_rotation(word)
        assert tally[0] <= 6 * len(word), tally[0] / len(word)
