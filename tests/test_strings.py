from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc import strings
from plumbcalc.cli import main
from plumbcalc.errors import ContractError, DomainError
from plumbcalc.intmat import is_perfect_square
from plumbcalc.sl2 import MonodromyWord, rotation_equivalent, word_to_matrix
from plumbcalc.strings import (
    _MAX_ENTRIES,
    FamilyParams,
    cf_value,
    dual_string,
    family_string,
    format_int_string,
    parse_family_params,
    parse_int_string,
    recognize_family,
    split_relabel,
)

from conftest import (
    all_strings,
    best_cpu_seconds,
    family_of_length,
    family_parameter_space,
    reference_recognize_family,
)


def dual_corpus():
    return [s for s in all_strings(6, 2, 6)]


class TestCfValue:
    def test_examples(self):
        assert cf_value((3,)) == Fraction(3, 1)
        assert cf_value((2, 2)) == Fraction(3, 2)
        assert cf_value((3, 2)) == Fraction(5, 2)

    def test_reduced_with_p_greater_than_q(self):
        for b in all_strings(5, 2, 5):
            pq = cf_value(b)
            assert pq.numerator > pq.denominator >= 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError) as err:
            cf_value(())
        assert err.value.code == "empty-string"

    def test_entries_below_two_rejected(self):
        with pytest.raises(DomainError):
            cf_value((3, 1))


class TestDualString:
    def test_all_twos(self):
        assert dual_string((2, 2, 2)) == (4,)

    def test_single_three(self):
        assert dual_string((3,)) == (2, 2)

    def test_palindrome(self):
        assert dual_string((2, 3, 2)) == (3, 3)

    def test_all_twos_family(self):
        for k in range(1, 21):
            assert dual_string((2,) * k) == (k + 1,)

    def test_involution_exhaustive(self):
        for b in dual_corpus():
            assert dual_string(dual_string(b)) == b

    def test_cf_duality_exhaustive(self):
        for b in dual_corpus():
            p, q = cf_value(b).numerator, cf_value(b).denominator
            assert cf_value(dual_string(b)) == Fraction(p, p - q)

    def test_length_identity(self):
        # len(dual(b)) = sum(b) - 2 len(b) + 1
        assert dual_string((3,)) == (2, 2) and 3 - 2 * 1 + 1 == 2
        assert dual_string((2, 2, 2)) == (4,) and 6 - 2 * 3 + 1 == 1
        assert dual_string((2, 3)) == (3, 2) and 5 - 2 * 2 + 1 == 2
        for b in dual_corpus():
            assert len(dual_string(b)) == sum(b) - 2 * len(b) + 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            dual_string(())


class TestIntegerDualContract:
    """dual_string checks its contract through the one T^k S product:
    (a, -c) of word_to_matrix is cf_value's reduced (numerator, denominator)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 9), min_size=1, max_size=80))
    def test_matrix_pair_is_the_continued_fraction(self, b):
        m = word_to_matrix(MonodromyWord(tuple(b)))
        v = cf_value(b)
        assert (m.a, -m.c) == (v.numerator, v.denominator)

    def test_family_606_under_2ms(self):
        a = family_of_length(606, 10, 606)
        p, q = cf_value(a).numerator, cf_value(a).denominator
        assert cf_value(dual_string(a)) == Fraction(p, p - q)
        assert best_cpu_seconds(lambda: dual_string(a)) < 0.002

    def test_broken_rule_fires_the_contract(self, monkeypatch, capsys):
        monkeypatch.setattr(strings, "_dual_rule", lambda b: b)  # a rule that returns its input
        with pytest.raises(ContractError) as err:
            dual_string((3, 2))
        assert err.value.code == "contract-dual-string"
        assert main(["dual", "3,2"]) == 1
        assert capsys.readouterr().out == "error=contract-dual-string\n"


class TestFamilyString:
    def test_base(self):
        assert family_string(FamilyParams(0, (0,))) == (3,)

    def test_single_twist(self):
        assert family_string(FamilyParams(0, (1,))) == (4, 2)

    def test_k_one_zero(self):
        assert family_string(FamilyParams(1, (0, 0, 0))) == (3, 3, 3)

    def test_k_one_mixed(self):
        assert family_string(FamilyParams(1, (0, 0, 1))) == (3, 4, 3, 2)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            FamilyParams(1, (0, 0))
        with pytest.raises(DomainError):
            FamilyParams(0, (-1,))

    def test_entries_hyperbolic_form(self):
        for params in family_parameter_space(2, 2):
            s = family_string(params)
            assert all(x >= 2 for x in s)
            assert any(x >= 3 for x in s)


class TestRecognizeFamily:
    def test_examples(self):
        assert recognize_family((3, 3, 3)) == FamilyParams(1, (0, 0, 0))
        assert recognize_family((2, 4)) == FamilyParams(0, (1,))
        assert recognize_family((2, 2, 2)) is None

    def test_non_member(self):
        assert recognize_family((2, 2, 3)) is None
        assert recognize_family((3, 3)) is None
        assert recognize_family((1, 3)) is None

    def test_roundtrip_is_exact(self):
        for params in family_parameter_space(2, 3):
            assert recognize_family(family_string(params)) == params

    def test_membership_is_rotation_insensitive(self):
        s = family_string(FamilyParams(1, (1, 0, 2)))
        for r in range(len(s)):
            recovered = recognize_family(s[r:] + s[:r])
            assert recovered is not None
            # any recovered parameterization regenerates a rotation of s
            b = family_string(recovered)
            assert any(b[t:] + b[:t] == s for t in range(len(s)))


class TestSplitRelabel:
    def test_single_block(self):
        assert split_relabel((4, 2)) == ((2,), (2,))

    def test_three_threes(self):
        assert split_relabel((3, 3, 3)) == ((2, 2), (3,))

    def test_special_case_rejected(self):
        with pytest.raises(DomainError) as err:
            split_relabel((3,))
        assert err.value.code == "special-case"

    def test_non_member_rejected(self):
        with pytest.raises(DomainError) as err:
            split_relabel((2, 2, 3))
        assert err.value.code == "not-in-family"

    def test_duality_across_family(self):
        for params in family_parameter_space(2, 3):
            if params.k == 0 and params.xs == (0,):
                continue
            d, e = split_relabel(family_string(params))
            assert dual_string(d) == e
            assert all(x >= 2 for x in d)


class TestFamilyTraceShadow:
    def test_spot_values(self):
        expected = {(3,): 1, (4, 2): 4, (5, 2, 2): 9, (3, 3, 3): 16}
        for a, value in expected.items():
            t = word_to_matrix(MonodromyWord(a)).trace
            assert t - 2 == value

    def test_trace_minus_two_is_square(self):
        for params in family_parameter_space(2, 3):
            a = family_string(params)
            t = word_to_matrix(MonodromyWord(a)).trace
            assert t > 2
            assert is_perfect_square(t - 2), a

    def test_squared_trace_is_never_square(self):
        for params in family_parameter_space(2, 3):
            a = family_string(params)
            t = word_to_matrix(MonodromyWord(a)).trace
            assert not is_perfect_square(t * t - 4), a


class TestSyntax:
    def test_string_roundtrip(self):
        assert parse_int_string("3,2,2") == (3, 2, 2)
        assert format_int_string((3, 2, 2)) == "3,2,2"

    def test_family_params(self):
        assert parse_family_params("k=1;x=0,0,0") == FamilyParams(1, (0, 0, 0))

    def test_bad_params(self):
        with pytest.raises(DomainError):
            parse_family_params("k=1")
        with pytest.raises(DomainError):
            parse_family_params("k=1;x=0")

    def test_family_params_fields(self):
        assert parse_family_params("x=0,0,0;k=1") == FamilyParams(1, (0, 0, 0))
        for text in ("k=1;x=0,0,0;junk", "k=1;x=0,0,0;k=2", "k=1;x=0,0,0;", "k=1;k=1"):
            with pytest.raises(DomainError) as err:
                parse_family_params(text)
            assert err.value.code == "family-syntax", text


family_params = st.integers(0, 3).flatmap(
    lambda k: st.lists(
        st.integers(0, 4), min_size=2 * k + 1, max_size=2 * k + 1
    ).map(lambda xs: FamilyParams(k, tuple(xs)))
)


class TestFirstRotationParse:
    """recognize_family parses one rotation; the reference tries them all."""

    @settings(max_examples=400)
    @given(st.lists(st.integers(2, 5), max_size=14))
    def test_random_strings_match_reference(self, s):
        assert recognize_family(s) == reference_recognize_family(s)

    @settings(max_examples=300)
    @given(family_params, st.integers(0, 10**6))
    def test_rotated_family_strings_match_reference(self, params, shift):
        s = family_string(params)
        r = shift % len(s)
        rotated = s[r:] + s[:r]
        found = recognize_family(rotated)
        assert found is not None and found == reference_recognize_family(rotated)
        # the parameters found generate a rotation of the input
        assert rotation_equivalent(family_string(found), rotated)

    def test_exhaustive_small_strings_match_reference(self):
        for s in all_strings(7, 2, 4):
            assert recognize_family(s) == reference_recognize_family(s), s

    def test_split_of_rotations_matches_canonical_parse(self):
        for params in family_parameter_space(1, 2):
            s = family_string(params)
            if s == (3,):
                continue
            for r in range(len(s)):
                rotated = s[r:] + s[:r]
                canonical = family_string(reference_recognize_family(rotated))
                assert split_relabel(rotated) == split_relabel(canonical)

    def test_long_non_member_is_fast(self):
        # 1999 entries >= 3 (odd), but the block containing 4 breaks consistency;
        # trying every rotation made this quadratic (seconds at this length)
        s = (3,) * 1998 + (4, 2)
        assert recognize_family(s) is None
        assert best_cpu_seconds(lambda: recognize_family(s)) < 0.05

    def test_long_member_is_fast(self):
        params = FamilyParams(500, tuple(i % 3 for i in range(1001)))
        s = family_string(params)
        rotated = s[len(s) // 2:] + s[: len(s) // 2]
        found = recognize_family(rotated)
        assert found is not None and rotation_equivalent(family_string(found), s)
        assert best_cpu_seconds(lambda: recognize_family(rotated)) < 0.05


class TestOutputSizeLimit:
    """Strings longer than the cap fail with too-large before they are built."""

    def test_dual_of_huge_entry(self):
        with pytest.raises(DomainError) as info:
            dual_string((10**9,))
        assert info.value.code == "too-large"

    def test_family_string_boundary(self):
        assert len(family_string(FamilyParams(0, (_MAX_ENTRIES - 1,)))) == _MAX_ENTRIES
        with pytest.raises(DomainError) as info:
            family_string(FamilyParams(0, (_MAX_ENTRIES,)))
        assert info.value.code == "too-large"
