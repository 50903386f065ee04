"""Projective rational line, heights, text codec, and exact 2x2 matrices."""

import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fermatgroups.errors import InvalidArgumentError, ResourceLimitError
from fermatgroups.rationals import (
    INF,
    Infinity,
    Mat2,
    as_projective,
    check_digit_limit,
    format_pair,
    format_point,
    format_projective,
    format_rational,
    height,
    parse_point,
    parse_projective,
    parse_rational,
    pr_neg,
    projective_pair,
    projective_ratio,
    rational,
)

fractions_st = st.fractions(max_denominator=60)
projective_st = st.one_of(st.just(INF), fractions_st)


class TestRationalConstruction:
    def test_reduces_and_normalizes_sign(self):
        assert rational(6, -4) == Fraction(-3, 2)
        assert rational(6, -4).denominator == 2

    def test_zero_is_zero_over_one(self):
        value = rational(0, 7)
        assert (value.numerator, value.denominator) == (0, 1)

    def test_integer_collapse(self):
        assert rational(25, 5) == Fraction(5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rational(1, 0)


class TestFieldAxioms:
    def test_random_field_axioms(self):
        # structural sanity for the arithmetic backbone everything relies on
        rng = random.Random(20260819)
        for _ in range(10_000):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            assert a + (-a) == 0
            if a != 0:
                assert a * (1 / a) == 1

    @given(fractions_st, fractions_st)
    def test_reduced_form_is_canonical(self, a, b):
        # equal values constructed differently compare and hash identically
        if b == 0:
            return
        tripled = Fraction(a.numerator * 3 * b.denominator, a.denominator * 3 * b.denominator)
        assert tripled == a
        assert hash(tripled) == hash(a)


class TestInfinity:
    def test_singleton(self):
        assert Infinity() is INF

    def test_repr(self):
        assert repr(INF) == "inf"

    def test_not_equal_to_fractions(self):
        assert INF != Fraction(0) and INF != 10**9

    def test_negation_fixes_infinity(self):
        assert pr_neg(INF) is INF
        assert pr_neg(Fraction(2, 3)) == Fraction(-2, 3)

    def test_as_projective_accepts_int_fraction_inf(self):
        assert as_projective(3) == Fraction(3)
        assert as_projective(INF) is INF
        with pytest.raises(InvalidArgumentError):
            as_projective(0.5)
        with pytest.raises(InvalidArgumentError):
            as_projective(True)


class TestProjectiveRatio:
    def test_finite(self):
        assert projective_ratio(Fraction(1), Fraction(2)) == Fraction(1, 2)

    def test_pole(self):
        assert projective_ratio(Fraction(3), Fraction(0)) is INF

    def test_indeterminate_is_none(self):
        assert projective_ratio(Fraction(0), Fraction(0)) is None

    def test_matches_fraction_division_on_integer_pairs(self):
        rng = random.Random(22)
        pairs = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(2000)]
        pairs += [(3, -6), (-4, -8), (0, -5), (7, 1), (10**40 + 1, -(10**20))]
        for num, den in pairs:
            if den == 0:
                continue
            result = projective_ratio(num, den)
            assert type(result) is Fraction
            assert result == Fraction(num) / Fraction(den)
            assert result.denominator > 0

    def test_integer_poles(self):
        assert projective_ratio(0, 0) is None
        for num in (1, -1, 5, -10**30):
            assert projective_ratio(num, 0) is INF

    def test_fraction_arguments(self):
        assert projective_ratio(Fraction(3, 4), Fraction(-9, 2)) == Fraction(-1, 6)


class TestHeight:
    def test_examples(self):
        assert height(Fraction(3, 5)) == 5
        assert height(Fraction(0)) == 1
        assert height((Fraction(-7, 25), Fraction(24, 25))) == 25

    def test_integers(self):
        assert height(-17) == 17

    @given(fractions_st)
    def test_sign_invariance(self, q):
        assert height(q) == height(-q)

    @given(fractions_st)
    def test_at_least_one(self, q):
        assert height(q) >= 1

    def test_infinity_rejected(self):
        with pytest.raises(InvalidArgumentError):
            height(INF)

    def test_empty_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            height(())

    def test_value_without_components_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^height undefined for <object object"):
            height(object())


class TestTextCodec:
    def test_parse_plain_and_slash(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-3/6") == Fraction(-1, 2)

    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(5)) == "5/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1/2/3", "1.5", "inf"])
    def test_malformed_rational_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_rational(bad)

    @pytest.mark.parametrize("token", ["9" * 4301, "-" + "9" * 5000, "1/" + "7" * 4301])
    def test_parse_past_int_str_limit_names_the_limit(self, token):
        # CPython's int-from-str digit limit is a resource limit, not bad syntax
        with pytest.raises(ResourceLimitError) as caught:
            parse_rational(token)
        message = str(caught.value)
        assert "4300" in message
        assert len(message) < 200

    def test_parse_at_int_str_limit_succeeds(self):
        assert parse_rational("9" * 4300) == 10**4300 - 1

    def test_projective_inf(self):
        assert parse_projective("inf") is INF
        assert format_projective(INF) == "inf"

    @given(fractions_st)
    def test_rational_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(projective_st)
    def test_projective_round_trip(self, value):
        parsed = parse_projective(format_projective(value))
        if isinstance(value, Infinity):
            assert parsed is INF
        else:
            assert parsed == value

    @given(st.lists(fractions_st, min_size=1, max_size=4))
    def test_components_format_each_value(self, values):
        assert format_point(values).split(",") == [format_rational(v) for v in values]

    def test_components_share_a_denominator(self):
        assert format_point([Fraction(-3, 5), Fraction(4, 5)]) == "-3/5,4/5"
        assert format_point([Fraction(1, 2), 3]) == "1/2,3/1"

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_decimal_triple_texts_match_format_rational(self, a, b, c):
        # a reduced triple: both coordinates in lowest terms over c > 0
        assume(gcd(a, c) == 1 and gcd(b, c) == 1)
        a_text, b_text, c_text = map(str, (Decimal(a), Decimal(b), Decimal(c)))
        # a printer joins a/c from a's text, "/" and c's text
        x, y = f"{a_text}/{c_text}", f"{b_text}/{c_text}"
        assert (x, y) == (format_rational(Fraction(a, c)), format_rational(Fraction(b, c)))
        assert c_text == str(c)

    @pytest.mark.parametrize(
        "values", [[Fraction(1, 10**4400)], [Fraction(10**4400 - 1, 10**4400), Fraction(1, 10**4400)], [1, 10**4400]]
    )
    def test_components_past_int_str_limit_name_the_limit(self, values):
        with pytest.raises(ResourceLimitError, match="4300"):
            format_point(values)

    @pytest.mark.parametrize("exponent, sign", [(4300, 1), (4400, 1), (4400, -1)])
    def test_digit_check_past_int_str_limit_names_the_limit(self, exponent, sign):
        with pytest.raises(ResourceLimitError, match="4300"):
            check_digit_limit(Decimal(sign * 10**exponent))

    @pytest.mark.parametrize("digits", [640, 4300])
    def test_digit_check_agrees_with_int_printing(self, digits):
        # a value as wide as the limit passes and prints as its int does,
        # one digit wider names the limit; neither counts the sign
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            c = 10**digits - 1
            for value in (c, 1 - c):
                check_digit_limit(Decimal(value))
                assert str(Decimal(value)) == str(value)
            for value in (10 * c + 9, 1 - 10 * c):
                with pytest.raises(ValueError):
                    str(value)
                with pytest.raises(ResourceLimitError, match=str(digits)):
                    check_digit_limit(Decimal(value))
        finally:
            sys.set_int_max_str_digits(limit)

    @given(projective_st)
    def test_pair_matches_format_projective(self, value):
        assert format_pair(*projective_pair(value)) == format_projective(value)

    @pytest.mark.parametrize("pair", [(1, 10**4400), (10**4400, 1)])
    def test_pair_past_int_str_limit_names_the_limit(self, pair):
        with pytest.raises(ResourceLimitError, match="4300"):
            format_pair(*pair)

    @given(projective_st)
    def test_projective_pair(self, value):
        n, m = projective_pair(value)
        if isinstance(value, Infinity):
            assert (n, m) == (1, 0)
        else:
            assert Fraction(n, m) == value and m > 0

    def test_point_round_trip(self):
        point = (Fraction(-3, 5), Fraction(4, 5))
        assert parse_point(format_point(point)) == point

    @pytest.mark.parametrize("bad", ["1", "1,2,3", "1,", ",2"])
    def test_malformed_point_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_point(bad)


class TestMat2:
    def test_identity_and_application(self):
        assert Mat2.identity().apply(Fraction(2, 3), Fraction(-1)) == (Fraction(2, 3), Fraction(-1))

    def test_product_against_hand_value(self):
        # [[1,2],[3,4]] * [[0,1],[1,0]] swaps columns
        a = Mat2(1, 2, 3, 4)
        b = Mat2(0, 1, 1, 0)
        assert a * b == Mat2(2, 1, 4, 3)

    @given(st.lists(fractions_st, min_size=12, max_size=12))
    def test_associativity_and_det(self, entries):
        a = Mat2(*entries[0:4])
        b = Mat2(*entries[4:8])
        c = Mat2(*entries[8:12])
        assert (a * b) * c == a * (b * c)
        assert (a * b).det() == a.det() * b.det()

    def test_power_matches_repeated_product(self):
        m = Mat2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
        expected = Mat2.identity()
        for exponent in range(8):
            assert m**exponent == expected
            expected = expected * m

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Mat2.identity() ** -1
