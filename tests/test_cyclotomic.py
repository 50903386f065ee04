"""Cyclotomic polynomials and exact field arithmetic in Q(omega_k)."""

import random
import sys
from fractions import Fraction
from math import gcd

import cyclotomic_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatgroups.cyclotomic import (
    CyclotomicNumber,
    _divide_monic,
    _integer_repr,
    cyclotomic_polynomial,
    euler_phi,
)
from fermatgroups.errors import InvalidArgumentError, ResourceLimitError
from fermatgroups.rationals import format_rational

# frozen expected values, lowest degree first; independently known closed forms
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


class TestEulerPhi:
    def test_known_values(self):
        assert [euler_phi(k) for k in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_multiplicative_on_coprime_pairs(self):
        for a in range(1, 20):
            for b in range(1, 20):
                if gcd(a, b) == 1:
                    assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            euler_phi(0)


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize("k,expected", sorted(KNOWN_PHI.items()))
    def test_known_polynomials(self, k, expected):
        assert cyclotomic_polynomial(k) == expected

    @pytest.mark.parametrize("k", range(1, 25))
    def test_product_over_divisors_is_x_k_minus_one(self, k):
        # defining identity: prod_{d | k} Phi_d(x) = x^k - 1
        product = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (k - 1) + [1]

    @pytest.mark.parametrize("k", range(1, 25))
    def test_degree_is_euler_phi(self, k):
        assert len(cyclotomic_polynomial(k)) - 1 == euler_phi(k)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            cyclotomic_polynomial(0)


class TestCyclotomicNumber:
    def test_root_powers_cycle(self):
        for k in range(1, 13):
            omega = CyclotomicNumber.root_of_unity(k, 1)
            assert omega**k == CyclotomicNumber.one(k)

    def test_product_of_roots_adds_exponents(self):
        omega = CyclotomicNumber.root_of_unity(3, 1)
        assert omega * omega**2 == 1

    def test_vanishing_sum(self):
        # 1 + omega + omega^2 = 0 in Q(omega_3)
        total = CyclotomicNumber(3, (1, 1, 1))
        assert total == 0
        assert not total

    @pytest.mark.parametrize(
        "k,texts",
        [
            # w, -w, 1 - w, w^2, -w^2 on the power basis of Q(omega_k)
            (3, ["w", "-w", "1 + -w", "-1 + -w", "1 + w"]),
            (4, ["w", "-w", "1 + -w", "-1", "1"]),
            (6, ["w", "-w", "1 + -w", "-1 + w", "1 + -w"]),
        ],
    )
    def test_str_prints_a_minus_one_coefficient_as_a_negated_power(self, k, texts):
        omega, one = CyclotomicNumber.root_of_unity(k, 1), CyclotomicNumber.one(k)
        values = [omega, -omega, one - omega, omega * omega, -(omega * omega)]
        assert [str(value) for value in values] == texts

    def test_str_keeps_every_other_coefficient_as_a_product(self):
        assert str(CyclotomicNumber(5, [0, -1, -2, -1])) == "-w + -2*w^2 + -w^3"
        assert str(CyclotomicNumber(5, [0, Fraction(-1, 2), 1, -3])) == "-1/2*w + w^2 + -3*w^3"
        assert str(CyclotomicNumber(7, [-1, 0, -1])) == "-1 + -w^2"

    def test_i_squared_is_minus_one(self):
        i = CyclotomicNumber.root_of_unity(4, 1)
        assert i * i == -1

    def test_is_rational(self):
        assert CyclotomicNumber.root_of_unity(3, 1).is_rational() is None
        assert CyclotomicNumber.root_of_unity(4, 2).is_rational() == Fraction(-1)
        assert CyclotomicNumber.from_rational(5, Fraction(7, 3)).is_rational() == Fraction(7, 3)

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CyclotomicNumber.one(3) * CyclotomicNumber.one(4)

    def test_repr_never_raises_for_wide_coefficients(self):
        # past the int-to-str digit limit a coefficient prints as its digit count
        assert repr(CyclotomicNumber(3, [10**4400])) == "CyclotomicNumber(3, ['<4401 digits>', '0'])"
        wide = CyclotomicNumber(3, [Fraction(-1, 10**5000), 10**4300 - 1])
        assert repr(wide) == f"CyclotomicNumber(3, ['-1/<5001 digits>', '{'9' * 4300}'])"
        assert repr(CyclotomicNumber(3, [Fraction(1, 2), -3])) == "CyclotomicNumber(3, ['1/2', '-3'])"

    def test_repr_digit_count_at_powers_of_ten_and_two(self):
        # past the limit the count is estimated from the bit length: never high,
        # and low by at most the one step the repr corrects.  The shorter ratio
        # 30103/100000 would count one digit too many for 2^13301.
        cases = {}
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            for bits in (37_767, 65_536, 100_003, 200_000):
                digits = len(str(1 << bits))
                cases.update({sign * ((1 << bits) + step): digits for sign in (1, -1) for step in (-1, 0, 1)})
            # every 2^e, and every 25th e with the neighbours, powers of ten and negations
            digits, ten_power = 1, 10
            for e in range(1, 20_001):
                power = 1 << e
                while power >= ten_power:
                    digits, ten_power = digits + 1, ten_power * 10
                cases[power] = digits
                if e % 25 == 0:
                    near = {power - 1: digits, power: digits, power + 1: digits, 10**e - 1: e, 10**e: e + 1, 10**e + 1: e + 1}
                    cases.update({sign * value: count for value, count in near.items() for sign in (1, -1)})
            sys.set_int_max_str_digits(640)
            for value, count in cases.items():
                expected = f"{'-' * (value < 0)}<{count} digits>" if count > 640 else str(value)
                assert _integer_repr(value) == expected, value.bit_length()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_constructor_folds_exponents(self):
        # omega^5 = omega^2 in Q(omega_3)
        assert CyclotomicNumber(3, (0, 0, 0, 0, 0, 1)) == CyclotomicNumber.root_of_unity(3, 2)

    def test_reduction_mod_phi_is_canonical(self):
        # omega^2 = -1 - omega on the basis {1, omega} of Q(omega_3)
        omega_squared = CyclotomicNumber.root_of_unity(3, 2)
        assert omega_squared.coeffs == (Fraction(-1), Fraction(-1))

    def test_scalar_arithmetic(self):
        omega = CyclotomicNumber.root_of_unity(5, 1)
        value = Fraction(2, 3) * omega + 1 - omega
        assert value == CyclotomicNumber(5, (1, Fraction(-1, 3)))

    def test_equality_and_hash_with_rationals(self):
        one = CyclotomicNumber.one(6)
        assert one == 1 and 1 == one
        assert hash(one) == hash(Fraction(1))
        irrational = CyclotomicNumber.root_of_unity(6, 1)
        assert irrational != 1

    @pytest.mark.parametrize(
        "other, equal",
        [(1, True), (Fraction(1), True), (2, False), (Fraction(1, 2), False), (True, False), (1.0, False), (None, False)],
    )
    def test_equality_with_a_plain_operand(self, other, equal):
        # ints and Fractions compare by value; a bool or float is not an exact operand
        one = CyclotomicNumber.one(6)
        assert (one == other) is equal and (other == one) is equal
        assert (one != other) is not equal
        assert (CyclotomicNumber.root_of_unity(6, 1) == other) is False

    def test_hash_matches_a_fresh_equal_value(self):
        value = CyclotomicNumber(5, [1, Fraction(2, 3), -4])
        first = hash(value)
        assert hash(value) == first == hash(CyclotomicNumber(5, [1, Fraction(2, 3), -4]))
        # equal after reduction: 1 + w + w^2 + w^3 + w^4 = 0 for k = 5
        assert hash(CyclotomicNumber(5, [2, Fraction(5, 3), -3, 1, 1])) == first

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(5), Fraction(-7, 3)])
    def test_rational_value_hashes_like_its_fraction(self, value):
        assert hash(CyclotomicNumber.from_rational(6, value)) == hash(value)
        # 1 + w + w^2 = 0 for k = 3, so this value is rational once reduced
        assert hash(CyclotomicNumber(3, [value + 1, 1, 1])) == hash(value)

    def test_sum_and_negation_hash_as_fresh_values(self):
        a = CyclotomicNumber(7, [1, 2, Fraction(1, 2)])
        b = CyclotomicNumber(7, [Fraction(-1, 3), 0, 5])
        hash(a), hash(b)  # operands with their hashes cached
        assert hash(a + b) == hash(CyclotomicNumber(7, [Fraction(2, 3), 2, Fraction(11, 2)]))
        assert hash(-a) == hash(CyclotomicNumber(7, [-1, -2, Fraction(-1, 2)]))
        assert hash(a - a) == hash(0)
        assert len({a + b, b + a, -(-(a + b))}) == 1

    def test_cross_order_equality_only_for_rationals(self):
        assert CyclotomicNumber.from_rational(3, 2) == CyclotomicNumber.from_rational(4, 2)
        assert CyclotomicNumber.root_of_unity(3, 1) != CyclotomicNumber.root_of_unity(4, 1)

    def test_pow_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            CyclotomicNumber.one(3) ** -1

    def test_ring_axioms_random(self):
        rng = random.Random(977)
        for _ in range(400):
            k = rng.randint(1, 12)
            def rand_value():
                return CyclotomicNumber(
                    k, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(k)]
                )
            a, b, c = rand_value(), rand_value(), rand_value()
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == CyclotomicNumber.zero(k)

    def test_coefficient_texts_past_the_digit_limit_raise(self):
        digits = sys.get_int_max_str_digits()
        for coeffs in ([10**digits], [0, Fraction(-1, 10**digits)]):
            value = CyclotomicNumber(4, coeffs)
            for text_form in (value.coefficient_texts, value.as_dict, value.__str__):
                with pytest.raises(ResourceLimitError, match=f"more than {digits} digits"):
                    text_form()

    def test_dict_round_trip(self):
        value = CyclotomicNumber(8, (Fraction(1, 2), 0, -3))
        assert CyclotomicNumber.from_dict(value.as_dict()) == value

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InvalidArgumentError):
            CyclotomicNumber.from_dict({"k": 3, "coeffs": ["1/0"]})
        # 5 was a bare TypeError; "12" was read as 1 + 2w and {"1": 2} as 1
        for payload in ({"k": 3}, {"k": 3, "coeffs": 5}, {"k": 3, "coeffs": "12"}, {"k": 3, "coeffs": {"1": 2}}):
            with pytest.raises(InvalidArgumentError, match="malformed cyclotomic payload"):
                CyclotomicNumber.from_dict(payload)

    @pytest.mark.parametrize("coeff", [0.1, 1.0, True, None, Fraction(1, 3), [1]])
    def test_from_dict_rejects_inexact_coefficients(self, coeff):
        # 0.1 used to become 3602879701896397/36028797018963968
        with pytest.raises(InvalidArgumentError, match='integers or "p/q" text'):
            CyclotomicNumber.from_dict({"k": 3, "coeffs": [coeff]})

    def test_from_dict_reads_integers_and_text(self):
        value = CyclotomicNumber.from_dict({"k": 3, "coeffs": [2, "-1/3", 0]})
        assert value == CyclotomicNumber(3, (2, Fraction(-1, 3)))

    def test_minimal_polynomial_annihilates_root(self):
        # Phi_k(omega_k) = 0: the defining relation of the canonical basis
        for k in range(1, 16):
            omega = CyclotomicNumber.root_of_unity(k, 1)
            total = CyclotomicNumber.zero(k)
            for exponent, coefficient in enumerate(cyclotomic_polynomial(k)):
                total = total + coefficient * omega**exponent
            assert total == 0


# differential: the integer field elements against the former Fraction class

coefficient_st = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-(10**30), 10**30),
)


@st.composite
def value_pairs(draw, count=2):
    """`count` coefficient lists for one k, up to 2k long so exponents fold."""
    k = draw(st.integers(1, 12))
    lists = [draw(st.lists(coefficient_st, max_size=2 * k)) for _ in range(count)]
    return k, lists


def both(k, coeffs):
    return CyclotomicNumber(k, coeffs), oracle.CyclotomicNumber(k, coeffs)


def assert_same(value, expected):
    """Every observable of one integer value against its oracle value."""
    nums, den = value._nums, value._den
    assert len(nums) == euler_phi(value.k)
    assert den > 0 and gcd(den, *nums) == 1
    assert value.coeffs == expected.coeffs
    assert all(type(c) is Fraction for c in value.coeffs)
    assert value.is_rational() == expected.is_rational()
    assert hash(value) == hash(expected)
    assert bool(value) == bool(expected)
    assert value.as_dict() == expected.as_dict()
    assert str(value) == str(expected)
    assert repr(value) == repr(expected)


class TestAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(value_pairs(count=2), st.integers(0, 5))
    def test_arithmetic(self, case, exponent):
        k, (first, second) = case
        a, a_oracle = both(k, first)
        b, b_oracle = both(k, second)
        assert_same(a, a_oracle)
        assert_same(a + b, a_oracle + b_oracle)
        assert_same(a - b, a_oracle - b_oracle)
        assert_same(-a, -a_oracle)
        assert_same(a * b, a_oracle * b_oracle)
        assert_same(a**exponent, a_oracle**exponent)
        assert (a == b) is (a_oracle == b_oracle)

    @settings(max_examples=200, deadline=None)
    @given(value_pairs(count=1), st.one_of(st.integers(-9, 9), coefficient_st))
    def test_mixed_with_rationals(self, case, scalar):
        k, (coeffs,) = case
        a, a_oracle = both(k, coeffs)
        assert_same(a + scalar, a_oracle + scalar)
        assert_same(scalar + a, scalar + a_oracle)
        assert_same(a - scalar, a_oracle - scalar)
        assert_same(scalar - a, scalar - a_oracle)
        assert_same(a * scalar, a_oracle * scalar)
        assert_same(scalar * a, scalar * a_oracle)
        assert (a == scalar) is (a_oracle == scalar)
        assert (a == Fraction(scalar)) is (a_oracle == Fraction(scalar))
        rational, rational_oracle = both(k, [scalar])
        assert (rational == scalar) is (rational_oracle == scalar) is True
        assert hash(rational) == hash(Fraction(scalar))

    @settings(max_examples=300, deadline=None)
    @given(value_pairs(count=1))
    def test_coefficient_texts_format_the_fraction_coefficients(self, case):
        k, (coeffs,) = case
        value = CyclotomicNumber(k, coeffs)
        assert value.coefficient_texts() == [format_rational(c) for c in value.coeffs]

    @settings(max_examples=200, deadline=None)
    @given(value_pairs(count=1), st.integers(0, 40))
    def test_rotation_is_the_root_of_unity_product(self, case, shift):
        k, (coeffs,) = case
        a, a_oracle = both(k, coeffs)
        shift %= k
        expected = oracle.CyclotomicNumber.root_of_unity(k, shift) * a_oracle
        assert_same(a._rotated(shift), expected)

    @settings(max_examples=100, deadline=None)
    @given(value_pairs(count=1), st.integers(1, 12))
    def test_cross_order_equality(self, case, other_k):
        k, (coeffs,) = case
        a, a_oracle = both(k, coeffs)
        b, b_oracle = both(other_k, coeffs[:1])
        assert (a == b) is (a_oracle == b_oracle)


class TestCanonicalForm:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_equal_values_share_one_representation(self, k):
        # (2/6) + (1/6)*omega^k folds onto the constant term: (1/2) in lowest terms
        value = CyclotomicNumber(k, [Fraction(2, 6)] + [0] * (k - 1) + [Fraction(1, 6)])
        assert value._nums == (1,) + (0,) * (euler_phi(k) - 1)
        assert value._den == 2
        assert value == Fraction(1, 2)

    def test_zero_is_over_one(self):
        for k in range(1, 13):
            # 3/7 - (3/7)*omega^k = 0
            zero = CyclotomicNumber(k, [Fraction(3, 7)] + [0] * (k - 1) + [Fraction(-3, 7)])
            assert zero._nums == (0,) * euler_phi(k) and zero._den == 1
            assert (CyclotomicNumber(k, [Fraction(1, 3)]) * 0)._den == 1

    def test_product_divides_out_the_common_factor(self):
        half = CyclotomicNumber(5, [Fraction(1, 2), Fraction(1, 2)])
        two = CyclotomicNumber(5, [2])
        product = half * two
        assert (product._nums, product._den) == ((1, 1, 0, 0), 1)


class TestAgainstSympy:
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    @pytest.mark.parametrize("k", range(1, 111))
    def test_cyclotomic_polynomial(self, k):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expected = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(k) == tuple(int(c) for c in expected)

    @settings(max_examples=200, deadline=None)
    @given(
        poly=st.lists(st.integers(-(10**6), 10**6), max_size=40),
        divisor=st.one_of(
            st.integers(1, 60).map(cyclotomic_polynomial),
            st.lists(st.integers(-20, 20), max_size=10).map(lambda low: (*low, 1)),
        ),
    )
    def test_long_division(self, poly, divisor):
        # remainder in poly[:deg], quotient in poly[deg:], both lowest degree first
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def as_poly(coeffs):
            return sympy.Poly.from_list(coeffs[::-1] or [0], x)

        quotient, remainder = sympy.div(as_poly(poly), as_poly(list(divisor)))
        divided = list(poly)
        deg = _divide_monic(divided, divisor)
        assert deg == len(divisor) - 1
        assert (as_poly(divided[deg:]), as_poly(divided[:deg])) == (quotient, remainder)


def _primitive_root(p: int) -> int:
    factors = {q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))}
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _jacobi_sum_and_conjugate(k, p, i, j):
    """J(chi^i, chi^j) = sum over a of chi^i(a)*chi^j(1 - a), and its complex conjugate, in Q(omega_k).

    chi is the character of order k mod p sending a primitive root g to
    omega_k, so chi^i(g^t) = omega_k^(i*t), and chi(0) = 0 drops a = 0 and 1.
    """
    g = _primitive_root(p)
    index = {pow(g, t, p): t for t in range(p - 1)}
    counts = [0] * k
    for a in range(2, p):
        counts[(i * index[a] + j * index[(1 - a) % p]) % k] += 1
    roots = [CyclotomicNumber.root_of_unity(k, e) for e in range(k)]
    jacobi = sum(count * roots[e] for e, count in enumerate(counts))
    conjugate = sum(count * roots[-e % k] for e, count in enumerate(counts))
    return jacobi, conjugate


JACOBI_CASES = [
    (k, p)
    for k in range(3, 9)
    for p in range(3, 200)
    if p % k == 1 and all(p % d for d in range(2, p))
]


class TestJacobiSums:
    # |J(chi^i, chi^j)|^2 = p whenever chi^i, chi^j and chi^(i+j) are all
    # nontrivial: an identity of the field arithmetic the library never uses
    @pytest.mark.parametrize("k, p", JACOBI_CASES, ids=[f"k{k}-p{p}" for k, p in JACOBI_CASES])
    def test_norm_is_p(self, k, p):
        for i in range(1, k):
            for j in range(1, k):
                if (i + j) % k:
                    jacobi, conjugate = _jacobi_sum_and_conjugate(k, p, i, j)
                    # p is not a square, so J itself is irrational
                    assert jacobi.is_rational() is None
                    assert (jacobi * conjugate).is_rational() == p
