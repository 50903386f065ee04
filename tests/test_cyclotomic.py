"""Cyclotomic polynomials and exact field arithmetic in Q(omega_k)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from fermatgroups.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    poly_divmod,
    poly_mul,
)
from fermatgroups.errors import InvalidArgumentError

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


class TestPolynomialHelpers:
    def test_poly_mul_hand_value(self):
        # (1 + x)(1 - x + x^2) = 1 + x^3
        assert poly_mul((1, 1), (1, -1, 1)) == (1, 0, 0, 1)

    def test_poly_mul_empty(self):
        assert poly_mul((), (1, 2)) == ()

    def test_poly_divmod_hand_value(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1)
        quotient, remainder = poly_divmod((-1, 0, 0, 1), (-1, 1))
        assert quotient == (1, 1, 1)
        assert remainder == ()

    def test_poly_divmod_requires_monic(self):
        with pytest.raises(InvalidArgumentError):
            poly_divmod((1, 1), (2,))


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
        product = (1,)
        for d in range(1, k + 1):
            if k % d == 0:
                product = poly_mul(product, cyclotomic_polynomial(d))
        assert product == (-1,) + (0,) * (k - 1) + (1,)

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

    def test_cached_hash_matches_a_fresh_equal_value(self):
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

    def test_dict_round_trip(self):
        value = CyclotomicNumber(8, (Fraction(1, 2), 0, -3))
        assert CyclotomicNumber.from_dict(value.as_dict()) == value

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InvalidArgumentError):
            CyclotomicNumber.from_dict({"k": 3})
        with pytest.raises(InvalidArgumentError):
            CyclotomicNumber.from_dict({"k": 3, "coeffs": ["1/0"]})

    def test_minimal_polynomial_annihilates_root(self):
        # Phi_k(omega_k) = 0: the defining relation of the canonical basis
        for k in range(1, 16):
            omega = CyclotomicNumber.root_of_unity(k, 1)
            total = CyclotomicNumber.zero(k)
            for exponent, coefficient in enumerate(cyclotomic_polynomial(k)):
                total = total + coefficient * omega**exponent
            assert total == 0
