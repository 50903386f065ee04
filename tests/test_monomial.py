"""Monomial groups: product law vs dense matrices, orbits, rational subgroups."""

import ast
import random
import time
import tracemalloc
from fractions import Fraction
from math import ceil, factorial, log2
from operator import itemgetter
from pathlib import Path

import monomial_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from monomial_oracle import orbit_vectors, twist

from fermatgroups import cyclotomic, monomial
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.errors import InvalidArgumentError, ResourceLimitError
from fermatgroups.monomial import MonomialMatrix


def dense(element):
    # oracle: materialize the full cyclotomic matrix of an element
    k, n = element.k, element.n
    zero = CyclotomicNumber.zero(k)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[element.perm[i]] = CyclotomicNumber.root_of_unity(k, element.exponents[i])
        rows.append(tuple(row))
    return tuple(rows)


def dense_mul(a, b):
    # oracle: textbook matrix product over the cyclotomic field
    n = len(a)
    return tuple(
        tuple(sum((a[i][m] * b[m][j] for m in range(n)), start=a[0][0] * 0) for j in range(n))
        for i in range(n)
    )


def dense_apply(matrix, vector):
    n = len(matrix)
    return tuple(
        sum((matrix[i][j] * vector[j] for j in range(n)), start=matrix[0][0] * 0)
        for i in range(n)
    )


def orbit_and_stabilizer_oracle(vector):
    # oracle: apply every element of the group to the vector
    k = vector[0].k
    orbit, stabilizer = set(), []
    for element in monomial.enumerate_group(k, len(vector)):
        image = element.apply(vector)
        orbit.add(image)
        if image == vector:
            stabilizer.append(element)
    return orbit, stabilizer


def closure_oracle(elements):
    # oracle: every product of validated elements, looked up among them
    members = set(elements)
    return all(a * b in members for a in elements for b in elements)


def pairs(elements):
    return [(element.perm, element.exponents) for element in elements]


def all_pairs_closed(k, pairs):
    """Oracle: the former closure check, every product of two pairs looked up among them.

    Uses the pair law (sigma, l)(tau, m) = (tau o sigma, l + m o sigma mod k),
    which `monomial._times` gives on line permutations, over all |S|^2 pairs.
    """
    members = set(pairs)
    for perm, exps in pairs:
        pick = itemgetter(*perm) if len(perm) > 1 else tuple
        for other_perm, other_exps in pairs:
            product = (pick(other_perm), tuple([(a + b) % k for a, b in zip(exps, pick(other_exps))]))
            if product not in members:
                return False
    return True


def shaped_vectors(k, n):
    """Vectors with zero, repeated, negated, omega-multiple and cyclotomic components."""
    two = CyclotomicNumber.from_rational(k, 2)
    other = CyclotomicNumber.from_rational(k, Fraction(-3, 2))
    zero = CyclotomicNumber.zero(k)
    cyc = CyclotomicNumber(k, [Fraction(1, 2), -1])
    shapes = [
        (two, zero, other, zero),
        (two, two, two, other),
        (two, -two, other, -other),
        (two, twist(two, 1), twist(two, k - 1), twist(two, 2)),
        (cyc, twist(cyc, 2), two, -cyc),
        (zero, zero, cyc, zero),
    ]
    return list(dict.fromkeys(shape[:n] for shape in shapes))


ORBIT_CASES = [(k, n) for k in range(3, 9) for n in (1, 2, 3)] + [(3, 4)]


def random_element(rng, k, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMatrix(k, perm, [rng.randrange(k) for _ in range(n)])


class TestConstruction:
    def test_k_below_three_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialMatrix(2, (0, 1), (0, 0))

    def test_bad_permutation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialMatrix(3, (0, 0), (0, 0))

    def test_exponent_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialMatrix(3, (0, 1), (0,))

    def test_exponents_stored_mod_k(self):
        element = MonomialMatrix(4, (0, 1), (-1, 7))
        assert element.exponents == (3, 3)

    def test_identity(self):
        identity = MonomialMatrix.identity(3, 2)
        assert identity.perm == (0, 1) and identity.exponents == (0, 0)


class TestProductLaw:
    def test_hand_example(self):
        first = MonomialMatrix(3, (0, 1), (1, 0))
        second = MonomialMatrix(3, (1, 0), (0, 2))
        product = first * second
        assert product.perm == (1, 0)
        assert product.exponents == (1, 2)

    def test_self_inverse_signed_swap(self):
        # k = 4: rows i and -i swapped; squares to the identity
        element = MonomialMatrix(4, (1, 0), (1, 3))
        assert element * element == MonomialMatrix.identity(4, 2)
        assert element.inverse() == element

    def test_inverse_hand_example(self):
        element = MonomialMatrix(3, (1, 0), (1, 2))
        inverse = element.inverse()
        assert element * inverse == MonomialMatrix.identity(3, 2)
        assert inverse * element == MonomialMatrix.identity(3, 2)

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialMatrix(3, (0,), (0,)) * MonomialMatrix(4, (0,), (0,))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialMatrix(3, (0,), (0,)) * MonomialMatrix(3, (0, 1), (0, 0))

    def test_product_matches_dense_oracle_bulk(self):
        # the permutation-exponent law against 10^4 dense matrix products
        rng = random.Random(41_214)
        for _ in range(10_000):
            k = rng.randint(3, 8)
            n = rng.randint(1, 4)
            first = random_element(rng, k, n)
            second = random_element(rng, k, n)
            assert dense(first * second) == dense_mul(dense(first), dense(second))

    def test_apply_matches_dense_oracle(self):
        rng = random.Random(53)
        for _ in range(200):
            k = rng.randint(3, 6)
            n = rng.randint(1, 3)
            element = random_element(rng, k, n)
            vector = tuple(
                CyclotomicNumber(k, [rng.randint(-3, 3) for _ in range(k)]) for _ in range(n)
            )
            assert element.apply(vector) == dense_apply(dense(element), vector)

    def test_shift_matches_field_product(self):
        # multiplying by omega^l as a coefficient shift, against the full
        # field product, for every order up to 12 and rational coefficients
        rng = random.Random(3_112)
        for k in range(3, 13):
            for l in range(k):
                omega_l = CyclotomicNumber.root_of_unity(k, l)
                for _ in range(5):
                    value = CyclotomicNumber(
                        k, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                    )
                    expected = omega_l * value
                    assert CyclotomicNumber(k, (0,) * l + value.coeffs) == expected
                    assert MonomialMatrix(k, (0,), (l,)).apply((value,)) == (expected,)

    def test_apply_hand_example(self):
        element = MonomialMatrix(3, (1, 0), (1, 0))
        omega = CyclotomicNumber.root_of_unity(3, 1)
        one = CyclotomicNumber.one(3)
        zero = CyclotomicNumber.zero(3)
        assert element.apply((one, zero)) == (zero, one)
        assert element.apply((zero, one)) == (omega, zero)

    def test_apply_rejects_wrong_order_vector(self):
        element = MonomialMatrix(3, (0,), (0,))
        with pytest.raises(InvalidArgumentError):
            element.apply((CyclotomicNumber.one(4),))

    def test_apply_rejects_a_vector_of_the_wrong_length(self):
        element = MonomialMatrix(3, (1, 0), (0, 1))
        with pytest.raises(InvalidArgumentError, match=r"^vector length 1 does not match dimension 2$"):
            element.apply((CyclotomicNumber.one(3),))

    def test_apply_rejects_a_component_that_is_not_cyclotomic(self):
        element = MonomialMatrix(3, (1, 0), (0, 1))
        with pytest.raises(InvalidArgumentError, match=r"^vector components must be cyclotomic, got 1$"):
            element.apply((CyclotomicNumber.one(3), 1))

    def test_cyclo_vector_rejects_a_component_of_another_order(self):
        with pytest.raises(InvalidArgumentError, match=r"^order mismatch: expected k=3, component has k=4$"):
            monomial.cyclo_vector(3, [1, CyclotomicNumber.one(4)])

    def test_cyclo_vector_rejects_an_empty_vector(self):
        with pytest.raises(InvalidArgumentError, match=r"^vector must have at least one component$"):
            monomial.cyclo_vector(3, [])


class TestEnumeration:
    @pytest.mark.parametrize(
        "k,n,expected",
        [(3, 1, 3), (3, 2, 18), (4, 2, 32), (5, 2, 50), (3, 3, 162), (4, 3, 384)],
    )
    def test_order_formula_and_enumeration_agree(self, k, n, expected):
        assert monomial.group_order(k, n) == expected == k**n * factorial(n)
        elements = monomial.enumerate_group(k, n)
        assert len(elements) == expected
        assert len(set(elements)) == expected

    def test_k_two_rejected(self):
        with pytest.raises(InvalidArgumentError):
            monomial.group_order(2, 2)
        with pytest.raises(InvalidArgumentError):
            monomial.enumerate_group(2, 2)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            monomial.enumerate_group(3, 2, limit=17)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(monomial.ENV_LIMIT, "17")
        with pytest.raises(ResourceLimitError):
            monomial.enumerate_group(3, 2)
        monkeypatch.setenv(monomial.ENV_LIMIT, "18")
        assert len(monomial.enumerate_group(3, 2)) == 18

    def test_env_cap_validation(self, monkeypatch):
        monkeypatch.setenv(monomial.ENV_LIMIT, "zero")
        with pytest.raises(InvalidArgumentError):
            monomial.element_limit()

    def test_group_axioms_full_table(self):
        # all 324 products of the 18-element group: closure, associativity
        # on a sample, identity, inverses
        elements = monomial.enumerate_group(3, 2)
        members = set(elements)
        identity = MonomialMatrix.identity(3, 2)
        for a in elements:
            assert a * identity == a and identity * a == a
            assert a.inverse() in members
            assert a * a.inverse() == identity
            for b in elements:
                assert a * b in members
        rng = random.Random(3)
        for _ in range(300):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_closure_identity_inverses_small_orders(self, k, n):
        elements = monomial.enumerate_group(k, n)
        members = set(elements)
        identity = MonomialMatrix.identity(k, n)
        assert identity in members
        for a in elements:
            inverse = a.inverse()
            assert inverse in members
            assert a * inverse == identity and inverse * a == identity
            for b in elements:
                assert a * b in members


class TestFormPreservation:
    def test_form_value_examples(self):
        assert monomial.form_value(monomial.cyclo_vector(3, (1, 0))) == 1
        assert monomial.form_value(monomial.cyclo_vector(3, (2, 3))) == 35
        omega = CyclotomicNumber.root_of_unity(3, 1)
        zero = CyclotomicNumber.zero(3)
        assert monomial.form_value((omega, zero)) == 1

    def test_form_value_requires_k_for_rational_vectors(self):
        with pytest.raises(InvalidArgumentError):
            monomial.form_value((Fraction(1), Fraction(0)))

    def test_every_element_preserves_the_form(self):
        rng = random.Random(2024)
        for k, n in ((3, 1), (3, 2), (4, 2), (5, 1)):
            elements = monomial.enumerate_group(k, n)
            for _ in range(10):
                vector = tuple(
                    CyclotomicNumber(k, [rng.randint(-2, 2) for _ in range(k)])
                    for _ in range(n)
                )
                value = monomial.form_value(vector)
                for element in elements:
                    assert monomial.form_value(element.apply(vector)) == value


class TestOrbits:
    def test_generic_orbit_is_group_order(self):
        for k in (3, 4, 5):
            vector = monomial.cyclo_vector(k, (2, 3))
            assert len(monomial.orbit(vector)) == 2 * k * k

    def test_degenerate_orbits(self):
        for k in (3, 4, 5):
            axis = monomial.cyclo_vector(k, (1, 0))
            diagonal = monomial.cyclo_vector(k, (1, 1))
            assert len(monomial.orbit(axis)) == 2 * k
            assert len(monomial.orbit(diagonal)) == k * k

    def test_orbit_stabilizer_product(self):
        for k in (3, 4):
            for components in ((2, 3), (1, 0), (1, 1)):
                vector = monomial.cyclo_vector(k, components)
                orbit_size = len(monomial.orbit(vector))
                stab_size = len(monomial.stabilizer(vector))
                assert orbit_size * stab_size == monomial.group_order(k, 2)

    def test_orbit_of_rational_vector_needs_k(self):
        with pytest.raises(InvalidArgumentError):
            monomial.orbit((Fraction(1), Fraction(0)))

    def test_unlifted_components_match_lifted_ones(self):
        # rationals and coefficient lists, which `cyclo_vector` lifts after the cap check
        components = ([1, 0, -2], Fraction(3, 4), 0)
        lifted = monomial.cyclo_vector(6, components)
        assert lifted == (CyclotomicNumber(6, [1, 0, -2]), CyclotomicNumber(6, [Fraction(3, 4)]), CyclotomicNumber(6))
        assert monomial.orbit(components, k=6) == monomial.orbit(lifted)
        assert monomial.stabilizer(components, k=6) == monomial.stabilizer(lifted)
        assert monomial.orbit_census(components, 6) == monomial.orbit_census(lifted)

    def test_orbit_respects_cap(self):
        with pytest.raises(ResourceLimitError):
            monomial.orbit(monomial.cyclo_vector(3, (2, 3)), limit=5)

    @pytest.mark.parametrize("k,n", ORBIT_CASES)
    def test_orbit_and_stabilizer_match_every_element_applied(self, k, n):
        for vector in shaped_vectors(k, n):
            orbit, stabilizer = orbit_and_stabilizer_oracle(vector)
            assert monomial.orbit(vector) == orbit
            assert monomial.stabilizer(vector) == stabilizer

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_orbit_and_stabilizer_property(self, data):
        k, n = data.draw(st.sampled_from(ORBIT_CASES))
        small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        bases = data.draw(
            st.lists(st.lists(small, min_size=1, max_size=k), min_size=1, max_size=2)
        )
        bases = [CyclotomicNumber(k, coeffs) for coeffs in bases]
        component = st.tuples(
            st.sampled_from(bases), st.integers(0, k - 1), st.booleans(), st.booleans()
        ).map(lambda c: CyclotomicNumber.zero(k) if c[3] else (-1 if c[2] else 1) * twist(c[0], c[1]))
        vector = tuple(data.draw(st.lists(component, min_size=n, max_size=n)))
        orbit, stabilizer = orbit_and_stabilizer_oracle(vector)
        assert monomial.orbit(vector) == orbit
        assert monomial.stabilizer(vector) == stabilizer


class TestStabilizerOrder:
    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_counts_the_stabilizer(self, k, n):
        for vector in shaped_vectors(k, n):
            assert monomial.orbit_census(vector)[2] == len(monomial.stabilizer(vector))


class TestOrbitRanks:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_the_former_orbit(self, data):
        k = data.draw(st.integers(3, 8))
        vector = data.draw(orbit_vectors(k, data.draw(st.integers(1, 3))))
        components, points, _ = monomial.orbit_census(vector)
        assert {tuple(components[i] for i in point) for point in points} == monomial_oracle.orbit(vector)
        # each value has one index, and the indices follow the coefficient vectors
        assert len(set(components)) == len(components)
        assert [c.coeffs for c in components] == sorted(c.coeffs for c in components)
        assert all(type(i) is int for point in points for i in point)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_is_the_sorted_set_union(self, data):
        k = data.draw(st.integers(3, 8))
        vector = data.draw(orbit_vectors(k, data.draw(st.integers(1, 4))))
        _, _, table, _ = monomial._twist_table(vector, None, None)
        census = monomial.orbit_census(vector)
        assert census[1] == sorted(monomial_oracle.orbit_indices(table))
        # the former census: the products of the rows' arrangements merged by one sort
        assert census == monomial_oracle.orbit_census(vector, None)

    def test_a_twist_shared_by_two_positions_has_one_index(self):
        omega = CyclotomicNumber.root_of_unity(6, 1)
        vector = monomial.cyclo_vector(6, (1, omega, omega))
        components, points, _ = monomial.orbit_census(vector)
        # 1 and omega have the same six twists, the sixth roots of unity
        assert len(components) == 6
        assert len(points) == 6**3
        assert monomial.orbit(vector) == monomial_oracle.orbit(vector)

    def test_repeated_and_zero_components(self):
        vector = monomial.cyclo_vector(4, (1, 1, 0))
        components, points, _ = monomial.orbit_census(vector)
        assert components == [CyclotomicNumber(4, c) for c in ((-1,), (0, -1), (0,), (0, 1), (1,))]
        assert len(points) == 48


class TestTwists:
    @pytest.mark.parametrize("k", range(3, 41))  # phi(30) = 8 and phi(32) = 16 lie far below k
    def test_omega_steps_equal_the_rotation_and_the_field_product(self, k):
        rng = random.Random(k)
        cyclotomic_component = CyclotomicNumber(
            k, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(2, k))]
        )
        vector = monomial.cyclo_vector(k, (0, Fraction(-5, 3), cyclotomic_component))
        _, twists, table, _ = monomial._twist_table(vector, None, None)
        for component, row in zip(vector, table):
            for l, index in enumerate(row):
                assert twists[index] == component._rotated(l) == CyclotomicNumber.root_of_unity(k, l) * component
        # each twist is listed once, and the indices follow the coefficient vectors
        assert [t.coeffs for t in twists] == sorted({t.coeffs for t in twists})


class TestCaps:
    @pytest.mark.parametrize("kernel", [monomial.orbit, monomial.stabilizer])
    def test_limit_argument(self, kernel):
        vector = monomial.cyclo_vector(3, (2, 3))
        with pytest.raises(ResourceLimitError, match=r"^group order 18 exceeds the element cap 17$"):
            kernel(vector, limit=17)
        assert kernel(vector, limit=18)

    @pytest.mark.parametrize("kernel", [monomial.orbit, monomial.stabilizer])
    def test_env_limit(self, kernel, monkeypatch):
        vector = monomial.cyclo_vector(3, (2, 3))
        monkeypatch.setenv(monomial.ENV_LIMIT, "17")
        with pytest.raises(ResourceLimitError, match=r"^group order 18 exceeds the element cap 17$"):
            kernel(vector)
        monkeypatch.setenv(monomial.ENV_LIMIT, "18")
        assert kernel(vector)

    @pytest.mark.parametrize("kernel", [monomial.orbit, monomial.stabilizer])
    def test_refused_before_any_work(self, kernel, monkeypatch):
        # 3^8 * 8! = 264,539,520 elements: refused before one twist is built
        monkeypatch.delenv(monomial.ENV_LIMIT, raising=False)
        vector = monomial.cyclo_vector(3, range(1, 9))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                kernel(vector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "group order 264539520 exceeds the element cap 1000000"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "call",
        [
            lambda: monomial.orbit((1, 2), k=24000),
            lambda: monomial.stabilizer([[1, 2], 3], k=24000),
            lambda: monomial.orbit_census((1, 2), 24000),
            lambda: monomial.orbit_rational_points(24000),
        ],
        ids=["orbit", "stabilizer", "orbit_census", "orbit_rational_points"],
    )
    def test_over_cap_group_is_refused_before_phi_k(self, call, monkeypatch):
        # lifting any component into Q(omega_24000) computes Phi_24000, which takes seconds
        calls = []
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", calls.append)
        monkeypatch.delenv(monomial.ENV_LIMIT, raising=False)
        with pytest.raises(ResourceLimitError, match=r"^group order 1152000000 exceeds the element cap 1000000$"):
            call()
        assert calls == []

    @pytest.mark.parametrize(
        "call,message",
        [
            (
                lambda: monomial.enumerate_group(3, 2000),
                "group order 3^2000 * 2000! exceeds the element cap 1000000",
            ),
            (
                lambda: monomial.rational_elements(3, 10**9),
                "rational subgroup size 1^1000000000 * 1000000000! exceeds the element cap 1000000",
            ),
            (
                lambda: monomial.group_order(3, 10**9),
                "group order 3^1000000000 * 1000000000! has more than 4300 digits (Python's int-to-str conversion limit)",
            ),
        ],
        ids=["enumerate", "rational", "order"],
    )
    def test_count_past_the_digit_limit_is_spelled_out(self, call, message, monkeypatch):
        # k^n * n! is built a factor at a time and abandoned past the cap or the digit limit
        monkeypatch.delenv(monomial.ENV_LIMIT, raising=False)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            call()
        assert time.perf_counter() - started < 1
        assert str(caught.value) == message

    def test_order_as_wide_as_the_digit_limit(self):
        # 3^1000 * 1000! has 3045 digits and 3^1400 * 1400! has 4435
        assert monomial.group_order(3, 1000) == 3**1000 * factorial(1000)
        with pytest.raises(ResourceLimitError):
            monomial.group_order(3, 1400)


# the rational subgroups, the stabilizers of the shaped vectors (whose
# exponents depend on the permutation) and, where the all-pairs oracle stays
# fast, the full groups
CLOSURE_CASES = list(
    dict.fromkeys(
        (k, group)
        for k in range(3, 9)
        for n in (1, 2, 3)
        for group in (
            monomial.rational_elements(k, n).elements,
            *(tuple(monomial.stabilizer(vector)) for vector in shaped_vectors(k, n)),
            tuple(monomial.enumerate_group(k, n)) if n <= 2 or k == 3 else None,
        )
        if group is not None
    )
)


class TestClosureKernel:
    @pytest.mark.parametrize("k,elements", CLOSURE_CASES)
    def test_matches_product_oracle(self, k, elements):
        assert monomial._closed_under_product(monomial._line_forms(k, pairs(elements))) is closure_oracle(elements) is True

    # a group of order 1 or 2 stays closed without its non-identity element
    @pytest.mark.parametrize("k,elements", [case for case in CLOSURE_CASES if len(case[1]) >= 3])
    def test_dropping_an_element_breaks_closure(self, k, elements):
        # elements[0] is the identity, and every other element is a product
        # of two elements other than itself
        for dropped in (elements[1:], elements[:-1]):
            assert monomial._closed_under_product(monomial._line_forms(k, pairs(dropped))) is closure_oracle(dropped) is False

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_adding_a_non_member_breaks_closure(self, k, n):
        # omega on the first axis is irrational, so outside the rational subgroup
        stranger = MonomialMatrix(k, range(n), (1,) + (0,) * (n - 1))
        grown = monomial.rational_elements(k, n).elements + (stranger,)
        assert monomial._closed_under_product(monomial._line_forms(k, pairs(grown))) is closure_oracle(grown) is False


class TestClosureCertificate:
    @pytest.mark.parametrize("k,elements", CLOSURE_CASES)
    def test_matches_all_pairs_oracle(self, k, elements):
        listed = pairs(elements)
        assert monomial._closed_under_product(monomial._line_forms(k, listed)) is all_pairs_closed(k, listed) is True
        for variant in (listed[1:], listed[:-1], listed[::-1], listed[1:] + listed[:1]):
            assert monomial._closed_under_product(monomial._line_forms(k, variant)) is all_pairs_closed(k, variant)

    @pytest.mark.parametrize("k", (4, 6))
    def test_rational_subgroups_at_n_4(self, k):
        listed = pairs(monomial.rational_elements(k, 4).elements)
        assert len(listed) == 384
        assert monomial._closed_under_product(monomial._line_forms(k, listed)) is all_pairs_closed(k, listed) is True
        assert monomial._closed_under_product(monomial._line_forms(k, listed[:-1])) is all_pairs_closed(k, listed[:-1]) is False

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_subsets_match_oracle(self, data):
        # subsets of a small full group, and the subgroups they span
        k = data.draw(st.sampled_from((3, 4)))
        group = pairs(monomial.enumerate_group(k, 2))
        subset = data.draw(st.lists(st.sampled_from(group), unique=True))
        assert monomial._closed_under_product(monomial._line_forms(k, subset)) is all_pairs_closed(k, subset)
        generators = [MonomialMatrix(k, *pair) for pair in subset]
        spanned = frontier = {MonomialMatrix.identity(k, 2)}
        while frontier:
            frontier = {element * generator for element in frontier for generator in generators} - spanned
            spanned = spanned | frontier
        order = data.draw(st.permutations(sorted(pairs(spanned))))
        assert monomial._closed_under_product(monomial._line_forms(k, order)) is True

    def test_empty_and_identity_free_sets(self):
        identity = ((0, 1), (0, 0))
        swap = ((1, 0), (0, 0))
        assert monomial._closed_under_product(monomial._line_forms(3, [])) is all_pairs_closed(3, []) is True
        assert monomial._closed_under_product(monomial._line_forms(3, [swap])) is all_pairs_closed(3, [swap]) is False
        assert monomial._closed_under_product(monomial._line_forms(3, [identity, swap])) is True

    def test_products_grow_as_s_log_s(self, monkeypatch):
        # each product is one composition of line permutations, made by the law `_times`
        compositions = []
        times = monomial._times

        def counting_times(lines):
            multiply = times(lines)

            def counted(other):
                compositions.append(None)
                return multiply(other)

            return counted

        monkeypatch.setattr(monomial, "_times", counting_times)
        listed = pairs(monomial.rational_elements(4, 4).elements)
        compositions.clear()
        assert monomial._closed_under_product(monomial._line_forms(4, listed)) is True
        # the all-pairs check made len(listed) ** 2 = 147,456
        assert len(compositions) == 2688 <= 2 * len(listed) * ceil(log2(len(listed)))

    def test_k6_n5_certifies_quickly(self):
        started = time.perf_counter()
        report = monomial.rational_elements(6, 5)
        elapsed = time.perf_counter() - started
        assert report.order == 2**5 * factorial(5) == 3840
        assert report.is_group
        # the all-pairs check needed 14.7 M products here
        assert elapsed < 2.0


def assert_line_law_is_the_pair_law(k, elements):
    """The line forms of `elements` are distinct permutations, and `_times` on them is `*` on the pairs."""
    forms = monomial._line_forms(k, pairs(elements))
    lines = list(range(len(forms[0])))
    for form in forms:
        assert sorted(form) == lines
    form_of = dict(zip(elements, forms))
    assert len(form_of) == len(set(forms)) == len(elements)
    for a, form in form_of.items():
        assert list(map(monomial._times(form), forms)) == [form_of[a * b] for b in elements]


class TestLineForm:
    """The closure certificate's line encoding: one-to-one, and multiplying as `MonomialMatrix.__mul__` does."""

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_decode_inverts_encode(self, k, n):
        # over all of Z_k line i*k goes to sigma(i)*k + l_i, so the pair reads back from its form
        listed = pairs(monomial.enumerate_group(k, n))
        for pair, form in zip(listed, monomial._line_forms(k, listed)):
            heads = form[::k]
            assert (tuple([x // k for x in heads]), tuple([x % k for x in heads])) == pair

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_line_law_is_the_pair_law(self, k, n):
        # exponents over all of Z_k: n*k lines
        assert_line_law_is_the_pair_law(k, monomial.enumerate_group(k, n))

    @pytest.mark.parametrize("k", (3, 4, 10**12))
    def test_rational_line_law_is_the_pair_law(self, k):
        # exponents 0 and k/2: one line per axis for odd k, two for even k
        elements = monomial.rational_elements(k, 3).elements
        assert len(monomial._line_forms(k, pairs(elements))[0]) == 3 * (2 - k % 2)
        assert_line_law_is_the_pair_law(k, elements)

    def test_huge_k_multiplies_on_pairs(self, monkeypatch):
        # `*` and `inverse` read no cap: k = 10**12 is two 2-tuples, not 2 * 10**12 lines
        monkeypatch.setenv(monomial.ENV_LIMIT, "1")
        k = 10**12
        element = MonomialMatrix(k, (1, 0), (1, 0))
        assert element * element == MonomialMatrix(k, (0, 1), (1, 1))
        assert element.inverse() == MonomialMatrix(k, (1, 0), (0, k - 1))
        assert MonomialMatrix(3, (1, 0), (1, 0)).inverse() == MonomialMatrix(3, (1, 0), (0, 2))
        half = MonomialMatrix(k, (1, 0), (0, k // 2))
        assert half * half == MonomialMatrix(k, (0, 1), (k // 2, k // 2))
        assert half.inverse() == MonomialMatrix(k, (1, 0), (k // 2, 0))


class TestRationalSubgroup:
    def test_odd_k_gives_plain_permutations(self):
        report = monomial.rational_elements(3, 2)
        assert report.order == 2
        assert report.permutations_only
        assert report.is_group

    def test_odd_k_three_variables(self):
        report = monomial.rational_elements(5, 3)
        assert report.order == factorial(3)
        assert report.permutations_only

    def test_even_k_gives_signed_permutations(self):
        report = monomial.rational_elements(4, 2)
        assert report.order == 8 == 2**2 * factorial(2)
        assert not report.permutations_only
        assert report.is_group

    def test_huge_even_k_is_certified_on_two_lines_per_axis(self):
        report = monomial.rational_elements(10**12, 3)
        assert report.order == 48
        assert report.is_group

    def test_even_k_six(self):
        report = monomial.rational_elements(6, 2)
        assert report.order == 8
        assert report.is_group

    def test_elements_are_exactly_the_rational_entry_ones(self):
        # oracle: filter the full enumeration by entry rationality
        report = monomial.rational_elements(4, 2)
        expected = set()
        for element in monomial.enumerate_group(4, 2):
            entries_rational = all(
                CyclotomicNumber.root_of_unity(4, e).is_rational() is not None
                for e in element.exponents
            )
            if entries_rational:
                expected.add(element)
        assert set(report.elements) == expected

    @pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4, 5, 6) for n in (1, 2, 3)])
    def test_inverse_pair_is_the_matrix_inverse(self, k, n):
        # `MonomialMatrix.inverse` on the pair against the dense matrix inverse
        identity = dense(MonomialMatrix.identity(k, n))
        for element in monomial.enumerate_group(k, n):
            assert dense_mul(dense(element), dense(element.inverse())) == identity

    def test_a_set_missing_an_inverse_is_not_a_group(self, monkeypatch):
        # (1 2 0) with exponents (1, 0, 0) has order 9 at k=3; listed with the
        # identity as a product of two permutations and two vectors, its
        # inverse is left out
        element = MonomialMatrix(3, (1, 2, 0), (1, 0, 0))
        factors = ((0, 1, 2), (1, 2, 0)), ((0, 0, 0), (1, 0, 0))
        monkeypatch.setattr(monomial, "_factors", lambda *args: factors)
        report = monomial.rational_elements(3, 3)
        assert {MonomialMatrix.identity(3, 3), element} <= set(report.elements)
        assert element.inverse() not in report.elements
        assert not report.is_group

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(3, 9) for n in (1, 2, 3)] + [(4, 4)])
    def test_every_listed_element_has_its_inverse_listed(self, k, n):
        # `inverse` works on the pairs and shares no code with the line forms
        # that certify `is_group`, so this checks the certificate's inverse argument
        report = monomial.rational_elements(k, n)
        listed = set(report.elements)
        assert report.is_group
        assert all(element.inverse() in listed for element in listed)


class TestOrbitRationalPoints:
    def test_odd_k(self):
        expected = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
        for k in (3, 5, 7):
            assert monomial.orbit_rational_points(k) == expected

    def test_even_k(self):
        expected = {
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        }
        for k in (4, 6):
            assert monomial.orbit_rational_points(k) == expected


def assert_checked(element):
    """The element equals, hashes and prints as the validating constructor builds it from its pair."""
    k, perm, exps = element.k, element.perm, element.exponents
    checked = MonomialMatrix(k, perm, exps)
    assert (element, hash(element), repr(element)) == (checked, hash(checked), repr(checked))
    assert type(perm) is tuple and type(exps) is tuple
    assert {*map(type, perm), *map(type, exps)} <= {int}
    assert all(0 <= e < k for e in exps)


class TestUncheckedElements:
    """Elements wrapped from pairs the module generated skip the constructor's checks; they must pass them."""

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_every_returned_element_is_a_checked_one(self, k, n):
        rng = random.Random(10 * k + n)
        group = monomial.enumerate_group(k, n)
        returned = [
            *group,
            *monomial.rational_elements(k, n).elements,
            *(e for vector in shaped_vectors(k, n) for e in monomial.stabilizer(vector)),
            *(a * b for a, b in zip(group, rng.sample(group, len(group)))),
            *(e.inverse() for e in group),
            MonomialMatrix.identity(k, n),
        ]
        for element in returned:
            assert_checked(element)

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_factors_list_the_group(self, k, n):
        permutations, vectors = monomial.group_factors(k, n)
        pairs = [(e.perm, e.exponents) for e in monomial.enumerate_group(k, n)]
        assert pairs == sorted(pairs) == [(p, v) for p in permutations for v in vectors]
        assert len(pairs) == monomial.group_order(k, n)
        report = monomial.rational_elements(k, n)
        assert [(e.perm, e.exponents) for e in report.elements] == [
            (p, v) for p in report.permutations for v in report.exponent_vectors
        ]
        assert report.order == len(report.elements)

    def test_factors_are_refused_past_the_cap(self):
        with pytest.raises(ResourceLimitError, match="group order 18 exceeds the element cap 17"):
            monomial.group_factors(3, 2, limit=17)
        with pytest.raises(InvalidArgumentError):
            monomial.group_factors(2, 2)


class TestSerialization:
    def test_dict_round_trip(self):
        element = MonomialMatrix(5, (2, 0, 1), (4, 0, 3))
        assert MonomialMatrix.from_dict(5, element.as_dict()) == element

    def test_from_dict_rejects_garbage(self):
        # a dict's keys were read as the permutation, here the identity
        for payload in ({"perm": [0, 1]}, {"perm": {0: 1, 1: 0}, "exp": [0, 0]}):
            with pytest.raises(InvalidArgumentError, match="malformed monomial payload"):
                MonomialMatrix.from_dict(3, payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"perm": [0, 1], "exp": [0.5, 1.9]},  # was truncated to (0, 1)
            {"perm": [0, 1], "exp": [Fraction(7, 2), 0]},  # was truncated to 3
            {"perm": [1.0, 0.0], "exp": [0, 0]},  # printed floats in as_dict; m * m raised TypeError
            {"perm": [True, False], "exp": [0, 0]},
            {"perm": [0, 1], "exp": [False, 1]},
            {"perm": [0, 1], "exp": [0, 1.0]},
            {"perm": [0, 1], "exp": ["x", 0]},  # was a bare ValueError
        ],
    )
    def test_from_dict_rejects_non_integer_entries(self, payload):
        with pytest.raises(InvalidArgumentError, match=r"^(permutation entry|exponent) must be an integer, got "):
            MonomialMatrix.from_dict(3, payload)


LINE_FORM_HELPERS = {"_line_forms", "_times"}


def _line_form_sites():
    """(scope, name) for every reference to a line-form helper in the module; a method's scope is Class.method."""
    path = Path(monomial.__file__)
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(statement, ast.ClassDef):
            scopes = [(f"{statement.name}.{getattr(node, 'name', '<body>')}", node) for node in statement.body]
        else:
            scopes = [(getattr(statement, "name", "<module>"), statement)]
        for scope, tree in scopes:
            for node in ast.walk(tree):
                name = getattr(node, "attr", getattr(node, "id", None))
                if isinstance(node, (ast.Attribute, ast.Name)) and name in LINE_FORM_HELPERS:
                    yield scope, name


def test_elements_multiply_and_invert_without_the_line_form():
    # the line form is the closure certificate's batch encoding: `*` and
    # `inverse` work on the pairs, so no method of an element encodes one
    sites = set(_line_form_sites())
    assert [site for site in sites if site[0].startswith("MonomialMatrix.")] == []
    # the law on lines serves the certificate alone, and the scan sees it
    assert {scope for scope, name in sites if name != "_line_forms"} == {"_closed_under_product"}
