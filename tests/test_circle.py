"""Circle group: composition law, action, transitivity solver, audits, triples."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermatgroups import circle
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF, Infinity, Mat2
from fermatgroups.search import circle_points

fractions_st = st.fractions(max_denominator=40)
projective_st = st.one_of(st.just(INF), fractions_st)
element_st = st.builds(circle.CircleElement, projective_st, st.booleans())

SPECIALS = (Fraction(0), Fraction(1), Fraction(-1), INF)


class TestRotationMatrix:
    def test_zero_is_identity(self):
        assert circle.rotation_matrix(0) == Mat2.identity()

    def test_one_is_quarter_turn(self):
        assert circle.rotation_matrix(1) == Mat2(0, -1, 1, 0)

    def test_infinity_is_minus_identity(self):
        assert circle.rotation_matrix(INF) == -Mat2.identity()

    def test_half(self):
        expected = Mat2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
        assert circle.rotation_matrix(Fraction(1, 2)) == expected

    @given(projective_st)
    def test_rotations_are_special_orthogonal(self, delta):
        matrix = circle.rotation_matrix(delta)
        assert matrix.det() == 1
        assert matrix.a11 == matrix.a22 and matrix.a12 == -matrix.a21

    @given(projective_st)
    def test_reflected_elements_have_det_minus_one(self, delta):
        assert circle.CircleElement(delta, True).to_matrix().det() == -1


class TestComposeDelta:
    def test_pole_of_the_rational_formula(self):
        assert circle.compose_delta(1, 1) is INF

    def test_inverse_parameters_cancel(self):
        assert circle.compose_delta(Fraction(1, 2), Fraction(-1, 2)) == 0

    def test_finite_example(self):
        assert circle.compose_delta(Fraction(1, 2), Fraction(1, 3)) == 1

    def test_infinity_cases(self):
        assert circle.compose_delta(INF, Fraction(1, 3)) == Fraction(-3)
        assert circle.compose_delta(Fraction(1, 3), INF) == Fraction(-3)
        assert circle.compose_delta(INF, Fraction(0)) is INF
        assert circle.compose_delta(INF, INF) == 0

    @given(projective_st, projective_st)
    def test_matches_matrix_product(self, d1, d2):
        # independent route: multiply the exact matrices, never the parameters
        law = circle.rotation_matrix(circle.compose_delta(d1, d2))
        assert law == circle.rotation_matrix(d1) * circle.rotation_matrix(d2)

    def test_matches_matrix_product_on_special_pairs(self):
        for d1 in SPECIALS:
            for d2 in SPECIALS:
                law = circle.rotation_matrix(circle.compose_delta(d1, d2))
                assert law == circle.rotation_matrix(d1) * circle.rotation_matrix(d2)

    @given(projective_st, projective_st)
    def test_commutative(self, d1, d2):
        assert circle.compose_delta(d1, d2) == circle.compose_delta(d2, d1)

    @given(projective_st)
    def test_opposite_parameters_compose_to_identity(self, delta):
        from fermatgroups.rationals import pr_neg

        assert circle.compose_delta(delta, pr_neg(delta)) == 0


class TestCircleElement:
    def test_act_half_parameter(self):
        element = circle.CircleElement(Fraction(1, 2))
        assert element.act((1, 0)) == (Fraction(3, 5), Fraction(4, 5))

    def test_act_infinity_is_antipode(self):
        element = circle.CircleElement(INF)
        assert element.act((Fraction(3, 5), Fraction(4, 5))) == (Fraction(-3, 5), Fraction(-4, 5))

    def test_reflection_flips_second_coordinate(self):
        element = circle.CircleElement(0, True)
        assert element.act((Fraction(3, 5), Fraction(4, 5))) == (Fraction(3, 5), Fraction(-4, 5))

    def test_act_rejects_off_curve_points(self):
        with pytest.raises(InvalidArgumentError):
            circle.CircleElement(0).act((Fraction(1, 2), Fraction(1, 2)))

    @given(element_st, projective_st)
    def test_action_preserves_the_circle(self, element, delta):
        point = circle.CircleElement(delta).act((1, 0))
        image = element.act(point)
        assert circle.on_circle(image)

    @given(element_st, element_st)
    def test_compose_matches_matrix_product(self, first, second):
        composed = first.compose(second)
        assert composed.to_matrix() == first.to_matrix() * second.to_matrix()

    @given(element_st)
    def test_inverse_is_two_sided(self, element):
        identity = circle.CircleElement.identity()
        assert element.compose(element.inverse()) == identity
        assert element.inverse().compose(element) == identity

    def test_reflection_conjugates_rotation_to_its_inverse(self):
        reflection = circle.CircleElement(0, True)
        for delta in (Fraction(2, 7), Fraction(-1), INF):
            rotation = circle.CircleElement(delta)
            conjugated = reflection.compose(rotation).compose(reflection)
            assert conjugated == rotation.inverse()

    def test_minus_rotation_is_infinity_shift(self):
        # -L(d) = L(inf)L(d) = L(compose(inf, d)) for finite nonzero d
        for delta in (Fraction(1, 3), Fraction(-2), Fraction(5, 4)):
            shifted = circle.compose_delta(INF, delta)
            assert -circle.rotation_matrix(delta) == circle.rotation_matrix(shifted)


class TestChartAndSolve:
    def test_a_scalar_is_not_a_planar_point(self):
        with pytest.raises(InvalidArgumentError, match=r"^not a planar point: 5$"):
            circle.on_circle(5)

    def test_chart_values(self):
        assert circle.chart((Fraction(3, 5), Fraction(4, 5))) == Fraction(1, 2)
        assert circle.chart((Fraction(5, 13), Fraction(12, 13))) == Fraction(2, 3)
        assert circle.chart((-1, 0)) is INF

    @given(projective_st)
    def test_chart_inverts_the_orbit_map(self, delta):
        point = circle.CircleElement(delta).act((1, 0))
        assert circle.chart(point) == delta

    def test_chart_fallback_agrees_where_both_defined(self):
        # y/(x+1) and (1-x)/y name the same parameter off the axes
        from fermatgroups.search import circle_points

        for x, y in circle_points(50):
            if x != -1 and y != 0:
                assert y / (x + 1) == (1 - x) / y == circle.chart((x, y))

    def test_solve_witness(self):
        element = circle.solve_delta(
            (Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))
        )
        assert element.delta == Fraction(1, 8)
        assert element.reflected is False

    def test_solve_same_point_is_identity(self):
        point = (Fraction(-3, 5), Fraction(4, 5))
        assert circle.solve_delta(point, point).delta == 0

    def test_solve_to_antipode_is_infinity(self):
        assert circle.solve_delta((1, 0), (-1, 0)).delta is INF

    def test_solve_rejects_off_curve(self):
        with pytest.raises(InvalidArgumentError):
            circle.solve_delta((1, 0), (Fraction(1, 2), Fraction(1, 2)))

    def test_exhaustive_transitivity_small_heights(self):
        points = circle_points(20)
        for source in points:
            for target in points:
                element = circle.solve_delta(source, target)
                assert element.act(source) == target


class TestDeltaIdentityAudit:
    def test_witness_pair_sides_agree(self):
        audit = circle.delta_identity_audit(
            (Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))
        )
        assert audit.left == audit.right == audit.solver_delta == Fraction(1, 8)
        assert audit.sides_equal and audit.left_matches_solver and audit.right_matches_solver
        assert audit.excluded_case is False

    def test_axis_pair(self):
        audit = circle.delta_identity_audit((1, 0), (0, 1))
        assert audit.left == audit.right == audit.solver_delta == Fraction(1)

    def test_antipodal_pair_is_indeterminate(self):
        audit = circle.delta_identity_audit((1, 0), (-1, 0))
        assert audit.left is None and audit.right is None
        assert audit.sides_equal is None
        assert audit.excluded_case is True
        assert audit.solver_delta is INF

    def test_identity_holds_on_all_defined_pairs_small_sweep(self):
        points = circle_points(10)
        for source in points:
            for target in points:
                audit = circle.delta_identity_audit(source, target)
                if audit.left is None or audit.right is None:
                    continue
                assert audit.sides_equal
                assert audit.left_matches_solver and audit.right_matches_solver


class TestPrimitiveTriples:
    def test_small_bounds(self):
        assert circle.primitive_triples(1) == []
        assert circle.primitive_triples(2) == [(3, 4, 5)]
        assert circle.primitive_triples(3) == [(3, 4, 5), (5, 12, 13)]

    def test_all_outputs_are_primitive_sorted_triples(self):
        for a, b, c in circle.primitive_triples(12):
            assert a * a + b * b == c * c
            assert 0 < a < b < c
            assert gcd(a, gcd(b, c)) == 1

    def test_no_duplicates_and_sorted_by_hypotenuse(self):
        triples = circle.primitive_triples(15)
        assert len(triples) == len(set(triples))
        assert triples == sorted(triples, key=lambda t: (t[2], t[0], t[1]))

    def test_covers_classical_parametrization(self):
        # every coprime opposite-parity pair n < m <= H yields a primitive
        # triple (m^2-n^2, 2mn, m^2+n^2); all of them must be present
        bound = 10
        produced = set(circle.primitive_triples(bound))
        for m in range(2, bound + 1):
            for n in range(1, m):
                if gcd(m, n) != 1 or (m - n) % 2 == 0:
                    continue
                a, b = sorted((m * m - n * n, 2 * m * n))
                assert (a, b, m * m + n * n) in produced

    def test_matches_circle_action(self):
        # each triple is a cleared-denominator image of (1, 0)
        rng = random.Random(7)
        triples = circle.primitive_triples(9)
        for a, b, c in rng.sample(triples, 10):
            found = False
            for x, y in ((Fraction(a, c), Fraction(b, c)), (Fraction(b, c), Fraction(a, c))):
                delta = circle.chart((x, y))
                if circle.CircleElement(delta).act((1, 0)) == (x, y):
                    found = True
            assert found

    def test_rejects_bad_bound(self):
        with pytest.raises(InvalidArgumentError):
            circle.primitive_triples(0)

    def test_matches_the_content_dividing_enumerator(self):
        # the former enumerator: every coprime p < q, divided by its content, deduplicated
        # grown one q at a time, so after each q it holds the triples of the bound H = q
        oracle = set()
        for q in range(1, 151):
            for p in range(1, q):
                if gcd(p, q) == 1:
                    a, b, c = q * q - p * p, 2 * p * q, q * q + p * p
                    g = gcd(a, b, c)
                    oracle.add((min(a, b) // g, max(a, b) // g, c // g))
            triples = circle.primitive_triples(q)
            assert len(triples) == len(set(triples))
            assert triples == sorted(oracle, key=lambda t: (t[2], t[0], t[1]))
