"""Exact iteration: invariant preservation, periods, height growth."""

import math
import random
from fractions import Fraction

import pytest
import stroboscope_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatgroups import circle, search, stroboscope
from fermatgroups.conic import CIRCLE
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF, Mat2, height, projective_pair


def _int_triples(trajectory):
    """The trajectory's triples as ints, rebuilt from its Decimal triples."""
    return [tuple(map(int, triple)) for triple in trajectory.decimal_triples]


class TestIterate:
    def test_heights_for_half(self):
        trajectory = stroboscope.iterate(Fraction(1, 2), (1, 0), 3)
        assert trajectory.heights == [5, 25, 125]
        assert trajectory.points[2] == (Fraction(-117, 125), Fraction(44, 125))
        assert trajectory.period is None

    def test_quarter_turn_period(self):
        trajectory = stroboscope.iterate(Fraction(1), (1, 0), 4)
        assert trajectory.points[-1] == (Fraction(1), Fraction(0))
        assert trajectory.period == 4
        assert trajectory.heights == [1, 1, 1, 1]

    def test_half_turn_period(self):
        trajectory = stroboscope.iterate(INF, (Fraction(3, 5), Fraction(4, 5)), 2)
        assert trajectory.period == 2
        assert trajectory.points[0] == (Fraction(-3, 5), Fraction(-4, 5))

    def test_invariant_preserved_bit_exactly(self):
        trajectory = stroboscope.iterate(Fraction(1, 2), (Fraction(3, 5), Fraction(4, 5)), 200)
        for x, y in trajectory.points:
            assert x * x + y * y == 1

    def test_zero_steps(self):
        trajectory = stroboscope.iterate(Fraction(1, 2), (1, 0), 0)
        assert trajectory.points == [] and trajectory.period is None

    def test_rejects_off_curve_start(self):
        with pytest.raises(InvalidArgumentError):
            stroboscope.iterate(Fraction(1, 2), (1, 1), 3)

    def test_rejects_negative_steps(self):
        with pytest.raises(InvalidArgumentError):
            stroboscope.iterate(Fraction(1, 2), (1, 0), -1)

    @pytest.mark.parametrize(
        "delta", [Fraction(0), Fraction(1), Fraction(-1), INF, Fraction(1, 2), Fraction(4, 7), Fraction(-7, 4)]
    )
    @pytest.mark.parametrize(
        "start", [(1, 0), (Fraction(3, 5), Fraction(-4, 5)), (-1, 0), (0, 1)]
    )
    def test_matches_repeated_mat2_apply(self, delta, start):
        # the Fraction route: one Mat2.apply per step, height and period recomputed
        trajectory = stroboscope.iterate(delta, start, 12)
        matrix = circle.rotation_matrix(delta)
        start = (Fraction(start[0]), Fraction(start[1]))
        current, points, period = start, [], None
        for step in range(1, 13):
            current = matrix.apply(*current)
            points.append(current)
            if period is None and current == start:
                period = step
        assert trajectory.points == points
        assert trajectory.heights == [height(point) for point in points]
        assert trajectory.period == period
        assert all(type(c) is Fraction for point in trajectory.points for c in point)
        assert all(type(h) is int for h in trajectory.heights)

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1), INF, Fraction(4, 7), Fraction(-7, 4)])
    @pytest.mark.parametrize("start", [(1, 0), (Fraction(3, 5), Fraction(-4, 5)), (-1, 0)])
    def test_triples_are_reduced_with_positive_denominator(self, delta, start):
        trajectory = stroboscope.iterate(delta, start, 12)
        triples = _int_triples(trajectory)
        assert len(triples) == 12
        for (a, b, c), point in zip(triples, trajectory.points):
            assert c > 0 and math.gcd(a, c) == 1 and math.gcd(b, c) == 1
            assert a * a + b * b == c * c
            assert point == (Fraction(a, c), Fraction(b, c))
        assert trajectory.heights == [c for _, _, c in triples]

    def test_one_gcd_per_step(self, monkeypatch):
        # the stepping builds no Fraction, and only the first c0.bit_length()
        # steps test their content, with one gcd each: from (1, 0), c0 = 1,
        # one step is tested, next to the gcds of the parameter and the matrix
        calls = []
        gcd = math.gcd

        def counted(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counted)  # Fraction's constructor
        monkeypatch.setattr(stroboscope, "gcd", counted)
        trajectory = stroboscope.iterate(Fraction(4, 7), (1, 0), 100)
        assert len(trajectory.decimal_triples) == 100
        assert len(calls) <= 3

    def test_matches_matrix_power(self):
        # independent route: a single exact matrix power per step count
        delta = Fraction(2, 7)
        start = (Fraction(-3, 5), Fraction(4, 5))
        trajectory = stroboscope.iterate(delta, start, 12)
        matrix = circle.rotation_matrix(delta)
        for step, point in enumerate(trajectory.points, start=1):
            assert (matrix**step).apply(*start) == point

    @pytest.mark.parametrize(
        "delta, start, first",
        [
            # m and n odd: L(1/3) over 10 is the primitive matrix over s = 5
            (Fraction(1, 3), (1, 0), (4, 3, 5)),
            # (3 - 4i)*(2 + i)^2 = 25 over 5*5: content 25
            (Fraction(1, 2), (Fraction(3, 5), Fraction(-4, 5)), (1, 0, 1)),
            # both parameters odd: L(1) is the quarter turn over s = 1
            (Fraction(1), (Fraction(3, 5), Fraction(4, 5)), (-4, 3, 5)),
        ],
    )
    def test_first_step_reduces(self, delta, start, first):
        assert _int_triples(stroboscope.iterate(delta, start, 1)) == [first]

    def test_matrix_content_is_two_exactly_when_m_and_n_are_odd(self):
        for delta in SMALL_DELTAS:
            n, m = projective_pair(delta)
            entries, scale = CIRCLE.matrix_pair(n, m)
            content = math.gcd(*entries, scale)
            assert content == (2 if m % 2 == n % 2 == 1 else 1), delta
            primitive, odd_scale = stroboscope._primitive_matrix(delta)
            assert primitive == tuple(entry // content for entry in entries)
            assert odd_scale == scale // content == odd_part(scale), delta

    def test_gcd_operands_stay_below_the_squared_scale(self, monkeypatch):
        # 4/7 has s = 65, and the start (conj(w)/w)^factors has height
        # c0 = 65^factors: its first `factors` steps have content and step
        # `factors` reaches (1, 0).  The 800th triple has about 1,450 digits,
        # but no gcd sees more than s^2 = 4225, and the content test runs on
        # the first c0.bit_length() steps only
        calls = []
        gcd = math.gcd

        def recorded(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(stroboscope, "gcd", recorded)
        for factors in (0, 3, 8):
            start = _start_with_factors(Fraction(4, 7), 1, 0, factors)
            c0 = height(start)
            assert c0 == 65**factors
            calls.clear()
            trajectory = stroboscope.iterate(Fraction(4, 7), start, 800)
            assert trajectory.heights[: factors + 1] == [65 ** abs(factors - s) for s in range(1, factors + 2)]
            assert len(str(trajectory.heights[-1])) > 1400
            assert max(abs(operand) for args in calls for operand in args) <= 65**2
            tested = sum(args[-1] == 65**2 for args in calls)  # gcd(A mod s^2, s^2)
            assert max(factors, 1) <= tested <= c0.bit_length()


def _start_with_factors(delta, p, q, factors):
    """The circle point z^2/|z|^2 of the Gaussian integer z = (p + qi)*conj(w)^factors, w = m + ni."""
    n, m = projective_pair(delta)
    for _ in range(factors):
        p, q = p * m + q * n, q * m - p * n  # z -> z * conj(w)
    real, imag, norm = p * p - q * q, 2 * p * q, p * p + q * q
    return Fraction(real, norm), Fraction(imag, norm)


def _deltas():
    small = st.integers(-40, 40)
    odd = st.integers(-20, 19).map(lambda i: 2 * i + 1)
    finite = st.one_of(
        st.builds(Fraction, small, st.integers(1, 40)),
        st.builds(Fraction, odd, odd.map(abs)),
    )
    return st.one_of(st.just(INF), finite)


@st.composite
def _start_for(draw, delta, most=2):
    """A circle point z^2/|z|^2 whose Gaussian integer z often has up to `most` factors of conj(w), w = m + ni."""
    p = draw(st.integers(-12, 12))
    q = draw(st.integers(-12, 12).filter(lambda q: (p, q) != (0, 0)))
    return _start_with_factors(delta, p, q, draw(st.integers(0, most)))


def _full_width_triples(delta, start, steps):
    # the oracle: reduce each image by gcd(A, C) of the full-width integers
    pair, triple, triples = projective_pair(delta), CIRCLE.triple(start), []
    for _ in range(steps):
        a, b, c = CIRCLE.act_pair(pair, triple)
        g = math.gcd(a, c)
        triple = a // g, b // g, c // g
        triples.append(triple)
    return triples


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reduction_modulo_the_squared_scale_equals_full_width_gcd(data):
    delta = data.draw(_deltas())
    start = data.draw(_start_for(delta))
    steps = data.draw(st.integers(0, 25))
    trajectory = stroboscope.iterate(delta, start, steps)
    assert _int_triples(trajectory) == _full_width_triples(delta, start, steps)


def _scale(delta):
    n, m = projective_pair(delta)
    return m * m + n * n


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decimal_stepping_equals_the_int_stepper(data):
    # the periodic parameters and the axis points, where a zero coordinate
    # can come out of the Decimal products as -0, next to generic draws.
    # Up to 6 factors of conj(w) give up to 6 steps with content, and 60
    # steps pass c0.bit_length(), after which the content is not tested;
    # the oracle tests it on every step.  m^2 + n^2 is even, and the
    # matrix's content 2, exactly when m and n are both odd.
    even = data.draw(st.booleans())
    periodic = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), INF])
    delta = data.draw(st.one_of(periodic, _deltas()).filter(lambda delta: _scale(delta) % 2 == even))
    axis = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
    start = data.draw(st.one_of(axis, _start_for(delta, most=6)))
    steps = data.draw(st.integers(0, 60))
    trajectory = stroboscope.iterate(delta, start, steps)
    triples, period = oracle.iterate(delta, start, steps)
    assert _int_triples(trajectory) == triples
    assert trajectory.heights == [c for _, _, c in triples]
    assert trajectory.period == period
    assert [tuple(map(str, triple)) for triple in trajectory.decimal_triples] == [
        tuple(map(str, triple)) for triple in triples
    ]


@pytest.mark.parametrize("delta", [Fraction(4, 7), Fraction(1, 3)])
@pytest.mark.parametrize("factors", [0, 6])
def test_decimal_stepping_equals_the_int_stepper_over_800_steps(delta, factors):
    # 4/7 has m^2 + n^2 = 65 odd, 1/3 has 10 even; the last heights have
    # about 1,450 and 560 digits
    start = _start_with_factors(delta, 2, 1, factors)
    trajectory = stroboscope.iterate(delta, start, 800)
    triples, period = oracle.iterate(delta, start, 800)
    assert period is None and trajectory.period is None
    assert [tuple(map(str, triple)) for triple in trajectory.decimal_triples] == [
        tuple(map(str, triple)) for triple in triples
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_content_of_one_step_divides_the_squared_scale(data):
    delta = data.draw(_deltas())
    n, m = projective_pair(delta)
    a, b, c = CIRCLE.triple(data.draw(_start_for(delta, most=6)))
    image_a, _, image_c = CIRCLE.act_pair((n, m), (a, b, c))
    assert (m * m + n * n) ** 2 % math.gcd(image_a, image_c) == 0
    # through the primitive matrix over s, the content is gcd(A mod s^2, s^2)
    (a11, a12, _, _), s = stroboscope._primitive_matrix(delta)
    image_a, image_c = a11 * a + a12 * b, s * c
    assert math.gcd(image_a, image_c) == math.gcd(image_a % s**2, s**2)


class TestPowerParameter:
    def test_doubling(self):
        assert stroboscope.power_parameter(Fraction(1, 2), 2) == Fraction(4, 3)

    def test_zeroth_power_is_identity(self):
        assert stroboscope.power_parameter(Fraction(5, 7), 0) == 0

    def test_quarter_turn_cycle(self):
        values = [stroboscope.power_parameter(Fraction(1), m) for m in range(5)]
        assert values[0] == 0
        assert values[1] == 1
        assert values[2] is INF
        assert values[3] == -1
        assert values[4] == 0

    def test_matches_matrix_power(self):
        rng = random.Random(64)
        deltas = [INF, Fraction(0), Fraction(1)]
        deltas += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
        for delta in deltas:
            matrix = circle.rotation_matrix(delta)
            for m in range(65):
                parameter = stroboscope.power_parameter(delta, m)
                assert circle.rotation_matrix(parameter) == matrix**m

    def test_rejects_negative_power(self):
        with pytest.raises(InvalidArgumentError):
            stroboscope.power_parameter(Fraction(1, 2), -1)


class TestPeriodCheck:
    def test_known_periods(self):
        assert stroboscope.period_check(Fraction(0), 10) == 1
        assert stroboscope.period_check(Fraction(1), 10) == 4
        assert stroboscope.period_check(Fraction(-1), 10) == 4
        assert stroboscope.period_check(INF, 10) == 2

    def test_generic_parameter_is_aperiodic(self):
        assert stroboscope.period_check(Fraction(1, 2), 10_000) is None

    def test_matches_power_parameter(self):
        # both fold `compose_pair`, so the reported period is also checked
        # on exact matrices: L(delta)^m = I there and at no smaller m
        limit = 30
        for delta in (Fraction(1, 2), Fraction(2, 3), Fraction(1), INF, Fraction(0)):
            expected = None
            for m in range(1, limit + 1):
                if stroboscope.power_parameter(delta, m) == 0:
                    expected = m
                    break
            period = stroboscope.period_check(delta, limit)
            assert period == expected
            powers = [circle.rotation_matrix(delta) ** m == Mat2.identity() for m in range(1, (period or limit) + 1)]
            assert powers == [False] * (len(powers) - 1) + [period is not None]

    def test_only_special_parameters_are_periodic_small_sweep(self):
        from fermatgroups.search import reduced_fractions

        periodic = []
        for delta in reduced_fractions(6) + [INF]:
            if stroboscope.period_check(delta, 500) is not None:
                periodic.append(delta)
        assert set(periodic) == {Fraction(0), Fraction(1), Fraction(-1), INF}

    def test_limit_zero_finds_nothing(self):
        assert stroboscope.period_check(Fraction(0), 0) is None


# every Delta = n/m in lowest terms with |n| <= 12 and 0 <= m <= 12; m = 0 is inf
SMALL_DELTAS = [INF] + [Fraction(n, m) for m in range(1, 13) for n in range(-12, 13) if math.gcd(n, m) == 1]


def odd_part(value: int) -> int:
    while value % 2 == 0:
        value //= 2
    return value


class TestHeightProfile:
    def test_geometric_growth_for_half(self):
        trajectory = stroboscope.iterate(Fraction(1, 2), (1, 0), 6)
        profile = stroboscope.height_profile(trajectory)
        assert profile.heights == [5, 25, 125, 625, 3125, 15625]
        assert profile.ratios == [Fraction(5)] * 5
        assert profile.growth == 5

    def test_periodic_trajectory_has_unit_growth(self):
        trajectory = stroboscope.iterate(Fraction(1), (1, 0), 8)
        profile = stroboscope.height_profile(trajectory)
        assert profile.growth == 1
        assert profile.ratios == [Fraction(1)] * 7

    def test_heights_from_one_zero_are_powers_of_the_growth(self):
        # the growth is |w|^2 = m^2 + n^2 of the Gaussian integer w = m + n*i, with the prime 2 dropped
        for delta in SMALL_DELTAS:
            n, m = projective_pair(delta)
            profile = stroboscope.height_profile(stroboscope.iterate(delta, (1, 0), 12))
            assert type(profile.growth) is int
            assert profile.growth == odd_part(m * m + n * n), delta
            assert profile.heights == [profile.growth**s for s in range(1, 13)], delta

    def test_growth_is_one_exactly_at_the_periodic_parameters(self):
        # the module docstring's periodicity claim: growth 1 means bounded heights,
        # and period_check finds a return for exactly those parameters
        unit = {
            delta for delta in SMALL_DELTAS
            if stroboscope.height_profile(stroboscope.iterate(delta, (1, 0), 1)).growth == 1
        }
        assert unit == {Fraction(0), Fraction(1), Fraction(-1), INF}
        assert {delta for delta in SMALL_DELTAS if stroboscope.period_check(delta, 8) is not None} == unit

    def test_ratios_settle_to_the_growth_from_every_small_point(self):
        # from a start of height c, each prime of c cancels against the step's
        # factor for at most log_5 c steps, so the ratio is the growth once 2^s > c
        points = search.circle_points(60)
        for start in points:
            c = height(start)
            settled = c.bit_length()  # the least s with 2^s > c
            for delta in SMALL_DELTAS:
                trajectory = stroboscope.iterate(delta, start, settled + 3)
                profile = stroboscope.height_profile(trajectory)
                heights = [c] + profile.heights
                assert all(
                    heights[s + 1] == heights[s] * profile.growth for s in range(settled, len(heights) - 1)
                ), (start, delta)

    def test_heights_strictly_increase_for_generic_parameters(self):
        from fermatgroups.search import reduced_fractions

        for delta in reduced_fractions(10):
            if delta in (0, 1, -1):
                continue
            trajectory = stroboscope.iterate(delta, (1, 0), 50)
            for earlier, later in zip(trajectory.heights, trajectory.heights[1:]):
                assert later > earlier

    def test_empty_trajectory_rejected(self):
        trajectory = stroboscope.iterate(Fraction(1, 2), (1, 0), 0)
        with pytest.raises(InvalidArgumentError):
            stroboscope.height_profile(trajectory)
