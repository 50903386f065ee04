"""The seams of the conic group: one construction, two distinct curves."""

import importlib
import pkgutil
from fractions import Fraction
from math import gcd

import conic_oracle as oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fermatgroups
from fermatgroups import circle, conic, hyperbola, search
from fermatgroups.audit import render_identity_audit
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF, projective_pair

PACKAGE_MODULES = [fermatgroups] + [
    importlib.import_module(f"fermatgroups.{info.name}") for info in pkgutil.iter_modules(fermatgroups.__path__)
]


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name) is not None


@pytest.mark.parametrize(
    "first, second",
    [
        (circle.CircleElement(0), hyperbola.HyperbolicElement(0)),
        (hyperbola.HyperbolicElement(0), circle.CircleElement(0)),
    ],
)
def test_elements_of_different_curves_do_not_compose(first, second):
    with pytest.raises(InvalidArgumentError):
        first.compose(second)


def test_elements_of_different_curves_are_unequal():
    assert circle.CircleElement(0) != hyperbola.HyperbolicElement(0)


@pytest.mark.parametrize("element", [circle.CircleElement, hyperbola.HyperbolicElement])
@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_reflected_must_be_a_bool(element, flag):
    with pytest.raises(InvalidArgumentError, match="reflected must be True or False"):
        element(Fraction(1, 2), flag)


def test_reprs_keep_the_class_names():
    assert repr(circle.CircleElement(Fraction(1, 2))) == (
        "CircleElement(delta=Fraction(1, 2), reflected=False)"
    )
    assert repr(hyperbola.HyperbolicElement(Fraction(1, 2), True)) == (
        "HyperbolicElement(delta=Fraction(1, 2), reflected=True)"
    )


@pytest.mark.parametrize("element", [conic.CircleElement, conic.HyperbolicElement])
def test_each_element_class_owns_its_methods(element):
    # bench/tracer.py wraps these by reading them from the class's own __dict__
    for name in ("act", "compose", "to_matrix", "inverse"):
        assert name in vars(element)
    assert vars(conic.CircleElement)["act"] is not vars(conic.HyperbolicElement)["act"]


PARAMETERS = {
    "circle": [Fraction(0), Fraction(1), Fraction(-1), INF, Fraction(1, 2), Fraction(-7, 4)],
    "hyperbola": [Fraction(0), INF, Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(-1, 3)],
}


@pytest.mark.parametrize("curve", [conic.CIRCLE, conic.HYPERBOLA], ids=["circle", "hyperbola"])
def test_compose_pair_is_compose_delta(curve):
    # every pole case: products equal to s, inf with 0, inf with inf
    for d1 in PARAMETERS[curve.name]:
        for d2 in PARAMETERS[curve.name]:
            n, m = curve.compose_pair(projective_pair(d1), projective_pair(d2))
            expected = oracle.compose_delta(curve, d1, d2)
            assert (n, m) != (0, 0)
            assert (INF if m == 0 else Fraction(n, m)) == expected


@pytest.mark.parametrize(
    "curve, points",
    [(conic.CIRCLE, search.circle_points), (conic.HYPERBOLA, search.hyperbola_points)],
    ids=["circle", "hyperbola"],
)
def test_chart_pair_is_chart(curve, points):
    for point in points(30):
        n, m = curve.chart_pair(*curve.triple(point))
        assert (INF if m == 0 else Fraction(n, m)) == oracle.chart(curve, point)


CURVES = [conic.CIRCLE, conic.HYPERBOLA]


@pytest.mark.parametrize("curve", CURVES, ids=["circle", "hyperbola"])
def test_chart_rejects_off_curve_points(curve):
    with pytest.raises(InvalidArgumentError, match=f"not on the unit {curve.name}"):
        curve.chart((Fraction(1, 2), Fraction(1, 2)))


def _parameters(curve):
    finite = st.fractions(max_denominator=40)
    if curve.s < 0:
        finite = finite.filter(lambda delta: abs(delta) != 1)
    return st.one_of(st.just(INF), finite)


@pytest.mark.parametrize("curve", CURVES, ids=["circle", "hyperbola"])
@given(data=st.data())
def test_fraction_api_equals_the_oracle(curve, data):
    d1, d2, p1, p2 = (data.draw(_parameters(curve)) for _ in range(4))
    # the oracle's matrices reach every rational point of the curve from (1, 0)
    source, target = (oracle.rotation_matrix(curve, delta).apply(1, 0) for delta in (p1, p2))
    assert curve.compose_delta(d1, d2) == oracle.compose_delta(curve, d1, d2)
    assert curve.rotation_matrix(d1) == oracle.rotation_matrix(curve, d1)
    assert curve.chart(target) == oracle.chart(curve, target)
    assert curve.solve_delta(source, target).delta == oracle.solve_delta(curve, source, target)
    record, expected = curve.delta_identity_audit(source, target), oracle.delta_identity_audit(curve, source, target)
    assert render_identity_audit(record) == oracle.render(expected)
    fields = ("source", "target", "left", "right", "solver_delta", "excluded_case")
    assert [getattr(record, name) for name in fields] == [getattr(expected, name) for name in fields]


ACT_PARAMETERS = {
    "circle": [Fraction(0), Fraction(1), Fraction(-1), INF, Fraction(3), Fraction(7, 3), Fraction(-1, 2)],
    "hyperbola": [Fraction(0), INF, Fraction(3), Fraction(7, 3), Fraction(-1, 2)],
}


@pytest.mark.parametrize("reflected", [False, True], ids=["rotation", "reflected"])
@pytest.mark.parametrize(
    "curve, points",
    [(conic.CIRCLE, search.circle_points), (conic.HYPERBOLA, search.hyperbola_points)],
    ids=["circle", "hyperbola"],
)
def test_act_is_the_fraction_action(curve, points, reflected):
    # |Delta| > 1 gives the hyperbola a negative scale, which Fraction normalises
    for delta in ACT_PARAMETERS[curve.name]:
        element = curve.element(delta, reflected)
        for point in points(20):
            image = element.act(point)
            assert image == oracle.act(curve, delta, reflected, point)
            assert all(type(c) is Fraction for c in image)


@pytest.mark.parametrize("curve", CURVES, ids=["circle", "hyperbola"])
@given(data=st.data())
def test_act_pair_stays_on_the_curve_and_agrees_with_carries_pair(curve, data):
    delta, p, q = (data.draw(_parameters(curve)) for _ in range(3))
    source, other = (oracle.rotation_matrix(curve, d).apply(1, 0) for d in (p, q))
    pair, triple = projective_pair(delta), curve.triple(source)
    a, b, c = curve.act_pair(pair, triple)
    assert c != 0 and a * a + curve.s * b * b == c * c
    g = gcd(a, c) if c > 0 else -gcd(a, c)
    image = (a // g, b // g, c // g)
    assert image == curve.triple((Fraction(a, c), Fraction(b, c)))
    assert curve.carries_pair(pair, triple, image)
    other = curve.triple(other)
    assert curve.carries_pair(pair, triple, other) == (other == image)
