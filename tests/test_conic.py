"""The seams of the conic group: one construction, two distinct curves."""

from fractions import Fraction

import pytest

from fermatgroups import circle, conic, hyperbola, search
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF, projective_pair


@pytest.mark.parametrize("module", [circle, hyperbola])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
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
            expected = curve.compose_delta(d1, d2)
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
        assert (INF if m == 0 else Fraction(n, m)) == curve.chart(point)
