"""The seams of the conic group: one construction, two distinct curves."""

from fractions import Fraction

import pytest

from fermatgroups import circle, conic, hyperbola
from fermatgroups.errors import InvalidArgumentError


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
