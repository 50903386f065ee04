"""One rule for exact input: `rationals.exact` and `rationals.integer` guard every entry point.

Each coercion site takes an int or a Fraction only, and each integer
parameter an int that is not a bool; anything else raises
InvalidArgumentError instead of being truncated, parsed from text or read
as a binary fraction.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from fermatgroups import circle, cyclotomic, monomial, search, stroboscope
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import Mat2, as_projective, exact, format_rational, integer, rational

HALF = Fraction(1, 2)

# one call per coercion site, with the value under test in the checked place
COERCIONS = {
    "as_projective": lambda v: as_projective(v),
    "rational": lambda v: rational(v),
    "format_rational": lambda v: format_rational(v),
    "Mat2": lambda v: Mat2(v, 0, 0, 1),
    "Mat2.apply": lambda v: Mat2.identity().apply(v, 0),
    "conic point": lambda v: circle.on_circle((v, 0)),
    "CyclotomicNumber coefficient": lambda v: CyclotomicNumber(3, (0, v)),
    "CyclotomicNumber.from_rational": lambda v: CyclotomicNumber.from_rational(3, v),
    "cyclo_vector": lambda v: monomial.cyclo_vector(3, (v, 0)),
    "rational_kth_root": lambda v: search.rational_kth_root(v, 2),
    "n_counterexample": lambda v: search.n_counterexample(3, v),
}

# one call per integer parameter
INTEGERS = {
    "primitive_triples bound": lambda v: circle.primitive_triples(v),
    "euler_phi k": lambda v: cyclotomic.euler_phi(v),
    "cyclotomic_polynomial k": lambda v: cyclotomic.cyclotomic_polynomial(v),
    "CyclotomicNumber k": lambda v: CyclotomicNumber(v),
    "root_of_unity k": lambda v: CyclotomicNumber.root_of_unity(v, 1),
    "CyclotomicNumber power": lambda v: CyclotomicNumber.one(3) ** v,
    "element_limit override": lambda v: monomial.element_limit(v),
    "group order k": lambda v: monomial.group_order(v, 2),
    "group order n": lambda v: monomial.group_order(3, v),
    "Mat2 power": lambda v: Mat2.identity() ** v,
    "height bound": lambda v: search.reduced_fractions(v),
    "rational_kth_root k": lambda v: search.rational_kth_root(Fraction(4), v),
    "search_n k": lambda v: search.search_n(v, 2, 5),
    "search_n n": lambda v: search.search_n(2, v, 5),
    "n_counterexample k": lambda v: search.n_counterexample(v, HALF),
    "iterate steps": lambda v: stroboscope.iterate(HALF, (1, 0), v),
    "power_parameter m": lambda v: stroboscope.power_parameter(HALF, v),
    "period_check limit": lambda v: stroboscope.period_check(HALF, v),
}


@pytest.mark.parametrize("value", [0.5, 1.0, True, "1/2", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("site", COERCIONS)
def test_coercion_sites_take_only_ints_and_fractions(site, value):
    with pytest.raises(InvalidArgumentError, match="not an exact rational"):
        COERCIONS[site](value)


@pytest.mark.parametrize("value", [True, 1.0], ids=repr)
@pytest.mark.parametrize("site", INTEGERS)
def test_integer_parameters_take_only_ints(site, value):
    with pytest.raises(InvalidArgumentError, match="must be an integer >="):
        INTEGERS[site](value)


@pytest.mark.parametrize("raw", ["True", "1.0"])
def test_env_limit_takes_only_integer_text(raw, monkeypatch):
    monkeypatch.setenv(monomial.ENV_LIMIT, raw)
    with pytest.raises(InvalidArgumentError, match=monomial.ENV_LIMIT):
        monomial.element_limit()


@pytest.mark.parametrize("site", COERCIONS)
def test_coercion_sites_accept_ints_and_fractions(site):
    for value in (1, HALF):
        try:
            COERCIONS[site](value)
        except InvalidArgumentError as exc:
            # a value may lie outside the call's domain, but it is exact input
            assert "not an exact rational" not in str(exc)


def test_exact_returns_its_argument_unchanged():
    big = 10**30
    assert exact(big) is big
    assert exact(HALF) is HALF


def test_integer_names_the_parameter_and_its_minimum():
    assert integer(3, 3, "k") == 3
    with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 3, got 2$"):
        integer(2, 3, "k")
    with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 0, got True$"):
        integer(True, 0, "k")
