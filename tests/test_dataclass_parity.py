"""The plain value classes behave as the `@dataclass` classes they replaced (`dataclass_oracle`)."""

import copy
import dataclasses
import inspect
import pickle
from decimal import Decimal
from fractions import Fraction

import dataclass_oracle as oracle
import pytest

from fermatgroups import conic, monomial, rationals, search, stroboscope
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF

# name -> (plain class, former dataclass, two unequal field tuples, the first with every default overridden)
CASES = {
    "Mat2": (rationals.Mat2, oracle.Mat2, [(1, Fraction(1, 2), -3, 0), (1, Fraction(1, 2), -3, 1)]),
    "CircleElement": (
        conic.CircleElement,
        oracle.element_class(conic.CIRCLE, "CircleElement"),
        [(Fraction(1, 2), False), (Fraction(1, 2), True)],
    ),
    "HyperbolicElement": (
        conic.HyperbolicElement,
        oracle.element_class(conic.HYPERBOLA, "HyperbolicElement"),
        [(INF, True), (INF, False)],
    ),
    "SearchReport": (
        search.SearchReport,
        oracle.SearchReport,
        [(3, 2, 1, [(-1, 1), (0, 1), (1, 1)], [(0, 2), (1, 2), (2, 0), (2, 1)], 4, 0), (3, 2, 1, [], [], 4, 1)],
    ),
    "CoverageReport": (
        search.CoverageReport,
        oracle.CoverageReport,
        [(5, 2, 2, [(-1, 1), (0, 1), (1, 1)], [(2, 1, (0, 1)), (0, 1, (1, 0))], []), (5, 2, 2, [], [], [(3, 4)])],
    ),
    "RationalSubgroupReport": (
        monomial.RationalSubgroupReport,
        oracle.RationalSubgroupReport,
        [(3, 2, ((0, 1), (1, 0)), ((0, 0),), True, True), (3, 2, ((0, 1), (1, 0)), ((0, 0),), True, False)],
    ),
    "Trajectory": (
        stroboscope.Trajectory,
        oracle.Trajectory,
        [
            (Fraction(1, 2), (Fraction(1), Fraction(0)), [(Decimal(3), Decimal(4), Decimal(5))], 4),
            (Fraction(1, 2), (Fraction(1), Fraction(0)), [(Decimal(3), Decimal(4), Decimal(5))], None),
        ],
    ),
    "HeightProfile": (stroboscope.HeightProfile, oracle.HeightProfile, [([5, 25], [Fraction(5)], 5), ([5], [], 5)]),
}
FROZEN = {"Mat2", "CircleElement", "HyperbolicElement", "RationalSubgroupReport"}


def _pairs(name):
    plain, former, samples = CASES[name]
    return [(plain(*values), former(*values)) for values in samples]


def _field_names(former):
    return [field.name for field in dataclasses.fields(former)]


@pytest.mark.parametrize("name", CASES)
def test_fields_and_signature_match(name):
    plain, former, _ = CASES[name]
    assert plain.__name__ == plain.__qualname__ == name
    assert plain.__match_args__ == former.__match_args__ == tuple(_field_names(former))
    assert not dataclasses.is_dataclass(plain)
    shape = [(p.name, p.kind, p.default) for p in inspect.signature(plain).parameters.values()]
    assert shape == [(p.name, p.kind, p.default) for p in inspect.signature(former).parameters.values()]


@pytest.mark.parametrize("name", CASES)
def test_positional_and_keyword_construction_agree(name):
    plain, former, samples = CASES[name]
    for values in samples:
        keywords = dict(zip(_field_names(former), values))
        for instance, expected in ((plain(*values), former(*values)), (plain(**keywords), former(**keywords))):
            assert repr(instance) == repr(expected)
            assert [getattr(instance, field) for field in keywords] == [getattr(expected, field) for field in keywords]
        assert plain(*values) == plain(**keywords)


@pytest.mark.parametrize("name", CASES)
def test_equality_matches(name):
    (first, former_first), (second, former_second) = _pairs(name)
    plain, former, samples = CASES[name]
    for instance, twin, other in ((first, plain(*samples[0]), second), (former_first, former(*samples[0]), former_second)):
        assert (instance == twin, instance != twin) == (True, False)
        assert (instance == other, instance != other) == (False, True)
    # another class compares as NotImplemented, so == falls back to identity
    for instance, other in ((first, former_first), (former_first, first)):
        for value in (other, tuple(samples[0]), None):
            assert instance.__eq__(value) is NotImplemented
            assert (instance == value, instance != value) == (False, True)


@pytest.mark.parametrize("name", CASES)
def test_hash_matches(name):
    for instance, expected in _pairs(name):
        if name in FROZEN:
            assert hash(instance) == hash(expected)
            assert {instance, copy.copy(instance)} == {instance}
        else:
            assert type(instance).__hash__ is type(expected).__hash__ is None
            with pytest.raises(TypeError, match="unhashable type"):
                hash(instance)


@pytest.mark.parametrize("name", CASES)
def test_reprs_match(name):
    for instance, expected in _pairs(name):
        assert repr(instance) == repr(expected)
        assert repr(instance).startswith(f"{name}(")


@pytest.mark.parametrize("name", CASES)
def test_only_frozen_classes_refuse_assignment_and_deletion(name):
    plain, former, samples = CASES[name]
    for field in _field_names(former):
        instance, expected = _pairs(name)[0]
        if name in FROZEN:
            for target in (instance, expected):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                    setattr(target, field, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                    delattr(target, field)
            assert instance == plain(*samples[0])
        else:
            for target in (instance, expected):
                setattr(target, field, "changed")
            assert repr(instance) == repr(expected)
            assert instance != plain(*samples[0])
            for target in (instance, expected):
                delattr(target, field)


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_keep_the_value(name):
    for instance, _ in _pairs(name):
        for clone in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
            assert type(clone) is type(instance)
            assert repr(clone) == repr(instance)


@pytest.mark.parametrize("name", ["CircleElement", "HyperbolicElement", "Trajectory"])
def test_defaults_match(name):
    plain, former, samples = CASES[name]
    head = samples[0][:-1]
    assert repr(plain(*head)) == repr(former(*head))


def test_mat2_coerces_its_entries():
    for values in ([1, 2, 3, 4], [Fraction(1, 2), -1, 0, Fraction(7, 3)]):
        matrix, expected = rationals.Mat2(*values), oracle.Mat2(*values)
        assert [type(getattr(matrix, field)) for field in matrix.__match_args__] == [Fraction] * 4
        assert repr(matrix) == repr(expected)


@pytest.mark.parametrize("entries", [(1, 2, 3, 4.0), (True, 0, 0, 1), (1, "2", 3, 4), (1, 2, Decimal(3), 4)])
def test_mat2_refuses_an_inexact_entry(entries):
    with pytest.raises(InvalidArgumentError) as refused:
        rationals.Mat2(*entries)
    with pytest.raises(InvalidArgumentError) as expected:
        oracle.Mat2(*entries)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize(
    "curve, name, delta, reflected",
    [
        # the delta is checked first, then the flag
        (conic.HYPERBOLA, "HyperbolicElement", Fraction(1), "no"),
        (conic.HYPERBOLA, "HyperbolicElement", Fraction(-1), 1),
        (conic.CIRCLE, "CircleElement", 0.5, None),
        (conic.CIRCLE, "CircleElement", Fraction(1, 2), 0),
        (conic.HYPERBOLA, "HyperbolicElement", Fraction(2), "yes"),
    ],
)
def test_element_errors_keep_their_precedence(curve, name, delta, reflected):
    plain, former, _ = CASES[name]
    with pytest.raises(InvalidArgumentError) as refused:
        plain(delta, reflected)
    with pytest.raises(InvalidArgumentError) as expected:
        former(delta, reflected)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("name, attribute", [("RationalSubgroupReport", "elements")])
def test_cached_properties_compute_once(name, attribute):
    for instance, expected in _pairs(name):
        first = getattr(instance, attribute)
        assert getattr(instance, attribute) is first
        assert first == getattr(expected, attribute)
        assert vars(instance)[attribute] is first
