"""The library's former `@dataclass` value classes: the oracle the plain classes are tested against.

Each class keeps its former fields, defaults, `__post_init__` checks and
cached properties verbatim in substance, and drops the methods that the
comparison does not touch.  The decorator generates `__init__`, `__eq__`,
`__repr__` and, for the frozen classes, `__hash__`, `__setattr__` and
`__delattr__`: the behaviour `tests/test_dataclass_parity.py` holds each
plain class to.  The classes carry the names of the classes they stand
for, so their reprs can be compared as text.  Annotations are never
evaluated, so the type names in them need no import.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from fermatgroups.errors import InvalidArgumentError
from fermatgroups.monomial import _wrap
from fermatgroups.rationals import exact


@dataclass(frozen=True)
class Mat2:
    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, Fraction(exact(getattr(self, name))))


def element_class(conic, name: str) -> type:
    """The former element class of one conic group, named as `conic._element_class` names it."""

    @dataclass(frozen=True)
    class Element:
        delta: ProjectiveRational
        reflected: bool = False

        def __post_init__(self) -> None:
            object.__setattr__(self, "delta", conic.require_valid_delta(self.delta))
            if type(self.reflected) is not bool:
                raise InvalidArgumentError(f"reflected must be True or False, got {self.reflected!r}")

    Element.__name__ = Element.__qualname__ = name
    return Element


@dataclass
class SearchReport:
    k: int
    n: int
    height_bound: int
    coordinates: list[Coordinate]
    ranks: list[RankRow]
    trivial_count: int
    nontrivial_count: int


@dataclass
class CoverageReport:
    height_bound: int
    total: int
    covered: int
    coordinates: list[tuple[int, int]]
    reached: list[tuple[int, int, tuple[int, int]]]
    missed: list[tuple[int, int]]


@dataclass(frozen=True)
class RationalSubgroupReport:
    k: int
    n: int
    permutations: tuple[tuple[int, ...], ...]
    exponent_vectors: tuple[tuple[int, ...], ...]
    is_group: bool
    permutations_only: bool

    @cached_property
    def elements(self) -> tuple:
        return tuple(_wrap(self.k, itertools.product(self.permutations, self.exponent_vectors)))


@dataclass
class Trajectory:
    delta: ProjectiveRational
    start: Point
    decimal_triples: list[tuple[Decimal, Decimal, Decimal]]
    period: "int | None" = None


@dataclass
class HeightProfile:
    heights: list[int]
    ratios: list[Fraction]
    growth: int
