"""Exact rational building blocks: projective line, heights, 2x2 matrices.

Rational values are `fractions.Fraction` throughout.  The stdlib type already
maintains the canonical reduced form (coprime numerator and denominator,
positive denominator) and compares structurally, which is exactly the
equality the rest of the library relies on.  This module adds what the curve
groups need on top: the point at infinity completing Q to the projective
line, the height measure that bounds searches, exact 2x2 matrices, and the
"p/q" text codec shared by the CLI and the JSON payloads.

`exact` and `integer` decide for the whole library what exact input is: a
bool, a float, a string or a Decimal raises InvalidArgumentError instead of
being truncated or read as a binary fraction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from math import gcd
from operator import attrgetter

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "Fraction",
    "INF",
    "Infinity",
    "Mat2",
    "ProjectiveRational",
    "as_projective",
    "exact",
    "format_pair",
    "format_point",
    "format_projective",
    "format_rational",
    "height",
    "int_digit_limit",
    "integer",
    "parse_pair",
    "parse_point",
    "parse_point_pairs",
    "parse_projective",
    "parse_projective_pair",
    "parse_rational",
    "power",
    "pr_neg",
    "print_limit_error",
    "projective_pair",
    "projective_ratio",
    "rational",
]


class Infinity:
    """The point at infinity completing Q to the projective rational line."""

    _instance = None
    __slots__ = ()

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = Infinity()

#: A value on the projective rational line: a finite Fraction or INF.
ProjectiveRational = Fraction | Infinity


def exact(value: "int | Fraction") -> "int | Fraction":
    """The value itself when it is an int (never a bool) or a Fraction; an int stays an int."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"not an exact rational (an int or a Fraction): {value!r}")


def integer(value: int, minimum: "int | None", what: str) -> int:
    """The value itself when it is an int, never a bool, of at least `minimum` (None: any int)."""
    if isinstance(value, int) and not isinstance(value, bool) and (minimum is None or value >= minimum):
        return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise InvalidArgumentError(f"{what} must be an integer{bound}, got {value!r}")


def power(one, base, exponent: int):
    """base ** exponent by square-and-multiply from `one`, for a checked exponent >= 0."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


def rational(num: int, den: int = 1) -> Fraction:
    """Reduced fraction with positive denominator.  Rejects ``den == 0``."""
    if den == 0:
        raise InvalidArgumentError("rational with zero denominator")
    return Fraction(exact(num), exact(den))


def as_projective(value) -> ProjectiveRational:
    """Coerce an int, Fraction, or INF onto the projective line."""
    if isinstance(value, Infinity):
        return value
    return Fraction(exact(value))


def pr_neg(value: ProjectiveRational) -> ProjectiveRational:
    """Negation extended to the projective line; -inf is identified with inf."""
    if isinstance(value, Infinity):
        return value
    return -value


def projective_pair(value: ProjectiveRational) -> tuple[int, int]:
    """Homogeneous integer coordinates (n : m) of n/m; inf is (1 : 0)."""
    if isinstance(value, Infinity):
        return 1, 0
    return value.numerator, value.denominator


def projective_ratio(num: "int | Fraction", den: "int | Fraction") -> "ProjectiveRational | None":
    """Exact num/den as a projective value; None encodes the indeterminate 0/0."""
    if den != 0:
        return Fraction(num, den)
    if num == 0:
        return None
    return INF


def height(value) -> int:
    """Size measure used as a search bound.

    For a reduced fraction p/q this is max(|p|, q); heights start at 1 since
    0 is 0/1.  A point or tuple takes the maximum over its components.
    """
    if isinstance(value, (int, Fraction)):
        value = exact(value)
        return max(abs(value.numerator), value.denominator)
    if isinstance(value, Infinity):
        raise InvalidArgumentError("height of the point at infinity is undefined")
    try:
        components = tuple(value)
    except TypeError:
        raise InvalidArgumentError(f"height undefined for {value!r}") from None
    if not components:
        raise InvalidArgumentError("height of an empty point is undefined")
    return max(height(component) for component in components)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (integers, q != 0) into a reduced fraction: `parse_pair` as a Fraction."""
    return Fraction(*parse_pair(text))


def parse_pair(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" (integers, q != 0) into the reduced pair (p : q) with q > 0.

    CPython refuses to read an integer longer than its int-from-str digit
    limit; such a token raises ResourceLimitError, naming the limit and
    echoing only the token's head, instead of InvalidArgumentError.
    """
    raw = text.strip()
    num_part, slash, den_part = raw.partition("/")
    try:
        num = int(num_part)
        den = int(den_part) if slash else 1
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and max(sum(ch.isdigit() for ch in part) for part in (num_part, den_part)) > limit:
            raise ResourceLimitError(
                f"cannot read a rational with more than {limit} digits"
                f" (Python's int-from-str conversion limit): {raw[:20]!r}... ({len(raw)} characters)"
            ) from None
        raise InvalidArgumentError(f"malformed rational: {text!r}") from None
    if den == 0:
        raise InvalidArgumentError(f"malformed rational (zero denominator): {text!r}")
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def format_rational(value: "Fraction | int") -> str:
    """Canonical "p/q" text, denominator always present.

    CPython refuses to print an integer longer than its int-to-str digit
    limit (4300 digits by default, see `sys.set_int_max_str_digits`); such a
    value raises ResourceLimitError instead of ValueError.
    """
    value = exact(value)
    return format_pair(value.numerator, value.denominator)


def format_pair(num: int, den: int) -> str:
    """`format_projective` of the reduced pair (num : den), den >= 0, without building a Fraction: "inf" when den = 0."""
    if not den:
        return "inf"
    try:
        return f"{num}/{den}"
    except ValueError:
        raise print_limit_error() from None


def int_digit_limit() -> tuple[int, "int | None"]:
    """Python's int-to-str digit limit and the largest integer it lets print; (0, None) when the limit is off.

    The bound is cached per limit, so a count checked against it on every
    call builds 10**digits once.
    """
    return _digit_limit(sys.get_int_max_str_digits())


@cache
def _digit_limit(digits: int) -> tuple[int, "int | None"]:
    return digits, (10**digits - 1 if digits else None)


def print_limit_error() -> ResourceLimitError:
    return ResourceLimitError(
        f"cannot print a rational with more than {sys.get_int_max_str_digits()} digits"
        " (Python's int-to-str conversion limit)"
    )


def parse_projective(text: str) -> ProjectiveRational:
    """Parse "p/q", "p", or "inf"."""
    return projective_ratio(*parse_projective_pair(text))


def parse_projective_pair(text: str) -> tuple[int, int]:
    """`parse_pair`, extended by "inf" = (1 : 0)."""
    if text.strip() == "inf":
        return 1, 0
    return parse_pair(text)


def format_projective(value: ProjectiveRational) -> str:
    if isinstance(value, Infinity):
        return "inf"
    return format_rational(value)


def parse_point(text: str) -> tuple[Fraction, Fraction]:
    """Parse "x,y" with rational components."""
    x, y = parse_point_pairs(text)
    return Fraction(*x), Fraction(*y)


def parse_point_pairs(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parse "x,y" into the reduced pairs of its components, as `parse_pair` reads them."""
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"malformed point (need two components): {text!r}")
    return parse_pair(parts[0]), parse_pair(parts[1])


def format_point(point) -> str:
    return ",".join(map(format_rational, point))


class Record:
    """A value class that names its fields, in order, in `__match_args__` and writes its own `__init__`.

    It gives what the dataclass decorator would, without importing
    `dataclasses` and the `inspect` it loads on every call: instances of one
    class are equal when their fields are, another class compares as
    NotImplemented, `repr` reads `Name(field=value, ...)`, and an instance is
    unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__match_args__" in vars(cls):
            cls._astuple = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._astuple(self))
        return f"{self.__class__.__qualname__}({', '.join([f'{name}={value!r}' for name, value in fields])})"


class FrozenRecord(Record):
    """A `Record` whose `__init__` sets the fields past `__setattr__`, once, and whose instances hash their fields.

    Assigning or deleting an attribute raises AttributeError, and copies and
    pickles rebuild an instance through its `__init__`.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)


class Mat2(FrozenRecord):
    """Exact 2x2 rational matrix with rows (a11, a12), (a21, a22)."""

    __slots__ = __match_args__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: Fraction, a12: Fraction, a21: Fraction, a22: Fraction) -> None:
        # bench/tracer.py times the construction under this name
        self.__post_init__(a11, a12, a21, a22)

    def __post_init__(self, *entries) -> None:
        for name, entry in zip(self.__match_args__, entries):
            object.__setattr__(self, name, Fraction(exact(entry)))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def __pow__(self, exponent: int) -> "Mat2":
        integer(exponent, 0, "matrix power exponent")
        return power(Mat2.identity(), self, exponent)

    def det(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, x, y) -> tuple[Fraction, Fraction]:
        x = Fraction(exact(x))
        y = Fraction(exact(y))
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)
