"""Exact discrete-time iteration of a fixed rational rotation of the circle.

Applying L(Delta) repeatedly to a rational start point visits only rational
points, each computed bit-exactly, so the sampled dynamics carry no rounding
artifacts.  Among rational parameters only Delta in {0, 1, -1, inf} generate
periodic orbits (their rotation angles are 0, 90, -90, 180 degrees; every
other rational Delta gives an angle that is an irrational fraction of a
turn), so generic trajectories never return and their coordinate heights
grow geometrically.  The height profile stands in for a divergence
diagnostic: exact arithmetic has no Lyapunov noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    Underflow,
    localcontext,
)
from fractions import Fraction
from math import gcd, log

from . import circle
from .conic import CIRCLE
from .errors import InvalidArgumentError
from .rationals import Infinity, ProjectiveRational, as_projective, integer, projective_pair

__all__ = [
    "EXACT",
    "HeightProfile",
    "Trajectory",
    "height_profile",
    "iterate",
    "period_check",
    "power_parameter",
]

Point = tuple[Fraction, Fraction]

#: Integer arithmetic in Decimal: any result that would need rounding raises.
EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow, Underflow],
)
ZERO = Decimal(0)


@dataclass
class Trajectory:
    """Exact orbit samples after 1..steps applications of L(delta), as reduced triples.

    `decimal_triples` holds the triples (a, b, c), c > 0, as integral
    Decimals, which print in time linear in their digits.  `triples`,
    `points` (a/c, b/c) and `heights` c are built from them as ints and
    Fractions on each access.  `period` is the smallest step index
    returning exactly to the start, or None if no return happens within the
    recorded steps.
    """

    delta: ProjectiveRational
    start: Point
    decimal_triples: list[tuple[Decimal, Decimal, Decimal]]
    period: "int | None" = None

    @property
    def triples(self) -> list[tuple[int, int, int]]:
        return [(int(a), int(b), int(c)) for a, b, c in self.decimal_triples]

    @property
    def points(self) -> list[Point]:
        return [(Fraction(a, c), Fraction(b, c)) for a, b, c in self.triples]

    @property
    def heights(self) -> list[int]:
        return [int(c) for _, _, c in self.decimal_triples]


def iterate(delta, start, steps: int) -> Trajectory:
    """Record `steps` exact images of a circle point under L(delta).

    The reduced triple is stepped by `Conic.act_pair` and reduced by one
    gcd, with no Fraction: a prime dividing a and c divides b^2 = c^2 - a^2,
    so gcd(a, c) divides b.  The circle's scale s = m^2 + n^2 keeps c > 0.

    That gcd is taken modulo s^2.  With delta = n/m (inf = 1/0) and
    w = m + ni, the image of the triple (a, b, c) is A + Bi = (a + bi)*w^2
    over C = c*s, and its content g = gcd(A, C) divides s^2: g divides B
    too (B^2 = C^2 - A^2), hence (A + Bi)*conj(w)^2 = (a + bi)*s^2, so it
    divides a*s^2 and b*s^2, whose gcd is s^2 since gcd(a, b) = 1.  So
    g = gcd(A mod s^2, C mod s^2, s^2): two linear-time remainders and a
    gcd of small integers, where gcd(A, C) takes time quadratic in the
    digits.  A step with g = 1, nearly every one, divides nothing.

    The triples are Decimals stepped in the `EXACT` context: a step only
    multiplies by, adds, and divides by small integers, all linear in the
    digits, and a Decimal prints in linear time where an int takes time
    quadratic in its digits.
    """
    integer(steps, 0, "step count")
    delta = as_projective(delta)
    start = circle.require_on_circle(start)
    delta_pair = n, m = projective_pair(delta)
    square = (m * m + n * n) ** 2
    triples: list[tuple[Decimal, Decimal, Decimal]] = []
    period = None
    triple = start_triple = tuple(map(Decimal, CIRCLE.triple(start)))
    with localcontext(EXACT):
        for step in range(1, steps + 1):
            a, b, c = CIRCLE.act_pair(delta_pair, triple)
            g = gcd(int(a % square), int(c % square), square)
            if g != 1:
                a, b, c = a // g, b // g, c // g
            # a zero product with a negative entry is Decimal('-0'), which prints as -0
            triple = a or ZERO, b or ZERO, c
            triples.append(triple)
            if period is None and triple == start_triple:
                period = step
    return Trajectory(delta=delta, start=start, decimal_triples=triples, period=period)


def power_parameter(delta, m: int) -> ProjectiveRational:
    """Parameter of L(delta)^m, folded through the composition law."""
    integer(m, 0, "power")
    delta = as_projective(delta)
    accumulated: ProjectiveRational = Fraction(0)
    for _ in range(m):
        accumulated = circle.compose_delta(accumulated, delta)
    return accumulated


def period_check(delta, limit: int) -> "int | None":
    """Least 1 <= m <= limit with L(delta)^m = I, or None.

    This folds the same composition law as `power_parameter`, but in
    homogeneous coordinates: writing the m-th parameter as B/A, one more
    composition with delta = b0/a0 sends (A, B) to
    (A*a0 - B*b0, A*b0 + B*a0), and the power is the identity exactly when
    B = 0.  Deferring the gcd reduction keeps the scan in fast integer
    arithmetic without changing any ratio.
    """
    integer(limit, 0, "period scan limit")
    delta = as_projective(delta)
    if isinstance(delta, Infinity):
        a0, b0 = 0, 1
    else:
        a0, b0 = delta.denominator, delta.numerator
    a, b = a0, b0
    for m in range(1, limit + 1):
        if b == 0:
            return m
        a, b = a * a0 - b * b0, a * b0 + b * a0
    return None


@dataclass
class HeightProfile:
    """Growth statistics of a trajectory's coordinate heights.

    `ratios` are the exact successive height quotients; `log_slope` is the
    least-squares slope of log(height) against the step index, which is 0.0
    by definition for periodic trajectories.
    """

    heights: list[int]
    ratios: list[Fraction] = field(default_factory=list)
    log_slope: float = 0.0


def height_profile(trajectory: Trajectory) -> HeightProfile:
    """Summarize height growth along a recorded trajectory."""
    heights = list(trajectory.heights)
    if not heights:
        raise InvalidArgumentError("height profile of an empty trajectory")
    ratios = [Fraction(heights[i + 1], heights[i]) for i in range(len(heights) - 1)]
    if trajectory.period is not None or len(heights) < 2:
        slope = 0.0
    else:
        xs = range(1, len(heights) + 1)
        ys = [log(h) for h in heights]
        x_mean = sum(xs) / len(heights)
        y_mean = sum(ys) / len(heights)
        denom = sum((x - x_mean) ** 2 for x in xs)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / denom
    return HeightProfile(heights=heights, ratios=ratios, log_slope=slope)
