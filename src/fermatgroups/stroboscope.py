"""Exact discrete-time iteration of a fixed rational rotation of the circle.

Applying L(Delta) repeatedly to a rational start point visits only rational
points, each computed bit-exactly, so the sampled dynamics carry no rounding
artifacts.  With Delta = n/m in lowest terms (inf = 1/0), a step multiplies
the point's Gaussian integer by w/conj(w), w = m + n*i.  As w is primitive,
each prime p = 1 (mod 4) of m^2 + n^2 divides w through only one of its two
Gaussian factors, and 2 contributes only the unit (1 + i)/(1 - i) = i, so
from (1, 0) the heights are exactly growth^s, growth the odd part of
m^2 + n^2.  It is 1, and the orbit periodic, exactly for Delta in
{0, 1, -1, inf}; every other rational Delta turns by an irrational fraction
of a turn.  The height profile stands in for a divergence diagnostic: exact
arithmetic has no Lyapunov noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from math import gcd

from .conic import CIRCLE
from .errors import InvalidArgumentError
from .rationals import ProjectiveRational, as_projective, integer, projective_pair

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
    Decimals, which print in time linear in their digits.  `points`
    (a/c, b/c) and `heights` c are built from them as Fractions and ints on
    each access.  `period` is the smallest step index returning exactly to
    the start, or None if no return happens within the recorded steps.
    """

    delta: ProjectiveRational
    start: Point
    decimal_triples: list[tuple[Decimal, Decimal, Decimal]]
    period: "int | None" = None

    @property
    def points(self) -> list[Point]:
        return [(Fraction(int(a), c), Fraction(int(b), c)) for (a, b, _), c in zip(self.decimal_triples, self.heights)]

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
    start = CIRCLE.require_on_curve(start)
    start_triple = CIRCLE.triple(start)
    delta_pair = n, m = projective_pair(delta)
    square = (m * m + n * n) ** 2
    triples: list[tuple[Decimal, Decimal, Decimal]] = []
    period = None
    triple = start_triple = tuple(map(Decimal, start_triple))
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
        accumulated = CIRCLE.compose_delta(accumulated, delta)
    return accumulated


def period_check(delta, limit: int) -> "int | None":
    """Least 1 <= m <= limit with L(delta)^m = I, or None.

    This folds the composition law of `power_parameter` as `compose_pair`
    on homogeneous pairs (n : m), and the power is the identity exactly
    when n = 0.  Deferring the gcd reduction keeps the scan in fast integer
    arithmetic without changing any ratio.
    """
    integer(limit, 0, "period scan limit")
    pair = step = projective_pair(as_projective(delta))
    for m in range(1, limit + 1):
        if pair[0] == 0:
            return m
        pair = CIRCLE.compose_pair(pair, step)
    return None


@dataclass
class HeightProfile:
    """A trajectory's heights, their successive quotients and the exact growth.

    `growth` is the odd part of m^2 + n^2 (module docstring): from (1, 0)
    the heights are growth^s, and from a start of height c the `ratios`
    equal growth once 2^s > c.
    """

    heights: list[int]
    ratios: list[Fraction]
    growth: int


def height_profile(trajectory: Trajectory) -> HeightProfile:
    """Summarize height growth along a recorded trajectory."""
    heights = trajectory.heights
    if not heights:
        raise InvalidArgumentError("height profile of an empty trajectory")
    ratios = [Fraction(later, earlier) for earlier, later in zip(heights, heights[1:])]
    n, m = projective_pair(trajectory.delta)
    scale = m * m + n * n
    # a primitive pair's m^2 + n^2 is 1 or 2 mod 4, so its odd part drops one factor 2 at most
    growth = scale // 2 if scale % 2 == 0 else scale
    return HeightProfile(heights=heights, ratios=ratios, growth=growth)
