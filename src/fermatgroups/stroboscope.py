"""Exact discrete-time iteration of a fixed rational rotation of the circle.

Applying L(Delta) repeatedly to a rational start point visits only rational
points, each computed bit-exactly, so the sampled dynamics carry no rounding
artifacts.  With Delta = n/m in lowest terms (inf = 1/0), a step multiplies
the point's Gaussian integer by w/conj(w), w = m + n*i.  As w is primitive,
each prime p = 1 (mod 4) of m^2 + n^2 divides w through only one of its two
Gaussian factors, and 2 contributes only the unit (1 + i)/(1 - i) = i, so
from (1, 0) the heights are exactly growth^s, growth the odd part of
m^2 + n^2; from any start each step multiplies the height by growth after
the first few (`walk`).  Growth is 1, and the orbit periodic, exactly for
Delta in {0, 1, -1, inf}, of periods 1, 4, 4 and 2; every other rational
Delta turns by an irrational fraction of a turn, so an orbit returns to
its start within four steps or never.  The height profile stands in for a
divergence diagnostic: exact arithmetic has no Lyapunov noise floor.
"""

from __future__ import annotations

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
from itertools import chain
from math import gcd

from .conic import CIRCLE
from .errors import InvalidArgumentError
from .rationals import ProjectiveRational, Record, as_projective, integer, projective_pair

__all__ = [
    "EXACT",
    "HeightProfile",
    "Trajectory",
    "extent",
    "height_profile",
    "iterate",
    "period_check",
    "power_parameter",
    "walk",
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
_BATCH = 64  # steps per list `walk` yields


class Trajectory(Record):
    """Exact orbit samples after 1..steps applications of L(delta), as reduced triples.

    `decimal_triples` holds the triples (a, b, c), c > 0, as integral
    Decimals, which print in time linear in their digits.  `points`
    (a/c, b/c) and `heights` c are built from them as Fractions and ints on
    each access.  `period` is the smallest step index returning exactly to
    the start, or None if no return happens within the recorded steps.
    """

    __slots__ = __match_args__ = ("delta", "start", "decimal_triples", "period")

    def __init__(self, delta: ProjectiveRational, start: Point, decimal_triples: list[tuple[Decimal, Decimal, Decimal]],
                 period: "int | None" = None) -> None:
        self.delta = delta
        self.start = start
        self.decimal_triples = decimal_triples
        self.period = period

    @property
    def points(self) -> list[Point]:
        return [(Fraction(int(a), c), Fraction(int(b), c)) for (a, b, _), c in zip(self.decimal_triples, self.heights)]

    @property
    def heights(self) -> list[int]:
        return [int(c) for _, _, c in self.decimal_triples]


def iterate(delta, start, steps: int) -> Trajectory:
    """Record `steps` exact images of a circle point under L(delta): the triples of `walk`, listed."""
    delta, start, period = _checked(delta, start, steps)
    return Trajectory(delta, start, list(chain.from_iterable(walk(delta, start, steps, period))), period)


def _checked(delta, start, steps: int):
    """`delta` on the projective line, `start` on the circle and the period, if `steps` reach it: four or fewer."""
    integer(steps, 0, "step count")
    return as_projective(delta), CIRCLE.require_on_curve(start), period_check(delta, min(steps, 4))


def walk(delta, start, steps: int, period: "int | None"):
    """Yield the reduced triples (a, b, c), c > 0, of the first `steps` images of a circle point, in lists of up to 64.

    A step applies the primitive matrix of L(delta) (`_primitive_matrix`),
    entries a11..a22 over the odd scale s, to the reduced triple inline:
    the image is A = a11*a + a12*b, B = a21*a + a22*b over C = s*c, and its
    content g = gcd(A, B, C) reduces it, with no Fraction.  g divides s^2
    and equals gcd(A mod s^2, s^2), a linear-time remainder and a gcd of
    small integers, where gcd(A, C) takes time quadratic in the digits.

    In Gaussian integers, with w = m + ni for delta = n/m (inf = 1/0), the
    step multiplies a + bi by a unit times v^2, v = w, or w/(1 + i) when m
    and n are both odd; v is primitive with |v|^2 = s, so it holds one
    Gaussian factor pi of each prime p of s, d_p = v_p(s) times.  Write the
    point as a unit times the product of (pi/conj(pi))^e_p: its height is
    the product of p^|e_p|, and a + bi is a unit times the product of
    pi^(2 e_p), or conj(pi)^(2 |e_p|) where e_p < 0.  Times v^2, the image
    has k_p = 2 min(|e_p|, d_p) factors p where e_p < 0 and none elsewhere,
    and what is left at p is a power of one factor of p alone, or 1 where
    |e_p| = d_p.  So v_p(g) = k_p <= 2 d_p; a Gaussian integer divisible by
    one factor of p alone has a real part prime to p, so v_p(A) = k_p, or
    v_p(A) >= k_p = 2 d_p where |e_p| = d_p: either way v_p(gcd(A, s^2))
    = k_p.  Each step adds d_p to e_p, so only the first c0.bit_length()
    steps can have content, c0 the start's height, and the test runs on
    those alone; after them each step multiplies the height by s exactly.

    The triples are Decimals, which print in time linear in their digits
    (an int takes quadratic time), stepped in the `EXACT` context, which
    raises on any rounding.  An orbit returns to its start within four
    steps or never (module docstring); a periodic walk steps one cycle and
    repeats it, so `walk(1, (1, 0), 100000, 4)` steps four times.  The
    arguments, `period` too, are those `_checked` returns.
    """
    start_triple = CIRCLE.triple(start)
    transient = start_triple[2].bit_length()
    entries, scale = _primitive_matrix(delta)
    square = scale * scale
    a11, a12, a21, a22, s, modulus = map(Decimal, (*entries, scale, square))
    a, b, c = map(Decimal, start_triple)
    count = steps if period is None else min(period, steps)
    for first in range(0, count, _BATCH):
        batch = []
        with localcontext(EXACT):
            for step in range(first + 1, min(first + _BATCH, count) + 1):
                a, b, c = a11 * a + a12 * b, a21 * a + a22 * b, s * c
                if step <= transient:
                    g = gcd(int(a % modulus), square)
                    if g != 1:
                        a, b, c = a // g, b // g, c // g
                # a zero product with a negative entry is Decimal('-0'), which prints as -0
                batch.append((a or ZERO, b or ZERO, c))
        yield batch
    if period is not None:
        cycle = batch * (_BATCH // period)  # the one list holds the cycle, and 1, 2 and 4 divide _BATCH
        yield from (cycle[: steps - done] for done in range(period, steps, _BATCH))


def extent(delta, start, steps: int, limit: "tuple[int, int | None]" = (0, None)) -> "tuple[int | None, bool]":
    """The period of `iterate(delta, start, steps)`, and whether its heights fit `limit`, as `int_digit_limit` gives it.

    `limit` is a digit count and the largest integer of that many digits;
    (0, None) admits any height.  Only the transient is stepped: after it
    each step multiplies the height by growth (`walk`), so the widest height
    is the transient's widest or the last, c * growth**r for its last c,
    built only when bit lengths cannot settle it: a refusal steps no further.
    """
    delta, start, period = _checked(delta, start, steps)
    (_, growth), (digits, ceiling) = _primitive_matrix(delta), limit
    head = min(steps, CIRCLE.triple(start)[2].bit_length())
    for batch in walk(delta, start, head, period):
        # c has more than `digits` digits exactly when c >= 10**digits
        if digits and max(c for _, _, c in batch).adjusted() >= digits:
            return period, False
    if not digits or head == steps:
        return period, True
    rest, last, bits = steps - head, int(batch[-1][2]), ceiling.bit_length()
    # 2**low <= last * growth**rest < 2**high, and 2**(bits - 1) <= ceiling < 2**bits
    low, high = last.bit_length() - 1 + rest * (growth.bit_length() - 1), last.bit_length() + rest * growth.bit_length()
    return period, high < bits or low < bits and last * growth**rest <= ceiling


def _primitive_matrix(delta: ProjectiveRational) -> tuple[tuple[int, int, int, int], int]:
    """`Conic.matrix_pair` of L(delta) divided by its content: entries (a11, a12, a21, a22) and the odd scale.

    For delta = n/m in lowest terms the entries m^2 - n^2, -2nm, 2nm,
    m^2 - n^2 and the scale m^2 + n^2 share 2 when m and n are both odd
    (then m^2 + n^2 = 2 mod 4) and nothing otherwise (a prime of m^2 + n^2
    dividing 2nm would divide m and n), so the reduced scale is the odd
    part of m^2 + n^2.
    """
    entries, scale = CIRCLE.matrix_pair(*projective_pair(delta))
    content = gcd(*entries, scale)
    return tuple(entry // content for entry in entries), scale // content


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


class HeightProfile(Record):
    """A trajectory's heights, their successive quotients and the exact growth.

    `growth` is the odd part of m^2 + n^2 (module docstring): from (1, 0)
    the heights are growth^s, and from a start of height c the `ratios`
    equal growth once 2^s > c.
    """

    __slots__ = __match_args__ = ("heights", "ratios", "growth")

    def __init__(self, heights: list[int], ratios: list[Fraction], growth: int) -> None:
        self.heights = heights
        self.ratios = ratios
        self.growth = growth


def height_profile(trajectory: Trajectory) -> HeightProfile:
    """Summarize height growth along a recorded trajectory."""
    heights = trajectory.heights
    if not heights:
        raise InvalidArgumentError("height profile of an empty trajectory")
    ratios = [Fraction(later, earlier) for earlier, later in zip(heights, heights[1:])]
    _, growth = _primitive_matrix(trajectory.delta)
    return HeightProfile(heights=heights, ratios=ratios, growth=growth)
