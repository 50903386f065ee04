"""The rational symmetry group of the conic x^2 + s*y^2 = 1, for s = 1 or -1.

At k = 2 the Fermat form is the quadratic form x^2 + s*y^2, so the unit
circle (s = 1) and the unit hyperbola (s = -1) are one construction.  Its
rotations (s = 1) or boosts (s = -1) are parametrized by one projective
rational Delta through the half-angle matrix

    L(Delta) = 1/(1 + s*Delta^2) * [[1 - s*Delta^2, -2*s*Delta],
                                    [2*Delta,        1 - s*Delta^2]],
    L(inf)   = -I,

which for s = -1 degenerates at the excluded parameters |Delta| = 1 (the
asymptotes).  An element is R^r · L(Delta): reflections enter as one bit
through R = diag(1, -1), which conjugates L(Delta) to L(-Delta).  The
rotations or boosts act simply transitively on the curve's rational points;
on the hyperbola, |Delta| > 1 carries one branch to the other.

Every formula lives in one integer kernel.  By the common-denominator
lemma every curve point is (a/c, b/c) with a^2 + s*b^2 = c^2, kept as the
reduced triple (a, b, c) with c > 0; a parameter n/m is the homogeneous pair
(n : m), with inf = (1 : 0).  Two pairs are equal when their cross-products
are, so the kernel never divides; `act_pair` is the one action of L(n : m)
on a point.  The Fraction methods convert their arguments to triples and
pairs, call the kernel, and convert back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidArgumentError
from .rationals import (
    Infinity,
    Mat2,
    ProjectiveRational,
    as_projective,
    exact,
    format_point,
    format_projective,
    pr_neg,
    projective_pair,
    projective_ratio,
)

__all__ = [
    "CIRCLE",
    "CircleElement",
    "Conic",
    "DeltaIdentityAudit",
    "HYPERBOLA",
    "HyperbolicElement",
    "REFLECTION",
]

Point = tuple[Fraction, Fraction]

#: The reflection coset representative diag(1, -1).
REFLECTION = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(-1))


def _as_point(point) -> Point:
    try:
        x, y = point
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"not a planar point: {point!r}") from None
    return (Fraction(exact(x)), Fraction(exact(y)))


def _same(first: tuple[int, int], second: tuple[int, int]) -> "bool | None":
    """Whether two pairs name one projective value; None when either is the indeterminate (0 : 0)."""
    (n1, m1), (n2, m2) = first, second
    if not (n1 or m1) or not (n2 or m2):
        return None
    return n1 * m2 == n2 * m1


class DeltaIdentityAudit(NamedTuple):
    """Exact evaluation of two closed forms for the connecting parameter.

    Each side is a ratio of polynomial expressions in the two points, kept
    as the integer pair of the kernel; a side is None when its pair is the
    indeterminate (0 : 0).  The comparisons against the verified
    transitivity solver make the audit self-contained: `sides_equal` and the
    match flags are None whenever the corresponding side is undefined.  The
    sweeps build one record per pair, so it is a tuple: a frozen dataclass
    takes longer to build than the kernel takes to fill it.
    """

    source: Point
    target: Point
    left_pair: tuple[int, int]
    right_pair: tuple[int, int]
    solver_pair: tuple[int, int]
    excluded_case: bool

    @property
    def left(self) -> "ProjectiveRational | None":
        return projective_ratio(*self.left_pair)

    @property
    def right(self) -> "ProjectiveRational | None":
        return projective_ratio(*self.right_pair)

    @property
    def solver_delta(self) -> ProjectiveRational:
        return projective_ratio(*self.solver_pair)

    @property
    def sides_equal(self) -> "bool | None":
        return _same(self.left_pair, self.right_pair)

    @property
    def left_matches_solver(self) -> "bool | None":
        return _same(self.left_pair, self.solver_pair)

    @property
    def right_matches_solver(self) -> "bool | None":
        return _same(self.right_pair, self.solver_pair)


class Conic:
    """The group of x^2 + s*y^2 = 1: one set of formulas, with s the only difference.

    `left_form` is the curve's own left-hand closed form for the connecting
    parameter, kept as data: the form printed for the hyperbola is not the
    circle's form with s = -1.  It takes both points in homogeneous
    coordinates (x0 : y0 : z0) and (x : y : z) and returns the numerator and
    denominator with the denominators of the points cleared, so the kernel
    evaluates it on triples.  `element` is the curve's element class.
    """

    def __init__(self, s: int, name: str, motion: str, element_name: str, left_form) -> None:
        self.s = s
        self.name = name
        self.motion = motion
        self.left_form = left_form
        self.element = _element_class(self, element_name)

    def _on_curve(self, x: Fraction, y: Fraction) -> bool:
        # the common-denominator lemma: for s = 1 or -1, (a/c, b/d) in lowest
        # terms lies on the curve exactly when d = c and a^2 + s*b^2 = c^2
        c = x.denominator
        return y.denominator == c and x.numerator**2 + self.s * y.numerator**2 == c * c

    def on_curve(self, point) -> bool:
        """Exact membership test for x^2 + s*y^2 = 1 (both hyperbola branches)."""
        return self._on_curve(*_as_point(point))

    def require_on_curve(self, point) -> Point:
        x, y = _as_point(point)
        if not self._on_curve(x, y):
            raise InvalidArgumentError(f"point {format_point((x, y))} is not on the unit {self.name}")
        return (x, y)

    def require_valid_delta(self, delta) -> ProjectiveRational:
        """Coerce onto the projective line; when s = -1, reject |Delta| = 1 (degenerate matrix)."""
        delta = as_projective(delta)
        if self.s < 0 and not isinstance(delta, Infinity) and (delta == 1 or delta == -1):
            raise InvalidArgumentError(
                f"hyperbolic parameter {format_projective(delta)} is excluded (|Delta| = 1)"
            )
        return delta

    def compose_delta(self, d1, d2) -> ProjectiveRational:
        """Parameter of the product: L(result) = L(d1)·L(d2).

        Total on the projective line: `compose_pair` holds the exact
        algebraic limits of (d1 + d2)/(1 - s*d1*d2) in one formula.
        Parameters with d1*d2 = s compose to inf, inf composes with a finite
        Delta to -s/Delta (so inf with 0 gives inf again), and inf with inf
        gives 0 since L(inf)^2 = (-I)^2 = I.  On the hyperbola the result is
        always a valid parameter: |result| = 1 would force |d1| = 1 or
        |d2| = 1.
        """
        first = projective_pair(self.require_valid_delta(d1))
        second = projective_pair(self.require_valid_delta(d2))
        return projective_ratio(*self.compose_pair(first, second))

    def rotation_matrix(self, delta) -> Mat2:
        """L(Delta) as an exact matrix: `matrix_pair` over its scale; L(inf) = -I."""
        entries, scale = self.matrix_pair(*projective_pair(self.require_valid_delta(delta)))
        return Mat2(*(Fraction(entry, scale) for entry in entries))

    def chart(self, point) -> ProjectiveRational:
        """Half-angle parameter of a curve point: the Delta with L(Delta)·(1,0) = point.

        Equal to y/(x + 1); (-1, 0), the circle's antipode and the vertex of
        the hyperbola's other branch, maps to inf.  On the hyperbola the
        chart never takes the excluded values |Delta| = 1.  Points off the
        curve are rejected.
        """
        return projective_ratio(*self.chart_pair(*self.triple(point)))

    def solve_delta(self, source, target):
        """The unique rotation or boost carrying one rational point to another.

        Works through the chart, across the hyperbola's branches too; the
        result is verified by exact action before it is returned.
        """
        solver = self._solve(self.charted(source), self.charted(target))
        return self.element(projective_ratio(*solver))

    def triple(self, point) -> tuple[int, int, int]:
        """The reduced triple (a, b, c) of the curve point (a/c, b/c).

        Both coordinates of a rational curve point share their denominator
        (the common-denominator lemma), so it is read off directly.
        """
        x, y = self.require_on_curve(point)
        return x.numerator, y.numerator, x.denominator

    def chart_pair(self, a: int, b: int, c: int) -> tuple[int, int]:
        """`chart` of the curve point (a/c, b/c) as a pair: (b : a + c), inf at (-1, 0).

        On the curve a = -c forces b = 0, so (-1, 0) is the only point where
        y/(x + 1) degenerates.
        """
        if a != -c:
            return b, a + c
        return 1, 0

    def compose_pair(self, first: tuple[int, int], second: tuple[int, int]) -> tuple[int, int]:
        """`compose_delta` as a pair; the one formula covers every pole case."""
        (n1, m1), (n2, m2) = first, second
        return n1 * m2 + n2 * m1, m1 * m2 - self.s * n1 * n2

    def matrix_pair(self, n: int, m: int) -> tuple[tuple[int, int, int, int], int]:
        """L(n : m) as integer entries (a11, a12, a21, a22) and their scale m^2 + s*n^2."""
        diagonal = m * m - self.s * n * n
        lower = 2 * n * m
        return (diagonal, -self.s * lower, lower, diagonal), m * m + self.s * n * n

    def act_pair(self, delta: tuple[int, int], triple) -> tuple[int, int, int]:
        """L(delta) applied to the triple (a, b, c): the image (A/C, B/C), unreduced.

        C, the scale of L(delta) times c, is negative for a hyperbola boost with |Delta| > 1.
        """
        (a11, a12, a21, a22), scale = self.matrix_pair(*delta)
        a, b, c = triple
        return a11 * a + a12 * b, a21 * a + a22 * b, scale * c

    def carries_pair(self, delta: tuple[int, int], source, target) -> bool:
        """Whether L(delta) sends the triple `source` to the triple `target`, by exact action."""
        image_a, image_b, image_c = self.act_pair(delta, source)
        a, b, c = target
        return image_c != 0 and image_a * c == a * image_c and image_b * c == b * image_c

    def _solve(self, source, target) -> tuple[int, int]:
        # the pair compose(chart(target), -chart(source)) carries one `charted`
        # point to the other; exact action checks it, and a failure raises
        source_point, source_triple, (n0, m0) = source
        target_point, target_triple, target_chart = target
        solver = self.compose_pair(target_chart, (-n0, m0))
        if not self.carries_pair(solver, source_triple, target_triple):
            raise ArithmeticError(
                f"transitivity solve failed for {format_point(source_point)} -> {format_point(target_point)}"
            )
        return solver

    def right_pair(self, source, target) -> tuple[int, int]:
        """The right-hand closed form on two triples, its ratio scaled by c0^2*c.

        For source (x0, y0) and target (x, y) the form is

            right = (x0*y - x*y0 + y - y0) / (x0*(x0 + x) + s*y0*(y0 + y) + x + x0)
        """
        a0, b0, c0 = source
        a, b, c = target
        return (
            (a0 * b - a * b0 + b * c0 - b0 * c) * c0,
            a0 * (a0 * c + a * c0) + self.s * b0 * (b0 * c + b * c0) + c0 * (a * c0 + a0 * c),
        )

    def charted(self, point) -> tuple[Point, tuple[int, int, int], tuple[int, int]]:
        """A curve point with its reduced triple and its chart pair: one operand of `audit_pair`."""
        x, y = point = self.require_on_curve(point)
        triple = x.numerator, y.numerator, x.denominator
        return point, triple, self.chart_pair(*triple)

    def audit_pair(self, source, target) -> DeltaIdentityAudit:
        """The identity audit of one pair of curve points, each given as `charted` returns it.

        Both closed forms, the curve's `left_form` and `right_pair`, are
        evaluated exactly, never reconciled, and compared against the
        verified solver.  Pairs with x = -x0 or y = -y0, where a ratio can
        degenerate, are flagged as excluded.  A sweep charts each point once
        and pairs the results, so no point is charted once per pair.
        """
        source_point, source_triple, _ = source
        target_point, target_triple, _ = target
        a0, b0, c0 = source_triple
        a, b, c = target_triple
        return DeltaIdentityAudit(
            source_point,
            target_point,
            self.left_form(a0, b0, c0, a, b, c),
            self.right_pair(source_triple, target_triple),
            self._solve(source, target),
            a * c0 == -a0 * c or b * c0 == -b0 * c,
        )

    def delta_identity_audit(self, source, target) -> DeltaIdentityAudit:
        """Evaluate both closed forms for the parameter connecting two curve points (see `audit_pair`)."""
        return self.audit_pair(self.charted(source), self.charted(target))


def _element_class(conic: Conic, name: str) -> type:
    """The element class (delta, reflected) of one conic group.

    Each call defines the methods afresh: each curve's class holds them in
    its own `__dict__`, where bench/tracer.py finds and wraps them.
    """

    @dataclass(frozen=True)
    class Element:
        delta: ProjectiveRational
        reflected: bool = False

        def __post_init__(self) -> None:
            object.__setattr__(self, "delta", conic.require_valid_delta(self.delta))
            object.__setattr__(self, "reflected", bool(self.reflected))

        @classmethod
        def identity(cls) -> "Element":
            return cls(Fraction(0))

        def to_matrix(self) -> Mat2:
            matrix = conic.rotation_matrix(self.delta)
            if self.reflected:
                matrix = REFLECTION * matrix
            return matrix

        def compose(self, other: "Element") -> "Element":
            """Group product self·other, computed in parameter space.

            Moving L(d1) past the reflection of `other` flips its sign:
            L(d)·R = R·L(-d).  No matrices are built.
            """
            if not isinstance(other, Element):
                raise InvalidArgumentError(f"cannot compose with {other!r}")
            left = pr_neg(self.delta) if other.reflected else self.delta
            return Element(
                conic.compose_delta(left, other.delta),
                self.reflected != other.reflected,
            )

        def inverse(self) -> "Element":
            if self.reflected:
                return self
            return Element(pr_neg(self.delta))

        def act(self, point) -> Point:
            """Exact image of a curve point; rejects points off the curve."""
            # R = diag(1, -1) negates B; Fraction normalises a negative scale
            a, b, c = conic.act_pair(projective_pair(self.delta), conic.triple(point))
            return Fraction(a, c), Fraction(-b if self.reflected else b, c)

    Element.__name__ = Element.__qualname__ = name
    Element.__doc__ = f"A group element: the {conic.motion} L(delta), reflected first when flagged."
    return Element


def _circle_left_form(x0, y0, z0, x, y, z):
    """left = (x0*y - x*y0) / (x0*(x0 + x) + y0*(y0 + y)), scaled by z0^2*z."""
    return (x0 * y - x * y0) * z0, x0 * (x0 * z + x * z0) + y0 * (y0 * z + y * z0)


def _hyperbola_left_form(x0, y0, z0, x, y, z):
    """left = (x*y0 - y*x0) / (x*(x0 + x) + y*(y0 + y)), exactly as printed; scaled by z0*z^2.

    Its sign convention contradicts the solved parameter, so it generally
    disagrees with the solver: (5/4, 3/4) -> (5/3, 4/3) gives -3/55 where the
    solver and the right-hand form give 1/5.  The audit keeps that
    discrepancy as data and never reconciles it.
    """
    return (x * y0 - y * x0) * z, x * (x0 * z + x * z0) + y * (y0 * z + y * z0)


CIRCLE = Conic(1, "circle", "rotation", "CircleElement", _circle_left_form)
HYPERBOLA = Conic(-1, "hyperbola", "boost", "HyperbolicElement", _hyperbola_left_form)
CircleElement = CIRCLE.element
HyperbolicElement = HYPERBOLA.element
