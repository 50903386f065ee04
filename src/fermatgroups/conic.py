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
on a point, which `identity_pairs` spells out inline for its solver check.

The checks live on the integers too: `valid_pair` excludes |Delta| = 1 on
the hyperbola, `point_triple` tests a point given as two reduced pairs
against the curve, and `lowest_terms` reduces an image or a parameter with
a positive scale; `product_pair`, `image` and `solve_triples` join them to
the formulas.  The CLI's `compose`, `act`, `solve` and pair audits go
straight from the parsed pairs to these entry points and `identity_pairs`;
the Fraction methods convert their arguments to triples and pairs, call
the same entry points, and convert back.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import InvalidArgumentError
from .rationals import (
    FrozenRecord,
    Mat2,
    ProjectiveRational,
    as_projective,
    exact,
    format_pair,
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
    "lowest_terms",
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


def lowest_terms(*values: int) -> tuple[int, ...]:
    """Integers, not all zero, over their gcd, signed so that the last one, the scale, is positive.

    A reduced triple (a, b, c) has c > 0 and a parameter pair (n : m) has
    m >= 0, with inf = (1 : 0).
    """
    g = gcd(*values)
    if values[-1] < 0 or not values[-1] and values[0] < 0:
        g = -g
    return tuple([value // g for value in values])


def _same(first: tuple[int, int], second: tuple[int, int]) -> "bool | None":
    """Whether two pairs name one projective value; None when either is the indeterminate (0 : 0)."""
    (n1, m1), (n2, m2) = first, second
    if not (n1 or m1) or not (n2 or m2):
        return None
    return n1 * m2 == n2 * m1


class DeltaIdentityAudit(namedtuple("DeltaIdentityAudit", "source_triple target_triple left_pair right_pair solver_pair")):
    """Exact evaluation of two closed forms for the connecting parameter, as `Conic.identity_pairs` yields it.

    The points are reduced triples and each side, a ratio of polynomial
    expressions in the two points, is an integer pair; `source`, `target`,
    `left`, `right` and `solver_delta` build their Fractions on access, and
    a side is None when its pair is the indeterminate (0 : 0).  The flags
    compare with the verified transitivity solver and are None where a side
    is; `excluded_case` marks x = -x0 or y = -y0, where a ratio can degenerate.
    """

    __slots__ = ()

    @property
    def source(self) -> Point:
        a, b, c = self.source_triple
        return Fraction(a, c), Fraction(b, c)

    @property
    def target(self) -> Point:
        a, b, c = self.target_triple
        return Fraction(a, c), Fraction(b, c)

    @property
    def excluded_case(self) -> bool:
        (a0, b0, c0), (a, b, c) = self.source_triple, self.target_triple
        return a * c0 == -a0 * c or b * c0 == -b0 * c

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

    def _on_curve(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        # the common-denominator lemma: for s = 1 or -1, (a/c, b/d) in lowest
        # terms lies on the curve exactly when d = c and a^2 + s*b^2 = c^2
        (a, c), (b, d) = x, y
        return d == c and a * a + self.s * b * b == c * c

    def on_curve(self, point) -> bool:
        """Exact membership test for x^2 + s*y^2 = 1 (both hyperbola branches)."""
        return self._on_curve(*map(projective_pair, _as_point(point)))

    def require_on_curve(self, point) -> Point:
        self.triple(point)  # raises off the curve
        return _as_point(point)

    def point_triple(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int, int]:
        """The reduced triple (a, b, c) of the curve point (a/c, b/c), given as the reduced pairs of x and y.

        Both pairs have positive denominators, as `parse_pair` returns them;
        a point off the curve raises `require_on_curve`'s error.
        """
        if not self._on_curve(x, y):
            raise InvalidArgumentError(f"point {format_pair(*x)},{format_pair(*y)} is not on the unit {self.name}")
        (a, c), (b, _) = x, y
        return a, b, c

    def require_valid_delta(self, delta) -> ProjectiveRational:
        """Coerce onto the projective line; when s = -1, reject |Delta| = 1 (degenerate matrix)."""
        delta = as_projective(delta)
        self.valid_pair(*projective_pair(delta))
        return delta

    def valid_pair(self, n: int, m: int) -> tuple[int, int]:
        """`require_valid_delta` of the reduced pair (n : m), m >= 0: the pair itself, unless excluded."""
        if self.s < 0 and m and (n == m or n == -m):
            raise InvalidArgumentError(f"hyperbolic parameter {format_pair(n, m)} is excluded (|Delta| = 1)")
        return n, m

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
        return self.element(projective_ratio(*self.solve_triples(self.triple(source), self.triple(target))))

    def solve_triples(self, source, target) -> tuple[int, int]:
        """`solve_delta` of two reduced triples: the checked parameter as a reduced, valid pair."""
        solver = self.solve_pair(source, self.chart_pair(*source), target, self.chart_pair(*target))
        return self.valid_pair(*lowest_terms(*solver))

    def triple(self, point) -> tuple[int, int, int]:
        """The reduced triple (a, b, c) of the curve point (a/c, b/c), read off by `point_triple`."""
        return self.point_triple(*map(projective_pair, _as_point(point)))

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

    def product_pair(self, first: tuple[int, int], second: tuple[int, int]) -> tuple[int, int]:
        """`compose_delta` of two reduced pairs: both checked by `valid_pair`, the product in lowest terms."""
        return lowest_terms(*self.compose_pair(self.valid_pair(*first), self.valid_pair(*second)))

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

    def image(self, delta: tuple[int, int], triple, reflected: bool) -> tuple[int, int, int]:
        """The reduced triple of the image of a triple under L(delta), reflected by R = diag(1, -1) when flagged."""
        a, b, c = lowest_terms(*self.act_pair(delta, triple))
        return a, -b if reflected else b, c

    def carries_pair(self, delta: tuple[int, int], source, target) -> bool:
        """Whether L(delta) sends the triple `source` to the triple `target`, by exact action."""
        image_a, image_b, image_c = self.act_pair(delta, source)
        a, b, c = target
        return image_c != 0 and image_a * c == a * image_c and image_b * c == b * image_c

    def solve_pair(self, source, source_chart, target, target_chart) -> tuple[int, int]:
        """The one solve step: compose(target_chart, -source_chart), checked by `carries_pair` on the triples."""
        n0, m0 = source_chart
        solver = self.compose_pair(target_chart, (-n0, m0))
        if not self.carries_pair(solver, source, target):
            raise _solve_failed(source, target)
        return solver

    def identity_pairs(self, sources, targets):
        """The identity audit of every pair (source, target) of two lists of reduced triples, on plain integers.

        Each distinct point is checked by `point_triple` and charted once, so
        a sweep passes one list as both.  Row by row, this yields the fields
        of a `DeltaIdentityAudit`, (source, target, left, right, solver):
        the curve's `left_form` and the right-hand closed form

            right = (x0*y - x*y0 + y - y0) / (x0*(x0 + x) + s*y0*(y0 + y) + x + x0),

        scaled by c0^2*c, evaluated exactly and never reconciled, and the
        solver, composed by `compose_pair` from the two charts and checked
        by exact action as `solve_pair` checks it, inline.
        """
        points = dict.fromkeys([*sources, *targets])  # each distinct point once, sources first
        charts = {(a, b, c): self.chart_pair(*self.point_triple((a, c), (b, c))) for a, b, c in points}
        targets = [(target, charts[target]) for target in targets]
        s = self.s
        compose = self.compose_pair
        left_form = self.left_form
        for source in sources:
            a0, b0, c0 = source
            n0, m0 = charts[source]
            back = -n0, m0
            for target, target_chart in targets:
                a, b, c = target
                solver = n, m = compose(target_chart, back)
                # L(n : m) of `matrix_pair` carries (a0, b0, c0) to (a, b, c)
                diagonal = m * m - s * n * n
                lower = 2 * n * m
                image_c = (m * m + s * n * n) * c0
                if not (
                    image_c
                    and (diagonal * a0 - s * lower * b0) * c == a * image_c
                    and (lower * a0 + diagonal * b0) * c == b * image_c
                ):
                    raise _solve_failed(source, target)
                right = (
                    (a0 * b - a * b0 + b * c0 - b0 * c) * c0,
                    a0 * (a0 * c + a * c0) + s * b0 * (b0 * c + b * c0) + c0 * (a * c0 + a0 * c),
                )
                yield source, target, left_form(a0, b0, c0, a, b, c), right, solver

    def delta_identity_audit(self, source, target) -> DeltaIdentityAudit:
        """Evaluate both closed forms for the parameter connecting two curve points (see `identity_pairs`)."""
        (pair,) = self.identity_pairs([self.triple(source)], [self.triple(target)])
        return DeltaIdentityAudit(*pair)


def _solve_failed(source, target) -> ArithmeticError:
    texts = [f"{format_pair(a, c)},{format_pair(b, c)}" for a, b, c in (source, target)]
    return ArithmeticError("transitivity solve failed for {} -> {}".format(*texts))


def _element_class(conic: Conic, name: str) -> type:
    """The element class (delta, reflected) of one conic group.

    Each call defines the methods afresh: each curve's class holds them in
    its own `__dict__`, where bench/tracer.py finds and wraps them.
    """

    class Element(FrozenRecord):
        __slots__ = __match_args__ = ("delta", "reflected")

        def __init__(self, delta: ProjectiveRational, reflected: bool = False) -> None:
            object.__setattr__(self, "delta", conic.require_valid_delta(delta))
            if type(reflected) is not bool:
                raise InvalidArgumentError(f"reflected must be True or False, got {reflected!r}")
            object.__setattr__(self, "reflected", reflected)

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
            a, b, c = conic.image(projective_pair(self.delta), conic.triple(point), self.reflected)
            return Fraction(a, c), Fraction(b, c)

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
