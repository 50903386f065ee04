"""Fraction formulas of the conic group: the oracle the integer kernel is tested against.

These are the library's former Fraction implementations, kept verbatim in
substance: composition with its pole cases spelled out, L(Delta) from
Fraction entries, the action through `Mat2.apply`, the two-branch chart,
a solver verified through `Mat2.apply`, and the identity audit evaluated
at z0 = z = 1 with its own renderer.  Each takes the curve (`conic.CIRCLE`
or `conic.HYPERBOLA`) for its sign s and its left-hand form, and shares no
arithmetic and no printing with the kernel and `audit.render_identity_audit`.
"""

from dataclasses import dataclass
from fractions import Fraction

from fermatgroups.rationals import INF, Infinity, Mat2, as_projective, pr_neg, projective_ratio


def compose_delta(curve, d1, d2):
    """Parameter of L(d1)·L(d2), with every pole case of (d1 + d2)/(1 - s*d1*d2) spelled out."""
    d1 = curve.require_valid_delta(d1)
    d2 = curve.require_valid_delta(d2)
    if isinstance(d1, Infinity):
        d1, d2 = d2, d1  # the group is abelian
    if isinstance(d2, Infinity):
        if isinstance(d1, Infinity):
            return Fraction(0)
        return INF if d1 == 0 else Fraction(-curve.s) / d1
    product = d1 * d2
    if product == curve.s:
        return INF
    return (d1 + d2) / (1 - curve.s * product)


def rotation_matrix(curve, delta) -> Mat2:
    """L(Delta) from Fraction entries; L(inf) = -I."""
    delta = curve.require_valid_delta(delta)
    if isinstance(delta, Infinity):
        return -Mat2.identity()
    s_square = curve.s * delta * delta
    den = 1 + s_square
    diagonal = (1 - s_square) / den
    lower = (2 * delta) / den
    return Mat2(diagonal, -curve.s * lower, lower, diagonal)


def act(curve, delta, reflected, point):
    """The image of a curve point: `rotation_matrix`, times R = diag(1, -1) when reflected, then `Mat2.apply`."""
    matrix = rotation_matrix(curve, delta)
    if reflected:
        matrix = Mat2(1, 0, 0, -1) * matrix
    return matrix.apply(*curve.require_on_curve(point))


def chart(curve, point):
    """y/(x + 1), or s*(1 - x)/y where that degenerates; (-1, 0) maps to inf."""
    x, y = map(Fraction, point)
    if x != -1:
        return y / (x + 1)
    if y != 0:
        return curve.s * (1 - x) / y
    return INF


def solve_delta(curve, source, target):
    """The parameter carrying source to target, verified by `Mat2.apply`."""
    source = curve.require_on_curve(source)
    target = curve.require_on_curve(target)
    delta = compose_delta(curve, chart(curve, target), pr_neg(chart(curve, source)))
    if rotation_matrix(curve, delta).apply(*source) != target:
        raise ArithmeticError(f"transitivity solve failed for {source} -> {target}")
    return as_projective(delta)


@dataclass(frozen=True)
class FractionAudit:
    """The identity audit of one pair with Fraction points and sides."""

    source: tuple
    target: tuple
    left: object
    right: object
    solver_delta: object
    excluded_case: bool

    @property
    def sides_equal(self):
        if self.left is None or self.right is None:
            return None
        return self.left == self.right

    @property
    def left_matches_solver(self):
        if self.left is None:
            return None
        return self.left == self.solver_delta

    @property
    def right_matches_solver(self):
        if self.right is None:
            return None
        return self.right == self.solver_delta


def delta_identity_audit(curve, source, target) -> FractionAudit:
    """Both closed forms evaluated on Fraction coordinates, compared with the oracle solver."""
    x0, y0 = curve.require_on_curve(source)
    x, y = curve.require_on_curve(target)
    right_num = x0 * y - x * y0 + y - y0
    right_den = x0 * (x0 + x) + curve.s * y0 * (y0 + y) + x + x0
    return FractionAudit(
        source=(x0, y0),
        target=(x, y),
        left=projective_ratio(*curve.left_form(x0, y0, 1, x, y, 1)),
        right=projective_ratio(right_num, right_den),
        solver_delta=solve_delta(curve, (x0, y0), (x, y)),
        excluded_case=(x == -x0) or (y == -y0),
    )


def _text(value):
    return "inf" if isinstance(value, Infinity) else f"{value.numerator}/{value.denominator}"


def render(audit: FractionAudit) -> dict:
    """The report entry of one `FractionAudit`: the oracle for `audit.render_identity_audit`."""
    source, target = (",".join(map(_text, point)) for point in (audit.source, audit.target))
    return {
        "pair": f"({source}) -> ({target})",
        "left": None if audit.left is None else _text(audit.left),
        "right": None if audit.right is None else _text(audit.right),
        "solver": _text(audit.solver_delta),
        "sides_equal": audit.sides_equal,
        "left_matches_solver": audit.left_matches_solver,
        "right_matches_solver": audit.right_matches_solver,
        "excluded_case": audit.excluded_case,
    }
