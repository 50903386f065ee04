"""The rational rotation-reflection group of the unit circle x^2 + y^2 = 1.

The names below are those of `conic.CIRCLE`, the s = 1 conic group, plus
the primitive Pythagorean triples read off the rotation orbit of (1, 0).
"""

from __future__ import annotations

from math import gcd

from .conic import CIRCLE, REFLECTION, CircleElement, DeltaIdentityAudit
from .rationals import integer

__all__ = [
    "CircleElement",
    "DeltaIdentityAudit",
    "REFLECTION",
    "chart",
    "compose_delta",
    "delta_identity_audit",
    "on_circle",
    "primitive_triples",
    "require_on_circle",
    "rotation_matrix",
    "solve_delta",
]

chart = CIRCLE.chart
compose_delta = CIRCLE.compose_delta
delta_identity_audit = CIRCLE.delta_identity_audit
on_circle = CIRCLE.on_curve
require_on_circle = CIRCLE.require_on_curve
rotation_matrix = CIRCLE.rotation_matrix
solve_delta = CIRCLE.solve_delta


def primitive_triples(bound: int) -> list[tuple[int, int, int]]:
    """Primitive Pythagorean triples from the rational rotation orbit.

    Clearing denominators in L(p/q)·(1, 0) for 0 < p < q <= bound with
    gcd(p, q) = 1 and p + q odd yields the primitive triple
    (q^2 - p^2, 2pq, q^2 + p^2), each exactly once (Euclid).  An odd pair
    would give twice the triple of ((q - p)/2 : (q + p)/2), a pair with
    smaller q already inside the bound.  Legs are ordered increasingly and
    the list is sorted by hypotenuse then legs.
    """
    integer(bound, 1, "height bound")
    triples = []
    for q in range(2, bound + 1):
        for p in range(1 + q % 2, q, 2):
            if gcd(p, q) == 1:
                a, b = q * q - p * p, 2 * p * q
                if a > b:
                    a, b = b, a
                triples.append((a, b, q * q + p * p))
    return sorted(triples, key=lambda t: (t[2], t[0], t[1]))
