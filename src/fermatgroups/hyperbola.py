"""The rational symmetry group of the unit hyperbola x^2 - y^2 = 1.

The names below are those of `conic.HYPERBOLA`, the s = -1 conic group,
whose parameters exclude |Delta| = 1 and whose audit keeps the printed
left-hand closed form as data.
"""

from __future__ import annotations

from .conic import HYPERBOLA, HyperbolicElement

__all__ = [
    "HyperbolicElement",
    "chart",
    "compose_delta",
    "delta_identity_audit",
    "on_hyperbola",
    "require_on_hyperbola",
    "require_valid_delta",
    "rotation_matrix",
    "solve_delta",
]

chart = HYPERBOLA.chart
compose_delta = HYPERBOLA.compose_delta
delta_identity_audit = HYPERBOLA.delta_identity_audit
on_hyperbola = HYPERBOLA.on_curve
require_on_hyperbola = HYPERBOLA.require_on_curve
require_valid_delta = HYPERBOLA.require_valid_delta
rotation_matrix = HYPERBOLA.rotation_matrix
solve_delta = HYPERBOLA.solve_delta
