"""The int stepper of `stroboscope.iterate`: the oracle its Decimal stepping is tested against.

This is the library's former stepper, kept as it was: one `Conic.act_pair`
per step, over the full scale m^2 + n^2, and the content tested on every
step modulo that scale squared, carried on Python ints, which print in
time quadratic in their digits.  The library divides the matrix by its
content once and tests the content on the first steps only.
"""

from math import gcd

from fermatgroups import circle
from fermatgroups.conic import CIRCLE
from fermatgroups.rationals import as_projective, projective_pair


def iterate(delta, start, steps: int):
    """The reduced int triples after 1..steps applications of L(delta), and the period or None."""
    delta_pair = n, m = projective_pair(as_projective(delta))
    square = (m * m + n * n) ** 2
    triples, period = [], None
    triple = start_triple = CIRCLE.triple(circle.require_on_circle(start))
    for step in range(1, steps + 1):
        triple = a, b, c = CIRCLE.act_pair(delta_pair, triple)
        g = gcd(a % square, c % square, square)
        if g != 1:
            triple = a // g, b // g, c // g
        triples.append(triple)
        if period is None and triple == start_triple:
            period = step
    return triples, period
