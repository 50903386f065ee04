"""Exact arithmetic for the rational symmetry groups of Fermat-type forms.

The package realizes one algebraic picture at three sizes of symmetry group:

- the infinite rational rotation-reflection group of x^2 + y^2 = 1 and its
  hyperbolic twin for x^2 - y^2 = 1, each parametrized by one projective
  rational and acting transitively on the curve's rational points;
- the finite monomial groups preserving x_1^k + ... + x_n^k for k >= 3,
  whose orbits through (1, 0) contain no new rational points;
- exhaustive bounded-height searches and exact iteration that check both
  pictures numerically without a single floating-point operation.

Everything is Fraction or cyclotomic arithmetic; every solver verifies its
own answer before returning, and the audit module re-derives each identity
by an independent route.
"""

__version__ = "0.1.0"
