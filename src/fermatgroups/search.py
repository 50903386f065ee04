"""Bounded-height exhaustive search for rational points of x_1^k + ... + x_n^k = 1.

The search space for height bound H is the set of reduced fractions p/q with
max(|p|, q) <= H; the scan fixes the first n - 1 coordinates there and
decides the last one exactly through a rational k-th root.  Everything is
Fraction arithmetic, so reported solutions are exact and exhaustiveness
within the bound is structural rather than numerical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter

from . import circle
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import ProjectiveRational, format_rational, height

__all__ = [
    "CoverageReport",
    "DEFAULT_SEARCH_BUDGET",
    "SearchReport",
    "circle_points",
    "hyperbola_points",
    "is_trivial_tuple",
    "n_counterexample",
    "rational_kth_root",
    "reduced_fractions",
    "search_n",
    "search_solutions",
    "verify_orbit_coverage",
]

#: Cap on the number of scanned coordinate prefixes per search call.
DEFAULT_SEARCH_BUDGET = 5_000_000

Point = tuple[Fraction, Fraction]


def reduced_fractions(bound: int) -> list[Fraction]:
    """All reduced p/q with max(|p|, q) <= bound, in increasing order."""
    if not isinstance(bound, int) or bound < 1:
        raise InvalidArgumentError(f"height bound must be an integer >= 1, got {bound!r}")
    values = [
        Fraction(num, den)
        for den in range(1, bound + 1)
        for num in range(-bound, bound + 1)
        if gcd(abs(num), den) == 1
    ]
    values.sort()
    return values


def _integer_root(value: int, k: int) -> tuple[int, bool]:
    # floor k-th root of value >= 0 by Newton iteration, then exactness flag
    if value < 0:
        raise InvalidArgumentError("integer root of a negative value")
    if value in (0, 1) or k == 1:
        return value, True
    root = 1 << ((value.bit_length() + k - 1) // k)
    while True:
        better = ((k - 1) * root + value // root ** (k - 1)) // k
        if better >= root:
            break
        root = better
    while root**k > value:
        root -= 1
    while (root + 1) ** k <= value:
        root += 1
    return root, root**k == value


def rational_kth_root(value, k: int) -> "Fraction | None":
    """The rational r with r^k = value, or None.

    A reduced p/q has a rational k-th root exactly when p and q are both
    perfect k-th powers.  For even k the nonnegative root is returned;
    negative values then have no root at all.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidArgumentError(f"root order must be an integer >= 1, got {k!r}")
    value = Fraction(value)
    if value < 0 and k % 2 == 0:
        return None
    num, num_exact = _integer_root(abs(value.numerator), k)
    if not num_exact:
        return None
    den, den_exact = _integer_root(value.denominator, k)
    if not den_exact:
        return None
    root = Fraction(num, den)
    return -root if value < 0 else root


def is_trivial_tuple(solution) -> bool:
    """True when every component lies in {0, 1, -1}."""
    return all(component in (0, 1, -1) for component in solution)


@dataclass
class SearchReport:
    """Outcome of one exhaustive bounded-height scan.

    `solutions` is the complete sorted list of solution tuples within the
    bound; `elapsed` is a wall-clock diagnostic and deliberately excluded
    from `payload()`, the JSON-able form.
    """

    k: int
    n: int
    height_bound: int
    solutions: list[tuple[Fraction, ...]]
    trivial_count: int
    nontrivial_count: int
    elapsed: float = field(repr=False, default=0.0)

    def payload(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "height": self.height_bound,
            "count": len(self.solutions),
            "trivial": self.trivial_count,
            "nontrivial": self.nontrivial_count,
            "solutions": [
                [format_rational(c) for c in solution]
                for solution in self.solutions
            ],
        }


def search_n(k: int, n: int, bound: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchReport:
    """Every rational n-tuple of height <= bound summing to 1 in k-th powers.

    The scan enumerates all height-bounded prefixes of length n - 1 and
    closes each with an exact k-th root; a prefix count above `budget`
    raises ResourceLimitError before any work is done.
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidArgumentError(f"form degree k must be an integer >= 2, got {k!r}")
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"tuple length n must be an integer >= 2, got {n!r}")
    started = perf_counter()
    candidates = reduced_fractions(bound)
    prefix_count = len(candidates) ** (n - 1)
    if prefix_count > budget:
        raise ResourceLimitError(
            f"scan of {prefix_count} coordinate prefixes exceeds the budget {budget}"
        )
    powers = [(value, value**k) for value in candidates]
    solutions = []
    for prefix in itertools.product(powers, repeat=n - 1):
        remainder = 1 - sum(p for _, p in prefix)
        root = rational_kth_root(remainder, k)
        if root is None or height(root) > bound:
            continue
        values = tuple(v for v, _ in prefix)
        solutions.append(values + (root,))
        if k % 2 == 0 and root != 0:
            solutions.append(values + (-root,))
    solutions.sort()
    trivial = sum(1 for solution in solutions if is_trivial_tuple(solution))
    return SearchReport(
        k=k,
        n=n,
        height_bound=bound,
        solutions=solutions,
        trivial_count=trivial,
        nontrivial_count=len(solutions) - trivial,
        elapsed=perf_counter() - started,
    )


def search_solutions(k: int, bound: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchReport:
    """Exhaustive scan of x^k + y^k = 1 up to the height bound."""
    return search_n(k, 2, bound, budget)


def n_counterexample(k: int, x1) -> tuple[Fraction, Fraction, Fraction]:
    """A nontrivial 3-term witness (x1, -x1, 1) for odd k, verified exactly.

    For odd exponents the first two k-th powers cancel for every rational
    x1, so x_1^k + x_2^k + x_3^k = 1 has solutions of arbitrary height.
    """
    if not isinstance(k, int) or k < 3 or k % 2 == 0:
        raise InvalidArgumentError(f"construction needs an odd integer k >= 3, got {k!r}")
    x1 = Fraction(x1)
    witness = (x1, -x1, Fraction(1))
    if sum(component**k for component in witness) != 1:
        raise ArithmeticError("counterexample failed exact verification")
    return witness


@dataclass
class CoverageReport:
    """Reachability of every height-bounded rational circle point from (1, 0).

    Each entry pairs a point with the verified rotation parameter reaching
    it; `unreachable` stays empty whenever the transitivity solver succeeds
    everywhere, and the coverage ratio is exact.
    """

    height_bound: int
    total: int
    covered: int
    entries: list[tuple[Point, ProjectiveRational]]
    unreachable: list[Point]

    @property
    def coverage(self) -> Fraction:
        if self.total == 0:
            return Fraction(1)
        return Fraction(self.covered, self.total)


def verify_orbit_coverage(bound: int) -> CoverageReport:
    """Solve (1, 0) -> p for every circle point p of height <= bound.

    The point list comes from the exhaustive quadratic search; `solve_delta`
    confirms each solve by exact action, so a full-coverage report is a
    machine check that the rational rotations act transitively within the
    bound.
    """
    report = search_solutions(2, bound)
    base = (Fraction(1), Fraction(0))
    entries: list[tuple[Point, ProjectiveRational]] = []
    unreachable: list[Point] = []
    for point in report.solutions:
        try:
            element = circle.solve_delta(base, point)
        except (InvalidArgumentError, ArithmeticError):
            unreachable.append(point)
        else:
            entries.append((point, element.delta))
    return CoverageReport(
        height_bound=bound,
        total=len(report.solutions),
        covered=len(entries),
        entries=entries,
        unreachable=unreachable,
    )


def hyperbola_points(bound: int) -> list[Point]:
    """All rational points of x^2 - y^2 = 1 with height <= bound, sorted."""
    points = []
    for x in reduced_fractions(bound):
        y_squared = x * x - 1
        if y_squared < 0:
            continue
        y = rational_kth_root(y_squared, 2)
        if y is None or height(y) > bound:
            continue
        points.append((x, y))
        if y != 0:
            points.append((x, -y))
    points.sort()
    return points


def circle_points(bound: int) -> list[Point]:
    """All rational points of x^2 + y^2 = 1 with height <= bound, sorted."""
    return [tuple(solution) for solution in search_solutions(2, bound).solutions]
