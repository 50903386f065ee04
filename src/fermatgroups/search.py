"""Bounded-height exhaustive search for rational points of x_1^k + ... + x_n^k = 1.

The search space for height bound H is the set of reduced fractions p/q with
max(|p|, q) <= H.  The scans run over integers and build a Fraction only for
a solution, so reported solutions are exact and exhaustiveness within the
bound is structural rather than numerical.

For n = 2 the common-denominator lemma applies: if a/c and b/d are in lowest
terms and (a/c)^k + (b/d)^k = 1, then c^k divides a^k d^k, so c divides d,
and by symmetry c = d.  The scan therefore decides a^k + b^k = c^k with a
dict of k-th powers; x^2 - y^2 = 1 gives a^2 - b^2 = c^2 in the same way.
For n >= 3 denominators differ (e.g. 1/2, 2/3, 5/6 for k = 3), so each
prefix's remainder 1 - sum x_i^k is reduced and looked up in a table of the
k-th powers (p^k, q^k) of every reduced p/q within the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter

from . import circle
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import ProjectiveRational, format_rational

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


def _check_bound(bound) -> None:
    if not isinstance(bound, int) or bound < 1:
        raise InvalidArgumentError(f"height bound must be an integer >= 1, got {bound!r}")


def _reduced_pairs(bound: int) -> list[tuple[int, int]]:
    # (p, q) for every reduced p/q with max(|p|, q) <= bound, unordered
    return [
        (num, den)
        for den in range(1, bound + 1)
        for num in range(-bound, bound + 1)
        if gcd(num, den) == 1
    ]


def reduced_fractions(bound: int) -> list[Fraction]:
    """All reduced p/q with max(|p|, q) <= bound, in increasing order."""
    _check_bound(bound)
    return sorted(Fraction(num, den) for num, den in _reduced_pairs(bound))


def _totient_sum(bound: int) -> int:
    """Sum of Euler's phi(q) over 1 <= q <= bound, without a table of phi.

    Phi(m) = m(m + 1)/2 - sum_{d=2}^{m} Phi(m // d), with the terms grouped
    by equal quotients, needs only the O(sqrt(bound)) distinct values
    bound // d, so counting a height far past the budget stays cheap.
    """
    memo: dict[int, int] = {}

    def total(m: int) -> int:
        if m not in memo:
            result = m * (m + 1) // 2
            d = 2
            while d <= m:
                quotient = m // d
                last = m // quotient
                result -= (last - d + 1) * total(quotient)
                d = last + 1
            memo[m] = result
        return memo[m]

    return total(bound)


def _reduced_fraction_count(bound: int) -> int:
    # Phi(bound) - 1 reduced p/q in (0, 1), as many reciprocals in (1, bound],
    # then 1; the same negated; then 0
    return 4 * _totient_sum(bound) - 1


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


def _common_denominator_scan(k: int, bound: int, sign: int = 1) -> list[Point]:
    """Every (a/c, b/c) of height <= bound with a^k + sign * b^k = c^k.

    By the common-denominator lemma these are all rational points of
    x^k + sign * y^k = 1 within the bound.  A hit with gcd(a, c) = 1 is in
    lowest terms on both sides, since a prime dividing b and c divides a^k.
    For even k the power dict holds b >= 0 and each hit also yields -b.
    """
    even = k % 2 == 0
    roots = {b**k: b for b in range(0 if even else -bound, bound + 1)}
    powers = [(a, a**k) for a in range(-bound, bound + 1)]
    points = []
    for c in range(1, bound + 1):
        ck = c**k
        for a, ak in powers:
            b = roots.get(sign * (ck - ak))
            if b is None or gcd(a, c) != 1:
                continue
            x, y = Fraction(a, c), Fraction(b, c)
            points.append((x, y))
            if even and b:
                points.append((x, -y))
    return points


def _power_table_scan(k: int, n: int, bound: int) -> list[tuple[Fraction, ...]]:
    """Every n-tuple of height <= bound, closing each (n - 1)-prefix by table.

    The remainder 1 - sum x_i^k of a prefix stays an integer pair; reduced by
    one gcd it is looked up among the k-th powers (p^k, q^k) of the reduced
    p/q within the bound (p >= 0 for even k, whose hits also yield -p/q).
    """
    even = k % 2 == 0
    powers = [(num, den, num**k, den**k) for num, den in _reduced_pairs(bound)]
    roots = {(pk, qk): Fraction(num, den) for num, den, pk, qk in powers if not even or num >= 0}
    solutions = []
    for head in itertools.product(powers, repeat=n - 2):
        head_num, head_den = 1, 1
        for _, _, pk, qk in head:
            head_num, head_den = head_num * qk - pk * head_den, head_den * qk
        for num, den, pk, qk in powers:
            rest_num = head_num * qk - pk * head_den
            rest_den = head_den * qk
            g = gcd(rest_num, rest_den)
            root = roots.get((rest_num // g, rest_den // g))
            if root is None:
                continue
            values = tuple(Fraction(a, b) for a, b, _, _ in head) + (Fraction(num, den),)
            solutions.append(values + (root,))
            if even and root:
                solutions.append(values + (-root,))
    return solutions


def search_n(k: int, n: int, bound: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchReport:
    """Every rational n-tuple of height <= bound summing to 1 in k-th powers.

    The scan covers all height-bounded prefixes of length n - 1 and closes
    each exactly (see the module docstring); a prefix count above `budget`
    raises ResourceLimitError before any candidate is built.
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidArgumentError(f"form degree k must be an integer >= 2, got {k!r}")
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"tuple length n must be an integer >= 2, got {n!r}")
    _check_bound(bound)
    started = perf_counter()
    # the count is at least 4 * bound - 1 and at least 3^(n - 1): refuse a
    # scan past the budget on either bound before counting it exactly
    if bound > budget or n - 1 >= budget.bit_length():
        raise ResourceLimitError(
            f"scan at height {bound} with n = {n} has more coordinate prefixes than the budget {budget}"
        )
    prefix_count = _reduced_fraction_count(bound) ** (n - 1)
    if prefix_count > budget:
        raise ResourceLimitError(
            f"scan of {prefix_count} coordinate prefixes exceeds the budget {budget}"
        )
    if n == 2:
        solutions = _common_denominator_scan(k, bound)
    else:
        solutions = _power_table_scan(k, n, bound)
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
    _check_bound(bound)
    points = _common_denominator_scan(2, bound, sign=-1)
    points.sort()
    return points


def circle_points(bound: int) -> list[Point]:
    """All rational points of x^2 + y^2 = 1 with height <= bound, sorted."""
    return [tuple(solution) for solution in search_solutions(2, bound).solutions]
