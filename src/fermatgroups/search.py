"""Bounded-height exhaustive search for rational points of x_1^k + ... + x_n^k = 1.

The search space for height bound H is the set of reduced fractions p/q with
max(|p|, q) <= H.  The scans run over integers and a solution stays a row of
integer pairs (p, q) until it is printed, so reported solutions are exact and
exhaustiveness within the bound is structural rather than numerical.

For n = 2 the common-denominator lemma applies: if a/c and b/d are in lowest
terms and (a/c)^k + (b/d)^k = 1, then c^k divides a^k d^k, so c divides d,
and by symmetry c = d.  Every solution (a/c, b/c) is then a signed or
permuted arrangement of a base triple 0 <= x <= y <= z <= H with
x^k + y^k = z^k, and the scan looks z^k - y^k up among the k-th powers for
each y with y^k >= z^k - y^k.  x^2 - y^2 = 1 gives a^2 = b^2 + c^2, arranged
from the same triples.

For n >= 3 denominators differ (e.g. 1/2, 2/3, 5/6 for k = 3), so every
coordinate is put on one scale D = lcm(1..H)^k: p/q has x^k = P/D for the
integer P = (p * lcm(1..H)/q)^k.  A prefix of n - 2 coordinates leaves the
rest R = D - sum P, which the last two coordinates close exactly when R - P
and P are both in the table of scaled powers: one set intersection per
prefix, with no gcd.

Rows sort by the integer keys p*H^2 // q.  Two distinct fractions of height
<= H differ by at least 1/H^2, so the keys order them as the fractions are
ordered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from time import perf_counter

from .conic import CIRCLE
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import ProjectiveRational, exact, format_pair, integer, projective_ratio

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
#: A solution as reduced integer pairs (p, q), q > 0, one per coordinate p/q.
Row = tuple[tuple[int, int], ...]


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
    integer(bound, 1, "height bound")
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
    integer(k, 1, "root order")
    value = Fraction(exact(value))
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


def _row_key(bound: int):
    """The sort key of a row of height <= bound: p*bound^2 // q for each pair (p, q).

    Distinct fractions p/q < p'/q' of height <= bound differ by at least
    1/(q*q') >= 1/bound^2, so their keys differ by at least 1: the keys
    order rows as Fraction tuples are ordered, and are equal only for equal
    fractions.
    """
    square = bound * bound
    return lambda row: tuple([p * square // q for p, q in row])


@dataclass
class SearchReport:
    """Outcome of one exhaustive bounded-height scan.

    `rows` is the complete list of solutions within the bound, each a tuple
    of reduced integer pairs (p, q) with q > 0, sorted as the tuples of
    fractions p/q sort.  `solutions` builds those Fraction tuples on access;
    `texts` formats each component as "p/q" once per report.  `elapsed` is
    a wall-clock diagnostic and deliberately excluded from `payload()`, the
    JSON-able form.
    """

    k: int
    n: int
    height_bound: int
    rows: list[Row]
    trivial_count: int
    nontrivial_count: int
    elapsed: float = field(repr=False, default=0.0)

    @property
    def solutions(self) -> list[tuple[Fraction, ...]]:
        return [tuple([Fraction(p, q) for p, q in row]) for row in self.rows]

    @cached_property
    def texts(self) -> list[list[str]]:
        return [[format_pair(p, q) for p, q in row] for row in self.rows]

    def payload(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "height": self.height_bound,
            "count": len(self.rows),
            "trivial": self.trivial_count,
            "nontrivial": self.nontrivial_count,
            "solutions": self.texts,
        }


def _base_triples(k: int, bound: int) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with 0 <= x <= y <= z <= bound, z >= 1 and x^k + y^k = z^k.

    x <= y exactly when y^k >= z^k - y^k, so for each z the y run from the
    least such y, `low`, which grows with z, up to z; one C-level pass looks
    every z^k - y^k up among the k-th powers.
    """
    powers = [x**k for x in range(bound + 1)]
    roots = {power: x for x, power in enumerate(powers)}
    triples = []
    low = 0
    for z in range(1, bound + 1):
        zk = powers[z]
        while 2 * powers[low] < zk:
            low += 1
        for xk in roots.keys() & map(zk.__sub__, powers[low : z + 1]):
            triples.append((roots[xk], roots[zk - xk], z))
    return triples


def _conic_rows(k: int, bound: int, sign: int = 1) -> list[Row]:
    """Every ((a, c), (b, c)) of height <= bound with a^k + sign * b^k = c^k, unsorted.

    By the common-denominator lemma these are all rational points of
    x^k + sign * y^k = 1 within the bound (sign = -1 for even k only).  Each
    is an arrangement (a, b, c) of a base triple (x, y, z) with c > 0, so
    every component is at most z: (±x, ±y, z) and (±y, ±x, z) for even k;
    (x, y, z), (y, x, z) and, moving one term across, (-x, z, y),
    (z, -x, y), (-y, z, x) and (z, -y, x) for odd k; (±z, ±y, x) and
    (±z, ±x, y) for a^k - b^k = c^k.  gcd(a, c) = 1 keeps an arrangement in
    lowest terms on both sides, since a prime dividing b and c divides a^k.
    """
    found = set()
    for x, y, z in _base_triples(k, bound):
        if sign < 0:
            arranged = [(a, b, c) for c, w in ((x, y), (y, x)) for a in (z, -z) for b in (w, -w)]
        elif k % 2 == 0:
            arranged = [(a, b, z) for u, w in ((x, y), (y, x)) for a in (u, -u) for b in (w, -w)]
        else:
            arranged = [(x, y, z), (y, x, z), (-x, z, y), (z, -x, y), (-y, z, x), (z, -y, x)]
        found.update(triple for triple in arranged if triple[2] > 0 and gcd(triple[0], triple[2]) == 1)
    return [((a, c), (b, c)) for a, b, c in found]


def _common_scale_rows(k: int, n: int, bound: int) -> list[Row]:
    """Every n-tuple of height <= bound with x_1^k + ... + x_n^k = 1, unsorted.

    Coordinates with one scaled power (p/q and -p/q for even k) share an
    entry of the table, so the prefixes run over its distinct powers and
    each hit expands into every choice of coordinates.
    """
    scale = lcm(*range(1, bound + 1))
    by_power: dict[int, list[tuple[int, int]]] = {}
    for p, q in _reduced_pairs(bound):
        by_power.setdefault((p * (scale // q)) ** k, []).append((p, q))
    total = scale**k
    rows = []
    for head in itertools.product(by_power.items(), repeat=n - 2):
        rest = total - sum(power for power, _ in head)
        choices = [pairs for _, pairs in head]
        for last in by_power.keys() & map(rest.__sub__, by_power):
            rows.extend(itertools.product(*choices, by_power[rest - last], by_power[last]))
    return rows


def _check_scan(n: int, bound: int, budget: int) -> None:
    """Refuse a bound that is not an integer >= 1, or a scan of more than `budget` coordinate prefixes."""
    integer(bound, 1, "height bound")
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


def search_n(k: int, n: int, bound: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchReport:
    """Every rational n-tuple of height <= bound summing to 1 in k-th powers.

    The scan covers all height-bounded prefixes of length n - 1 and closes
    each exactly (see the module docstring); a prefix count above `budget`
    raises ResourceLimitError before any candidate is built.
    """
    integer(k, 2, "form degree k")
    integer(n, 2, "tuple length n")
    started = perf_counter()
    _check_scan(n, bound, budget)
    rows = _conic_rows(k, bound) if n == 2 else _common_scale_rows(k, n, bound)
    rows.sort(key=_row_key(bound))
    trivial = sum(1 for row in rows if all(q == 1 and -1 <= p <= 1 for p, q in row))
    return SearchReport(
        k=k,
        n=n,
        height_bound=bound,
        rows=rows,
        trivial_count=trivial,
        nontrivial_count=len(rows) - trivial,
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
    if integer(k, 3, "counterexample degree k") % 2 == 0:
        raise InvalidArgumentError(f"construction needs an odd integer k >= 3, got {k!r}")
    x1 = Fraction(exact(x1))
    witness = (x1, -x1, Fraction(1))
    if sum(component**k for component in witness) != 1:
        raise ArithmeticError("counterexample failed exact verification")
    return witness


@dataclass
class CoverageReport:
    """Reachability of every height-bounded rational circle point from (1, 0).

    `reached` pairs the reduced triple (a, b, c) of each point (a/c, b/c)
    with the verified rotation parameter reaching it, as a reduced pair
    (n, m) with m >= 0 and inf = (1, 0); `missed` holds the triples of the
    points no verified parameter reached, and stays empty whenever the
    transitivity solver succeeds everywhere.  `entries` and `unreachable`
    build the Fraction forms on access; the coverage ratio is exact.
    """

    height_bound: int
    total: int
    covered: int
    reached: list[tuple[tuple[int, int, int], tuple[int, int]]]
    missed: list[tuple[int, int, int]]

    @property
    def entries(self) -> list[tuple[Point, ProjectiveRational]]:
        return [
            ((Fraction(a, c), Fraction(b, c)), projective_ratio(n, m))
            for (a, b, c), (n, m) in self.reached
        ]

    @property
    def unreachable(self) -> list[Point]:
        return [(Fraction(a, c), Fraction(b, c)) for a, b, c in self.missed]

    @property
    def coverage(self) -> Fraction:
        if self.total == 0:
            return Fraction(1)
        return Fraction(self.covered, self.total)


def verify_orbit_coverage(bound: int) -> CoverageReport:
    """Solve (1, 0) -> p for every circle point p of height <= bound.

    The points come from the exhaustive quadratic search as triples.  Each
    solve composes the target's chart pair with the inverse of the base's,
    as `CIRCLE.solve_delta` does, and exact action (`carries_pair`)
    confirms it, so a full-coverage report is a machine check that the
    rational rotations act transitively within the bound.
    """
    base = (1, 0, 1)
    n0, m0 = CIRCLE.chart_pair(*base)
    reached = []
    missed = []
    for (a, c), (b, _) in search_solutions(2, bound).rows:
        triple = (a, b, c)
        # the pair is (2b : 2(a + c)), or (2 : 0) at (-1, 0): m >= 0 on the circle
        n, m = CIRCLE.compose_pair(CIRCLE.chart_pair(*triple), (-n0, m0))
        if CIRCLE.carries_pair((n, m), base, triple):
            g = gcd(n, m)
            reached.append((triple, (n // g, m // g)))
        else:
            missed.append(triple)
    return CoverageReport(
        height_bound=bound,
        total=len(reached) + len(missed),
        covered=len(reached),
        reached=reached,
        missed=missed,
    )


def _conic_points(bound: int, sign: int) -> list[Point]:
    """All rational points of x^2 + sign * y^2 = 1 with height <= bound, sorted, within the search budget."""
    _check_scan(2, bound, DEFAULT_SEARCH_BUDGET)
    rows = _conic_rows(2, bound, sign)
    rows.sort(key=_row_key(bound))
    return [(Fraction(a, c), Fraction(b, c)) for (a, c), (b, _) in rows]


def hyperbola_points(bound: int) -> list[Point]:
    """All rational points of x^2 - y^2 = 1 with height <= bound, sorted."""
    return _conic_points(bound, -1)


def circle_points(bound: int) -> list[Point]:
    """All rational points of x^2 + y^2 = 1 with height <= bound, sorted."""
    return _conic_points(bound, 1)
