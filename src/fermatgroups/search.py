"""Bounded-height exhaustive search for rational points of x_1^k + ... + x_n^k = 1.

The search space for height bound H is the set of reduced fractions p/q with
max(|p|, q) <= H.  The scans run over integers and a solution stays a row of
indices into a table of integer pairs (p, q) until it is printed, so reported
solutions are exact and exhaustiveness within the bound is structural rather
than numerical.

For n = 2 the common-denominator lemma applies: if a/c and b/d are in lowest
terms and (a/c)^k + (b/d)^k = 1, then c^k divides a^k d^k, so c divides d,
and by symmetry c = d.  Every solution (a/c, b/c) is then a signed or
permuted arrangement of a base triple 0 <= x <= y <= z <= H with
x^k + y^k = z^k, and the scan looks z^k - y^k up among the k-th powers for
each y with y^k >= z^k - y^k.  The points of x^2 - y^2 = 1 are those of the
circle with x != 0 under (x, y) -> (1/x, y/x), which keeps the integers a,
b, c of a point and so its height.

For n >= 3 denominators differ (e.g. 1/2, 2/3, 5/6 for k = 3), so every
coordinate is put on one scale D = lcm(1..H)^k: p/q has x^k = P/D for the
integer P = (p * lcm(1..H)/q)^k.  A prefix of n - 2 coordinates leaves the
rest R = D - sum P, which the last two coordinates close exactly when R - P
and P are both in the table of scaled powers.  Taking P as the larger of the
two, from R/2 up, where the powers are sparse, that is one set intersection
per sorted prefix over a short slice of the table, with no gcd; each hit
then expands into its distinct orderings, built once per pattern of equal
powers.

Each scan returns the distinct coordinates of its solutions once, sorted by
the integer key p*H^2 // q, and each solution as a row of indices into that
list.  Two distinct fractions of height <= H differ by at least 1/H^2, so
the keys order the coordinates as the fractions are ordered, and the rows,
sorted as plain int tuples, sort as the tuples of fractions; `search`
formats each coordinate once and prints the rows through the indices.  At
n = k = 2 the rows are read as the triples (a, b, c) of the circle points
(a/c, b/c): `circle_triples` is the one point list of `coverage` and of
both identity sweeps, and `circle_points` and `hyperbola_points` are
Fraction views.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .conic import CIRCLE
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import ProjectiveRational, Record, exact, integer, projective_ratio

__all__ = [
    "CoverageReport",
    "DEFAULT_SEARCH_BUDGET",
    "SearchReport",
    "circle_points",
    "circle_triples",
    "hyperbola_points",
    "hyperbola_triples",
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
#: A coordinate p/q as its reduced integer pair (p, q), q > 0.
Coordinate = tuple[int, int]
#: A solution as reduced integer pairs (p, q), q > 0, one per coordinate p/q.
Row = tuple[Coordinate, ...]
#: A solution as the indices of its coordinates in a sorted coordinate list.
RankRow = tuple[int, ...]


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
    # floor k-th root of value >= 0, one bit at a time from the top, then exactness flag
    if value < 0:
        raise InvalidArgumentError("integer root of a negative value")
    root = 0
    for bit in range(value.bit_length() // k, -1, -1):
        if (root | 1 << bit) ** k <= value:
            root |= 1 << bit
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


def _coordinate_key(bound: int):
    """The sort key of a coordinate (p, q) of height <= bound: p*bound^2 // q.

    Distinct fractions p/q < p'/q' of height <= bound differ by at least
    1/(q*q') >= 1/bound^2, so their keys differ by at least 1: the keys
    order coordinates as fractions are ordered, and are equal only for
    equal fractions.
    """
    square = bound * bound
    return lambda pair: pair[0] * square // pair[1]


def _ranked(pairs, bound: int) -> tuple[list[Coordinate], dict[Coordinate, int]]:
    """The distinct `pairs` sorted as fractions, and the index of each in that list."""
    coordinates = sorted(set(pairs), key=_coordinate_key(bound))
    return coordinates, {pair: rank for rank, pair in enumerate(coordinates)}


class SearchReport(Record):
    """Outcome of one exhaustive bounded-height scan.

    `coordinates` lists the distinct reduced pairs (p, q), q > 0, of the
    solutions within the bound, sorted as the fractions p/q sort; `ranks`
    is the complete list of solutions, each a tuple of indices into
    `coordinates`, sorted as int tuples and so as the tuples of fractions.
    `rows` (the pairs) and `solutions` (the Fractions) are read through the
    indices, as `search` reads its printed "p/q" strings, each coordinate
    formatted once.
    """

    __match_args__ = ("k", "n", "height_bound", "coordinates", "ranks", "trivial_count", "nontrivial_count")

    def __init__(
        self, k: int, n: int, height_bound: int, coordinates: list[Coordinate], ranks: list[RankRow],
        trivial_count: int, nontrivial_count: int,
    ) -> None:
        self.k = k
        self.n = n
        self.height_bound = height_bound
        self.coordinates = coordinates
        self.ranks = ranks
        self.trivial_count = trivial_count
        self.nontrivial_count = nontrivial_count

    def _through(self, values: list) -> list[tuple]:
        return [tuple(map(values.__getitem__, row)) for row in self.ranks]

    @property
    def rows(self) -> list[Row]:
        return self._through(self.coordinates)

    @property
    def solutions(self) -> list[tuple[Fraction, ...]]:
        return self._through([Fraction(p, q) for p, q in self.coordinates])


def _base_triples(k: int, bound: int) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with 0 <= x <= y <= z <= bound, x^k + y^k = z^k and gcd(x, z) = 1.

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
            if gcd(roots[xk], z) == 1:
                triples.append((roots[xk], roots[zk - xk], z))
    return triples


def _conic_rows(k: int, bound: int) -> tuple[list[Coordinate], list[RankRow]]:
    """Every ((a, c), (b, c)) of height <= bound with a^k + b^k = c^k, unsorted, ranked by `_ranked`.

    By the common-denominator lemma these are all rational points of
    x^k + y^k = 1 within the bound.  Each is an arrangement (a, b, c) of a
    base triple (x, y, z) with c > 0, so every component is at most z:
    (±x, ±y, z) and (±y, ±x, z) for even k; (x, y, z), (y, x, z) and, moving
    one term across, (-x, z, y), (z, -x, y), (-y, z, x) and (z, -y, x) for
    odd k.  A prime dividing two of a, b, c divides the third, so the rows
    in lowest terms are exactly the arrangements of the primitive triples,
    the only ones `_base_triples` keeps.
    """
    found = set()
    for x, y, z in _base_triples(k, bound):
        if k % 2 == 0:
            arranged = [(a, b, z) for u, w in ((x, y), (y, x)) for a in (u, -u) for b in (w, -w)]
        else:
            arranged = [(x, y, z), (y, x, z), (-x, z, y), (z, -x, y), (-y, z, x), (z, -y, x)]
        found.update(triple for triple in arranged if triple[2] > 0)
    coordinates, rank = _ranked([pair for a, b, c in found for pair in ((a, c), (b, c))], bound)
    return coordinates, [(rank[a, c], rank[b, c]) for a, b, c in found]


def _orderings(pattern: tuple[bool, ...]) -> list[itemgetter]:
    """One getter per distinct ordering of a sorted multiset whose entries i and i + 1 are equal where `pattern[i]`.

    Each ordering is a tuple of positions, each position inserted at or
    before its equal predecessor, so every distinct arrangement of the
    entries comes out exactly once.
    """
    orderings = [()]
    for position, tied in enumerate((False, *pattern)):
        orderings = [
            o[:i] + (position,) + o[i:]
            for o in orderings
            for i in range((o.index(position - 1) if tied else len(o)) + 1)
        ]
    return [itemgetter(*ordering) for ordering in orderings]


def _common_scale_rows(k: int, n: int, bound: int) -> tuple[list[Coordinate], list[RankRow]]:
    """Every n-tuple of height <= bound with x_1^k + ... + x_n^k = 1, unsorted, ranked by `_ranked`.

    Coordinates with one scaled power (p/q and -p/q for even k) share an
    entry of the table.  The form is symmetric, so each multiset of powers
    is found once, as a sorted head and a closing pair no smaller than its
    largest power: for the rest R the larger power P of the pair runs from
    R/2 up to R less the head's largest, where the table is sparsest, and
    R - P is looked up.  Only then are the coordinates of the powers found
    ranked.  The distinct orderings of a multiset depend only on which of
    its sorted entries are equal, so they are built once per such pattern
    as position getters, and each maps every choice of coordinate ranks to
    a row.
    """
    scale = lcm(*range(1, bound + 1))
    by_power: dict[int, list[Coordinate]] = {}
    for p, q in _reduced_pairs(bound):
        by_power.setdefault((p * (scale // q)) ** k, []).append((p, q))
    powers = sorted(by_power)
    total = scale**k
    multisets = []
    for head in itertools.combinations_with_replacement(powers, n - 2):
        rest = total - sum(head)
        larger = powers[bisect_left(powers, -(-rest // 2)) : bisect_right(powers, rest - head[-1])]
        for smaller in by_power.keys() & map(rest.__sub__, larger):
            multisets.append((*head, smaller, rest - smaller))
    found = {value for values in multisets for value in values}
    coordinates, rank = _ranked([pair for value in found for pair in by_power[value]], bound)
    by_rank = {value: [rank[pair] for pair in by_power[value]] for value in found}
    by_pattern: dict[tuple[bool, ...], list[itemgetter]] = {}
    rows = []
    for values in multisets:
        pattern = tuple(map(int.__eq__, values, values[1:]))
        if pattern not in by_pattern:
            by_pattern[pattern] = _orderings(pattern)
        orderings = by_pattern[pattern]
        choices = itertools.product(*map(by_rank.__getitem__, values))
        rows += [ordering(choice) for choice in choices for ordering in orderings]
    return coordinates, rows


def _check_scan(n: int, bound: int, budget: int) -> None:
    """Refuse a bound or budget that is not an integer >= 1, or a scan of more than `budget` coordinate prefixes."""
    integer(bound, 1, "height bound")
    integer(budget, 1, "search budget")
    # the count is at least 4 * bound - 1 and at least 3^(n - 1): refuse a
    # scan past the budget on either bound before counting it exactly
    if bound > budget or n - 1 >= budget.bit_length():
        raise ResourceLimitError(
            f"scan at height {bound} with n = {n} has more coordinate prefixes than the budget {budget}"
        )
    # and it is below (2 * bound * (bound + 1))^(n - 1), since Phi(bound) <=
    # bound * (bound + 1) / 2: count it exactly only when that could bind
    if (2 * bound * (bound + 1)) ** (n - 1) <= budget:
        return
    prefix_count = _reduced_fraction_count(bound) ** (n - 1)
    if prefix_count > budget:
        raise ResourceLimitError(
            f"scan of {prefix_count} coordinate prefixes exceeds the budget {budget}"
        )


def _scan(k: int, n: int, bound: int, budget: int) -> tuple[list[Coordinate], list[RankRow]]:
    """The coordinates and rank rows of `_conic_rows` (n = 2) or `_common_scale_rows`, rows sorted, within the budget."""
    _check_scan(n, bound, budget)
    coordinates, rows = _conic_rows(k, bound) if n == 2 else _common_scale_rows(k, n, bound)
    rows.sort()
    return coordinates, rows


def search_n(k: int, n: int, bound: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchReport:
    """Every rational n-tuple of height <= bound summing to 1 in k-th powers.

    The scan covers all height-bounded prefixes of length n - 1 and closes
    each exactly (see the module docstring); a prefix count above `budget`
    raises ResourceLimitError before any candidate is built.
    """
    integer(k, 2, "form degree k")
    integer(n, 2, "tuple length n")
    coordinates, rows = _scan(k, n, bound, budget)
    units = {rank for rank, (p, q) in enumerate(coordinates) if q == 1 and -1 <= p <= 1}
    trivial = sum(map(units.issuperset, rows))
    return SearchReport(
        k=k,
        n=n,
        height_bound=bound,
        coordinates=coordinates,
        ranks=rows,
        trivial_count=trivial,
        nontrivial_count=len(rows) - trivial,
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


class CoverageReport(Record):
    """Reachability of every height-bounded rational circle point from (1, 0).

    `reached` pairs the reduced triple (a, b, c) of each point (a/c, b/c)
    with the verified rotation parameter reaching it, as a reduced pair
    (n, m) with m >= 0 and inf = (1, 0); `missed` holds the triples of the
    points no verified parameter reached, and stays empty whenever the
    transitivity solver succeeds everywhere.  `entries` and `unreachable`
    build the Fraction forms on access; the coverage ratio is exact.
    """

    __slots__ = __match_args__ = ("height_bound", "total", "covered", "reached", "missed")

    def __init__(
        self, height_bound: int, total: int, covered: int,
        reached: list[tuple[tuple[int, int, int], tuple[int, int]]], missed: list[tuple[int, int, int]],
    ) -> None:
        self.height_bound = height_bound
        self.total = total
        self.covered = covered
        self.reached = reached
        self.missed = missed

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

    The points come as triples from `circle_triples`, the budgeted scan of
    the quadratic search.  Each is solved by `CIRCLE.solve_pair`, which
    checks its pair by exact action, and a point is missed exactly where
    that check fails, so a full-coverage report is a machine check that the
    rational rotations act transitively within the bound.
    """
    base = (1, 0, 1)
    base_chart = CIRCLE.chart_pair(*base)
    reached = []
    missed = []
    for triple in circle_triples(bound):
        try:
            # the pair is (2b : 2(a + c)), or (2 : 0) at (-1, 0): m >= 0 on the circle
            n, m = CIRCLE.solve_pair(base, base_chart, triple, CIRCLE.chart_pair(*triple))
        except ArithmeticError:
            missed.append(triple)
            continue
        g = gcd(n, m)
        reached.append((triple, (n // g, m // g)))
    return CoverageReport(
        height_bound=bound,
        total=len(reached) + len(missed),
        covered=len(reached),
        reached=reached,
        missed=missed,
    )


def circle_triples(bound: int) -> list[tuple[int, int, int]]:
    """The reduced triples (a, b, c) of the circle points (a/c, b/c) of height <= bound, sorted as the points."""
    coordinates, rows = _scan(2, 2, bound, DEFAULT_SEARCH_BUDGET)
    return [(coordinates[i][0], coordinates[j][0], coordinates[i][1]) for i, j in rows]


def hyperbola_triples(bound: int) -> list[tuple[int, int, int]]:
    """`circle_triples` for x^2 - y^2 = 1, sorted by the `_coordinate_key` of x, (c, a), then of y, (b, a).

    (x, y) -> (1/x, y/x) carries the circle points with x != 0 onto the
    hyperbola: (a/c, b/c) goes to (c/a, b/a), the same three integers.
    """
    key = _coordinate_key(bound)
    triples = [(c, b, a) if a > 0 else (-c, -b, -a) for a, b, c in circle_triples(bound) if a]
    return sorted(triples, key=lambda t: (key(t[::2]), key(t[1:])))


def circle_points(bound: int) -> list[Point]:
    """`circle_triples` as Fraction points."""
    return [(Fraction(a, c), Fraction(b, c)) for a, b, c in circle_triples(bound)]


def hyperbola_points(bound: int) -> list[Point]:
    """`hyperbola_triples` as Fraction points."""
    return [(Fraction(a, c), Fraction(b, c)) for a, b, c in hyperbola_triples(bound)]
