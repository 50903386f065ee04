"""Bounded-height search: roots, exhaustive scans, coverage, counterexamples."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial, gcd
from time import perf_counter

import pytest
import search_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatgroups import circle, search
from fermatgroups.errors import InvalidArgumentError, ResourceLimitError
from fermatgroups.rationals import INF, format_rational, height

fractions_st = st.fractions(max_denominator=30)


def fraction_scan(k, n, bound):
    """Differential oracle: the Fraction scan the integer kernels replaced.

    Every height-bounded prefix of length n - 1 is closed by an exact
    rational k-th root of its remainder, kept when within the bound.
    """
    powers = [(value, value**k) for value in search.reduced_fractions(bound)]
    solutions = []
    for prefix in itertools.product(powers, repeat=n - 1):
        root = search.rational_kth_root(1 - sum(p for _, p in prefix), k)
        if root is None or height(root) > bound:
            continue
        values = tuple(v for v, _ in prefix)
        solutions.append(values + (root,))
        if k % 2 == 0 and root != 0:
            solutions.append(values + (-root,))
    return sorted(solutions)


def fraction_hyperbola_points(bound):
    """Differential oracle for x^2 - y^2 = 1: a rational square root of x^2 - 1."""
    points = []
    for x in search.reduced_fractions(bound):
        y = search.rational_kth_root(x * x - 1, 2)
        if y is None or height(y) > bound:
            continue
        points.append((x, y))
        if y != 0:
            points.append((x, -y))
    return sorted(points)


def common_denominator_scan(k, bound, sign=1):
    """Differential oracle: the dict loop the base-triple kernel replaced.

    Every (a/c, b/c) of height <= bound with a^k + sign * b^k = c^k, unsorted:
    c^k - a^k is looked up in a dict of the k-th powers b^k for every c and
    a.  A hit with gcd(a, c) = 1 is in lowest terms on both sides, since a
    prime dividing b and c divides a^k.  For even k the power dict holds
    b >= 0 and each hit also yields -b.
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


def power_table_scan(k, n, bound):
    """Differential oracle: the gcd loop the common-scale kernel replaced.

    Every n-tuple of height <= bound, unsorted.  The remainder 1 - sum x_i^k
    of each (n - 1)-prefix stays an integer pair; reduced by one gcd it is
    looked up among the k-th powers (p^k, q^k) of the reduced p/q within the
    bound (p >= 0 for even k, whose hits also yield -p/q).
    """
    even = k % 2 == 0
    powers = [(num, den, num**k, den**k) for num, den in search_oracle.reduced_pairs(bound)]
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


def as_rows(solutions):
    """Sorted Fraction tuples as the kernels' rows of (numerator, denominator) pairs."""
    return [tuple((c.numerator, c.denominator) for c in solution) for solution in sorted(solutions)]


class TestReducedFractions:
    def test_bound_one(self):
        assert search.reduced_fractions(1) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_bound_two(self):
        expected = [
            Fraction(-2),
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
        ]
        assert search.reduced_fractions(2) == expected

    def test_all_reduced_within_bound_and_sorted(self):
        values = search.reduced_fractions(9)
        assert values == sorted(values)
        assert len(values) == len(set(values))
        for value in values:
            assert height(value) <= 9

    def test_count_matches_totient_sum(self):
        # |{p/q reduced, max(|p|,q) <= H}| grows like a totient sum; check
        # exhaustively against a brute-force set for one bound
        bound = 7
        brute = {
            Fraction(p, q)
            for q in range(1, bound + 1)
            for p in range(-bound, bound + 1)
        }
        brute = {f for f in brute if height(f) <= bound}
        assert set(search.reduced_fractions(bound)) == brute

    def test_rejects_bad_bound(self):
        with pytest.raises(InvalidArgumentError):
            search.reduced_fractions(0)

    def test_count_formula(self):
        # 4 * sum_{q <= H} phi(q) - 1, the count behind the budget check, is
        # the length of the table the n >= 3 scan builds: the two cannot drift apart
        for bound in range(1, 301):
            assert search._reduced_fraction_count(bound) == len(search._farey_pairs(bound)), bound

    def test_farey_pairs_are_the_sorted_brute_force(self):
        for bound in range(1, 61):
            assert search._farey_pairs(bound) == sorted(search_oracle.reduced_pairs(bound), key=lambda pair: Fraction(*pair)), bound


class TestRationalKthRoot:
    def test_perfect_cube(self):
        assert search.rational_kth_root(Fraction(8, 27), 3) == Fraction(2, 3)

    def test_negative_odd(self):
        assert search.rational_kth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)

    def test_negative_even_has_no_root(self):
        assert search.rational_kth_root(Fraction(-4), 2) is None

    def test_non_power_has_no_root(self):
        assert search.rational_kth_root(Fraction(2), 2) is None
        assert search.rational_kth_root(Fraction(27, 8), 2) is None

    def test_even_root_is_nonnegative(self):
        assert search.rational_kth_root(Fraction(9, 4), 2) == Fraction(3, 2)

    def test_zero_and_one(self):
        assert search.rational_kth_root(0, 5) == 0
        assert search.rational_kth_root(1, 7) == 1

    def test_large_exact_powers(self):
        base = Fraction(123456789, 987654321)
        assert search.rational_kth_root(base**7, 7) == base

    @given(fractions_st, st.integers(min_value=1, max_value=6))
    def test_round_trip(self, q, k):
        value = q**k
        root = search.rational_kth_root(value, k)
        expected = abs(q) if k % 2 == 0 else q
        assert root == expected

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            search.rational_kth_root(Fraction(1), 0)


class TestSearchSolutions:
    def test_quadratic_height_five(self):
        report = search.search_solutions(2, 5)
        points = set(report.solutions)
        assert (Fraction(3, 5), Fraction(4, 5)) in points
        assert (Fraction(-3, 5), Fraction(-4, 5)) in points
        assert len(points) == 12
        assert report.trivial_count == 4

    def test_cubic_finds_only_trivial(self):
        report = search.search_solutions(3, 8)
        assert {tuple(s) for s in report.solutions} == {
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        }
        assert report.nontrivial_count == 0

    def test_every_reported_solution_is_exact(self):
        for k in (2, 3, 4):
            report = search.search_solutions(k, 6)
            for solution in report.solutions:
                assert sum(c**k for c in solution) == 1
                assert height(solution) <= 6

    def test_solutions_sorted_without_duplicates(self):
        report = search.search_solutions(2, 10)
        assert report.solutions == sorted(report.solutions)
        assert len(report.solutions) == len(set(report.solutions))

    def test_exhaustive_against_brute_force(self):
        # oracle: scan all candidate pairs directly
        bound = 6
        candidates = search.reduced_fractions(bound)
        brute = {
            (x, y)
            for x in candidates
            for y in candidates
            if x * x + y * y == 1
        }
        assert set(search.search_solutions(2, bound).solutions) == brute

    def test_swap_and_sign_symmetries(self):
        for k in (2, 3, 4):
            solutions = set(search.search_solutions(k, 10).solutions)
            assert {(y, x) for x, y in solutions} == solutions
            if k % 2 == 0:
                assert {(-x, y) for x, y in solutions} == solutions
                assert {(x, -y) for x, y in solutions} == solutions

    def test_quadratic_count_grows_with_the_bound(self):
        counts = [len(search.search_solutions(2, bound).solutions) for bound in (5, 13, 25)]
        assert counts == sorted(counts) and counts[0] < counts[-1]

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            search.search_n(3, 3, 100, budget=1000)

    def test_budget_checked_before_any_candidate(self):
        # 5,363,287 reduced fractions of height <= 2100: counted, never built
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                search.search_n(3, 2, 2100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "scan of 5363287 coordinate prefixes exceeds the budget 5000000"
        assert peak < 5 * 2**20

    def test_count_past_the_budget_is_refused_uncounted(self):
        # 3^9999 prefixes would have 4771 digits, past the int-to-str limit
        with pytest.raises(ResourceLimitError) as caught:
            search.search_n(3, 10_000, 1)
        assert str(caught.value) == (
            "scan at height 1 with n = 10000 has more coordinate prefixes than the budget 5000000"
        )
        started = perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            search.search_n(3, 2, 10**12)
        assert perf_counter() - started < 1
        assert "height 1000000000000" in str(caught.value)

    def test_rejects_bad_degree_and_arity(self):
        with pytest.raises(InvalidArgumentError):
            search.search_solutions(1, 5)
        with pytest.raises(InvalidArgumentError):
            search.search_n(3, 1, 5)

    def test_payload_is_json_ready(self):
        # the JSON that `search` prints is the former payload, which the oracle keeps
        report = search.search_solutions(3, 3)
        payload = search_oracle.payload(report)
        assert payload.keys() == {"k", "n", "height", "count", "trivial", "nontrivial", "solutions"}
        assert payload["k"] == 3 and payload["n"] == 2 and payload["height"] == 3
        assert payload["count"] == len(report.solutions)
        assert payload["solutions"] == [[format_rational(x) for x in row] for row in report.solutions]
        assert json.loads(json.dumps(payload)) == payload


class TestSearchN:
    def test_three_variable_witness(self):
        report = search.search_n(3, 3, 6)
        assert (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)) in set(report.solutions)
        assert report.nontrivial_count > 0

    def test_all_solutions_verify(self):
        report = search.search_n(3, 3, 4)
        for solution in report.solutions:
            assert sum(c**3 for c in solution) == 1

    def test_permutation_closure(self):
        # the form is symmetric, so the sorted solution list is closed
        # under coordinate permutation within the same height bound
        report = search.search_n(3, 3, 5)
        solutions = set(report.solutions)
        for x, y, z in solutions:
            assert (y, x, z) in solutions
            assert (z, y, x) in solutions

    @pytest.mark.parametrize("k", [2, 3])
    def test_height_one_counts_match_their_closed_form(self, k):
        # coordinates in {-1, 0, 1}: odd k needs j + 1 ones, j minus ones
        # and zeros elsewhere, even k one +-1 and zeros elsewhere; this
        # reaches past n = 10, where the power-table oracle stops
        for n in range(3, 13):
            if k % 2:
                expected = sum(
                    factorial(n) // (factorial(j) * factorial(j + 1) * factorial(n - 2 * j - 1))
                    for j in range((n - 1) // 2 + 1)
                )
            else:
                expected = 2 * n
            rows = search.search_n(k, n, 1).ranks
            assert len(rows) == expected, n
            assert all(a < b for a, b in zip(rows, rows[1:])), n
        assert expected == (69_576 if k % 2 else 24)


class TestBudgetBoundary:
    """The prefix count C = (4 * Phi(H) - 1)^(n - 1) is the last budget that passes.

    The check counts C only when (2H(H + 1))^(n - 1), an upper bound of it,
    exceeds the budget, so budgets on both sides of that bound are tried too.
    """

    GRID = [(n, bound) for n in (2, 3, 4) for bound in (1, 2, 3, 5)]

    @pytest.mark.parametrize("n, bound", GRID)
    def test_exact_count_is_the_last_budget_that_passes(self, n, bound):
        count = search._reduced_fraction_count(bound) ** (n - 1)
        assert search.search_n(3, n, bound, budget=count).ranks == search.search_n(3, n, bound).ranks
        with pytest.raises(ResourceLimitError) as caught:
            search.search_n(3, n, bound, budget=count - 1)
        assert str(caught.value) == f"scan of {count} coordinate prefixes exceeds the budget {count - 1}"

    @pytest.mark.parametrize("n, bound", GRID)
    def test_budgets_at_the_upper_bound_pass(self, n, bound):
        upper = (2 * bound * (bound + 1)) ** (n - 1)
        assert search._reduced_fraction_count(bound) ** (n - 1) < upper
        expected = search.search_n(3, n, bound).ranks
        for budget in (upper, upper - 1):
            assert search.search_n(3, n, bound, budget=budget).ranks == expected, budget


class TestIntegerKernelsAgainstFractionScan:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_two_variables(self, k):
        for bound in range(1, 41):
            assert search.search_n(k, 2, bound).solutions == fraction_scan(k, 2, bound)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_three_variables(self, k):
        for bound in range(1, 7):
            assert search.search_n(k, 3, bound).solutions == fraction_scan(k, 3, bound)

    def test_hyperbola_points(self):
        for bound in range(1, 31):
            assert search.hyperbola_points(bound) == fraction_hyperbola_points(bound)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_small_searches(self, data):
        k = data.draw(st.integers(min_value=2, max_value=7), label="k")
        n = data.draw(st.integers(min_value=2, max_value=4), label="n")
        bound = data.draw(st.integers(min_value=1, max_value={2: 25, 3: 5, 4: 2}[n]), label="bound")
        report = search.search_n(k, n, bound)
        assert report.solutions == fraction_scan(k, n, bound)
        assert report.trivial_count == sum(map(search.is_trivial_tuple, report.solutions))

    def test_against_sympy_roots(self):
        # an oracle that shares no root code with the library: sympy's
        # integer_nthroot on numerator and denominator of 1 - x^k
        sympy = pytest.importorskip("sympy")

        def sympy_root(value, k):
            if value < 0 and k % 2 == 0:
                return None
            num, num_exact = sympy.integer_nthroot(abs(value.numerator), k)
            den, den_exact = sympy.integer_nthroot(value.denominator, k)
            if not (num_exact and den_exact):
                return None
            return Fraction(-int(num) if value < 0 else int(num), int(den))

        for k, bound in [(2, 30), (3, 30), (4, 20), (5, 20)]:
            expected = []
            for x in search.reduced_fractions(bound):
                y = sympy_root(1 - x**k, k)
                if y is not None and height(y) <= bound:
                    expected += [(x, y), (x, -y)] if k % 2 == 0 and y else [(x, y)]
            assert search.search_n(k, 2, bound).solutions == sorted(expected)
        # random values up to 400 bits, and exact k-th powers with their neighbours
        rng = random.Random(0)
        values = [0, 1, 2, 10**6, 3**40, 3**40 + 1, 7**35 - 1]
        values += [rng.getrandbits(rng.randint(1, 400)) for _ in range(200)]
        for k in range(1, 9):
            powers = [rng.getrandbits(rng.randint(1, 400 // k)) ** k for _ in range(50)]
            for value in values + [v + step for v in powers for step in (-1, 0, 1) if v + step >= 0]:
                assert search._integer_root(value, k) == tuple(sympy.integer_nthroot(value, k))

    def test_totient_sum_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        expected = list(itertools.accumulate(int(sympy.totient(q)) for q in range(1, 301)))
        assert [search._totient_sum(q) for q in range(1, 301)] == expected


class TestKernelsAgainstFormerKernels:
    """The base-triple and common-scale kernels give the rows the former kernels found."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_two_variables(self, k):
        for bound in range(1, 121):
            report = search.search_n(k, 2, bound)
            assert report.rows == as_rows(common_denominator_scan(k, bound)), bound
            assert report.trivial_count == sum(map(search.is_trivial_tuple, report.solutions))

    def test_hyperbola(self):
        for bound in range(1, 151):
            points = search.hyperbola_points(bound)
            assert as_rows(points) == as_rows(common_denominator_scan(2, bound, sign=-1)), bound
            assert points == sorted(points)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_three_variables(self, k):
        # every bound to 10, then the largest n = 3 shapes of the scan workload
        for bound in [*range(1, 11), *{3: [12], 5: [8]}.get(k, [])]:
            report = search.search_n(k, 3, bound)
            assert report.rows == as_rows(power_table_scan(k, 3, bound)), bound
            assert report.trivial_count == sum(map(search.is_trivial_tuple, report.solutions))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_four_variables(self, k):
        for bound in range(1, 4):
            assert search.search_n(k, 4, bound).rows == as_rows(power_table_scan(k, 4, bound)), bound

    @pytest.mark.parametrize("k", range(2, 7))
    def test_more_variables(self, k):
        # heads of 2-8 coordinates, many with repeated powers, whose hits
        # expand into every distinct ordering of their multisets
        for n, bound in [(4, 4), (5, 1), (5, 2), (5, 3), (6, 1), (10, 1)]:
            assert search.search_n(k, n, bound).rows == as_rows(power_table_scan(k, n, bound)), (n, bound)


#: Every n >= 3 shape under the default budget: heights to 42, 11 and 6 at n = 3, 4 and 5.
under_the_budget = st.sampled_from([3, 4, 5]).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value={3: 42, 4: 11, 5: 6}[n]))
)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=2, max_value=7), shape=under_the_budget)
@example(k=3, shape=(3, 42))
def test_common_scale_kernel_against_the_former_kernel(k, shape):
    # the coordinates and the ranks, which the kernel reads off its Farey-ordered table
    n, bound = shape
    coordinates, rows = search_oracle.common_scale_rows(k, n, bound)
    report = search.search_n(k, n, bound)
    assert report.coordinates == coordinates
    assert report.ranks == sorted(rows)


class TestPrimitiveTriples:
    """The n = 2 kernel builds arrangements of primitive base triples only."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_base_triples_are_the_primitive_ones(self, k):
        brute = [
            (x, y, z)
            for z in range(1, 41)
            for y in range(z + 1)
            for x in range(y + 1)
            if x**k + y**k == z**k and gcd(x, z) == 1
        ]
        for bound in range(1, 41):
            expected = sorted(triple for triple in brute if triple[2] <= bound)
            assert sorted(search._base_triples(k, bound)) == expected, bound

    @pytest.mark.parametrize("k, sign", [(k, 1) for k in range(2, 8)] + [(2, -1)])
    def test_every_row_is_in_lowest_terms(self, k, sign):
        for bound in (1, 5, 25, 60):
            if sign > 0:
                coordinates, rows = search._conic_rows(k, bound)
                pairs = [[coordinates[i] for i in row] for row in rows]
            else:
                # x^2 - y^2 = 1 has no rows of its own: its points are carried over from the circle's
                pairs = [[(x.numerator, x.denominator), (y.numerator, y.denominator)] for x, y in search.hyperbola_points(bound)]
            for (a, c), (b, d) in pairs:
                assert c == d > 0 and gcd(a, c) == 1 and gcd(b, c) == 1, (a, b, c)


class TestCoordinateKey:
    """Coordinates sort by p*H^2 // q, never by Fraction comparison, and rows index them."""

    @settings(max_examples=200)
    @given(st.data())
    def test_orders_as_fractions_and_ties_only_equal_values(self, data):
        bound = data.draw(st.integers(min_value=1, max_value=10**6), label="bound")
        component = st.integers(min_value=-bound, max_value=bound)
        values = data.draw(
            st.lists(st.builds(Fraction, component, st.integers(min_value=1, max_value=bound)), max_size=30),
            label="values",
        )
        key = search._coordinate_key(bound)
        keys = {value: key((value.numerator, value.denominator)) for value in values}
        assert sorted(values, key=keys.__getitem__) == sorted(values)
        for value in values:
            for other in values:
                assert (keys[value] == keys[other]) == (value == other)

    def test_every_fraction_of_small_height(self):
        for bound in range(1, 41):
            key = search._coordinate_key(bound)
            keys = [key((value.numerator, value.denominator)) for value in search.reduced_fractions(bound)]
            assert all(first < second for first, second in zip(keys, keys[1:])), bound

    @pytest.mark.parametrize("k, n, bound", [(2, 2, 60), (3, 2, 30), (2, 3, 8), (3, 3, 12), (5, 3, 8), (4, 4, 3)])
    def test_coordinates_strictly_increase_and_rows_index_them(self, k, n, bound):
        report = search.search_n(k, n, bound)
        values = [Fraction(p, q) for p, q in report.coordinates]
        assert all(first < second for first, second in zip(values, values[1:]))
        assert {rank for row in report.ranks for rank in row} == set(range(len(values)))
        assert report.ranks == sorted(report.ranks)
        for solution, texts in zip(report.solutions, search_oracle.texts(report), strict=True):
            assert texts == [format_rational(x) for x in solution]


class TestNCounterexample:
    def test_witness_shape(self):
        witness = search.n_counterexample(3, Fraction(7, 2))
        assert witness == (Fraction(7, 2), Fraction(-7, 2), Fraction(1))

    def test_verifies_for_odd_k_and_integer_heights(self):
        for k in (3, 5, 7, 9):
            for numerator in range(1, 11):
                witness = search.n_counterexample(k, Fraction(numerator))
                assert sum(c**k for c in witness) == 1

    def test_height_is_unbounded(self):
        huge = Fraction(10**12 + 39, 7)
        witness = search.n_counterexample(5, huge)
        assert height(witness) == huge.numerator

    def test_rejects_even_k(self):
        with pytest.raises(InvalidArgumentError):
            search.n_counterexample(4, Fraction(2))


class TestOrbitCoverage:
    def test_bound_one(self):
        report = search.verify_orbit_coverage(1)
        assert report.total == 4 and report.covered == 4
        assert report.coverage == 1
        assert report.unreachable == []
        deltas = dict(
            ((p, d) for p, d in [(tuple(pt), delta) for pt, delta in report.entries])
        )
        assert deltas[(Fraction(1), Fraction(0))] == 0
        assert deltas[(Fraction(-1), Fraction(0))] is INF

    def test_bound_five_full_coverage(self):
        report = search.verify_orbit_coverage(5)
        assert report.total == 12
        assert report.coverage == 1
        for point, delta in report.entries:
            from fermatgroups import circle

            assert circle.CircleElement(delta).act((1, 0)) == point

    def test_each_point_is_acted_on_once(self, monkeypatch):
        # solve_delta verifies its own action; the coverage loop must not repeat it
        from fermatgroups.conic import CIRCLE

        calls = []
        carries_pair = CIRCLE.carries_pair

        def counting_carries_pair(delta, source, target):
            calls.append(target)
            return carries_pair(delta, source, target)

        monkeypatch.setattr(CIRCLE, "carries_pair", counting_carries_pair)
        report = search.verify_orbit_coverage(50)
        assert report.total == 60
        assert len(calls) == report.total


    def test_a_refused_point_is_reported_unreachable(self, monkeypatch):
        from fermatgroups.conic import CIRCLE

        carries_pair = CIRCLE.carries_pair
        monkeypatch.setattr(
            CIRCLE,
            "carries_pair",
            lambda delta, source, target: target != (0, 1, 1) and carries_pair(delta, source, target),
        )
        report = search.verify_orbit_coverage(5)
        assert (report.total, report.covered) == (12, 11)
        assert [tuple(report.coordinates[i] for i in point) for point in report.missed] == [((0, 1), (1, 1))]
        assert report.unreachable == [(Fraction(0), Fraction(1))]
        assert report.coverage == Fraction(11, 12)
        assert (Fraction(0), Fraction(1)) not in [point for point, _ in report.entries]

    def test_entries_match_the_fraction_solver(self):
        for bound in range(1, 61):
            report = search.verify_orbit_coverage(bound)
            expected = [(p, circle.solve_delta((1, 0), p).delta) for p in search.circle_points(bound)]
            assert report.entries == expected, bound
            assert report.unreachable == []
            assert report.coverage == 1


class TestCurvePointEnumerators:
    def test_circle_points_matches_search(self):
        assert search.circle_points(5) == [tuple(s) for s in search.search_solutions(2, 5).solutions]

    def test_hyperbola_points_small(self):
        points = search.hyperbola_points(5)
        assert (Fraction(1), Fraction(0)) in points
        assert (Fraction(-1), Fraction(0)) in points
        assert (Fraction(-5, 4), Fraction(3, 4)) in points
        assert (Fraction(5, 3), Fraction(4, 3)) in points
        for x, y in points:
            assert x * x - y * y == 1
            assert height((x, y)) <= 5

    def test_hyperbola_points_exhaustive_against_brute_force(self):
        bound = 6
        candidates = search.reduced_fractions(bound)
        brute = {
            (x, y)
            for x in candidates
            for y in candidates
            if x * x - y * y == 1
        }
        assert set(search.hyperbola_points(bound)) == brute

    @pytest.mark.parametrize("points", [search.circle_points, search.hyperbola_points])
    def test_both_listings_meet_the_search_budget(self, points):
        # 5,001,863 reduced fractions of height <= 2028: the same refusal as search_n
        with pytest.raises(ResourceLimitError) as caught:
            points(2028)
        assert str(caught.value) == "scan of 5001863 coordinate prefixes exceeds the budget 5000000"
