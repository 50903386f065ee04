"""Finite monomial groups preserving the k-th power form x_1^k + ... + x_n^k.

For k >= 3 the linear symmetries of the form are generalized permutation
matrices whose nonzero entries are k-th roots of unity: row i holds
omega^(l_i) in column sigma(i).  An element is therefore the pair
(sigma, l), and products and inverses are taken on the pairs; dense
cyclotomic matrices appear solely in verification oracles.  The resulting
group has order k^n * n!.  k = 2 is
excluded: the quadratic form has an infinite symmetry group and belongs to
the circle and hyperbola modules.

A group is listed as a product, every permutation with every exponent
vector (`group_factors`), so a printer formats each factor once; elements
the module generates itself are wrapped without the constructor's checks.
Enumerations and orbits are capped.  The default cap is 10**6 elements,
overridable per call or through the FERMAT_ORBIT_LIMIT environment variable.
Orbits, stabilizers and `orbit_census` take vectors whose components are
rationals, cyclotomic numbers or coefficient lists, as `cyclo_vector` lifts
them, and check the cap on k^n * n! before any component is lifted, since
lifting computes Phi_k.  All three read one table of the components' twists
omega^l * v_j, told apart by index, so no element is applied to the vector
and no two cyclotomic numbers are compared.
Counts k^n * n! are built one factor at a time and abandoned once they pass
the cap, or the int-to-str digit limit, so a huge n is refused at once.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import itemgetter

from .cyclotomic import CyclotomicNumber, _omega_steps
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import FrozenRecord, int_digit_limit, integer

__all__ = [
    "DEFAULT_ELEMENT_LIMIT",
    "ENV_LIMIT",
    "MonomialMatrix",
    "RationalSubgroupReport",
    "cyclo_vector",
    "element_limit",
    "enumerate_group",
    "form_value",
    "group_factors",
    "group_order",
    "orbit",
    "orbit_census",
    "orbit_rational_points",
    "orbit_rows",
    "rational_elements",
    "sorted_orbit",
    "stabilizer",
]

DEFAULT_ELEMENT_LIMIT = 10**6
ENV_LIMIT = "FERMAT_ORBIT_LIMIT"

CyclotomicVector = tuple[CyclotomicNumber, ...]
Pair = tuple[tuple[int, ...], tuple[int, ...]]  # (perm, exponents) of one element
Factors = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]  # permutations, exponent vectors
Lines = tuple[int, ...]  # the permutation an element induces on its lines


def element_limit(override: "int | None" = None) -> int:
    """Effective enumeration cap: explicit override, else env var, else default."""
    if override is not None:
        return integer(override, 1, "element limit")
    raw = os.environ.get(ENV_LIMIT)
    if raw is None:
        return DEFAULT_ELEMENT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise InvalidArgumentError(f"{ENV_LIMIT} must be an integer, got {raw!r}") from None
    return integer(value, 1, ENV_LIMIT)


def _check_order(k) -> int:
    return integer(k, 3, "monomial group degree k")


def _check_size(k, n) -> None:
    _check_order(k)
    integer(n, 1, "dimension")


class MonomialMatrix:
    """One monomial symmetry: permutation sigma plus exponent vector l mod k.

    As a matrix, entry (i, j) is omega^(l_i) when j = sigma(i) and 0
    otherwise.  Stored exponents are always reduced mod k, so structural
    equality of the pairs coincides with matrix equality.
    """

    __slots__ = ("_k", "_perm", "_exps")

    def __init__(self, k: int, perm: Sequence[int], exponents: Sequence[int]) -> None:
        self._k = _check_order(k)
        perm, exps = tuple(perm), tuple(exponents)
        # plain ints, the elements the package builds, pass at once; any other
        # entry meets the package's integer rule
        if not {*map(type, perm), *map(type, exps)} <= {int}:
            for value in perm:
                integer(value, None, "permutation entry")
            for value in exps:
                integer(value, None, "exponent")
        n = len(perm)
        if n < 1 or sorted(perm) != list(range(n)):
            raise InvalidArgumentError(f"not a permutation of 0..{n - 1}: {perm!r}")
        exps = tuple([e % k for e in exps])
        if len(exps) != n:
            raise InvalidArgumentError(
                f"need one exponent per row: {n} rows, {len(exps)} exponents"
            )
        self._perm = perm
        self._exps = exps

    @classmethod
    def _make(cls, k: int, perm: tuple[int, ...], exps: tuple[int, ...]) -> "MonomialMatrix":
        # wrap a pair this module generated, already int tuples with exponents
        # reduced mod k, bypassing the constructor's checks
        out = object.__new__(cls)
        out._k, out._perm, out._exps = k, perm, exps
        return out

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return len(self._perm)

    @property
    def perm(self) -> tuple[int, ...]:
        return self._perm

    @property
    def exponents(self) -> tuple[int, ...]:
        return self._exps

    @classmethod
    def identity(cls, k: int, n: int) -> "MonomialMatrix":
        _check_size(k, n)
        return cls(k, tuple(range(n)), (0,) * n)

    def _require_compatible(self, other: "MonomialMatrix") -> None:
        if self._k != other._k:
            raise InvalidArgumentError(f"order mismatch: k={self._k} vs k={other._k}")
        if len(self._perm) != len(other._perm):
            raise InvalidArgumentError(
                f"dimension mismatch: n={len(self._perm)} vs n={len(other._perm)}"
            )

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Matrix product self·other: (sigma, l)(tau, t) = (tau o sigma, l + t o sigma mod k).

        Row i of the product reaches column other.sigma(self.sigma(i)) with
        entry omega^(self.l_i + other.l_(self.sigma(i))).
        """
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        self._require_compatible(other)
        k, sigma, t = self._k, self._perm, other._exps
        perm = tuple(map(other._perm.__getitem__, sigma))
        return MonomialMatrix._make(k, perm, tuple([(l + t[j]) % k for l, j in zip(self._exps, sigma)]))

    def inverse(self) -> "MonomialMatrix":
        """The inverse matrix: (sigma^-1, -l o sigma^-1 mod k)."""
        k, l = self._k, self._exps
        inverse = tuple(sorted(range(len(self._perm)), key=self._perm.__getitem__))
        return MonomialMatrix._make(k, inverse, tuple([-l[j] % k for j in inverse]))

    def apply(self, vector: Sequence[CyclotomicNumber]) -> CyclotomicVector:
        """Image of a cyclotomic vector: component i is omega^(l_i) * v[sigma(i)].

        Multiplying by omega^l is l omega steps on the integer numerators,
        so no field product is needed.
        """
        vec = tuple(vector)
        if len(vec) != len(self._perm):
            raise InvalidArgumentError(
                f"vector length {len(vec)} does not match dimension {len(self._perm)}"
            )
        for component in vec:
            if not isinstance(component, CyclotomicNumber):
                raise InvalidArgumentError(f"vector components must be cyclotomic, got {component!r}")
            if component.k != self._k:
                raise InvalidArgumentError(
                    f"order mismatch: element k={self._k}, component k={component.k}"
                )
        return tuple(vec[self._perm[i]]._rotated(self._exps[i]) for i in range(len(vec)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return (
            self._k == other._k
            and self._perm == other._perm
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return hash((self._k, self._perm, self._exps))

    def __repr__(self) -> str:
        return f"MonomialMatrix(k={self._k}, perm={self._perm}, exponents={self._exps})"

    def as_dict(self) -> dict:
        """JSON form: {"perm": [...], "exp": [...]}."""
        return {"perm": list(self._perm), "exp": list(self._exps)}

    @classmethod
    def from_dict(cls, k: int, payload: dict) -> "MonomialMatrix":
        try:
            perm, exps = payload["perm"], payload["exp"]
        except (TypeError, KeyError):
            perm = exps = None
        # JSON arrays only: a string, dict or number is not read entry by entry
        if not (isinstance(perm, list) and isinstance(exps, list)):
            raise InvalidArgumentError(f"malformed monomial payload: {payload!r}")
        return cls(k, perm, exps)


def _count(base: int, n: int, ceiling: "int | None") -> "int | None":
    """base^n * n!, one factor base * i at a time; None once it passes the ceiling."""
    count = 1
    for i in range(1, n + 1):
        count *= base * i
        if ceiling is not None and count > ceiling:
            return None
    return count


def group_order(k: int, n: int) -> int:
    """Order of the full monomial group: k^n * n!.

    An order past the int-to-str digit limit, which no payload can print,
    raises ResourceLimitError.
    """
    _check_size(k, n)
    digits, ceiling = int_digit_limit()
    order = _count(k, n, ceiling)
    if order is None:
        raise ResourceLimitError(
            f"group order {k}^{n} * {n}! has more than {digits} digits"
            " (Python's int-to-str conversion limit)"
        )
    return order


def _check_cap(base: int, n: int, limit, what: str) -> None:
    """Refuse base^n * n! elements past the cap; the message spells out a count past the digit limit."""
    cap = element_limit(limit)
    if _count(base, n, cap) is None:
        count = _count(base, n, int_digit_limit()[1])
        shown = f"{base}^{n} * {n}!" if count is None else count
        raise ResourceLimitError(f"{what} {shown} exceeds the element cap {cap}")


def _times(lines: Lines) -> Callable[[Lines], Lines]:
    """The group law: `_times(f)(g)` is the line form of the product f·g.

    Line p of f·g is g[f[p]], so the product (sigma, l)(tau, t) comes out as
    (tau o sigma, l + t o sigma mod k), the matrix product the dense oracle
    fixes.
    """
    # itemgetter of one index returns the bare item, but the only
    # permutation of one line is the identity
    return itemgetter(*lines) if len(lines) > 1 else tuple


def _wrap(k: int, pairs: Iterable[Pair]) -> list[MonomialMatrix]:
    """The elements of pairs the module generated, wrapped without the constructor's checks."""
    make = MonomialMatrix._make
    return [make(k, perm, exps) for perm, exps in pairs]


def _factors(n: int, exponents: Sequence[int], limit, what: str) -> Factors:
    """Every permutation of 0..n-1 and every vector over the ascending `exponents`, after the cap check.

    The elements they list are their product, each permutation in turn with
    every vector, which is (perm, exponents) lexicographic order.
    """
    _check_cap(len(exponents), n, limit, what)
    return tuple(itertools.permutations(range(n))), tuple(itertools.product(exponents, repeat=n))


def group_factors(k: int, n: int, limit: "int | None" = None) -> Factors:
    """The monomial group as a product: every permutation of 0..n-1 and every exponent vector mod k.

    `enumerate_group` lists each permutation in turn with every vector, so
    a printer can format each factor once instead of building k^n * n!
    elements.  The group order passes the element cap first.
    """
    _check_size(k, n)
    return _factors(n, range(k), limit, "group order")


def enumerate_group(k: int, n: int, limit: "int | None" = None) -> list[MonomialMatrix]:
    """Every element of the monomial group, in (perm, exponents) lexicographic order."""
    return _wrap(k, itertools.product(*group_factors(k, n, limit)))


def cyclo_vector(k: int, components: Iterable) -> CyclotomicVector:
    """Lift components into Q(omega_k)^n: rationals, cyclotomic numbers, or lists of coefficients on 1, omega, omega^2, ..."""
    _check_order(k)
    out = []
    for component in components:
        if isinstance(component, CyclotomicNumber):
            if component.k != k:
                raise InvalidArgumentError(
                    f"order mismatch: expected k={k}, component has k={component.k}"
                )
            out.append(component)
        elif isinstance(component, list):
            out.append(CyclotomicNumber(k, component))
        else:
            out.append(CyclotomicNumber.from_rational(k, component))
    if not out:
        raise InvalidArgumentError("vector must have at least one component")
    return tuple(out)


def form_value(vector: Sequence[CyclotomicNumber], k: "int | None" = None) -> CyclotomicNumber:
    """Exact value of x_1^k + ... + x_n^k on a cyclotomic vector."""
    k, components = _with_order(vector, k)
    total = CyclotomicNumber.zero(k)
    for component in cyclo_vector(k, components):
        total = total + component**k
    return total


def _with_order(vector, k: "int | None") -> tuple[int, tuple]:
    # the components, not yet lifted, and k, by default the order of the first cyclotomic one
    components = tuple(vector)
    if k is None:
        k = next((c.k for c in components if isinstance(c, CyclotomicNumber)), None)
    if k is None:
        raise InvalidArgumentError("order k is required for purely rational vectors")
    return k, components


def _twist_table(vector, k, limit) -> tuple[int, list[CyclotomicNumber], list[list[int]], list[list[list[int]]]]:
    """k, the distinct twists omega^l * v_j of a vector's components, their index table and the fixing exponents.

    Element (sigma, l) sends v to (omega^(l_i) * v[sigma(i)])_i, so every
    component of every image is a twist omega^l * v_j.  Each distinct twist
    is numbered once, across all positions, so a twist that two positions
    share has one index, and the indices follow the twists' coefficient
    vectors upward.  `table[j][l]` is the index of omega^l * v_j, so
    `table[i][0]` is v_i's.  (sigma, l) fixes v exactly when
    omega^(l_i) * v[sigma(i)] = v_i at every position i, so `fixing[i][j]`
    lists, ascending, the exponents l with omega^l * v_j = v_i, read off
    the indices.

    k and n are known unlifted, so the group passes the element cap before
    any component is lifted, which computes Phi_k.
    """
    k, components = _with_order(vector, k)
    _check_cap(_check_order(k), len(components), limit, "group order")
    vec = cyclo_vector(k, components)
    # the twists of v_j keep its denominator, so over the common denominator
    # of all positions each twist is an integer vector: equal vectors are
    # equal values, and they order as the coefficient vectors do
    scale = lcm(*(component._den for component in vec))
    dens, rows = {}, []
    for component in vec:
        # each twist is one omega step on the numerators past the one before
        keys = _omega_steps(k, tuple([x * (scale // component._den) for x in component._nums]), k)
        dens.update(dict.fromkeys(keys, component._den))
        rows.append(keys)
    # the keys are distinct, so the pairs sort by key
    twists = sorted(dens.items())
    index = {key: i for i, (key, _) in enumerate(twists)}
    table = [[index[key] for key in keys] for keys in rows]
    fixing = [[[l for l, i in enumerate(row) if i == target[0]] for row in table] for target in table]
    make = CyclotomicNumber._make
    return k, [make(k, tuple([x // (scale // den) for x in key]), den) for key, den in twists], table, fixing


def orbit_rows(
    vector, k: "int | None" = None, limit: "int | None" = None
) -> tuple[list[CyclotomicNumber], list[tuple[int, ...]], int]:
    """The distinct twists of a vector's components, each position's row of their indices and the order of its stabilizer.

    Every component of every image is a twist of some v_j, numbered by
    `_twist_table`, so index tuples sort as their points' coefficient
    vectors do.  Row j holds, ascending, the distinct indices of v_j's
    twists, and the orbit is the union over sigma of the products of the
    rows in sigma's order, which `sorted_orbit` lists: n*k field elements
    are built, not k^n * n! images.

    The stabilizer has sum over sigma of prod over i of |fixing[i][sigma(i)]|
    elements, so no element is built, and the order is counted rather than
    derived from the orbit's size, which leaves orbit size times stabilizer
    order = group order a check.
    """
    _, components, table, fixing = _twist_table(vector, k, limit)
    sizes = [list(map(len, row)) for row in fixing]
    stabilizer_order = sum(
        prod(map(list.__getitem__, sizes, perm)) for perm in itertools.permutations(range(len(sizes)))
    )
    return components, [tuple(sorted(set(row))) for row in table], stabilizer_order


def sorted_orbit(rows: Sequence[tuple[int, ...]], heads: Sequence) -> list[tuple[int, list]]:
    """The sorted orbit of `orbit_rows`' rows, as runs: each first index, ascending, with the points that follow it.

    Two rows hold equal or disjoint index sets, both being orbits of the
    k-th roots of unity, so the points that start with index i are i
    followed by the sorted orbit of the other rows: the multiset of rows
    with one copy of i's row removed.  The first indices run up the union
    of the distinct rows, so the orbit comes out sorted, with no sort and
    no point hashed.  Each multiset of rows left is built once, and there
    are at most 2^n of them.

    A point is built as `heads[i] + rest`, from the empty head `heads[0][:0]`
    up: with 1-tuples (i,) the points are index tuples, and with strings
    "sep + text" they are the texts of the points after their first
    component.  The first index's run is left to the caller, so a
    printer can join each run at once.
    """
    kinds = sorted(set(rows))
    firsts = sorted((i, r) for r, row in enumerate(kinds) for i in row)
    memo = {(0,) * len(kinds): [heads[0][:0]]}

    def runs(counts):
        rests = {
            r: points((*counts[:r], count - 1, *counts[r + 1:])) for r, count in enumerate(counts) if count
        }
        return [(i, rests[r]) for i, r in firsts if r in rests]

    def points(counts):
        if counts not in memo:
            out = memo[counts] = []
            for i, run in runs(counts):
                out += map(heads[i].__add__, run)
        return memo[counts]

    return runs(tuple(map(rows.count, kinds)))


def orbit_census(
    vector, k: "int | None" = None, limit: "int | None" = None
) -> tuple[list[CyclotomicNumber], list[tuple[int, ...]], int]:
    """The sorted orbit of a vector as tuples of indices into its distinct components, and the order of its stabilizer.

    `orbit_rows` numbers the components and counts the stabilizer, and
    `sorted_orbit` lists the points in order as tuples of small ints.
    """
    components, rows, stabilizer_order = orbit_rows(vector, k, limit)
    heads = [(i,) for i in range(len(components))]
    runs = sorted_orbit(rows, heads)
    points = list(itertools.chain.from_iterable(map(heads[i].__add__, run) for i, run in runs))
    return components, points, stabilizer_order


def orbit(vector, k: "int | None" = None, limit: "int | None" = None) -> set[CyclotomicVector]:
    """All images of a vector under the full monomial group (a finite set): `orbit_census` read back as vectors."""
    components, points, _ = orbit_census(vector, k, limit)
    return {tuple(map(components.__getitem__, point)) for point in points}


def stabilizer(vector, k: "int | None" = None, limit: "int | None" = None) -> list[MonomialMatrix]:
    """Every group element fixing the vector, in (perm, exponents) lexicographic order.

    The exponents allowed at position i depend only on i and sigma(i): they
    are the ascending `fixing[i][sigma(i)]` of `_twist_table`.
    """
    k, _, _, fixing = _twist_table(vector, k, limit)
    return _wrap(k, (
        (perm, exps)
        for perm in itertools.permutations(range(len(fixing)))
        for exps in itertools.product(*map(list.__getitem__, fixing, perm))
    ))


class RationalSubgroupReport(FrozenRecord):
    """The subgroup of elements whose matrix entries are all rational.

    An entry omega^l is rational only for l = 0 (value 1) and, when k is
    even, l = k/2 (value -1); the elements listed here are exactly those
    built from such exponents: every permutation in `permutations` with
    every vector in `exponent_vectors`, listed as in `enumerate_group`.
    `elements` wraps those pairs as matrices when first read.  `is_group`
    is the one certificate, `_closed_under_product` on the elements' line
    permutations, two lines per axis for even k and one for odd k: it grows
    the subgroup the listed elements generate and checks that it is exactly
    the list.  A finite set of permutations closed under composition holds
    the identity and every inverse, since g^(ord g - 1) = g^-1, so no
    second pass checks either.  `permutations_only` records whether the
    subgroup is just the plain permutation matrices (true for odd k; even k
    admits all sign changes as well).
    """

    __match_args__ = ("k", "n", "permutations", "exponent_vectors", "is_group", "permutations_only")

    def __init__(
        self, k: int, n: int, permutations: tuple[tuple[int, ...], ...], exponent_vectors: tuple[tuple[int, ...], ...],
        is_group: bool, permutations_only: bool,
    ) -> None:
        self.__dict__.update(zip(self.__match_args__, (k, n, permutations, exponent_vectors, is_group, permutations_only)))

    @cached_property
    def elements(self) -> tuple[MonomialMatrix, ...]:
        return tuple(_wrap(self.k, itertools.product(self.permutations, self.exponent_vectors)))

    @property
    def order(self) -> int:
        return len(self.permutations) * len(self.exponent_vectors)


def _line_forms(k: int, pairs: Sequence[Pair]) -> list[Lines]:
    """The line permutation of each pair, all over the lines their exponents need.

    The listed exponents generate the subgroup of Z_k of order m = k / gcd(k, l...),
    and multiples of k/m stay so under products and inverses, so the forms
    need only n*m lines: two per axis for the rational subgroup of an even k
    and one for an odd k, whatever k is.  Line i*m + e stands for
    omega^(e*k/m) * e_i, and (sigma, l) sends it to line
    sigma(i)*m + (e + l_i*m/k) mod m.  This is C_m wr S_n acting on n*m
    points, so the map from pairs to line permutations is one-to-one.

    Position i of (sigma, l) sends its m lines to a block that depends only
    on the column sigma(i) and the exponent l_i, so each such block is
    encoded once, and a pair's form is its blocks joined.
    """
    if not pairs:
        return []
    exponents = set(itertools.chain.from_iterable(exps for _, exps in pairs))
    m = k // gcd(k, *exponents)
    blocks = {
        (j, l): tuple([j * m + (e + l * m // k) % m for e in range(m)])
        for j in range(len(pairs[0][0]))
        for l in exponents
    }
    chain = itertools.chain.from_iterable
    return [tuple(chain(map(blocks.__getitem__, zip(perm, exps)))) for perm, exps in pairs]


def _closed_under_product(lines: Sequence[Lines]) -> bool:
    """Whether every product of two elements, given by their `_line_forms`, is again one of them.

    A nonempty finite set closed under product is a group, so it holds the
    identity; with the identity, the set is grown from it one generator at
    a time.  Each member not yet reached becomes a generator, and `reached`
    is extended until left multiplication by every generator stays inside
    it, so it is the subgroup the generators span.  A product outside the
    set refutes closure at once; otherwise every member ends up reached and
    the set is that subgroup.  By Lagrange each generator at least doubles
    `reached`, so this takes about |S|·log2|S| products, not |S|^2.

    Products are `_times`, the line encoding of `__mul__`'s law: a whole
    frontier is multiplied by one generator at a time, and the new products
    are checked against the members by one subset test.  Members are valid
    elements with exponents reduced mod k, so a product that matches one is
    a valid element too.
    """
    if not lines:
        return True
    members = set(lines)
    identity = tuple(range(len(lines[0])))
    if identity not in members:
        return False
    reached = {identity}
    generators: list[Callable[[Lines], Lines]] = []
    for member in lines:
        if member in reached:
            continue
        generators.append(_times(member))
        # `reached` is closed under the earlier generators already, so its
        # elements need only the new one; each element found needs them all
        frontier, multipliers = reached, generators[-1:]
        while frontier:
            found = set()
            for multiply in multipliers:
                found.update(map(multiply, frontier))
            found -= reached
            if not found <= members:
                return False
            reached |= found
            frontier, multipliers = found, generators
    return True


def rational_elements(k: int, n: int, limit: "int | None" = None) -> RationalSubgroupReport:
    """Enumerate and certify the rational-entry subgroup."""
    _check_size(k, n)
    # omega^l is rational exactly when it is 1 or -1, that is when 2l = 0 mod k
    rational_exps = [0, k // 2] if k % 2 == 0 else [0]
    permutations, vectors = _factors(n, rational_exps, limit, "rational subgroup size")
    return RationalSubgroupReport(
        k=k,
        n=n,
        permutations=permutations,
        exponent_vectors=vectors,
        is_group=_closed_under_product(_line_forms(k, list(itertools.product(permutations, vectors)))),
        permutations_only=not any(map(any, vectors)),
    )


def orbit_rational_points(k: int, limit: "int | None" = None) -> set[tuple[Fraction, Fraction]]:
    """Rational points of x^k + y^k = 1 reached from (1, 0) by the group."""
    components, points, _ = orbit_census((1, 0), k, limit)
    # each distinct twist is tested once; a point is rational when all its indices are
    values = [component.is_rational() for component in components]
    rational = {i for i, value in enumerate(values) if value is not None}
    return {tuple(map(values.__getitem__, point)) for point in points if rational.issuperset(point)}
