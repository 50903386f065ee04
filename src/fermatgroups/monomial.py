"""Finite monomial groups preserving the k-th power form x_1^k + ... + x_n^k.

For k >= 3 the linear symmetries of the form are generalized permutation
matrices whose nonzero entries are k-th roots of unity: row i holds
omega^(l_i) in column sigma(i).  An element is therefore the pair
(sigma, l), and the group law needs only permutation composition plus
integer exponent arithmetic mod k; dense cyclotomic matrices appear solely
in verification oracles.  The resulting group has order k^n * n!.  k = 2 is
excluded: the quadratic form has an infinite symmetry group and belongs to
the circle and hyperbola modules.

Enumerations and orbits are capped.  The default cap is 10**6 elements,
overridable per call or through the FERMAT_ORBIT_LIMIT environment variable.
Counts k^n * n! are built one factor at a time and abandoned once they pass
the cap, or the int-to-str digit limit, so a huge n is refused at once.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .cyclotomic import CyclotomicNumber
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import integer

__all__ = [
    "DEFAULT_ELEMENT_LIMIT",
    "ENV_LIMIT",
    "MonomialMatrix",
    "RationalSubgroupReport",
    "cyclo_vector",
    "element_limit",
    "enumerate_group",
    "form_value",
    "group_order",
    "orbit",
    "orbit_rational_points",
    "rational_elements",
    "stabilizer",
]

DEFAULT_ELEMENT_LIMIT = 10**6
ENV_LIMIT = "FERMAT_ORBIT_LIMIT"

CyclotomicVector = tuple[CyclotomicNumber, ...]


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
        # a cheap type test, not int(): that truncated 0.5 and 7/2, and a float
        # or bool passed the permutation test and reached the payloads
        if not {*map(type, perm), *map(type, exps)} <= {int}:
            raise InvalidArgumentError(f"permutation entries and exponents must be integers: {perm!r}, {exps!r}")
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
        """Matrix product self·other, computed on the (sigma, l) data.

        Row i of the product reaches column other.sigma(self.sigma(i)) with
        entry omega^(self.l_i + other.l_(self.sigma(i))).
        """
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        self._require_compatible(other)
        k = self._k
        perm = tuple(other._perm[self._perm[i]] for i in range(len(self._perm)))
        exps = tuple(
            (self._exps[i] + other._exps[self._perm[i]]) % k
            for i in range(len(self._perm))
        )
        return MonomialMatrix(k, perm, exps)

    def inverse(self) -> "MonomialMatrix":
        n = len(self._perm)
        inv_perm = [0] * n
        for i, j in enumerate(self._perm):
            inv_perm[j] = i
        exps = tuple((-self._exps[inv_perm[j]]) % self._k for j in range(n))
        return MonomialMatrix(self._k, tuple(inv_perm), exps)

    def apply(self, vector: Sequence[CyclotomicNumber]) -> CyclotomicVector:
        """Image of a cyclotomic vector: component i is omega^(l_i) * v[sigma(i)].

        On the power basis, multiplying by omega^l moves every coefficient up
        l places, folded mod k and reduced by Phi_k on the integer
        numerators, so no field product is needed.
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
            return cls(k, payload["perm"], payload["exp"])
        except (TypeError, KeyError):
            raise InvalidArgumentError(f"malformed monomial payload: {payload!r}") from None


def _count(base: int, n: int, ceiling: "int | None") -> "int | None":
    """base^n * n!, one factor base * i at a time; None once it passes the ceiling."""
    count = 1
    for i in range(1, n + 1):
        count *= base * i
        if ceiling is not None and count > ceiling:
            return None
    return count


def _digit_ceiling() -> "int | None":
    # the largest integer Python converts to text; None when the limit is off
    digits = sys.get_int_max_str_digits()
    return 10**digits - 1 if digits else None


def group_order(k: int, n: int) -> int:
    """Order of the full monomial group: k^n * n!.

    An order past the int-to-str digit limit, which no payload can print,
    raises ResourceLimitError.
    """
    _check_size(k, n)
    order = _count(k, n, _digit_ceiling())
    if order is None:
        raise ResourceLimitError(
            f"group order {k}^{n} * {n}! has more than {sys.get_int_max_str_digits()} digits"
            " (Python's int-to-str conversion limit)"
        )
    return order


def _check_cap(base: int, n: int, limit, what: str) -> None:
    """Refuse base^n * n! elements past the cap; the message spells out a count past the digit limit."""
    cap = element_limit(limit)
    if _count(base, n, cap) is None:
        count = _count(base, n, _digit_ceiling())
        shown = f"{base}^{n} * {n}!" if count is None else count
        raise ResourceLimitError(f"{what} {shown} exceeds the element cap {cap}")


def _elements(k: int, n: int, exponents: Sequence[int], limit, what: str) -> list[MonomialMatrix]:
    # every (perm, exps) with exps drawn from `exponents`, after the cap
    # check; `exponents` must ascend for the list to be in (perm, exps)
    # lexicographic order, which callers return without sorting
    _check_cap(len(exponents), n, limit, what)
    return [
        MonomialMatrix(k, perm, exps)
        for perm in itertools.permutations(range(n))
        for exps in itertools.product(exponents, repeat=n)
    ]


def enumerate_group(k: int, n: int, limit: "int | None" = None) -> list[MonomialMatrix]:
    """Every element of the monomial group, in (perm, exponents) lexicographic order."""
    _check_size(k, n)
    return _elements(k, n, range(k), limit, "group order")


def cyclo_vector(k: int, components: Iterable) -> CyclotomicVector:
    """Lift rational (or already cyclotomic) components into Q(omega_k)^n."""
    _check_order(k)
    out = []
    for component in components:
        if isinstance(component, CyclotomicNumber):
            if component.k != k:
                raise InvalidArgumentError(
                    f"order mismatch: expected k={k}, component has k={component.k}"
                )
            out.append(component)
        else:
            out.append(CyclotomicNumber.from_rational(k, component))
    if not out:
        raise InvalidArgumentError("vector must have at least one component")
    return tuple(out)


def form_value(vector: Sequence[CyclotomicNumber], k: "int | None" = None) -> CyclotomicNumber:
    """Exact value of x_1^k + ... + x_n^k on a cyclotomic vector."""
    k, vec = _vector_with_order(vector, k)
    total = CyclotomicNumber.zero(k)
    for component in vec:
        total = total + component**k
    return total


def _vector_with_order(vector, k: "int | None") -> tuple[int, CyclotomicVector]:
    # k defaults to the order of the first cyclotomic component
    components = tuple(vector)
    if k is None:
        k = next((c.k for c in components if isinstance(c, CyclotomicNumber)), None)
    if k is None:
        raise InvalidArgumentError("order k is required for purely rational vectors")
    return k, cyclo_vector(k, components)


def _twists(vector, k, limit) -> tuple[int, CyclotomicVector, list[CyclotomicVector]]:
    # twisted[j][l] = omega^l * v_j by the coefficient shift `apply` uses;
    # the group must pass the element cap before any of them is built
    k, vec = _vector_with_order(vector, k)
    _check_cap(k, len(vec), limit, "group order")
    twisted = [tuple(component._rotated(l) for l in range(k)) for component in vec]
    return k, vec, twisted


def orbit(vector, k: "int | None" = None, limit: "int | None" = None) -> set[CyclotomicVector]:
    """All images of a vector under the full monomial group (a finite set).

    Element (sigma, l) sends v to (omega^(l_i) * v[sigma(i)])_i, so the
    orbit is the union over sigma of the products of the twisted components
    in sigma's order: n*k field elements are built, not k^n * n! images.
    """
    _, vec, twisted = _twists(vector, k, limit)
    # distinct twists only: a zero component has one, not k
    rows = [tuple(dict.fromkeys(twists)) for twists in twisted]
    return {
        point
        for perm in itertools.permutations(range(len(vec)))
        for point in itertools.product(*(rows[j] for j in perm))
    }


def stabilizer(vector, k: "int | None" = None, limit: "int | None" = None) -> list[MonomialMatrix]:
    """Every group element fixing the vector, in (perm, exponents) lexicographic order.

    (sigma, l) fixes v exactly when omega^(l_i) * v[sigma(i)] = v_i at every
    position i, so the exponents allowed at position i depend only on i and
    sigma(i) and are found once per pair.
    """
    k, vec, twisted = _twists(vector, k, limit)
    fixing = [
        [[l for l, image in enumerate(twists) if image == target] for twists in twisted]
        for target in vec
    ]
    return [
        MonomialMatrix(k, perm, exps)
        for perm in itertools.permutations(range(len(vec)))
        for exps in itertools.product(*(fixing[i][j] for i, j in enumerate(perm)))
    ]


@dataclass(frozen=True)
class RationalSubgroupReport:
    """The subgroup of elements whose matrix entries are all rational.

    An entry omega^l is rational only for l = 0 (value 1) and, when k is
    even, l = k/2 (value -1); the elements listed here are exactly those
    built from such exponents.  The closure flags certify the subgroup
    property: closure under product by growing the subgroup the listed
    elements generate and checking that it is exactly the list, closure
    under inverse element by element.  `permutations_only` records whether
    the subgroup is just the plain permutation matrices (true for odd k;
    even k admits all sign changes as well).
    """

    k: int
    n: int
    elements: tuple[MonomialMatrix, ...]
    closed_under_product: bool
    closed_under_inverse: bool
    contains_identity: bool
    permutations_only: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_group(self) -> bool:
        return self.closed_under_product and self.closed_under_inverse and self.contains_identity


def _closed_under_product(k: int, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]) -> bool:
    """Whether every product of two (perm, exponents) pairs is again one of them.

    A nonempty finite set closed under product is a group, so it holds the
    identity; with the identity, the set is grown from it one generator at
    a time.  Each member not yet reached becomes a generator, and `reached`
    is extended until right multiplication by every generator stays inside
    it, so it is the subgroup the generators span.  A product outside the
    set refutes closure at once; otherwise every member ends up reached and
    the set is that subgroup.  By Lagrange each generator at least doubles
    `reached`, so this takes about |S|·log2|S| products, not |S|^2.

    Products follow the law of `MonomialMatrix.__mul__` on raw tuples:
    (sigma, l)(tau, m) = (tau o sigma, l + m o sigma mod k).  Members are
    valid elements with exponents reduced mod k, so a product that matches
    one is a valid element too.
    """
    members = set(pairs)
    if not members:
        return True
    n = len(pairs[0][0])
    identity = (tuple(range(n)), (0,) * n)
    if identity not in members:
        return False
    reached = {identity}
    generators = []
    for member in pairs:
        if member in reached:
            continue
        generators.append(member)
        # `reached` is closed under the earlier generators already, so its
        # elements need only the new one; each element found needs them all
        frontier, multipliers = list(reached), [member]
        while frontier:
            found = []
            for perm, exps in frontier:
                # itemgetter of one index returns the bare item, but the only
                # permutation of one point is the identity
                pick = itemgetter(*perm) if len(perm) > 1 else tuple
                for other_perm, other_exps in multipliers:
                    product = (pick(other_perm), tuple([(a + b) % k for a, b in zip(exps, pick(other_exps))]))
                    if product not in reached:
                        if product not in members:
                            return False
                        reached.add(product)
                        found.append(product)
            frontier, multipliers = found, generators
    return True


def rational_elements(k: int, n: int, limit: "int | None" = None) -> RationalSubgroupReport:
    """Enumerate and certify the rational-entry subgroup."""
    _check_size(k, n)
    # omega^l is rational exactly when it is 1 or -1, that is when 2l = 0 mod k
    rational_exps = [l for l in range(k) if 2 * l % k == 0]
    elements = _elements(k, n, rational_exps, limit, "rational subgroup size")
    members = set(elements)
    closed_product = _closed_under_product(k, [(e.perm, e.exponents) for e in elements])
    closed_inverse = all(element.inverse() in members for element in elements)
    identity = MonomialMatrix.identity(k, n)
    return RationalSubgroupReport(
        k=k,
        n=n,
        elements=tuple(elements),
        closed_under_product=closed_product,
        closed_under_inverse=closed_inverse,
        contains_identity=identity in members,
        permutations_only=all(not any(element.exponents) for element in elements),
    )


def orbit_rational_points(k: int, limit: "int | None" = None) -> set[tuple[Fraction, Fraction]]:
    """Rational points of x^k + y^k = 1 reached from (1, 0) by the group."""
    start = cyclo_vector(k, (1, 0))
    points = set()
    for image in orbit(start, limit=limit):
        rationals = [component.is_rational() for component in image]
        if all(value is not None for value in rationals):
            points.add(tuple(rationals))
    return points
