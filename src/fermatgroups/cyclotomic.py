"""Exact arithmetic in the cyclotomic field Q(omega), omega = exp(2*pi*i/k).

Values are canonical residues modulo the k-th cyclotomic polynomial, stored
on the power basis {1, omega, ..., omega^(phi(k) - 1)} as integer
numerators over one common denominator in lowest terms.  Reduction mod
x^k - 1 alone would not give a field (that quotient has zero divisors), so
exponent folding mod k is only a transient first step and every visible
value is divided down by Phi_k; Phi_k is monic with integer coefficients,
so the division never leaves the integers.  Fractions are built, anew
on each call, only when a caller reads `coeffs` or `is_rational`; the
text forms (`coefficient_texts`, `str`, `as_dict`) read the numerators.
Equality is structural on the reduced numerators and denominator;
hashing agrees with Fraction for rational values.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidArgumentError
from .rationals import exact, format_pair, integer, parse_rational, power

__all__ = [
    "CyclotomicNumber",
    "cyclotomic_polynomial",
    "euler_phi",
]


def euler_phi(k: int) -> int:
    """Count of 1 <= i <= k coprime to k; the degree of Phi_k."""
    integer(k, 1, "euler_phi argument k")
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


# typed, so that a cached 1 cannot answer for True or 1.0, which the check rejects
@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, lowest degree first.

    Starts from x^k - 1 and divides it in place by Phi_d for each proper
    divisor d of k.  A nonzero remainder raises.
    """
    integer(k, 1, "cyclotomic polynomial order k")
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            deg = _divide_monic(poly, cyclotomic_polynomial(d))
            if any(poly[:deg]):
                raise ArithmeticError(f"cyclotomic division left a remainder for k={k}")
            del poly[:deg]
    return tuple(poly)


def _divide_monic(poly: list[int], divisor: tuple[int, ...]) -> int:
    """Long division of poly by a monic divisor in place, both lowest degree first.

    Returns the divisor's degree deg, and leaves the remainder in poly[:deg]
    and the quotient in poly[deg:]: each leading coefficient stays in place
    as the quotient's.  A monic divisor with integer coefficients keeps
    the division in the integers.
    """
    deg = len(divisor) - 1
    for e in range(len(poly) - 1, deg - 1, -1):
        c = poly[e]
        if c:
            for i in range(deg):
                poly[e - deg + i] -= c * divisor[i]
    return deg


def _reduce_mod_phi(k: int, folded: list[int]) -> list[int]:
    # folded has length k (exponents already taken mod k) and is reduced in place
    return folded[:_divide_monic(folded, cyclotomic_polynomial(k))]


def _omega_steps(k: int, nums: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The power-basis numerators of v, omega * v, ..., omega^(count - 1) * v, from those of v.

    omega^phi(k) is minus the lower coefficients of the monic Phi_k, so
    omega * v moves the numerators up one place and subtracts the top one
    times those: O(phi(k)) per step.  omega is a unit of the ring
    Z[omega], whose integer basis is the power basis, so the numerators
    keep their gcd with any denominator.
    """
    lower = cyclotomic_polynomial(k)[:-1]
    above = lower[1:]
    steps = [nums]
    for _ in range(count - 1):
        top = nums[-1]
        nums = (-top * lower[0], *[x - top * p for x, p in zip(nums, above)]) if top else (0, *nums[:-1])
        steps.append(nums)
    return steps


def _lowest_terms(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    # divide numerators and a positive denominator by their common gcd
    common = gcd(den, *nums)
    if common == 1:
        return tuple(nums), den
    return tuple(c // common for c in nums), den // common


def _integer_repr(value: int) -> str:
    # repr must not raise: past the int-to-str digit limit, print the digit count
    try:
        return str(value)
    except ValueError:
        # an integer ratio just below log10(2): the estimate is never high, and low by at most one
        digits = (abs(value).bit_length() - 1) * 30102999566398119521 // 10**20 + 1
        digits += abs(value) >= 10**digits
        return f"{'-' if value < 0 else ''}<{digits} digits>"


def _coefficient_repr(c: Fraction) -> str:
    if c.denominator == 1:
        return _integer_repr(c.numerator)
    return f"{_integer_repr(c.numerator)}/{_integer_repr(c.denominator)}"


class CyclotomicNumber:
    """An element of Q(omega_k) on the canonical power basis.

    The constructor accepts a polynomial in omega of any degree (rational
    coefficients, lowest degree first) and reduces it: exponents fold mod k
    since omega^k = 1, then the result is reduced mod Phi_k.  The value is
    stored as integer numerators `nums` over one denominator `den` in
    lowest terms: len(nums) = phi(k), den > 0 and gcd(*nums, den) = 1.
    Two values are equal exactly when these are equal; a value also
    compares equal to a plain int or Fraction when it is rational.
    """

    __slots__ = ("_k", "_nums", "_den")

    def __init__(self, k: int, coeffs: Iterable = ()) -> None:
        integer(k, 1, "cyclotomic order")
        # fold over one common denominator
        coeffs = [exact(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        folded = [0] * k
        for exponent, c in enumerate(coeffs):
            folded[exponent % k] += c.numerator * (den // c.denominator)
        self._k = k
        self._nums, self._den = _lowest_terms(_reduce_mod_phi(k, folded), den)

    @classmethod
    def _make(cls, k: int, nums: tuple[int, ...], den: int) -> "CyclotomicNumber":
        # wrap a vector already in canonical form, bypassing the constructor
        out = object.__new__(cls)
        out._k, out._nums, out._den = k, nums, den
        return out

    @property
    def k(self) -> int:
        return self._k

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Reduced coefficients on {1, omega, ..., omega^(phi(k)-1)}."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @classmethod
    def zero(cls, k: int) -> "CyclotomicNumber":
        return cls(k)

    @classmethod
    def one(cls, k: int) -> "CyclotomicNumber":
        return cls(k, (1,))

    @classmethod
    def from_rational(cls, k: int, value) -> "CyclotomicNumber":
        return cls(k, (value,))

    @classmethod
    def root_of_unity(cls, k: int, exponent: int) -> "CyclotomicNumber":
        """omega_k ** exponent (any integer exponent)."""
        integer(k, 1, "cyclotomic order")
        return cls(k, (0,) * (integer(exponent, None, "root of unity exponent") % k) + (1,))

    def is_rational(self) -> "Fraction | None":
        """The value as a Fraction when it lies in Q, else None."""
        if any(self._nums[1:]):
            return None
        return Fraction(self._nums[0], self._den)

    def _coerce(self, other) -> "CyclotomicNumber | None":
        if isinstance(other, CyclotomicNumber):
            if other._k != self._k:
                raise InvalidArgumentError(
                    f"cyclotomic order mismatch: {self._k} vs {other._k}"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            # an int or Fraction is already in lowest terms with a positive denominator
            zeros = (0,) * (len(self._nums) - 1)
            return CyclotomicNumber._make(self._k, (other.numerator, *zeros), other.denominator)
        return None

    def _rotated(self, shift: int) -> "CyclotomicNumber":
        """omega^shift times this value, for 0 <= shift < k, by `shift` omega steps rather than a field product."""
        return CyclotomicNumber._make(self._k, _omega_steps(self._k, self._nums, shift + 1)[-1], self._den)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        den, rhs_den = self._den, rhs._den
        if den == rhs_den:
            total = [a + b for a, b in zip(self._nums, rhs._nums)]
        else:
            common = gcd(den, rhs_den)
            scale, rhs_scale = rhs_den // common, den // common
            total = [a * scale + b * rhs_scale for a, b in zip(self._nums, rhs._nums)]
            den *= scale
        return CyclotomicNumber._make(self._k, *_lowest_terms(total, den))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber._make(self._k, tuple(-c for c in self._nums), self._den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # integer convolution, then exponents past k - 1 fold back since omega^k = 1
        k = self._k
        conv = [0] * max(k, 2 * len(self._nums) - 1)
        for i, a in enumerate(self._nums):
            if a:
                for j, b in enumerate(rhs._nums):
                    if b:
                        conv[i + j] += a * b
        for e in range(len(conv) - 1, k - 1, -1):
            conv[e - k] += conv[e]
        nums = _reduce_mod_phi(k, conv[:k])
        return CyclotomicNumber._make(k, *_lowest_terms(nums, self._den * rhs._den))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CyclotomicNumber":
        integer(exponent, 0, "cyclotomic power exponent")
        return power(CyclotomicNumber.one(self._k), self, exponent)

    def __bool__(self) -> bool:
        return any(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            if other._k == self._k:
                return self._nums == other._nums and self._den == other._den
            mine, theirs = self.is_rational(), other.is_rational()
            return mine is not None and mine == theirs
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._nums == rhs._nums and self._den == rhs._den

    def __hash__(self) -> int:
        rational_value = self.is_rational()
        if rational_value is not None:
            return hash(rational_value)
        return hash((self._k, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self._k}, {[_coefficient_repr(c) for c in self.coeffs]})"

    def coefficient_texts(self) -> list[str]:
        """`format_rational` of each coefficient, read off the numerators: one gcd each, no Fraction.

        A zero coefficient prints "0/1".  A numerator or denominator past the
        int-to-str digit limit raises ResourceLimitError, as in
        `format_rational`.
        """
        den = self._den
        return [format_pair(c // (g := gcd(c, den)), den // g) for c in self._nums]

    def __str__(self) -> str:
        if not any(self._nums):
            return "0"
        terms = []
        for exponent, text in enumerate(self.coefficient_texts()):
            if text == "0/1":
                continue
            # integer coefficients print bare, as in "-3 + 2*w", and -1 as a negated power, "-w"
            text = text.removesuffix("/1")
            if exponent == 0:
                terms.append(text)
            else:
                omega = "w" if exponent == 1 else f"w^{exponent}"
                terms.append(omega if text == "1" else f"-{omega}" if text == "-1" else f"{text}*{omega}")
        return " + ".join(terms)

    def as_dict(self) -> dict:
        """JSON form: {"k": k, "coeffs": ["p/q", ...]} on the canonical basis."""
        return {"k": self._k, "coeffs": self.coefficient_texts()}

    @classmethod
    def from_dict(cls, payload: dict) -> "CyclotomicNumber":
        try:
            k, raw = payload["k"], payload["coeffs"]
        except (TypeError, KeyError):
            raw = None
        # a JSON array only: a string, dict or number is not read entry by entry
        if not isinstance(raw, list):
            raise InvalidArgumentError(f"malformed cyclotomic payload: {payload!r}")
        # exact values only: a JSON float or bool is not a coefficient
        if any(type(c) not in (int, str) for c in raw):
            raise InvalidArgumentError(f'cyclotomic coefficients must be integers or "p/q" text: {raw!r}')
        return cls(k, [parse_rational(c) if type(c) is str else c for c in raw])
