"""Exact arithmetic in the cyclotomic field Q(omega), omega = exp(2*pi*i/k).

Values are canonical residues modulo the k-th cyclotomic polynomial, stored
on the power basis {1, omega, ..., omega^(phi(k) - 1)} as integer
numerators over one common denominator in lowest terms.  Reduction mod
x^k - 1 alone would not give a field (that quotient has zero divisors), so
exponent folding mod k is only a transient first step and every visible
value is divided down by Phi_k; Phi_k is monic with integer coefficients,
so the division never leaves the integers.  Fractions are built only when
a caller reads `coeffs`.  Equality is structural on the reduced numerators
and denominator; hashing agrees with Fraction for rational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidArgumentError
from .rationals import exact, format_rational, integer, parse_rational

__all__ = [
    "CyclotomicNumber",
    "cyclotomic_polynomial",
    "euler_phi",
    "poly_divmod",
    "poly_mul",
]


def euler_phi(k: int) -> int:
    """Count of 1 <= i <= k coprime to k; the degree of Phi_k."""
    integer(k, 1, "euler_phi argument k")
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of integer polynomials, coefficients lowest degree first."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division of integer polynomials by a monic divisor."""
    den = _trim(list(den))
    if not den or den[-1] != 1:
        raise InvalidArgumentError("polynomial divisor must be monic")
    work = list(num)
    deg = len(den) - 1
    if len(work) - 1 < deg:
        return (), _trim(work)
    quotient = [0] * (len(work) - deg)
    for e in range(len(work) - 1, deg - 1, -1):
        c = work[e]
        if c:
            quotient[e - deg] = c
            for i, dc in enumerate(den):
                work[e - deg + i] -= c * dc
    return _trim(quotient), _trim(work)


# typed, so that a cached 1 cannot answer for True or 1.0, which the check rejects
@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, lowest degree first.

    Computed exactly by dividing x^k - 1 by the product of Phi_d over the
    proper divisors d of k; the division is integer-exact because every
    cyclotomic polynomial is monic with integer coefficients.
    """
    integer(k, 1, "cyclotomic polynomial order k")
    if k == 1:
        return (-1, 1)
    divisor = (1,)
    for d in range(1, k):
        if k % d == 0:
            divisor = poly_mul(divisor, cyclotomic_polynomial(d))
    x_k_minus_one = (-1,) + (0,) * (k - 1) + (1,)
    quotient, remainder = poly_divmod(x_k_minus_one, divisor)
    if remainder:
        raise ArithmeticError(f"cyclotomic division left a remainder for k={k}")
    return quotient


def _reduce_mod_phi(k: int, folded: list[int]) -> list[int]:
    # folded has length k (exponents already taken mod k) and is reduced in
    # place; Phi_k is monic with integer coefficients, so long division
    # stays in the integers
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    for e in range(k - 1, deg - 1, -1):
        c = folded[e]
        if c:
            for i in range(deg):
                folded[e - deg + i] -= c * phi[i]
    return folded[:deg]


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
        digits = int((abs(value).bit_length() - 1) * 0.30102999566398120) + 1
        digits += abs(value) >= 10**digits  # the estimate is low by at most one
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

    __slots__ = ("_k", "_nums", "_den", "_coeffs", "_hash")

    def __init__(self, k: int, coeffs: Iterable = ()) -> None:
        integer(k, 1, "cyclotomic order")
        # fold over one common denominator, kept as the lcm of those seen
        folded = [0] * k
        den = 1
        for exponent, c in enumerate(coeffs):
            if exact(c):
                num, q = c.numerator, c.denominator
                if den % q:
                    scale = q // gcd(den, q)
                    folded = [x * scale for x in folded]
                    den *= scale
                folded[exponent % k] += num * (den // q)
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
        """Reduced coefficients on {1, omega, ..., omega^(phi(k)-1)}, built once on first use."""
        try:
            return self._coeffs
        except AttributeError:
            den = self._den
            self._coeffs = tuple(Fraction(c, den) for c in self._nums)
            return self._coeffs

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
        return cls(k, (0,) * (exponent % k) + (1,))

    def is_rational(self) -> "Fraction | None":
        """The value as a Fraction when it lies in Q, else None."""
        if any(self._nums[1:]):
            return None
        return self.coeffs[0]

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
        """omega^shift times this value, for 0 <= shift < k, without a field product.

        On the power basis the numerators move up `shift` places, wrap
        around mod k and are reduced by Phi_k.  omega^shift is a unit of the
        ring Z[omega], whose integer basis is the power basis, so the
        numerators keep their gcd with den and need no new reduction.
        """
        k = self._k
        padded = list(self._nums) + [0] * (k - len(self._nums))
        folded = padded[k - shift:] + padded[:k - shift]
        return CyclotomicNumber._make(k, tuple(_reduce_mod_phi(k, folded)), self._den)

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
        result = CyclotomicNumber.one(self._k)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            if other._k == self._k:
                return self._nums == other._nums and self._den == other._den
            mine, theirs = self.is_rational(), other.is_rational()
            return mine is not None and mine == theirs
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return (
                not any(self._nums[1:])
                and self._nums[0] == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # values never change once built, so the hash is computed on first use
        try:
            return self._hash
        except AttributeError:
            rational_value = self.is_rational()
            if rational_value is not None:
                self._hash = hash(rational_value)
            else:
                self._hash = hash((self._k, self.coeffs))
            return self._hash

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self._k}, {[_coefficient_repr(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not any(self._nums):
            return "0"
        terms = []
        for exponent, c in enumerate(self.coeffs):
            if not c:
                continue
            # integer coefficients print bare, as in "-3 + 2*w"
            text = format_rational(c).removesuffix("/1")
            if exponent == 0:
                terms.append(text)
            else:
                power = "w" if exponent == 1 else f"w^{exponent}"
                terms.append(power if c == 1 else f"{text}*{power}")
        return " + ".join(terms)

    def as_dict(self) -> dict:
        """JSON form: {"k": k, "coeffs": ["p/q", ...]} on the canonical basis."""
        return {
            "k": self._k,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CyclotomicNumber":
        try:
            k = payload["k"]
            raw = payload["coeffs"]
        except (TypeError, KeyError):
            raise InvalidArgumentError(f"malformed cyclotomic payload: {payload!r}") from None
        # exact values only: a JSON float or bool is not a coefficient
        if any(type(c) not in (int, str) for c in raw):
            raise InvalidArgumentError(f'cyclotomic coefficients must be integers or "p/q" text: {raw!r}')
        return cls(k, [parse_rational(c) if type(c) is str else c for c in raw])
