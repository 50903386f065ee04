"""Fraction arithmetic in Q(omega_k): the oracle the integer `CyclotomicNumber` is tested against.

This is the library's former implementation, kept verbatim in substance:
each value stores one Fraction per coefficient on the power basis
{1, omega, ..., omega^(phi(k) - 1)}, the constructor folds exponents mod k
and reduces by Phi_k with Fraction arithmetic, and every operation builds
Fractions.  It shares only `cyclotomic_polynomial` and the printing helpers
with the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from fermatgroups.cyclotomic import _coefficient_repr, cyclotomic_polynomial
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import format_rational, parse_rational


def _reduce_mod_phi(k: int, folded: list[Fraction]) -> tuple[Fraction, ...]:
    # folded has length k (exponents already taken mod k); divide by Phi_k
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    work = list(folded)
    if len(work) < deg:
        work.extend([Fraction(0)] * (deg - len(work)))
    for e in range(len(work) - 1, deg - 1, -1):
        c = work[e]
        if c:
            for i in range(deg):
                work[e - deg + i] -= c * phi[i]
            work[e] = Fraction(0)
    return tuple(work[:deg])


class CyclotomicNumber:
    """An element of Q(omega_k) on the canonical power basis.

    The constructor accepts a polynomial in omega of any degree (rational
    coefficients, lowest degree first) and reduces it: exponents fold mod k
    since omega^k = 1, then the result is reduced mod Phi_k.  Two values are
    equal exactly when their reduced coefficient vectors are equal; a value
    also compares equal to a plain int or Fraction when it is rational.
    """

    __slots__ = ("_k", "_coeffs", "_hash")

    def __init__(self, k: int, coeffs: Iterable = ()) -> None:
        if not isinstance(k, int) or k < 1:
            raise InvalidArgumentError(f"cyclotomic order must be an integer >= 1, got {k!r}")
        folded = [Fraction(0)] * k
        for exponent, c in enumerate(coeffs):
            if c:
                folded[exponent % k] += Fraction(c)
        self._k = k
        self._coeffs = _reduce_mod_phi(k, folded)

    @property
    def k(self) -> int:
        return self._k

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Reduced coefficients on {1, omega, ..., omega^(phi(k)-1)}."""
        return self._coeffs

    @classmethod
    def zero(cls, k: int) -> "CyclotomicNumber":
        return cls(k)

    @classmethod
    def one(cls, k: int) -> "CyclotomicNumber":
        return cls(k, (1,))

    @classmethod
    def from_rational(cls, k: int, value) -> "CyclotomicNumber":
        return cls(k, (Fraction(value),))

    @classmethod
    def root_of_unity(cls, k: int, exponent: int) -> "CyclotomicNumber":
        """omega_k ** exponent (any integer exponent)."""
        if not isinstance(k, int) or k < 1:
            raise InvalidArgumentError(f"cyclotomic order must be an integer >= 1, got {k!r}")
        return cls(k, (0,) * (exponent % k) + (1,))

    def is_rational(self) -> "Fraction | None":
        """The value as a Fraction when it lies in Q, else None."""
        if any(self._coeffs[1:]):
            return None
        return self._coeffs[0] if self._coeffs else Fraction(0)

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
            return CyclotomicNumber.from_rational(self._k, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = CyclotomicNumber.zero(self._k)
        out._coeffs = tuple(a + b for a, b in zip(self._coeffs, rhs._coeffs))
        return out

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        out = CyclotomicNumber.zero(self._k)
        out._coeffs = tuple(-a for a in self._coeffs)
        return out

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
        conv = [Fraction(0)] * (2 * max(len(self._coeffs), 1))
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(rhs._coeffs):
                    if b:
                        conv[i + j] += a * b
        return CyclotomicNumber(self._k, conv)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CyclotomicNumber":
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidArgumentError("cyclotomic power needs a nonnegative integer")
        result = CyclotomicNumber.one(self._k)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            if other._k == self._k:
                return self._coeffs == other._coeffs
            mine, theirs = self.is_rational(), other.is_rational()
            return mine is not None and mine == theirs
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            mine = self.is_rational()
            return mine is not None and mine == other
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
                self._hash = hash((self._k, self._coeffs))
            return self._hash

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self._k}, {[_coefficient_repr(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if not any(self._coeffs):
            return "0"
        terms = []
        for exponent, c in enumerate(self._coeffs):
            if not c:
                continue
            # integer coefficients print bare, as in "-3 + 2*w", and -1 as a negated power, "-w"
            text = format_rational(c).removesuffix("/1")
            if exponent == 0:
                terms.append(text)
            else:
                power = "w" if exponent == 1 else f"w^{exponent}"
                if c == 1:
                    terms.append(power)
                elif c == -1:
                    terms.append(f"-{power}")
                else:
                    terms.append(f"{text}*{power}")
        return " + ".join(terms)

    def as_dict(self) -> dict:
        """JSON form: {"k": k, "coeffs": ["p/q", ...]} on the canonical basis."""
        return {
            "k": self._k,
            "coeffs": [format_rational(c) for c in self._coeffs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CyclotomicNumber":
        try:
            k = payload["k"]
            raw = payload["coeffs"]
        except (TypeError, KeyError):
            raise InvalidArgumentError(f"malformed cyclotomic payload: {payload!r}") from None
        return cls(k, [parse_rational(c) if isinstance(c, str) else Fraction(c) for c in raw])
