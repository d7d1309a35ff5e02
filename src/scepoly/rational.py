"""Exact scalar arithmetic: rationals and Gaussian rationals, the scalars the
rest of the package is built on.

Rationals are ``fractions.Fraction`` (arbitrary precision, positive
denominator, always reduced, zero is 0/1).  Gaussian rationals a + b*i with
rational a, b carry the complex-argument identities between the polynomial
families exactly; they form the field Q(i).

All values are immutable and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "as_rational",
    "as_rate",
    "as_gaussian",
    "I",
    "ZERO",
    "ONE",
]


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_rate(value) -> Fraction:
    """``as_rational`` for the rate m of an exponential e^(mx), which must be nonzero."""
    m = as_rational(value)
    if m == 0:
        raise ValueError("rate must be nonzero")
    return m


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), with exact rational components."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", as_rational(self.re))
        object.__setattr__(self, "im", as_rational(self.im))

    # -- arithmetic -------------------------------------------------------
    # Binary ops return NotImplemented on foreign operands so that richer
    # types (Poly, ExpPoly) get their reflected-operator chance.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        prod = self * conj
        return GaussianRational(prod.re / norm, prod.im / norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("Gaussian rational powers must be integers")
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure --------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    return NotImplemented


def as_gaussian(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


ZERO = GaussianRational(Fraction(0))
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))
