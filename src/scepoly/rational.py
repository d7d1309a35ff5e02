"""Exact scalar arithmetic: rationals and Gaussian rationals, the scalars the
rest of the package is built on.

Rationals are ``fractions.Fraction`` (arbitrary precision, positive
denominator, always reduced, zero is 0/1).  Gaussian rationals a + b*i with
rational a, b carry the complex-argument identities between the polynomial
families exactly; they form the field Q(i).

``GaussianRational`` is a slotted value holding two Fractions.  Only the
public constructor coerces its arguments; arithmetic builds its results from
Fractions directly.  Almost every scalar the families produce is real, so
``+``, ``-``, ``*``, ``/`` and ``**`` on two real values do the one Fraction
operation a rational would, and the full Q(i) formulas run only when an
imaginary part is nonzero.  Both paths give the same exact values.

All values are immutable and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

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

# The imaginary part of every real GaussianRational (see the class docstring).
_REAL = Fraction(0)


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


class GaussianRational:
    """An element a + b*i of Q(i), with exact rational components.

    ``re`` and ``im`` are always Fractions.  A zero imaginary part is always
    the one shared Fraction ``_REAL``, so "is this value real" is an identity
    test; the constructors below keep that invariant.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=_REAL):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im) or _REAL)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- arithmetic -------------------------------------------------------
    # Binary ops return NotImplemented on foreign operands so that richer
    # types (Poly, ExpPoly) get their reflected-operator chance.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.im is _REAL and other.im is _REAL:
            return _value(self.re + other.re)
        return _value(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if self.im is _REAL:
            return _value(-self.re)
        return _value(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.im is _REAL and other.im is _REAL:
            return _value(self.re - other.re)
        return _value(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.im is _REAL and other.im is _REAL:
            return _value(self.re * other.re)
        return _value(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if self.im is _REAL and other.im is _REAL:
            return _value(self.re / other.re)
        # (a + bi)/(c + di) = (a + bi)(c - di) / (c^2 + d^2)
        norm = other.re * other.re + other.im * other.im
        return _value(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

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
        if self.im is _REAL:
            return _value(self.re**exponent)
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
        return _value(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im is _REAL

    def __bool__(self) -> bool:
        return self.im is not _REAL or self.re != 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value hashes as its real part, as complex does, so that
        # equal ints and Fractions find it in sets and dicts.
        if self.im is _REAL:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im is _REAL:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _value(re: Fraction, im: Fraction = _REAL) -> GaussianRational:
    """re + im*i from two Fractions, without the public constructor's coercion."""
    if im is not _REAL and not im:
        im = _REAL
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, Fraction):
        return _value(value)
    if isinstance(value, int):
        return _value(Fraction(value))
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
