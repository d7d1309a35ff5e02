"""Exact scalar arithmetic: rationals and Gaussian rationals, the scalars the
rest of the package is built on.

Rationals are ``fractions.Fraction`` (arbitrary precision, positive
denominator, always reduced, zero is 0/1).  Gaussian rationals a + b*i with
rational a, b carry the complex-argument identities between the polynomial
families exactly; they form the field Q(i).

``GaussianRational`` is a slotted, immutable pair of Fractions, and each
operator is the one Q(i) formula for it, whether or not its operands are
real.  The polynomial layers keep their coefficients as integer numerators,
so these values appear only at the edges: scalars and rates in, coefficients
out.  ``verify`` does no Q(i) arithmetic at all: its one Gaussian rate, i,
is a dict key of ``ExpPoly`` or an argument turned into integers once.

Every value of the package derives from ``_Immutable``: it refuses assignment and deletion, and
copies and pickles as its constructor applied to its slots in order (``__reduce__``).  The records
(``ClosedForm``, ``CheckEntry``, …) derive from ``_Record``, whose fields are its slots.  Each binary
operator of ``GaussianRational`` gets its other operand from ``_q_i_operand``: in Q(i), or
``NotImplemented``.  Every operation is a pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
import re
import sys
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


# The exponent of a decimal literal: Fraction builds 10**exponent without the int-string digit limit.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*$", re.I)


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or string to an exact Fraction.

    A string is read by ``Fraction``: an integer, p/q, a decimal ("0.1" is
    1/10) or exponent notation ("1e400").  Its digits are held to
    ``sys.get_int_max_str_digits()`` (0: no bound) as ``int()`` holds them,
    and so is its exponent, which is refused before 10**exponent is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 before Python 3.10.7: no limit
    exp = _EXPONENT.search(value)
    over = limit and exp and (len(exp[1]) > limit or abs(int(exp[1])) >= limit)
    if not over:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            over = limit and str(exc).startswith("Exceeds the limit")
    reason = f"over the int-string limit of {limit} digits" if over else "use integer or p/q"
    raise ValueError(f"malformed rational {value!r} ({reason})")


def as_rate(value) -> Fraction:
    """``as_rational`` for the rate m of an exponential e^(mx), which must be nonzero."""
    m = as_rational(value)
    if m == 0:
        raise ValueError("rate must be nonzero")
    return m


class _Immutable:
    """Base of the values: their slots are set by their constructors alone, never reassigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class _Record(_Immutable):
    """A record whose fields are its ``__slots__``, given to the constructor positionally; it compares,
    hashes and prints by them, like ``WeightForm(alpha=Fraction(1, 1), beta=…)``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):  # a missing or extra value: ValueError
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


def _q_i_operand(op):
    """op with its other operand coerced to a GaussianRational, or NotImplemented for a
    foreign one, so that richer types (Poly, ExpPoly) get their reflected-operator chance."""

    @functools.wraps(op)
    def coerced(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    return coerced


class GaussianRational(_Immutable):
    """An element a + b*i of Q(i), with exact rational components.

    ``re`` and ``im`` are always Fractions; the value is real when ``im`` is
    zero.  ``_hash`` is unset until the first ``__hash__`` call stores the
    hash there, so arithmetic does not pay for it and rates used as dict keys
    hash their Fractions once.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- arithmetic -------------------------------------------------------

    @_q_i_operand
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_q_i_operand
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_q_i_operand
    def __rsub__(self, other):
        return other - self

    @_q_i_operand
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_q_i_operand
    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/(c + di) = (a + bi)(c - di) / (c^2 + d^2)
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    @_q_i_operand
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("Gaussian rational powers must be integers")
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    # -- structure --------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    @_q_i_operand
    def __eq__(self, other) -> bool:
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # A real value hashes as its real part, as complex does, so that
            # equal ints and Fractions find it in sets and dicts.
            h = hash((self.re, self.im)) if self.im else hash(self.re)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        if self.im:
            return f"GaussianRational({self.re}, {self.im})"
        return f"GaussianRational({self.re})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


def as_gaussian(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
