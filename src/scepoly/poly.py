"""Exact univariate polynomial and exponential-polynomial calculus.

Three representations, chosen to match how each is accessed:

* ``Poly`` -- dense coefficient tuple over Gaussian rationals, ascending
  degree, no trailing zeros (the zero polynomial is the empty tuple).
* ``LaurentPoly`` -- integer numerator tuples (real and imaginary) over one
  common denominator, starting at an integer exponent offset that may be
  negative: iterated derivatives of x^(-1)*e^(rx) push exponents down to
  -n-1, and each derivative is one pass over the integers.
* ``ExpPoly`` -- a finite sum of terms p_k(x)*e^(mu_k x) with Laurent
  polynomial parts and pairwise distinct Gaussian-rational rates mu_k.
  The class is closed under differentiation, which is the whole point:
  it can differentiate weight-function products and trigonometric closed
  forms exactly, with sin/cos lifted to complex exponentials.

No polynomial division lives here; nothing downstream needs it.
All values are immutable and operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .rational import GaussianRational, ONE, ZERO, as_gaussian

__all__ = ["Poly", "LaurentPoly", "ExpPoly"]

Scalar = Union[int, Fraction, GaussianRational]


class Poly:
    """Dense univariate polynomial over Q(i), coefficients by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_gaussian(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("Poly exponents must be >= 0")
        return cls((0,) * k + (c,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self.coeffs)

    def require_real(self, context: str) -> "Poly":
        """Return self, or raise if any coefficient has an imaginary residue."""
        if not self.is_real():
            raise ValueError(f"{context}: nonzero imaginary part in {self!r}")
        return self

    # -- ring arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        c = as_gaussian(other)
        return Poly(a * c for a in self.coeffs)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_gaussian(scalar)
        return Poly(a / c for a in self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("Poly powers must be >= 0")
        result = Poly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(self.coeffs[k] * k for k in range(1, len(self.coeffs)))

    def eval(self, z) -> GaussianRational:
        """Exact value at a Gaussian-rational point, by Horner over the integers.

        With z = (a + b*i)/q and coefficients (r_k + s_k*i)/D over one common
        denominator D, the sum of (r_k + s_k*i)(a + b*i)^k q^(d-k) is
        accumulated in ints and divided by D*q^d once, at the end.
        """
        a, b, q = _int_parts(z)
        re, im, den = _int_coeffs(self.coeffs)
        acc_re = acc_im = 0
        scale = 1  # q^(d-k) for the coefficient of x^k
        for r, s in zip(reversed(re), reversed(im)):
            acc_re, acc_im = acc_re * a - acc_im * b + r * scale, acc_re * b + acc_im * a + s * scale
            scale *= q
        den *= q ** max(self.degree, 0)
        return GaussianRational(Fraction(acc_re, den), Fraction(acc_im, den))

    def eval_float(self, x: float) -> float:
        """Float Horner evaluation; coefficients are converted at the last step."""
        acc = 0.0
        for c in reversed(self.coeffs):
            if c.im != 0:
                raise ValueError("eval_float requires real coefficients")
            acc = acc * x + float(c.re)
        return acc

    def scale_arg(self, c) -> "Poly":
        """Return q with q(x) = p(c*x)."""
        c = as_gaussian(c)
        power = ONE
        out = []
        for a in self.coeffs:
            out.append(a * power)
            power = power * c
        return Poly(out)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        try:
            return self.coeffs == _as_poly(other).coeffs
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{_scalar_repr(c)}*x^{k}" if k else _scalar_repr(c))
        return "Poly(" + " + ".join(parts) + ")"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly((as_gaussian(value),))


def _scalar_repr(c: GaussianRational) -> str:
    if c.im == 0:
        return str(c.re)
    return f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"


def _normalise(lo: int, re, im, den: int) -> tuple:
    """Canonical integer form (lo, re, im, den) of x^lo * sum (re[k] + i*im[k]) x^k / den.

    Strips terms that vanish from both ends, empties ``im`` when every
    imaginary numerator is zero, and divides the numerators and the positive
    denominator by their gcd, so equal values get equal tuples.  The zero
    polynomial is (0, (), (), 1).
    """
    if im and not any(im):
        im = ()
    nonzero = (lambda k: re[k] or im[k]) if im else re.__getitem__
    start, hi = 0, len(re)
    while hi and not nonzero(hi - 1):
        hi -= 1
    while start < hi and not nonzero(start):
        start += 1
    if start == hi:
        return 0, (), (), 1
    re, im = re[start:hi], im[start:hi]
    g = gcd(den, *re, *im)
    if g != 1:
        re, im, den = [c // g for c in re], [c // g for c in im], den // g
    return lo + start, tuple(re), tuple(im), den


def _int_parts(value) -> tuple[int, int, int]:
    """(a, b, q) with value = (a + b*i)/q and q > 0."""
    c = as_gaussian(value)
    q = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator), q


def _int_coeffs(coeffs) -> tuple[list[int], list[int], int]:
    """(re, im, den) with coeffs[k] = (re[k] + im[k]*i)/den and den > 0 the least common denominator."""
    den = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    re = [c.re.numerator * (den // c.re.denominator) for c in coeffs]
    im = [c.im.numerator * (den // c.im.denominator) for c in coeffs]
    return re, im, den


def _laurent(lo: int, re, im, den: int) -> "LaurentPoly":
    p = object.__new__(LaurentPoly)
    for name, value in zip(LaurentPoly.__slots__, _normalise(lo, re, im, den)):
        object.__setattr__(p, name, value)
    return p


class LaurentPoly:
    """Laurent polynomial over Q(i): x^lo * sum_k (re[k] + i*im[k]) x^k / den.

    Integer numerators over one positive common denominator, the layout of
    FLINT's ``fmpq_poly`` (https://flintlib.org/doc/fmpq_poly.html) plus an
    exponent offset, so one derivative is one O(deg) integer pass with no
    Fraction or GaussianRational arithmetic in it.  ``im`` is empty for a
    real polynomial.  The form is canonical (see ``_normalise``), so equality
    is tuple equality.  ``terms`` converts out to a sparse exponent map.
    """

    __slots__ = ("lo", "re", "im", "den")

    def __new__(cls, terms: Mapping[int, Scalar] | Iterable = ()):
        """The sum of the monomials c*x^e over the (e, c) pairs of ``terms``."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        out = _laurent(0, (), (), 1)
        for e, c in items:
            a, b, q = _int_parts(c)
            out = out + _laurent(e, [a], [b], q)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> "LaurentPoly":
        return _laurent(0, *_int_coeffs(p.coeffs))

    def _coeffs(self) -> list[GaussianRational]:
        """Dense coefficients of x^lo, x^(lo+1), ..."""
        im = self.im or (0,) * len(self.re)
        return [GaussianRational(Fraction(r, self.den), Fraction(i, self.den)) for r, i in zip(self.re, im)]

    @property
    def terms(self) -> dict[int, GaussianRational]:
        """The nonzero terms as an ascending map exponent -> coefficient."""
        return {self.lo + k: c for k, c in enumerate(self._coeffs()) if c}

    def is_zero(self) -> bool:
        return not self.re

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        lo = min(self.lo, other.lo)
        size = max(self.lo + len(self.re), other.lo + len(other.re)) - lo
        den = lcm(self.den, other.den)
        re = [0] * size
        im = [0] * size if self.im or other.im else ()
        for p in (self, other):
            f, at = den // p.den, p.lo - lo
            for k, c in enumerate(p.re, at):
                re[k] += c * f
            for k, c in enumerate(p.im, at):
                im[k] += c * f
        return _laurent(lo, re, im, den)

    def __neg__(self) -> "LaurentPoly":
        return _laurent(self.lo, [-c for c in self.re], [-c for c in self.im], self.den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, scalar) -> "LaurentPoly":
        a, b, q = _int_parts(scalar)
        im = self.im or (0,) * len(self.re)
        re_out = [a * r - b * i for r, i in zip(self.re, im)]
        im_out = [b * r + a * i for r, i in zip(self.re, im)] if b or self.im else ()
        return _laurent(self.lo, re_out, im_out, self.den * q)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k (k may be negative)."""
        return _laurent(self.lo + k, self.re, self.im, self.den)

    def derivative(self, rate=0) -> "LaurentPoly":
        """p' + rate*p, i.e. e^(-rate x) d/dx [p(x) e^(rate x)]; plain p' by default.

        One integer pass: for rate (a + b*i)/q the numerator of x^(lo-1+k)
        is q*(lo+k)*c_k + (a + b*i)*c_(k-1), over den*q.
        """
        a, b, q = _int_parts(rate)
        lo, re, im = self.lo, self.re, self.im
        d_re = [q * (lo + k) * c for k, c in enumerate(re)] + [0]
        d_im = [q * (lo + k) * c for k, c in enumerate(im or (0,) * len(re))] + [0] if im or b else ()
        for k, r in enumerate(re, 1):
            d_re[k] += a * r
            if b:
                d_im[k] += b * r
        for k, i in enumerate(im, 1):
            d_re[k] -= b * i
            d_im[k] += a * i
        return _laurent(lo - 1, d_re, d_im, self.den * q)

    def to_poly(self) -> Poly:
        """Convert to a Poly; negative exponents indicate an upstream bug."""
        if self.lo < 0:
            raise ValueError(f"negative exponents remain: {self!r}")
        return Poly([0] * self.lo + self._coeffs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.lo, self.re, self.im, self.den) == (other.lo, other.re, other.im, other.den)

    def __hash__(self):
        return hash((self.lo, self.re, self.im, self.den))

    def __repr__(self) -> str:
        if not self.re:
            return "LaurentPoly(0)"
        body = " + ".join(f"{_scalar_repr(c)}*x^{e}" for e, c in self.terms.items())
        return f"LaurentPoly({body})"


class ExpPoly:
    """Finite sum of Laurent-polynomial multiples of exponentials.

    Terms are keyed by rate: {mu: p} represents sum of p(x)*e^(mu*x).
    Rates are pairwise distinct and zero parts are dropped, so equality of
    canonical forms is exact equality of functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        out: dict[GaussianRational, LaurentPoly] = {}
        for rate, part in items:
            rate = as_gaussian(rate)
            if isinstance(part, Poly):
                part = LaurentPoly.from_poly(part)
            if part.is_zero():
                continue
            if rate in out:
                acc = out[rate] + part
                if acc.is_zero():
                    del out[rate]
                else:
                    out[rate] = acc
            else:
                out[rate] = part
        object.__setattr__(self, "terms", out)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    @classmethod
    def of(cls, rate, part) -> "ExpPoly":
        """Single term part(x)*e^(rate*x)."""
        return cls([(rate, part)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({r: -p for r, p in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, scalar) -> "ExpPoly":
        c = as_gaussian(scalar)
        return ExpPoly({r: p * c for r, p in self.terms.items()})

    __rmul__ = __mul__

    def derivative(self) -> "ExpPoly":
        """Exact derivative: d/dx [p*e^(mu x)] = (p' + mu*p) e^(mu x), one pass per term."""
        return ExpPoly([(rate, part.derivative(rate)) for rate, part in self.terms.items()])

    def nth_derivative(self, n: int) -> "ExpPoly":
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        f = self
        for _ in range(n):
            f = f.derivative()
        return f

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpPoly(0)"
        body = " + ".join(f"[{p!r}]*e^({_scalar_repr(r)}x)" for r, p in self.terms.items())
        return f"ExpPoly({body})"
