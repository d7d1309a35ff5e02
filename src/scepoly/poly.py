"""Exact univariate polynomial and exponential-polynomial calculus.

``Poly`` and ``LaurentPoly`` share one exact layout, FLINT's ``fmpq_poly``
(https://flintlib.org/doc/fmpq_poly.html) plus an exponent offset:
x^lo * sum_k (re[k] + i*im[k]) x^k / den, integer numerators over one
positive denominator.  The form is canonical (``_normalise``), so equality
is tuple equality, and arithmetic, derivatives, ``scale_arg`` and ``eval``
are passes over Python ints.  ``GaussianRational`` appears only at the
edges: scalars and rates in, ``coeffs``, ``coeff`` and ``eval`` out.  A
``Poly`` has lo >= 0; a ``LaurentPoly`` may go below.  No route builds one
and the package does not export it (``families.rodrigues_sweep`` iterates a
``Poly``, telling ``_derivative`` the offset to read it from); its ``+ - *``,
``derivative`` and ``==`` are ``Poly``'s: each builds its result in its
operand's class and takes only a scalar or a value of that class.

``ExpPoly`` is a finite sum of terms p_k(x)*e^(mu_k x) with ``Poly`` parts
and pairwise distinct Gaussian-rational rates mu_k, closed under
differentiation: it differentiates weight-function products and
trigonometric closed forms exactly, P cos x + Q sin x being the real part
of one term (P - iQ) e^(ix) at the rate i.

No polynomial division lives here; nothing downstream needs it.  All values
are immutable and operations are pure; they copy and pickle by their
constructors (``__reduce__``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm

from .rational import GaussianRational, ZERO, _Immutable, as_gaussian

__all__ = ["Poly", "ExpPoly"]
_SCALARS = (int, Fraction, GaussianRational)


class _Numerators(_Immutable):
    """The shared layout: x^lo * sum_k (re[k] + i*im[k]) x^k / den, canonical (see ``_normalise``)."""

    __slots__ = ("lo", "re", "im", "den")

    def __reduce__(self):
        return _make, (type(self), self.lo, self.re, self.im, self.den)

    def is_zero(self) -> bool:
        return not self.re

    def __hash__(self):
        """A constant equals its scalar, so it hashes as that scalar."""
        if self.lo or len(self.re) > 1:
            return hash((self.lo, self.re, self.im, self.den))
        return hash(_gaussians(self)[0] if self.re else ZERO)


class Poly(_Numerators):
    """Polynomial over Q(i) in the integer layout, lo >= 0."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable = ()):
        """The polynomial whose coefficients (ints, Fractions or GaussianRationals) ascend from x^0."""
        parts = [_int_parts(c) for c in coeffs]
        den = lcm(*(q for _, _, q in parts))
        return _make(cls, 0, [a * (den // q) for a, _, q in parts], [b * (den // q) for _, b, q in parts], den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_numerators(cls, re, im=(), den: int = 1) -> "Poly":
        """sum_k (re[k] + i*im[k]) x^k / den, from integer numerators and a positive denominator."""
        return _make(cls, 0, re, im, den)

    @classmethod
    def zero(cls) -> "Poly":
        return _raw(cls, 0, (), (), 1)

    @classmethod
    def one(cls) -> "Poly":
        return _raw(cls, 0, (1,), (), 1)

    @classmethod
    def x(cls) -> "Poly":
        return _raw(cls, 1, (1,), (), 1)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("Poly exponents must be >= 0")
        a, b, q = _int_parts(c)
        return _make(cls, k, (a,), (b,), q)

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.lo + len(self.re) - 1 if self.re else -1

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients of x^0 .. x^degree, built anew on each access."""
        return (ZERO,) * self.lo + tuple(_gaussians(self))

    def coeff(self, k: int) -> GaussianRational:
        j = k - self.lo
        if 0 <= j < len(self.re):
            return GaussianRational(Fraction(self.re[j], self.den), Fraction(self.im[j] if self.im else 0, self.den))
        return ZERO

    def real_over_i_power(self, n: int) -> "Poly":
        """Re(p / i^n) coefficientwise: the numerators re, im, -re, -im for n = 0, 1, 2, 3 mod 4."""
        parts, sign = ((self.re, 1), (self.im, 1), (self.re, -1), (self.im, -1))[n % 4]
        return _make(Poly, self.lo, [sign * c for c in parts], (), self.den)

    # -- ring arithmetic: generic over the class, so LaurentPoly binds it too --

    def __add__(self, other):
        other = _operand(self, other)
        return NotImplemented if other is NotImplemented else _make(type(self), *_add(self, other))

    __radd__ = __add__

    def __neg__(self):
        return _raw(type(self), *_neg(self))

    def __sub__(self, other):
        other = _operand(self, other)
        return NotImplemented if other is NotImplemented else _make(type(self), *_add(self, other, -1))

    def __rsub__(self, other):
        other = _operand(self, other)
        return NotImplemented if other is NotImplemented else _make(type(self), *_add(other, self, -1))

    def __mul__(self, other):
        cls = type(self)
        if not isinstance(other, cls):
            return _make(cls, *_scale(self, *_int_parts(other))) if isinstance(other, _SCALARS) else NotImplemented
        size = len(self.re) + len(other.re) - 1
        re, im = [0] * size, [0] * size if self.im or other.im else []
        _mul_into(re, im, self, other)
        return _make(cls, self.lo + other.lo, re, im, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """p times the reciprocal 1/scalar: a Fraction for a rational, the Gaussian rational's own 1/c otherwise."""
        return self * (Fraction(1) / scalar) if isinstance(scalar, _SCALARS) else NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("Poly powers must be >= 0")
        result = Poly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- calculus ---------------------------------------------------------

    def derivative(self, rate=0) -> "Poly":
        """p' + rate*p, i.e. e^(-rate x) d/dx [p(x) e^(rate x)]; plain p' by default."""
        return _make(type(self), self.lo - 1, *_derivative(self, self.lo, *_int_parts(rate)))

    def eval(self, z) -> GaussianRational:
        """Exact value at z, from the numerators of ``_eval_numerators``."""
        re, im, den = _eval_numerators(self, *_int_parts(z))
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def eval_float(self, x: float) -> float:
        """Correctly rounded value at the finite float x: the exact kernel's two ints, divided once."""
        if self.im:
            raise ValueError("eval_float requires real coefficients")
        a, q = x.as_integer_ratio()
        re, _, den = _eval_numerators(self, a, 0, q)
        return re / den

    def scale_arg(self, c) -> "Poly":
        """Return q with q(x) = p(c*x): for c = (a + b*i)/q, x^k gets (a + b*i)^k q^(d-k) over den*q^d."""
        a, b, q = _int_parts(c)
        zr, zi = 1, 0
        for _ in range(self.lo):
            zr, zi = zr * a - zi * b, zr * b + zi * a
        scale, re, im = q ** max(len(self.re) - 1, 0), [], []
        for r, i in zip(self.re, _im(self)):
            r, i = r * scale, i * scale
            re.append(r * zr - i * zi)
            im.append(r * zi + i * zr)
            zr, zi, scale = zr * a - zi * b, zr * b + zi * a, scale // q
        return _make(Poly, self.lo, re, im, self.den * q ** max(self.degree, 0))

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)) and (other := _operand(self, other)) is NotImplemented:
            return NotImplemented
        return (self.lo, self.re, self.im, self.den) == (other.lo, other.re, other.im, other.den)

    __hash__ = _Numerators.__hash__

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = [f"{_scalar_repr(c)}*x^{k}" if k else _scalar_repr(c) for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"


def _operand(p, value):
    """value as a value of p's class: as is, or a scalar as a constant; NotImplemented for anything else,
    so that FormalSeries and ExpPoly reflect the operator and the two layout classes never mix."""
    if isinstance(value, type(p)):
        return value
    if not isinstance(value, _SCALARS):
        return NotImplemented
    a, b, q = _int_parts(value)
    return _make(type(p), 0, (a,), (b,), q)


def _scalar_repr(c: GaussianRational) -> str:
    if c.im == 0:
        return str(c.re)
    return f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"


# -- the layout's kernels: each returns (lo, re, im, den), ``_make`` canonicalises

def _normalise(lo: int, re, im, den: int) -> tuple:
    """Canonical integer form (lo, re, im, den) of x^lo * sum (re[k] + i*im[k]) x^k / den.

    Strips terms that vanish from both ends, empties ``im`` when every
    imaginary numerator is zero, and divides the numerators and the positive
    denominator by their gcd, so equal values get equal tuples.  The zero
    polynomial is (0, (), (), 1).
    """
    if im and not any(im):
        im = ()
    start, hi = 0, len(re)
    if im:
        while hi and not (re[hi - 1] or im[hi - 1]):
            hi -= 1
        while start < hi and not (re[start] or im[start]):
            start += 1
    else:
        while hi and not re[hi - 1]:
            hi -= 1
        while start < hi and not re[start]:
            start += 1
    if start == hi:
        return 0, (), (), 1
    if start or hi < len(re):
        re, im = re[start:hi], im[start:hi]
    if den != 1:
        g = gcd(den, re[-1], *re, *im)  # the leading numerator first: often coprime to den, it ends the search
        if g != 1:
            re, im, den = [c // g for c in re], [c // g for c in im], den // g
    return lo + start, tuple(re), tuple(im), den


_new = object.__new__
_set_lo, _set_re, _set_im, _set_den = (getattr(_Numerators, s).__set__ for s in _Numerators.__slots__)


def _raw(cls, lo: int, re: tuple, im: tuple, den: int):
    """A cls value holding (lo, re, im, den), which must already be canonical."""
    p = _new(cls)
    _set_lo(p, lo)
    _set_re(p, re)
    _set_im(p, im)
    _set_den(p, den)
    return p


def _make(cls, lo: int, re, im, den: int):
    return _raw(cls, *_normalise(lo, re, im, den))


def _int_parts(value) -> tuple[int, int, int]:
    """(a, b, q) with value = (a + b*i)/q and q > 0."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    c = as_gaussian(value)
    q = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator), q


def _eval_numerators(p, a: int, b: int, q: int) -> tuple[int, int, int]:
    """(re, im, den), unreduced, with p((a + b*i)/q) = (re + im*i)/den: the sum of (re[k] + im[k]*i)(a + b*i)^k q^(d-k),
    accumulated by Horner in ints, over den = p.den*q^d."""
    acc_re = acc_im = 0
    scale = 1  # q^(d-k) for the coefficient of x^k
    for r, s in zip([*reversed(p.re), *[0] * p.lo], [*reversed(_im(p)), *[0] * p.lo]):
        acc_re, acc_im = acc_re * a - acc_im * b + r * scale, acc_re * b + acc_im * a + s * scale
        scale *= q
    return acc_re, acc_im, p.den * q ** max(p.degree, 0)


def _im(p) -> tuple:
    """The imaginary numerators of p, with zeros for a real p."""
    return p.im or (0,) * len(p.re)


def _gaussians(p) -> list[GaussianRational]:
    """The coefficients of x^lo, x^(lo+1), ... as GaussianRationals."""
    return [GaussianRational(Fraction(r, p.den), Fraction(i, p.den)) for r, i in zip(p.re, _im(p))]


def _add(p, q, sign: int = 1) -> tuple:
    """p + sign*q."""
    lo = min(p.lo, q.lo)
    size = max(p.lo + len(p.re), q.lo + len(q.re)) - lo
    den = lcm(p.den, q.den)
    re = [0] * size
    im = [0] * size if p.im or q.im else ()
    for x, f in ((p, den // p.den), (q, sign * den // q.den)):
        at = x.lo - lo
        for k, c in enumerate(x.re, at):
            re[k] += c * f
        for k, c in enumerate(x.im, at):
            im[k] += c * f
    return lo, re, im, den


def _neg(p) -> tuple:
    """-p, already canonical."""
    return p.lo, tuple([-c for c in p.re]), tuple([-c for c in p.im]), p.den


def _scale(p, a: int, b: int, q: int) -> tuple:
    """p * (a + b*i)/q."""
    if not (b or p.im):
        return p.lo, [a * r for r in p.re], (), p.den * q
    im = _im(p)
    return p.lo, [a * r - b * i for r, i in zip(p.re, im)], [b * r + a * i for r, i in zip(p.re, im)], p.den * q


def _mul_into(re: list, im: list, p, q) -> None:
    """Add p * q, its numerators, to the lists re and im (schoolbook)."""
    for out, x, y, g in ((re, p.re, q.re, 1), (re, p.im, q.im, -1), (im, p.re, q.im, 1), (im, p.im, q.re, 1)):
        for i, a in enumerate(x):
            if a:
                a *= g
                for j, b in enumerate(y, i):
                    out[j] += a * b


def _derivative(p, lo: int, a: int, b: int, q: int) -> tuple:
    """(re, im, den) of f' + r*f = e^(-rx) d/dx [f(x) e^(rx)] for r = (a + b*i)/q, where f holds p's
    numerators c_k from the offset lo, f = x^lo * sum c_k x^k / den: the numerator of x^(lo-1+k) is
    q*(lo+k)*c_k + (a + b*i)*c_(k-1), over den*q."""
    re, re_1 = p.re + (0,), (0,) + p.re
    if not (b or p.im):
        return [q * (lo + k) * r + a * r1 for k, (r, r1) in enumerate(zip(re, re_1))], (), p.den * q
    im, im_1 = _im(p) + (0,), (0,) + _im(p)
    d_re = [q * (lo + k) * r + a * r1 - b * s1 for k, (r, r1, s1) in enumerate(zip(re, re_1, im_1))]
    d_im = [q * (lo + k) * s + a * s1 + b * r1 for k, (s, r1, s1) in enumerate(zip(im, re_1, im_1))]
    return d_re, d_im, p.den * q


class LaurentPoly(_Numerators):
    """Laurent polynomial over Q(i) in the integer layout, lo of any sign; not exported, built by no route."""

    __slots__ = ()

    def __new__(cls, terms: Mapping | Iterable = ()):
        """The sum of the monomials c*x^e over the (e, c) pairs of ``terms``."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        out = _make(cls, 0, (), (), 1)
        for e, c in items:
            a, b, q = _int_parts(c)
            out = out + _make(cls, e, (a,), (b,), q)
        return out

    @property
    def terms(self) -> dict[int, GaussianRational]:
        """The nonzero terms as an ascending map exponent -> coefficient."""
        return {self.lo + k: c for k, c in enumerate(_gaussians(self)) if c}

    __add__ = __radd__ = Poly.__add__
    __sub__, __rsub__, __neg__ = Poly.__sub__, Poly.__rsub__, Poly.__neg__
    __mul__ = __rmul__ = Poly.__mul__
    derivative, __eq__, __hash__ = Poly.derivative, Poly.__eq__, Poly.__hash__

    def __repr__(self) -> str:
        if not self.re:
            return "LaurentPoly(0)"
        body = " + ".join(f"{_scalar_repr(c)}*x^{e}" for e, c in self.terms.items())
        return f"LaurentPoly({body})"


class ExpPoly(_Immutable):
    """Finite sum of polynomial multiples of exponentials.

    Terms are keyed by rate: {mu: p} represents sum of p(x)*e^(mu*x), each
    part p a ``Poly`` (anything else raises ``TypeError``).
    Rates are pairwise distinct and zero parts are dropped, so equality of
    canonical forms is exact equality of functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        out: dict[GaussianRational, Poly] = {}
        for rate, part in items:
            if not isinstance(part, Poly):
                raise TypeError(f"ExpPoly parts must be Poly, got {type(part).__name__}")
            rate = as_gaussian(rate)
            out[rate] = out[rate] + part if rate in out else part
        object.__setattr__(self, "terms", {rate: part for rate, part in out.items() if not part.is_zero()})

    @classmethod
    def of(cls, rate, part) -> "ExpPoly":
        """Single term part(x)*e^(rate*x)."""
        return cls([(rate, part)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({r: -p for r, p in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other) if isinstance(other, ExpPoly) else NotImplemented

    def __mul__(self, factor) -> "ExpPoly":
        if not isinstance(factor, (Poly, *_SCALARS)):
            return NotImplemented
        return ExpPoly({r: p * factor for r, p in self.terms.items()})

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
