"""Truncated formal power series in t with exact polynomial coefficients in x.

Carries the four generating functions, each e^(mxt) divided exactly by 1 + t^k (k = 1 or 2), one row recurrence
q_n = a_n - q_(n-k) of Poly subtractions (``_over_one_plus_t_power``):

    E(x,t)      = e^(xt)  / (1+t)      coefficients e_n / n!
    E_m(x,t)    = e^(mxt) / (1+t)      coefficients e_n^(m) / n!
    S(x,t)      = -e^(xt) / (1+t^2)    coefficients s_n / n!
    C(x,t)      =  e^(xt) / (1+t^2)    coefficients c_n / n!

plus the weight-function machinery for hypergeometric equations
A(x)y'' + B(x)y' + lambda*y = 0 with linear A = alpha*x + beta and
B = gamma*x + delta(n), delta(n) = delta0 + delta1*n.  The n-shifted weight
A^n * rho has exponent n + (-beta*gamma + alpha*(delta - alpha))/alpha^2;
when that is independent of n (iff delta1 = -alpha) the classical
generating-function formula breaks down and the degenerate closed form

    F(x,t) = (1 + alpha*t)^K * exp((gamma/alpha)(alpha*x + beta) * t)

applies, K being the constant shifted-weight exponent.  ``degenerate_genfunc``
builds its rows by the first-order t-recurrence that F's log-derivative gives; for the e_n equation it
reproduces the division E above, exactly, and the theorem2 suite compares the two routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import _SCALARS, Poly, _raw
from .rational import I, _Immutable, _Record, as_rate, as_rational
from .report import CheckReport

__all__ = [
    "FormalSeries",
    "LinearHGSpec",
    "WeightForm",
    "series_exp_xt",
    "series_E",
    "series_Em",
    "series_S",
    "series_C",
    "series_connection_check",
    "rho_linear",
    "sigma_linear",
    "nu_degeneracy_check",
    "degenerate_genfunc",
    "E_SPEC",
    "em_spec",
    "laguerre_spec",
]


class FormalSeries(_Immutable):
    """Power series in t truncated at a fixed order, Poly coefficients in x.

    Arithmetic never consults coefficients beyond the truncation order, and
    mixing different orders is an error rather than a silent re-truncation.
    The product of two series is the plain Cauchy product, row n the sum of a_i*b_(n-i); it serves library
    callers only, since the four series below are divisions and ``degenerate_genfunc`` a recurrence.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(c if isinstance(c, Poly) else Poly.constant(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")

    @classmethod
    def zero(cls, order: int) -> "FormalSeries":
        return cls([Poly.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "FormalSeries":
        return cls([Poly.one()] + [Poly.zero()] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Poly:
        """The coefficient of t^k: zero below t^0, IndexError past the order."""
        return self.coeffs[k] if k >= 0 else Poly.zero()

    def _check_order(self, other: "FormalSeries"):
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check_order(other)
        return FormalSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(-c for c in self.coeffs)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other) if isinstance(other, FormalSeries) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            if not isinstance(other, (Poly, *_SCALARS)):
                return NotImplemented
            return FormalSeries(c * other for c in self.coeffs)
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        return FormalSeries(sum((a[i] * b[n - i] for i in range(n + 1)), Poly.zero()) for n in range(len(a)))

    __rmul__ = __mul__

    def diff_x(self) -> "FormalSeries":
        """Differentiate every coefficient with respect to x."""
        return FormalSeries(c.derivative() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"FormalSeries(order={self.order})"


# ---------------------------------------------------------------------------
# The concrete generating functions
# ---------------------------------------------------------------------------

def series_exp_xt(scale, order: int) -> FormalSeries:
    """exp(scale * x * t): coefficient of t^k is (scale*x)^k / k!, built as p^k over q^k * k!."""
    p, q = as_rational(scale).as_integer_ratio()
    coeffs, num, den, zero = [], 1, 1, Poly.zero()
    for k in range(order + 1):
        g = gcd(num, den)
        coeffs.append(_raw(Poly, k, (num // g,), (), den // g) if num else zero)
        num, den = num * p, den * q * (k + 1)
    return FormalSeries(coeffs)


def _over_one_plus_t_power(series: FormalSeries, k: int) -> FormalSeries:
    """series/(1+t^k) by long division: row n is a_n - q_(n-k), 1/(1+t^k) never formed."""
    q = list(series.coeffs)
    for n in range(k, len(q)):
        q[n] -= q[n - k]
    return FormalSeries(q)


def series_Em(m, order: int) -> FormalSeries:
    """e^(mxt)/(1+t); n!*[t^n] is e_n^(m)."""
    return _over_one_plus_t_power(series_exp_xt(as_rate(m), order), 1)


def series_E(order: int) -> FormalSeries:
    """e^(xt)/(1+t), E_m at m = 1; n!*[t^n] is e_n."""
    return series_Em(1, order)


def series_C(order: int) -> FormalSeries:
    """e^(xt)/(1+t^2); n!*[t^n] is c_n."""
    return _over_one_plus_t_power(series_exp_xt(1, order), 2)


def series_S(order: int) -> FormalSeries:
    """-e^(xt)/(1+t^2) = -C; n!*[t^n] is s_n, divided from the negated monomial rows of e^(xt)."""
    return _over_one_plus_t_power(-series_exp_xt(1, order), 2)


def series_connection_check(order: int) -> CheckReport:
    """Verify -2S(x,t) = 2C(x,t) = E(ix,-it) + E(-ix,it) coefficientwise.

    Substituting (ix, -it) maps the t^n coefficient p_n(x) of E to p_n(ix)/i^n,
    and (-ix, it) to its conjugate (p_n is real), so the identity halves to
    c = Re(p_n(ix)/i^n) at each t^n, with c the coefficient of C.  S = -C by
    definition (``series_S``), so its half of the identity needs no check.
    """
    e, c = series_E(order), series_C(order)
    entries = []
    for n in range(order + 1):
        ok = e.coeff(n).scale_arg(I).real_over_i_power(n) == c.coeff(n)
        entries.append((f"connection identity at t^{n}", ok))
    return CheckReport.of(entries)


# ---------------------------------------------------------------------------
# Linear hypergeometric equations and their weight functions
# ---------------------------------------------------------------------------

class LinearHGSpec(_Record):
    """A(x) = alpha*x + beta, B(x) = gamma*x + delta0 + delta1*n, each coefficient a Fraction.

    The index n enters only through the constant term of B; every family in
    scope fits that shape.  alpha must be nonzero.
    """

    __slots__ = ("alpha", "beta", "gamma", "delta0", "delta1")

    def __init__(self, alpha, beta, gamma, delta0, delta1):
        super().__init__(*map(as_rational, (alpha, beta, gamma, delta0, delta1)))
        if self.alpha == 0:
            raise ValueError("leading coefficient alpha must be nonzero")

    def delta(self, n: int) -> Fraction:
        return self.delta0 + self.delta1 * n

    def lambda_n(self, n: int) -> Fraction:
        """Eigenvalue making the degree-n solution polynomial: -n*B' (A'' = 0 here)."""
        return -n * self.gamma

    def residual(self, y: Poly, n: int) -> Poly:
        """A*y'' + B_n*y' + lambda_n*y, which is zero iff y solves the degree-n equation.

        One pass over y's numerators c_j (of x^j), real and imaginary alike: with alpha, beta,
        gamma, delta_n and lambda_n as a, b, g, d, lam over one denominator D, the numerator of
        x^j is (g*j + lam)*c_j + (j+1)*(a*j + d)*c_(j+1) + b*(j+2)*(j+1)*c_(j+2), over y.den*D.
        """
        values = (self.alpha, self.beta, self.gamma, self.delta(n), self.lambda_n(n))
        D = lcm(*(v.denominator for v in values))
        a, b, g, d, lam = (v.numerator * (D // v.denominator) for v in values)

        def numerators(c):
            c = (0,) * y.lo + c + (0, 0)
            return [(g * j + lam) * c0 + (j + 1) * ((a * j + d) * c1 + b * (j + 2) * c2)
                    for j, (c0, c1, c2) in enumerate(zip(c, c[1:], c[2:]))]

        return Poly.from_numerators(numerators(y.re), numerators(y.im) if y.im else (), y.den * D)


def em_spec(m) -> LinearHGSpec:
    """The equation x*y'' + (mx - n)*y' - mn*y = 0 of the rate-m family."""
    return LinearHGSpec(1, 0, as_rate(m), 0, -1)


E_SPEC = em_spec(1)


def laguerre_spec(alpha_l) -> LinearHGSpec:
    """The associated Laguerre equation x*y'' + (alpha_l + 1 - x)*y' + n*y = 0."""
    return LinearHGSpec(1, 0, -1, as_rational(alpha_l) + 1, 0)


class WeightForm(_Record):
    """(alpha*x + beta)^exponent * e^(rate*x), kept symbolic, each field a Fraction."""

    __slots__ = ("alpha", "beta", "exponent", "rate")


def rho_linear(spec: LinearHGSpec, n: int) -> WeightForm:
    """Weight of the self-adjoint form, (A*rho)' = B*rho, for linear A and B.

    rho = (alpha*x+beta)^((-beta*gamma + alpha*(delta-alpha))/alpha^2)
          * exp((gamma/alpha) x).
    """
    a, b, g = spec.alpha, spec.beta, spec.gamma
    exponent = (-b * g + a * (spec.delta(n) - a)) / a**2
    return WeightForm(a, b, exponent, g / a)


def sigma_linear(spec: LinearHGSpec, n: int) -> WeightForm:
    """The n-shifted weight A^n * rho; exponent grows by n."""
    rho = rho_linear(spec, n)
    return WeightForm(rho.alpha, rho.beta, n + rho.exponent, rho.rate)


def nu_degeneracy_check(spec: LinearHGSpec) -> bool:
    """True iff the shifted-weight exponent is independent of n.

    n + (-beta*gamma + alpha*(delta0 + delta1*n - alpha))/alpha^2 is constant
    in n exactly when delta1 = -alpha.  In that degenerate case the classical
    Nikiforov-Uvarov generating-function formula is inapplicable and the
    closed form of ``degenerate_genfunc`` applies instead.
    """
    return spec.delta1 == -spec.alpha


def degenerate_genfunc(spec: LinearHGSpec, order: int) -> FormalSeries:
    """Generating function sigma(xi)/sigma(x) with xi = x + A(x)*t.

    Only valid in the degenerate case.  With sigma = (alpha*x+beta)^K
    * e^((gamma/alpha) x) and K constant, substituting xi collapses to

        F = (1 + alpha*t)^K * exp(g*t),   g = (gamma/alpha)(alpha*x + beta),

    which is hyperexponential: (1 + alpha*t) dF/dt = (alpha*K + g + alpha*g*t) F.
    Its coefficients therefore follow from f_0 = 1 by the first-order recurrence

        (n+1) f_(n+1) = (g + alpha*(K - n)) f_n + alpha*g f_(n-1),

    and no series product.  Each row is one pass over the numerators of the two before it, as in
    ``LinearHGSpec.residual``: with g = g0 + gamma*x, and g0 + alpha*K, alpha, gamma, alpha*g0 and
    alpha*gamma as u, a, c, w0, w1 over one denominator D, the numerator of x^j in f_(n+1) is
    (u - a*n)*f_n[j] + c*f_n[j-1] + w0*f_(n-1)[j] + w1*f_(n-1)[j-1], over the rows' common
    denominator times D*(n+1).
    """
    if not nu_degeneracy_check(spec):
        raise ValueError(
            "generating-function closed form requires an n-independent "
            "shifted weight (delta1 = -alpha)"
        )
    alpha, gamma, k_exp = spec.alpha, spec.gamma, sigma_linear(spec, 0).exponent
    g0 = gamma * spec.beta / alpha
    values = (g0 + alpha * k_exp, alpha, gamma, alpha * g0, alpha * gamma)
    D = lcm(*(v.denominator for v in values))
    u, a, c, w0, w1 = (v.numerator * (D // v.denominator) for v in values)

    def padded(p: Poly, den: int, size: int) -> list[int]:
        scale = den // p.den
        return [0] * p.lo + [v * scale for v in p.re] + [0] * (size - p.lo - len(p.re))

    f = [Poly.zero(), Poly.one()]  # f_(-1), f_0
    for n in range(order):
        den = lcm(f[-1].den, f[-2].den)
        last, older = padded(f[-1], den, n + 2), padded(f[-2], den, n + 2)
        u_n = u - a * n
        f.append(Poly.from_numerators(
            [u_n * l0 + c * l1 + w0 * o0 + w1 * o1 for l0, l1, o0, o1 in zip(last, [0, *last], older, [0, *older])],
            (), den * D * (n + 1)))
    return FormalSeries(f[1 : order + 2])
