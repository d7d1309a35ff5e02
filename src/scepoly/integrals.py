"""Closed-form antiderivatives of x^n sin x, x^n cos x and x^n e^(mx).

The three closed forms are

    int x^n sin x dx  =  s_n(x) cos x + shat_{n-1}(x) sin x + const
    int x^n cos x dx  =  c_n(x) sin x + chat_{n-1}(x) cos x + const
    int x^n e^(mx) dx =  P(x) e^(mx) + const,   P' + m*P = x^n

Verification is dual-route: ``check_antiderivative`` lifts a closed form
into exponential-polynomial form (sin and cos become combinations of
e^(ix) and e^(-ix)) and differentiates exactly, while ``quad_adaptive`` is
an independent floating-point oracle (adaptive Simpson, Richardson error
estimate) that never touches the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

from .families import antideriv_poly_exp, c_from_s, chat, rodrigues_part, s_explicit, shat
from .poly import ExpPoly, LaurentPoly, Poly
from .rational import I, as_rate, as_rational
from .report import CheckReport

__all__ = [
    "ClosedForm",
    "QuadResult",
    "closed_form",
    "check_antiderivative",
    "s_rodrigues",
    "eval_closed_form",
    "definite_integral",
    "quad_adaptive",
    "integrand_function",
    "antiderivative_recurrence_report",
    "KINDS",
]

KINDS = ("sin", "cos", "exp")


@dataclass(frozen=True)
class ClosedForm:
    """A structured antiderivative of x^n * basis.

    For kind 'sin': cos_part = s_n, sin_part = shat_{n-1}.
    For kind 'cos': sin_part = c_n, cos_part = chat_{n-1}.
    For kind 'exp': exp_part = P with P' + m*P = x^n; m is the rate.
    The integration constant, which differentiates away, is left out.
    """

    kind: str
    n: int
    m: Fraction = Fraction(1)
    cos_part: Optional[Poly] = None
    sin_part: Optional[Poly] = None
    exp_part: Optional[Poly] = None


def closed_form(kind: str, n: int, m=None) -> ClosedForm:
    """Construct the antiderivative of x^n sin x, x^n cos x or x^n e^(mx)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind == "exp":
        m = as_rate(1 if m is None else m)
        return ClosedForm(kind, n, m=m, exp_part=antideriv_poly_exp(n, m))
    if m is not None:
        raise ValueError("rate m applies only to kind 'exp'")
    if kind == "sin":
        return ClosedForm(kind, n, cos_part=s_explicit(n), sin_part=shat(n - 1))
    return ClosedForm(kind, n, sin_part=c_from_s(n), cos_part=chat(n - 1))


# ---------------------------------------------------------------------------
# Exact verification via exponential-polynomial lifting
# ---------------------------------------------------------------------------

_HALF_I = I / 2


def _lift_trig(cos_part: Poly, sin_part: Poly) -> ExpPoly:
    # cos x = (e^(ix) + e^(-ix))/2,  sin x = (e^(ix) - e^(-ix))/(2i)
    half_cos = LaurentPoly.from_poly(cos_part) * Fraction(1, 2)
    half_i_sin = LaurentPoly.from_poly(sin_part) * _HALF_I
    return ExpPoly([(I, half_cos - half_i_sin), (-I, half_cos + half_i_sin)])


def lift_closed_form(cf: ClosedForm) -> ExpPoly:
    """The antiderivative as an exact exponential polynomial."""
    if cf.kind == "exp":
        return ExpPoly.of(cf.m, cf.exp_part)
    return _lift_trig(cf.cos_part, cf.sin_part)


def lift_integrand(kind: str, n: int, m=1) -> ExpPoly:
    """x^n * {sin x | cos x | e^(mx)} as an exact exponential polynomial."""
    xn = Poly.monomial(n)
    if kind == "exp":
        return ExpPoly.of(as_rational(m), xn)
    if kind == "sin":
        return _lift_trig(Poly.zero(), xn)
    if kind == "cos":
        return _lift_trig(xn, Poly.zero())
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def check_antiderivative(cf: ClosedForm) -> bool:
    """True iff d/dx(cf) equals x^n * basis exactly."""
    return lift_closed_form(cf).derivative() == lift_integrand(cf.kind, cf.n, cf.m)


def s_rodrigues(n: int) -> Poly:
    """s_n from the complex-exponential weight-derivative route:

    s_n(x) = (-i^n/2) x^(n+1) [ (-1)^n e^(-ix) d^n/dx^n (x^(-1) e^(ix))
                               + e^(ix)  d^n/dx^n (x^(-1) e^(-ix)) ],

    a combination of the Rodrigues parts at rates i and -i that must be real.
    """
    if n < 0:
        return Poly.zero()
    combo = rodrigues_part(I, n) * ((-1) ** n) + rodrigues_part(-I, n)
    return (combo * (-(I**n) / 2)).to_poly().require_real("s_rodrigues")


def antiderivative_recurrence_report(n_max: int) -> CheckReport:
    """Integration-by-parts recurrences at the antiderivative level.

    Checks, in exact exponential-polynomial form, that each difference below
    is a constant, i.e. that its derivative vanishes:

        S_n - [-x^n cos x + n C_{n-1}]
        C_n - [ x^n sin x - n S_{n-1}]
        S_n - [-x^n cos x + n x^(n-1) sin x - n(n-1) S_{n-2}]
        C_n - [ x^n sin x + n x^(n-1) cos x - n(n-1) C_{n-2}]

    Each S_k, C_k, x^k sin x and x^k cos x is lifted once; S_k = C_k = 0 for k < 0.
    """
    ks = range(n_max + 1)
    S = {k: lift_closed_form(closed_form("sin", k)) for k in ks}
    C = {k: lift_closed_form(closed_form("cos", k)) for k in ks}
    xs = [lift_integrand("sin", k) for k in ks]
    xc = [lift_integrand("cos", k) for k in ks]
    zero = ExpPoly()
    diffs = []
    for n in ks:
        s1, c1, s2, c2 = S.get(n - 1, zero), C.get(n - 1, zero), S.get(n - 2, zero), C.get(n - 2, zero)
        diffs.append((f"S_{n} = -x^{n} cos x + {n} C_{n-1}", S[n] - (-xc[n] + n * c1)))
        diffs.append((f"C_{n} = x^{n} sin x - {n} S_{n-1}", C[n] - (xs[n] - n * s1)))
        if n >= 1:
            nn = n * (n - 1)
            diffs.append((f"S_{n} two-step reduction to S_{n-2}", S[n] - (-xc[n] + n * xs[n - 1] - nn * s2)))
            diffs.append((f"C_{n} two-step reduction to C_{n-2}", C[n] - (xs[n] + n * xc[n - 1] - nn * c2)))
    return CheckReport.of([(label, diff.derivative().is_zero()) for label, diff in diffs])


# ---------------------------------------------------------------------------
# Floating-point evaluation and the quadrature oracle
# ---------------------------------------------------------------------------

def eval_closed_form(cf: ClosedForm, x: float) -> float:
    """Evaluate the antiderivative at a float point (Horner + host sin/cos/exp)."""
    if cf.kind == "exp":
        return cf.exp_part.eval_float(x) * math.exp(float(cf.m) * x)
    return cf.cos_part.eval_float(x) * math.cos(x) + cf.sin_part.eval_float(x) * math.sin(x)


def _eval_mp(cf: ClosedForm, x: float):
    """Closed form at x in extended precision (exact polynomial values)."""
    point = Fraction(x)  # floats are exact binary rationals

    def poly_mp(p: Poly):
        v = p.eval(point).re
        return mpmath.mpf(v.numerator) / v.denominator

    if cf.kind == "exp":
        rate = mpmath.mpf(cf.m.numerator) / cf.m.denominator
        return poly_mp(cf.exp_part) * mpmath.exp(rate * x)
    return poly_mp(cf.cos_part) * mpmath.cos(x) + poly_mp(cf.sin_part) * mpmath.sin(x)


def definite_integral(cf: ClosedForm, a: float, b: float) -> float:
    """Newton-Leibniz on the closed form.

    The endpoint difference is formed in extended precision: the antiderivative
    oscillates with amplitude ~n!, so a double-precision difference would lose
    the short-interval cases to cancellation long before the quadrature oracle
    does.  Polynomial values are exact rationals; only sin/cos/exp are
    approximated, far below double precision, and the result is rounded once.
    """
    with mpmath.workdps(40):
        value = _eval_mp(cf, b) - _eval_mp(cf, a)
        out = float(value)
    if math.isinf(out):
        raise OverflowError("definite integral overflows double precision")
    return out


def integrand_function(kind: str, n: int, m=1) -> Callable[[float], float]:
    """x -> x^n * {sin x | cos x | e^(mx)} in plain floating point."""
    if kind == "sin":
        return lambda x: x**n * math.sin(x)
    if kind == "cos":
        return lambda x: x**n * math.cos(x)
    if kind == "exp":
        mf = float(m)
        return lambda x: x**n * math.exp(mf * x)
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    evaluations: int


def quad_adaptive(
    kind: str,
    n: int,
    m,
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 50,
) -> QuadResult:
    """Adaptive Simpson quadrature of x^n * basis over [a, b].

    Subdivides until the Richardson error estimate of each panel is within
    its share of ``tol``; the returned value includes the Richardson
    correction.  Independent of the closed forms by construction.

    Args:
        kind: one of 'sin', 'cos', 'exp'.
        n: monomial degree, n >= 0.
        m: exponential rate (exp only; ignored otherwise).
        a, b: integration bounds, a <= b.
        tol: absolute error budget for the whole interval.
        max_depth: recursion limit; exceeding it with the budget unmet raises.

    Returns:
        QuadResult with the value, the accumulated error estimate and the
        number of integrand evaluations.
    """
    if a > b:
        raise ValueError("quad_adaptive requires a <= b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    f = integrand_function(kind, n, m)
    evaluations = 0

    def feval(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return f(x)

    def simpson(fa: float, fm: float, fb: float, width: float) -> float:
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        flm = feval(0.5 * (lo + mid))
        frm = feval(0.5 * (mid + hi))
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if abs(err) <= budget:
            return left + right + err, abs(err)
        if depth >= max_depth:
            raise ValueError(
                f"quadrature failed to converge within depth {max_depth} "
                f"on [{lo}, {hi}]"
            )
        lv, le = recurse(lo, mid, flo, flm, fmid, left, budget / 2.0, depth + 1)
        rv, re = recurse(mid, hi, fmid, frm, fhi, right, budget / 2.0, depth + 1)
        return lv + rv, le + re

    fa, fb = feval(a), feval(b)
    mid = 0.5 * (a + b)
    fmid = feval(mid)
    whole = simpson(fa, fmid, fb, b - a)
    value, est = recurse(a, b, fa, fmid, fb, whole, tol, 0)
    return QuadResult(value, est, evaluations)
