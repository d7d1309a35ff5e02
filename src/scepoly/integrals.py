"""Closed-form antiderivatives of x^n sin x, x^n cos x and x^n e^(mx).

The three closed forms are

    int x^n sin x dx  =  s_n(x) cos x + shat_{n-1}(x) sin x + const
    int x^n cos x dx  =  c_n(x) sin x + chat_{n-1}(x) cos x + const
    int x^n e^(mx) dx =  P(x) e^(mx) + const,   P' + m*P = x^n

Verification is dual-route: ``check_antiderivative`` lifts a closed form
into exponential-polynomial form (sin and cos become combinations of
e^(ix) and e^(-ix)) and differentiates exactly, while ``quad_adaptive`` is
an independent floating-point oracle (global adaptive Gauss-Kronrod 7-15
with QUADPACK's error estimate) that never touches the closed forms.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import mpmath

from .families import _last, antideriv_poly_exp, c_from_s, chat, rodrigues_sweep, s_explicit, shat
from .poly import ExpPoly, LaurentPoly, Poly
from .rational import I, ZERO, as_rate, as_rational
from .report import CheckReport

__all__ = [
    "ClosedForm",
    "QuadResult",
    "closed_form",
    "check_antiderivative",
    "s_rodrigues",
    "s_rodrigues_sweep",
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


def s_rodrigues_sweep(n_max: int) -> Iterator[Poly]:
    """s_0, s_1, ..., s_{n_max} from the complex-exponential weight-derivative route:

    s_n(x) = (-i^n/2) x^(n+1) [ (-1)^n e^(-ix) d^n/dx^n (x^(-1) e^(ix))
                               + e^(ix)  d^n/dx^n (x^(-1) e^(-ix)) ],

    a combination of the Rodrigues parts at rates i and -i that must be real,
    taken from one ``rodrigues_sweep`` at each rate.
    """
    for n, (plus, minus) in enumerate(zip(rodrigues_sweep(I, n_max), rodrigues_sweep(-I, n_max))):
        combo = plus * ((-1) ** n) + minus
        yield (combo * (-(I**n) / 2)).to_poly().require_real("s_rodrigues")


def s_rodrigues(n: int) -> Poly:
    """s_n by the weight-derivative route: the last element of ``s_rodrigues_sweep(n)``; zero for n < 0."""
    return _last(s_rodrigues_sweep(n), Poly.zero())


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

# 40 digits settle every sampled request in the documented domain; 8 bits of slack cover one value's roundings.
_START_PREC, _SLACK_BITS = mpmath.libmp.dps_to_prec(40), 8
# Half the least subnormal: a value no larger in magnitude rounds to 0.
_HALF_TINIEST = Fraction(1, 2**1075)


def _mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _value_mp(cf: ClosedForm, x: float, values: list[Fraction]):
    """F(x) from the exact values of its polynomial parts, and the size of its noise
    (x is exact, but exp turns the absolute error of the rounded m*x into relative error)."""
    if cf.kind == "exp":
        exponent = _mpq(cf.m) * x
        term = _mpq(values[0]) * mpmath.exp(exponent)
        return term, abs(term) * (1 + abs(exponent))
    c, s = _mpq(values[0]) * mpmath.cos(x), _mpq(values[1]) * mpmath.sin(x)
    return c + s, abs(c) + abs(s)


def _exact_value(cf: ClosedForm, points) -> Optional[Fraction]:
    """The value if rational, else None.  By Lindemann-Weierstrass a sum of c*e^(rate*x) over Gaussian
    rationals is rational iff every c at a nonzero exponent is 0 once equal exponents are merged."""
    merged = {0: ZERO}
    for rate, part in lift_closed_form(cf).terms.items():
        for sign, x in zip((1, -1), map(Fraction, points)):
            merged[rate * x] = merged.get(rate * x, ZERO) + sign * part.to_poly().eval(x)
    return None if any(c for e, c in merged.items() if e != 0) else merged[0].re


def _rounds_to_zero(cf: ClosedForm, b: float, a: float) -> bool:
    """True if |F(b) - F(a)| <= |b - a| * max(|a|, |b|)^n * G <= 2^-1075, where G bounds the
    basis on [a, b]: 1 for sin and cos, 3^ceil(max(0, m*a, m*b)) for e^(mx), as e < 3."""
    a, b = Fraction(a), Fraction(b)
    bound = abs(b - a) * max(abs(a), abs(b)) ** cf.n
    if cf.kind == "exp" and 0 < bound <= _HALF_TINIEST:
        k = math.ceil(max(0, cf.m * a, cf.m * b))
        if k >= (_HALF_TINIEST // bound).bit_length():  # 3^k > 2^k > 2^-1075/bound; 3^k may be vast
            return False
        bound *= 3**k
    return bound <= _HALF_TINIEST


def _closed_form_float(cf: ClosedForm, points, what: str) -> float:
    """The double nearest F(x) for points [x], or F(b) - F(a) for [b, a].

    Polynomial values are exact; the rest is rounded at precision p, within
    err = noise * 2^(_SLACK_BITS - p) of total.  Rounding is monotone, so once
    total - err and total + err round to the same double, it is the nearest
    (Ziv's test); otherwise p doubles.  A rational value (0, or a midpoint) may
    never settle, so the first unsettled pass looks for one; it is 0 unless a point is 0.
    A nonzero value far below the smallest double settles only near 2,000 bits, so that
    pass first returns 0.0 for an integral whose size bound rounds to 0.
    """
    parts = (cf.exp_part,) if cf.kind == "exp" else (cf.cos_part, cf.sin_part)
    exact = [(x, [p.eval(Fraction(x)).re for p in parts]) for x in points]
    prec = _START_PREC
    while True:
        with mpmath.workprec(prec):
            at = [_value_mp(cf, x, values) for x, values in exact]
            total, noise = (at[0][0] - at[1][0], at[0][1] + at[1][1]) if len(at) == 2 else at[0]
            err = mpmath.ldexp(noise, _SLACK_BITS - prec)
            lo, hi = float(total - err), float(total + err)
            if lo == hi and abs(hi) <= sys.float_info.min:  # float() rounds twice there; round to 2^-1074 once
                lo, hi = (math.ldexp(int(mpmath.nint(v * 2**1074)), -1074) for v in (total - err, total + err))
        if lo == hi:
            break
        if prec == _START_PREC:
            if len(points) == 2 and _rounds_to_zero(cf, *points):
                hi = 0.0
                break
            value = _exact_value(cf, points) if lo <= 0 <= hi or 0 in points else None
            if value is not None:  # 2^1024 - 2^970 is the least value that rounds to 2^1024
                hi = float(value) if abs(value) < 2**1024 - 2**970 else math.inf
                break
        prec *= 2
    if math.isinf(hi):
        raise OverflowError(f"{what} overflows double precision")
    return hi if hi else 0.0  # a zero of either sign is 0.0


def eval_closed_form(cf: ClosedForm, x: float) -> float:
    """The antiderivative at a float point, correctly rounded (see ``definite_integral``)."""
    return _closed_form_float(cf, [x], "closed form value")


def definite_integral(cf: ClosedForm, a: float, b: float) -> float:
    """Newton-Leibniz on the closed form, F(b) - F(a), correctly rounded by
    ``_closed_form_float``: a double-precision difference of an antiderivative of
    amplitude ~n! would lose short intervals to cancellation."""
    return _closed_form_float(cf, [b, a], "definite integral")


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


# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK qk15): (node, Kronrod weight,
# Gauss weight) by decreasing node; every second node is a Gauss node, and
# the others carry Gauss weight 0.  The centre is both.
_GK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK15_CENTRE = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
# QUADPACK's rounding floor: no panel claims an error below 50 ulps of the
# integral of |f| over it.
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon


def _gauss_kronrod(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """(Kronrod value, error estimate, rounding floor) of f on [lo, hi].

    The estimate is QUADPACK's, resasc * min(1, (200 |K - G| / resasc)^1.5),
    where resasc approximates the integral of |f - mean f|; it is floored at
    50 ulps of the integral of |f|.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    wk_centre, wg_centre = _GK15_CENTRE
    kronrod, gauss, resabs = wk_centre * fc, wg_centre * fc, wk_centre * abs(fc)
    pairs = []
    for node, wk, wg in _GK15:
        f1, f2 = f(centre - half * node), f(centre + half * node)
        pairs.append((f1, f2))
        kronrod += wk * (f1 + f2)
        gauss += wg * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
    mean = 0.5 * kronrod
    resasc = wk_centre * abs(fc - mean)
    for (_, wk, _), (f1, f2) in zip(_GK15, pairs):
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    error = abs((kronrod - gauss) * half)
    resasc *= half
    if resasc and error:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    floor = _ROUNDING_FLOOR * resabs * half
    return kronrod * half, max(error, floor), floor


def quad_adaptive(
    kind: str,
    n: int,
    m,
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 50,
) -> QuadResult:
    """Global adaptive Gauss-Kronrod 7-15 quadrature of x^n * basis over [a, b].

    The QUADPACK QAG scheme: keep the panels in a heap and always bisect the
    one with the largest error estimate, until the estimates sum to at most
    ``tol`` or the worst panel's estimate is at its own rounding floor (50
    ulps of the integral of |f| over it), below which bisection cannot help.
    Each panel's estimate is QUADPACK's (see ``_gauss_kronrod``).
    Independent of the closed forms by construction.

    Args:
        kind: one of 'sin', 'cos', 'exp'.
        n: monomial degree, n >= 0.
        m: exponential rate (exp only; ignored otherwise).
        a, b: integration bounds, a <= b.
        tol: absolute error budget for the whole interval.
        max_depth: the deepest a panel may be bisected (the whole interval is
            depth 0); needing to bisect a panel at this depth raises.

    Returns:
        QuadResult with the value, the summed error estimate and the number of
        integrand evaluations (15 per panel).
    """
    if a > b:
        raise ValueError("quad_adaptive requires a <= b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    f = integrand_function(kind, n, m)
    value, error, floor = _gauss_kronrod(f, a, b)
    # Entries (-error, lo, hi, value, floor, depth): heapq pops the largest
    # error first.
    heap = [(-error, a, b, value, floor, 0)]
    panels = 1
    # The running sum is recomputed each step: subtracting a bisected panel's
    # large estimate from it would leave rounding residue above tol.
    while math.fsum(-entry[0] for entry in heap) > tol:
        neg_error, lo, hi, _, floor, depth = heap[0]
        if -neg_error <= floor:
            break
        if depth >= max_depth:
            raise ValueError(
                f"quadrature failed to converge within depth {max_depth} "
                f"on [{lo}, {hi}]"
            )
        heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for part_lo, part_hi in ((lo, mid), (mid, hi)):
            value, error, floor = _gauss_kronrod(f, part_lo, part_hi)
            heapq.heappush(heap, (-error, part_lo, part_hi, value, floor, depth + 1))
            panels += 1
    return QuadResult(
        math.fsum(entry[3] for entry in heap),
        math.fsum(-entry[0] for entry in heap),
        15 * panels,
    )
