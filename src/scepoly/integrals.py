"""Closed-form antiderivatives of x^n sin x, x^n cos x and x^n e^(mx).

The three closed forms are

    int x^n sin x dx  =  s_n(x) cos x + shat_{n-1}(x) sin x + const
    int x^n cos x dx  =  c_n(x) sin x + chat_{n-1}(x) cos x + const
    int x^n e^(mx) dx =  P(x) e^(mx) + const,   P' + m*P = x^n

and each is one term F = Re(part(x) e^(rate x)), a ``ClosedForm`` (rate, part) read with no case per kind.
Verification is dual-route: ``check_antiderivative`` differentiates that term exactly, while ``quad_adaptive``
is an independent floating-point oracle (global adaptive Gauss-Kronrod 7-15 with QUADPACK's error
estimate) that never touches the closed forms.  ``definite_integral`` rounds F(b) - F(a) correctly (Ziv's test)
on raw ``mpmath.libmp`` values, from the integer numerators of the part at each endpoint.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Optional

from mpmath.libmp import dps_to_prec, fone, from_rational, mpf_abs, mpf_add, mpf_cos_sin, mpf_exp
from mpmath.libmp import mpf_mul, mpf_nint, mpf_shift, mpf_sub, round_nearest as _NEAREST, to_float, to_int

from .families import _last, antideriv_poly_exp, c_from_s, chat, rodrigues_sweep, s_explicit, shat
from .poly import ExpPoly, Poly, _eval_numerators
from .rational import I, ZERO, GaussianRational, _Record, as_gaussian, as_rate
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


class ClosedForm(_Record):
    """The antiderivative F = Re(part(x) e^(rate x)) of x^n * basis, less the constant, which differentiates away:
    rate i and part s_n - i shat_{n-1} (sin) or chat_{n-1} - i c_n (cos), or rate m and part P, P' + m*P = x^n (exp).
    """

    __slots__ = ("kind", "n", "rate", "part")


def _minus_i(p: Poly, q: Poly) -> Poly:
    """p - i*q for real p and q, from their numerators with one normalisation."""
    den, size = math.lcm(p.den, q.den), max(p.degree, q.degree) + 1
    re, im = [0] * size, [0] * size
    for out, x, f in ((re, p, den // p.den), (im, q, -den // q.den)):
        for k, c in enumerate(x.re, x.lo):
            out[k] = c * f
    return Poly.from_numerators(re, im, den)


def closed_form(kind: str, n: int, m=None) -> ClosedForm:
    """Construct the antiderivative of x^n sin x, x^n cos x or x^n e^(mx)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind == "exp":
        m = as_rate(1 if m is None else m)
        return ClosedForm(kind, n, as_gaussian(m), antideriv_poly_exp(n, m))
    if m is not None:
        raise ValueError("rate m applies only to kind 'exp'")
    if kind == "sin":
        return ClosedForm(kind, n, I, _minus_i(s_explicit(n), shat(n - 1)))
    return ClosedForm(kind, n, I, _minus_i(chat(n - 1), c_from_s(n)))


# ---------------------------------------------------------------------------
# Exact verification via exponential-polynomial lifting
# ---------------------------------------------------------------------------


def lift_closed_form(cf: ClosedForm) -> ExpPoly:
    """The antiderivative F as an exact exponential polynomial with F = Re(lift)."""
    return ExpPoly.of(cf.rate, cf.part)


def lift_integrand(kind: str, n: int, m=1) -> ExpPoly:
    """x^n * {sin x | cos x | e^(mx)} as the real part of one term: -i x^n e^(ix), x^n e^(ix) or x^n e^(mx)
    (m any Gaussian rational)."""
    if kind == "exp":
        return ExpPoly.of(m, Poly.monomial(n))
    if kind == "sin":
        return ExpPoly.of(I, -Poly.monomial(n, I))
    if kind == "cos":
        return ExpPoly.of(I, Poly.monomial(n))
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def check_antiderivative(cf: ClosedForm) -> bool:
    """True iff d/dx(cf) equals x^n * basis exactly: both are Re(lift), d/dx Re(lift) = Re(d/dx lift)
    for real x, and for a non-real rate mu, Re(h e^(mu x)) = 0 only when the polynomial h is 0."""
    return lift_closed_form(cf).derivative() == lift_integrand(cf.kind, cf.n, cf.rate)


def s_rodrigues_sweep(n_max: int) -> Iterator[Poly]:
    """s_0, s_1, ..., s_{n_max} from the complex-exponential weight-derivative route:

    s_n(x) = (-i^n/2) x^(n+1) [ (-1)^n e^(-ix) d^n/dx^n (x^(-1) e^(ix))
                               + e^(ix)  d^n/dx^n (x^(-1) e^(-ix)) ]
           = -Re(r_n / i^n),   r_n = x^(n+1) e^(-ix) d^n/dx^n (x^(-1) e^(ix)).

    The part at rate -i is the conjugate of r_n, so one ``rodrigues_sweep``
    at rate i gives both halves of the sum.
    """
    for n, part in enumerate(rodrigues_sweep(I, n_max)):
        yield -part.real_over_i_power(n)


def s_rodrigues(n: int) -> Poly:
    """s_n by the weight-derivative route: the last element of ``s_rodrigues_sweep(n)``; zero for n < 0."""
    return _last(s_rodrigues_sweep(n))


def antiderivative_recurrence_report(n_max: int) -> CheckReport:
    """Integration-by-parts recurrences at the antiderivative level.

    Checks, in exact exponential-polynomial form F = Re(lift) (see ``check_antiderivative``),
    that each difference below is a constant, i.e. that its derivative vanishes:

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
_START_PREC, _SLACK_BITS = dps_to_prec(40), 8


def _value_mp(a, b, p: int, q: int, c: tuple[int, int, int], prec: int):
    """F(x) = Re(c e^(rate x)) = e^(ax) (Re c cos bx - Im c sin bx) at x = p/q and rate a + bi, c = (re + im*i)/den,
    and its noise (|Re c cos bx| + |Im c sin bx|) e^(ax) (1 + |ax|), as raw mpf values rounded to nearest at prec (a
    zero a or b is skipped).  A double x and bx are exact (b is 0 or 1), but exp turns ax's absolute error relative."""
    re, im, den = c
    x, value = from_rational(p, q, prec, _NEAREST), from_rational(re, den, prec, _NEAREST)
    size = mpf_abs(value)
    if b:
        cos, sin = mpf_cos_sin(mpf_mul(b, x, prec, _NEAREST), prec, _NEAREST)
        u = mpf_mul(value, cos, prec, _NEAREST)
        v = mpf_mul(from_rational(im, den, prec, _NEAREST), sin, prec, _NEAREST)
        value, size = mpf_sub(u, v, prec, _NEAREST), mpf_add(mpf_abs(u), mpf_abs(v), prec, _NEAREST)
    if a:
        ax = mpf_mul(a, x, prec, _NEAREST)
        scale = mpf_exp(ax, prec, _NEAREST)
        value, size = mpf_mul(value, scale, prec, _NEAREST), mpf_mul(size, scale, prec, _NEAREST)
        size = mpf_mul(size, mpf_add(fone, mpf_abs(ax), prec, _NEAREST), prec, _NEAREST)
    return value, size


def _exact_value(rate: GaussianRational, at) -> Optional[Fraction]:
    """F at [(x, c)], or F(b) - F(a) at [(b, c_b), (a, c_a)], from exact part values c, if rational, else None.
    F is half the sum of c e^(rate x) and its conjugate, rational iff no c is left at e != 0 (Lindemann-Weierstrass)."""
    merged = {0: ZERO}
    for sign, (x, c) in zip((1, -1), at):
        x, c = Fraction(x), sign * c
        for e, v in ((rate * x, c), (rate.conjugate() * x, c.conjugate())):
            merged[e] = merged.get(e, ZERO) + v
    return None if any(c for e, c in merged.items() if e != 0) else merged[0].re / 2


def _rounds_to_zero(cf: ClosedForm, b: float, a: float) -> bool:
    """True if |F(b) - F(a)| <= |b - a| * max(|a|, |b|)^n * G <= 2^-1075, where G = 3^ceil(max(0, g*a, g*b))
    bounds |e^(rate x)| = e^(gx) on [a, b] for g = Re(rate), as e < 3 (G = 1 for sin and cos).
    With b - a = (B - A)/q, q the lcm of the endpoint denominators, and max(|a|, |b|) = p/r, the test is
    |B - A| * p^n * G * 2^1075 <= den in integers, where the shift den is a power-of-two lower bound on
    q * r^n: sound for any rational endpoints, and exact for doubles, whose denominators are powers of 2."""
    (pa, qa), (pb, qb) = a.as_integer_ratio(), b.as_integer_ratio()
    (p, r), q = max(abs(a), abs(b)).as_integer_ratio(), math.lcm(qa, qb)
    A, B = pa * (q // qa), pb * (q // qb)
    num, den = abs(B - A) * p**cf.n << 1075, 1 << (q.bit_length() - 1 + (r.bit_length() - 1) * cf.n)
    if not num or num > den:
        return num <= den
    g, gq = cf.rate.re, cf.rate.re.denominator * q
    k = max(0, -(-g.numerator * A // gq), -(-g.numerator * B // gq))  # ceil(g*x) at both points
    if k >= den.bit_length():  # num * 3^k >= 3^k > 2^k > den; 3^k may be vast
        return False
    return num * 3**k <= den


def _closed_form_float(cf: ClosedForm, points, what: str) -> float:
    """The double nearest F(x) for points [x], or F(b) - F(a) for [b, a].

    Polynomial values are exact integer numerators over one denominator (``_eval_numerators``), one per point;
    the rest runs on raw ``mpmath.libmp`` values, each conversion and step rounded at most once, to nearest at
    precision p, within err = noise * 2^(_SLACK_BITS - p) of total.  Rounding is monotone, so once
    total - err and total + err round to the same double, it is the nearest
    (Ziv's test); otherwise p doubles.  A rational value (0, or a midpoint) may
    never settle, so the first unsettled pass looks for one; it is 0 unless a point is 0.
    A nonzero value far below the smallest double settles only near 2,000 bits, so every
    definite integral ([b, a]) first meets the exact size bound of ``_rounds_to_zero``, and
    one that it decides rounds to 0 is 0.0 before any polynomial value is computed.
    """
    if len(points) == 2 and _rounds_to_zero(cf, *points):
        return 0.0
    at = [(p, q, _eval_numerators(cf.part, p, 0, q)) for p, q in (x.as_integer_ratio() for x in points)]
    prec = _START_PREC
    while True:
        a, b = (r and from_rational(r.numerator, r.denominator, prec, _NEAREST) for r in (cf.rate.re, cf.rate.im))
        (total, noise), *rest = [_value_mp(a, b, p, q, c, prec) for p, q, c in at]
        for value, size in rest:  # F(b) - F(a)
            total, noise = mpf_sub(total, value, prec, _NEAREST), mpf_add(noise, size, prec, _NEAREST)
        err = mpf_shift(noise, _SLACK_BITS - prec)
        bounds = mpf_sub(total, err, prec, _NEAREST), mpf_add(total, err, prec, _NEAREST)
        lo, hi = (to_float(v, rnd=_NEAREST) for v in bounds)
        if lo == hi and abs(hi) <= sys.float_info.min:  # to_float rounds twice there; round to 2^-1074 once
            lo, hi = (math.ldexp(int(to_int(mpf_nint(mpf_shift(v, 1074)))), -1074) for v in bounds)
        if lo == hi:
            break
        if prec == _START_PREC and (lo <= 0 <= hi or 0 in points):
            exact = [(Fraction(p, q), GaussianRational(Fraction(re, d), Fraction(im, d))) for p, q, (re, im, d) in at]
            value = _exact_value(cf.rate, exact)
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


class QuadResult(_Record):
    __slots__ = ("value", "est_error", "evaluations")


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
# The most panels one call may evaluate, the whole interval included: the
# work budget of QUADPACK's subinterval ``limit``.
_MAX_PANELS = 2000


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
) -> QuadResult:
    """Global adaptive Gauss-Kronrod 7-15 quadrature of x^n * basis over [a, b].

    The QUADPACK QAG scheme: keep the panels in a heap and always bisect the
    one with the largest error estimate, until the estimates sum to at most
    ``tol`` or the worst panel's estimate is at its own rounding floor (50
    ulps of the integral of |f| over it), below which bisection cannot help.
    Each panel's estimate is QUADPACK's (see ``_gauss_kronrod``).  A
    bisection that would take the panels evaluated past ``_MAX_PANELS``
    (2000) raises, and so do an interval whose midpoint or width overflows
    and an integrand that overflows.  Independent of the closed forms by construction.

    Args:
        kind: one of 'sin', 'cos', 'exp'.
        n: monomial degree, n >= 0.
        m: exponential rate (exp only; ignored otherwise).
        a, b: integration bounds, a <= b.
        tol: absolute error budget for the whole interval.

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
    if math.isinf(a + b) or math.isinf(b - a):
        raise ValueError(f"quadrature failed: the midpoint or width of [{a}, {b}] overflows double precision")

    try:
        f = integrand_function(kind, n, m)
        value, error, floor = _gauss_kronrod(f, a, b)
        # Entries (-error, lo, hi, value, floor): heapq pops the largest error
        # first.
        heap = [(-error, a, b, value, floor)]
        panels = 1
        # The running sum is recomputed each step: subtracting a bisected panel's
        # large estimate from it would leave rounding residue above tol.
        while math.fsum(-entry[0] for entry in heap) > tol:
            neg_error, lo, hi, _, floor = heap[0]
            if -neg_error <= floor:
                break
            if panels + 2 > _MAX_PANELS:
                raise ValueError(
                    f"quadrature failed to converge within {_MAX_PANELS} panels on [{a}, {b}]"
                )
            heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            for part_lo, part_hi in ((lo, mid), (mid, hi)):
                value, error, floor = _gauss_kronrod(f, part_lo, part_hi)
                heapq.heappush(heap, (-error, part_lo, part_hi, value, floor))
                panels += 1
    except OverflowError:
        raise ValueError(f"quadrature failed: the integrand overflows double precision on [{a}, {b}]") from None
    return QuadResult(
        math.fsum(entry[3] for entry in heap),
        math.fsum(-entry[0] for entry in heap),
        15 * panels,
    )
