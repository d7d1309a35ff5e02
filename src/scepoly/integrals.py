"""Closed-form antiderivatives of x^n sin x, x^n cos x and x^n e^(mx).

The three closed forms are

    int x^n sin x dx  =  s_n(x) cos x + shat_{n-1}(x) sin x + const
    int x^n cos x dx  =  c_n(x) sin x + chat_{n-1}(x) cos x + const
    int x^n e^(mx) dx =  P(x) e^(mx) + const,   P' + m*P = x^n

and each is one term F = Re(part(x) e^(rate x)), a ``ClosedForm`` (rate, part) read with no case per kind.
Verification is dual-route: ``check_antiderivative`` differentiates that term exactly, while ``quad_adaptive``
is an independent floating-point oracle (global adaptive Gauss-Kronrod 7-15 with QUADPACK's error
estimate) that never touches the closed forms.  ``definite_integral`` rounds F(b) - F(a) correctly (Ziv's test)
from the integer numerators of the part at each endpoint, on an integer fixed-point kernel: exp, cos and sin by
Taylor series after reduction by ln 2 and pi/2, an error count in ulps, and one rounding to a double.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .families import _last, antideriv_poly_exp, c_from_s, chat, rodrigues_sweep, s_explicit, shat
from .poly import ExpPoly, Poly, _eval_numerators
from .rational import I, ZERO, GaussianRational, _Record, as_gaussian, as_rate
from .report import CheckReport

__all__ = [
    "ClosedForm",
    "QuadResult",
    "kind_rate",
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


def kind_rate(kind: str, m) -> Fraction | None:
    """The rate m, parsed by ``as_rate`` (1 by default), for kind 'exp'; None for sin and cos, which refuse one."""
    if kind != "exp":
        if m is not None:
            raise ValueError("rate m applies only to kind 'exp'")
        return None
    return as_rate(1 if m is None else m)


def closed_form(kind: str, n: int, m=None) -> ClosedForm:
    """Construct the antiderivative of x^n sin x, x^n cos x or x^n e^(mx)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    m = kind_rate(kind, m)
    if kind == "exp":
        return ClosedForm(kind, n, as_gaussian(m), antideriv_poly_exp(n, m))
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

    Checks that each difference below is a constant, i.e. that its derivative vanishes:

        S_n - [-x^n cos x + n C_{n-1}]
        C_n - [ x^n sin x - n S_{n-1}]
        S_n - [-x^n cos x + n x^(n-1) sin x - n(n-1) S_{n-2}]
        C_n - [ x^n sin x + n x^(n-1) cos x - n(n-1) C_{n-2}]

    Every term is Re(part(x) e^(ix)): S_k and C_k are their closed forms' parts, x^k sin x is -i x^k and x^k cos
    x is x^k; S_k = C_k = 0 for k < 0.  So each difference is Re(h e^(ix)) for one polynomial h, built once, and
    it is constant iff h' + i*h = 0 (``Poly.derivative(I)``), by ``check_antiderivative``'s non-real-rate argument.
    """
    ks = range(n_max + 1)
    S = {k: closed_form("sin", k).part for k in ks}
    C = {k: closed_form("cos", k).part for k in ks}
    xs = [-Poly.monomial(k, I) for k in ks]
    xc = [Poly.monomial(k) for k in ks]
    zero = Poly.zero()
    diffs = []
    for n in ks:
        s1, c1, s2, c2 = S.get(n - 1, zero), C.get(n - 1, zero), S.get(n - 2, zero), C.get(n - 2, zero)
        diffs.append((f"S_{n} = -x^{n} cos x + {n} C_{n-1}", S[n] - (-xc[n] + n * c1)))
        diffs.append((f"C_{n} = x^{n} sin x - {n} S_{n-1}", C[n] - (xs[n] - n * s1)))
        if n >= 1:
            nn = n * (n - 1)
            diffs.append((f"S_{n} two-step reduction to S_{n-2}", S[n] - (-xc[n] + n * xs[n - 1] - nn * s2)))
            diffs.append((f"C_{n} two-step reduction to C_{n-2}", C[n] - (xs[n] + n * xc[n - 1] - nn * c2)))
    return CheckReport.of([(label, diff.derivative(I).is_zero()) for label, diff in diffs])


# ---------------------------------------------------------------------------
# Floating-point evaluation and the quadrature oracle
# ---------------------------------------------------------------------------

# 136 bits, 40 digits, settle every sampled request in the documented domain at the first pass.
_START_PREC = 136


def _odd_series(x: int, sign: int, bits: int) -> tuple[int, int]:
    """(S, e), |S - f(1/x) 2^bits| <= e for f = atanh (sign 1) or atan (sign -1), f(1/x) = sum sign^k / ((2k + 1)
    x^(2k + 1)).  Nested floors of positive ints are one floor, so each term is its own floor, within 1; the tail
    past the first zero power is below 9/8, so e = the next odd index k bounds the term count plus the tail."""
    total, power, k, x2 = 0, (1 << bits) // x, 1, x * x
    while power:
        total += power // k
        power //= x2
        k += 2
        if sign < 0:  # atan's terms alternate: each step takes a pair
            total -= power // k
            power //= x2
            k += 2
    return total, k


def _ln2(bits: int) -> tuple[int, int]:
    """(L, e), |L - ln 2 * 2^bits| <= e, by ln 2 = 2 atanh(1/3)."""
    total, e = _odd_series(3, 1, bits)
    return 2 * total, 2 * e


def _half_pi(bits: int) -> tuple[int, int]:
    """(H, e), |H - pi/2 * 2^bits| <= e, by Machin's formula pi/2 = 8 atan(1/5) - 2 atan(1/239)."""
    (a, ea), (b, eb) = _odd_series(5, -1, bits), _odd_series(239, -1, bits)
    return 8 * a - 2 * b, 8 * ea + 2 * eb


def _reduce(num: int, den: int, const: tuple[int, int], bits: int, prec: int) -> tuple[int, int, int]:
    """(k, r, e): num/den = k c + (r + d)/2^prec with |d| <= e, k the integer nearest num/(den c), for the constant c
    held as (C, eC), |C - c 2^bits| <= eC, bits > prec.  One floor each for num/den and r, and k eC from c."""
    c, ec = const
    k = ((num << (bits + 1)) // (den * c) + 1) >> 1
    shift = bits - prec
    return k, ((num << bits) // den - k * c) >> shift, ((1 + abs(k) * ec) >> shift) + 2


def _odd_taylor(t: int, sign: int, prec: int) -> tuple[int, int]:
    """(S, e), |S - f(t/2^prec) 2^prec| <= e for f = sinh (sign 1) or sin (sign -1) and |t| <= 2^prec: Taylor in ints
    on the exact square t^2.  Each term is one floor of the last times t^2/(k(k - 1)): the floor adds 1 and the last
    term's error comes in at most a sixth, so each is within 2; the ratio of terms is then below 1/2, and the first
    zero term bounds the tail by 2 more.  The series runs on |t|, so that floors of sinh's terms reach 0, not -1."""
    total = term = abs(t)
    t2, k = sign * term * term, 1
    while term:
        k += 2
        term = term * t2 // ((k - 1) * k << 2 * prec)
        total += term
    return total if t >= 0 else -total, k + 1


def _enclosure(rate: GaussianRational, at, prec: int) -> tuple[int, int, int, int]:
    """(N, E, D, s) with F(x), or F(b) - F(a), strictly between (N - E) 2^s / D and (N + E) 2^s / D, or equal to
    N 2^s / D if E = 0, for at = [(p, q, c)] or [(p_b, q_b, c_b), (p_a, q_a, c_a)], x = p/q and c = (re + im*i)/den
    the part's value there.

    F(x) = e^(gx) (re cos hx - im sin hx) / den for the rate g + hi.  gx = k ln 2 + r and hx = m pi/2 + t, with
    |r| <= ln 2/2 and |t| <= pi/4, each constant computed once, at enough bits past prec to take k or m times its
    error.  sinh r and sin t are Taylor series at prec bits (``_odd_taylor``), with an error count in ulps;
    cosh r and cos t are their integer square roots, e^r = sinh r + cosh r, and m % 4 picks the quadrant.  Each
    endpoint is then V 2^(k - 2 prec) / den within W in the same units, all ints; at x = 0 it is exact.  An
    endpoint below one unit of the other is bounded by that unit, not shifted into line with it, and if its sign
    is known the value lies on that side of the other: F(0) at a midpoint between doubles plus a term far below
    it rounds toward that term.
    """
    (gn, gd), (hn, hd) = rate.re.as_integer_ratio(), rate.im.as_integer_ratio()
    # |gx|, |hx| < 2^size, so |k|, |m| < 2^(size + 1), and 12 more bits absorb their products with a constant's error
    size = max(p.bit_length() - q.bit_length() for p, q, _ in at) + max(
        gn.bit_length() - gd.bit_length(), hn.bit_length() - hd.bit_length()) + 2
    bits = prec + max(size, 0) + 12
    ln2, half_pi = gn and _ln2(bits), hn and _half_pi(bits)
    terms = []
    for sign, (p, q, (re, im, den)) in zip((1, -1), at):
        k, exp, e_exp = 0, 1 << prec, 0
        if gn and p:
            k, r, e_r = _reduce(gn * p, gd * q, ln2, bits, prec)
            sinh, e_sinh = _odd_taylor(r, 1, prec)
            exp = sinh + math.isqrt((1 << 2 * prec) + sinh * sinh)  # cosh r within e_sinh + 1, as |tanh r| < 1
            e_exp = 2 * e_sinh + 1 + 2 * e_r  # |d/dr e^r| < 2
        cos, sin, e_trig = 1 << prec, 0, 0
        if hn and p:
            m, t, e_t = _reduce(hn * p, hd * q, half_pi, bits, prec)
            sin, e_sin = _odd_taylor(t, -1, prec)
            cos = math.isqrt((1 << 2 * prec) - sin * sin)  # cos t within 2 e_sin + 1, as |tan t| < 2
            e_trig = 2 * e_sin + 1 + e_t  # |d/dt cos t|, |d/dt sin t| <= 1
            for _ in range(m % 4):  # cos(t + pi/2) = -sin t, sin(t + pi/2) = cos t
                cos, sin = -sin, cos
        mix = re * cos - im * sin
        e_mix = (abs(re) + abs(im)) * e_trig
        if mix or e_mix:
            terms.append((sign * exp * mix, exp * e_mix + e_exp * (abs(mix) + e_mix), k - 2 * prec, den))
    if not terms:
        return 0, 0, 1, 0
    (v, w, s, d), *rest = sorted(terms, key=lambda term: term[2], reverse=True)
    for v1, w1, s1, d1 in rest:
        shift = s - s1
        if shift < (abs(v1) + w1).bit_length() + d.bit_length():
            v, w, s, d = (v << shift) * d1 + v1 * d, (w << shift) * d1 + w1 * d, s1, d * d1
        elif abs(v1) > w1:  # 0 < |term| < 2^(s - bit_length(d)) < 2^s / d, of known sign: half a unit that way
            return 2 * v + (1 if v1 > 0 else -1), 2 * w + 1, 2 * d, s
        else:
            return v, w + 1, d, s
    return v, w + (w > 0), d, s  # one more unit makes a bound of w strict


def _nearest(num: int, den: int, s: int, toward: int = 0) -> float:
    """The double nearest num 2^s / den, den > 0, ties to even, subnormals included, by one true division of ints;
    +-inf from 2^1024 - 2^970 up.  A value sure to be below 2^-1076, or above 2^1025, is decided by its bit size
    alone, never built: the one rule for the integrals too small or too large for a double.  With
    toward = 1 (-1), the double nearest every value just above (below) it, the open end of an interval: the value
    moves by 2^(s - j) / den, below its distance to any rounding boundary, m 2^t with t >= -1075, but its own."""
    top = num.bit_length() - den.bit_length() + s  # 2^(top - 1) <= |num 2^s / den| < 2^(top + 1)
    if top < -1076:
        return 0.0
    if top <= 1025:
        if toward:
            j = max(1, s + 1076)
            num, s = (num << j) + toward, s - j
        try:
            return (num << s) / den if s >= 0 else num / (den << -s)
        except OverflowError:
            pass
    return math.inf if num > 0 else -math.inf


def _exact_value(rate: GaussianRational, at) -> Optional[Fraction]:
    """F at [(x, c)], or F(b) - F(a) at [(b, c_b), (a, c_a)], from exact part values c, if rational, else None.
    F is half the sum of c e^(rate x) and its conjugate, rational iff no c is left at e != 0 (Lindemann-Weierstrass)."""
    merged = {0: ZERO}
    for sign, (x, c) in zip((1, -1), at):
        x, c = Fraction(x), sign * c
        for e, v in ((rate * x, c), (rate.conjugate() * x, c.conjugate())):
            merged[e] = merged.get(e, ZERO) + v
    return None if any(c for e, c in merged.items() if e != 0) else merged[0].re / 2


def _closed_form_float(cf: ClosedForm, points, what: str) -> float:
    """The double nearest F(x) for points [x], or F(b) - F(a) for [b, a].

    Polynomial values are exact integer numerators over one denominator (``_eval_numerators``), one per point;
    the rest is the integer kernel of ``_enclosure``, which brackets the value between (N - E) 2^s / D and
    (N + E) 2^s / D at a working precision of p bits, and ``_nearest`` rounds each end once, as the values
    just inside it.  Rounding is monotone, so once the two ends round to the same double, it is the nearest
    (Ziv's test); otherwise p doubles.  A rational value (0, or a midpoint) may never settle, so the first
    unsettled pass looks for one, as for an empty or a symmetric interval; it is 0 unless a point is 0.  Values
    far out of the double range need no screen: e^(gx) is the shift 2^k, so ``_nearest`` decides a huge one by
    its size, unbuilt, and a tiny one once the bracket is below 2^-1076 (2,176 bits for x^64 sin x near 1e-300).
    """
    at = [(p, q, _eval_numerators(cf.part, p, 0, q)) for p, q in (x.as_integer_ratio() for x in points)]
    prec = _START_PREC
    while True:
        num, err, den, s = _enclosure(cf.rate, at, prec)
        lo, hi = _nearest(num - err, den, s, err and 1), _nearest(num + err, den, s, err and -1)
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
    if not a <= b:  # a NaN bound compares false too
        raise ValueError(f"quad_adaptive requires a <= b, got a={a}, b={b}")
    if not tol > 0:
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
