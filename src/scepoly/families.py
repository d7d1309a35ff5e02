"""The five polynomial families behind the x^n * {sin, cos, exp} antiderivatives.

Each family is built by every route available, and the routes are exposed
separately so they can be cross-checked exactly:

* ``e_explicit``    e_n(x) = x^n + sum_{l<n} (-1)^(l+n) (n!/l!) x^l
* ``e_recurrence``  e_n = x^n - n*e_{n-1}
* ``e_rodrigues``   e_n = x^(n+1) e^(-x) d^n/dx^n (x^(-1) e^x)
* ``e_laguerre``    e_n = n! * L_n^(-n-1)(-x)

together with the generalized-rate family e_n^(m) (explicit + Rodrigues),
the sine/cosine families s_n, c_n and their hatted companions, and the
recurrence groups linking all of them.  All Rodrigues routes (e, e^(m) and
s) share one derivative, ``rodrigues_sweep``.

The iterated routes are sweeps that yield indices 0..n_max, each iterate
from the one before; the per-n function is the last element of its sweep,
so each route has one implementation.

Index convention: every constructor accepts any integer index and returns
the zero polynomial for a negative one, which is exactly the convention the
recurrence groups need at their low ends; a sweep to a negative n_max
yields nothing.

Normalization note for the rate-m family: e_n^(m) satisfies
(e_n^(m))' + m*e_n^(m) = m^(n+1) * x^n, so e_n^(m) itself is *not* the
antiderivative polynomial for x^n e^(mx) unless m = 1.  The polynomial that
is, e_n^(m)/m^(n+1), is exposed as ``antideriv_poly_exp``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator

from .poly import LaurentPoly, Poly, _derivative, _int_parts, _make, _raw
from .rational import I, as_rate, as_rational
from .report import CheckReport

__all__ = [
    "e_explicit",
    "e_recurrence",
    "e_recurrence_sweep",
    "rodrigues_part",
    "rodrigues_sweep",
    "e_rodrigues",
    "e_laguerre",
    "laguerre_general",
    "em_explicit",
    "em_rodrigues",
    "antideriv_poly_exp",
    "s_explicit",
    "s_from_e",
    "c_from_s",
    "c_from_e",
    "shat",
    "chat",
    "family_poly",
    "check_relation_group",
    "RELATION_GROUPS",
]


# ---------------------------------------------------------------------------
# The e family, four ways
# ---------------------------------------------------------------------------

def e_explicit(n: int) -> Poly:
    """e_n(x) = x^n + sum_{l=0}^{n-1} (-1)^(l+n) (n!/l!) x^l; zero for n < 0."""
    if n < 0:
        return Poly.zero()
    coeffs, c = [0] * (n + 1), 1  # (-1)^(l+n) n!/l!, a running product from l = n down
    for l in range(n, -1, -1):
        coeffs[l] = c
        c *= -l
    return Poly.from_numerators(coeffs)


def _last(sweep, empty):
    """The last element of a sweep, or ``empty`` if it yields none."""
    last = empty
    for last in sweep:
        pass
    return last


def e_recurrence_sweep(n_max: int) -> Iterator[Poly]:
    """e_0, e_1, ..., e_{n_max} by e_0 = 1, e_n = x^n - n*e_{n-1}."""
    p = Poly.one()
    for n in range(n_max + 1):
        if n:
            p = Poly.monomial(n) - n * p
        yield p


def e_recurrence(n: int) -> Poly:
    """e_n by the recurrence: the last element of ``e_recurrence_sweep(n)``; zero for n < 0."""
    return _last(e_recurrence_sweep(n), Poly.zero())


def rodrigues_sweep(rate, n_max: int) -> Iterator[Poly]:
    """``rodrigues_part(rate, n)`` for n = 0..n_max, each by one exact derivative of the one before.

    Each derivative maps p(x) e^(rate x) to (p' + rate*p) e^(rate x), the
    ``_derivative`` kernel on the part p; the rate goes to integer parts
    once, not once per step.  The iterate p starts at x^(-1), so it is the
    package's one ``LaurentPoly``, made canonical once per step; x^(n+1)*p
    takes the same numerators as a ``Poly``, and a negative exponent left
    over (an implementation bug) raises ``ValueError``.
    """
    a, b, q = _int_parts(rate)
    part = _raw(LaurentPoly, -1, (1,), (), 1)
    for n in range(n_max + 1):
        if n:
            part = _make(LaurentPoly, *_derivative(part, a, b, q))
        if part.lo + n + 1 < 0:
            raise ValueError(f"negative exponents remain: {part!r}")
        yield _raw(Poly, part.lo + n + 1, part.re, part.im, part.den)


def rodrigues_part(rate, n: int) -> Poly:
    """x^(n+1) e^(-rate x) d^n/dx^n (x^(-1) e^(rate x)), by n exact derivatives:
    the last element of ``rodrigues_sweep(rate, n)``; zero for n < 0."""
    return _last(rodrigues_sweep(rate, n), Poly.zero())


def e_rodrigues(n: int) -> Poly:
    """e_n = x^(n+1) e^(-x) d^n/dx^n (x^(-1) e^x), computed exactly."""
    return rodrigues_part(1, n)


def laguerre_general(n: int, alpha) -> Poly:
    """Associated Laguerre polynomial L_n^(alpha) for any exact rational alpha.

    Built from the explicit sum
    L_n^(alpha)(x) = sum_{k=0}^{n} (-1)^k C(n+alpha, n-k) x^k / k!,
    which is what makes negative and fractional upper indices exact.  Over
    the common denominator q^n n!, with n + alpha = p/q, the numerator of
    x^(n-j) is (-1)^(n-j) p(p-q)...(p-(j-1)q) q^(n-j) C(n, j).
    """
    if n < 0:
        return Poly.zero()
    p, q = (n + as_rational(alpha)).as_integer_ratio()
    re, rising, binom = [0] * (n + 1), 1, 1
    for j in range(n + 1):
        re[n - j] = (-1) ** (n - j) * rising * q ** (n - j) * binom
        rising *= p - j * q
        binom = binom * (n - j) // (j + 1)
    return Poly.from_numerators(re, den=q**n * factorial(n))


def e_laguerre(n: int) -> Poly:
    """e_n(x) = n! * L_n^(-n-1)(-x)."""
    if n < 0:
        return Poly.zero()
    return factorial(n) * laguerre_general(n, Fraction(-n - 1)).scale_arg(-1)


# ---------------------------------------------------------------------------
# The generalized-rate family e_n^(m)
# ---------------------------------------------------------------------------

def em_explicit(n: int, m) -> Poly:
    """e_n^(m)(x) = m^n x^n + sum_{l=0}^{n-1} (-1)^(l+n) m^l (n!/l!) x^l."""
    m = as_rate(m)
    if n < 0:
        return Poly.zero()
    # Over the common denominator q^n, with m = p/q, the numerator of x^l is
    # (-1)^(l+n) p^l q^(n-l) n!/l!: the one before times -p/((l+1)q), exactly.
    p, q = m.as_integer_ratio()
    re = [(-1) ** n * q**n * factorial(n)]
    for l in range(n):
        re.append(-re[l] * p // ((l + 1) * q))
    return Poly.from_numerators(re, den=q**n)


def em_rodrigues(n: int, m) -> Poly:
    """e_n^(m) = x^(n+1) e^(-mx) d^n/dx^n (x^(-1) e^(mx))."""
    return rodrigues_part(as_rate(m), n)


def antideriv_poly_exp(n: int, m) -> Poly:
    """The unique polynomial P with d/dx [P(x) e^(mx)] = x^n e^(mx).

    Equivalently P' + m*P = x^n.  P = e_n^(m) / m^(n+1); the division by
    m^(n+1) is what makes the product rule close (see the module note).
    """
    m = as_rate(m)
    if n < 0:
        return Poly.zero()
    return em_explicit(n, m) / m ** (n + 1)


# ---------------------------------------------------------------------------
# The sine/cosine families
# ---------------------------------------------------------------------------

def s_explicit(n: int) -> Poly:
    """s_n, the polynomial solution of s'' + s = -x^n.

    Degree n, leading coefficient -1, and only terms whose exponent has the
    parity of n: s_n(x) = -x^n + sum (-1)^((l+n)/2 + n + 1) (n!/l!) x^l over
    l = n-2, n-4, ..., which folds the even/odd closed forms into one sum.
    """
    if n < 0:
        return Poly.zero()
    # The sign flips and n!/l! gains a factor (l+2)(l+1) per step down.
    coeffs = [0] * (n + 1)
    c = -1
    for l in range(n, -1, -2):
        coeffs[l] = c
        c *= -l * (l - 1)
    return Poly.from_numerators(coeffs)


def s_from_e(n: int) -> Poly:
    """s_n(x) = (i^n/2) [(-1)^(n+1) e_n(ix) - e_n(-ix)] = -c_n(x), so ``-c_from_e(n)``; zero for n < 0."""
    return -c_from_e(n)


def c_from_s(n: int) -> Poly:
    """c_n = -s_n."""
    return -s_explicit(n)


def c_from_e(n: int) -> Poly:
    """c_n(x) = (i^n/2) [(-1)^n e_n(ix) + e_n(-ix)] = Re(e_n(ix)/i^n), a sum of two conjugates
    (e_n has real coefficients, so e_n(-ix) is the conjugate of e_n(ix)); zero for n < 0."""
    return e_explicit(n).scale_arg(I).real_over_i_power(n)


def shat(k: int) -> Poly:
    """shat_k = -s_{k+1}'; zero for k < 0."""
    if k < 0:
        return Poly.zero()
    return -s_explicit(k + 1).derivative()


def chat(k: int) -> Poly:
    """chat_k = c_{k+1}'; zero for k < 0."""
    if k < 0:
        return Poly.zero()
    return c_from_s(k + 1).derivative()


def family_poly(family: str, n: int, m=None) -> Poly:
    """Dispatch a family tag from {e, s, c, shat, chat, em} to its polynomial."""
    if family == "e":
        return e_explicit(n)
    if family == "s":
        return s_explicit(n)
    if family == "c":
        return c_from_s(n)
    if family == "shat":
        return shat(n)
    if family == "chat":
        return chat(n)
    if family == "em":
        if m is None:
            raise ValueError("family 'em' requires a rate m")
        return em_explicit(n, m)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Recurrence groups
# ---------------------------------------------------------------------------

def _xn(n: int) -> Poly:
    return Poly.monomial(n)


def _group_g1(n: int):
    yield f"s_{n} = -x^{n} + {n}*chat_{n-2}", s_explicit(n) == -_xn(n) + n * chat(n - 2)
    yield f"shat_{n} = {n+1}*c_{n}", shat(n) == (n + 1) * c_from_s(n)


def _group_g2(n: int):
    yield (
        f"s_{n} = -x^{n} - {n}({n-1})*s_{n-2}",
        s_explicit(n) == -_xn(n) - n * (n - 1) * s_explicit(n - 2),
    )
    yield (
        f"shat_{n} = {n+1}x^{n} - {n}({n+1})*shat_{n-2}",
        shat(n) == (n + 1) * _xn(n) - n * (n + 1) * shat(n - 2),
    )


def _group_g3(n: int):
    yield f"c_{n} = x^{n} - {n}*shat_{n-2}", c_from_s(n) == _xn(n) - n * shat(n - 2)
    yield f"chat_{n} = -{n+1}*s_{n}", chat(n) == -(n + 1) * s_explicit(n)


def _group_g4(n: int):
    yield (
        f"c_{n} = x^{n} - {n}({n-1})*c_{n-2}",
        c_from_s(n) == _xn(n) - n * (n - 1) * c_from_s(n - 2),
    )
    yield (
        f"chat_{n} = {n+1}x^{n} - {n}({n+1})*chat_{n-2}",
        chat(n) == (n + 1) * _xn(n) - n * (n + 1) * chat(n - 2),
    )


def _group_diff_eqs(n: int):
    s, c, e = s_explicit(n), c_from_s(n), e_explicit(n)
    yield f"s_{n}'' + s_{n} = -x^{n}", s.derivative().derivative() + s == -_xn(n)
    yield f"c_{n}'' + c_{n} = x^{n}", c.derivative().derivative() + c == _xn(n)
    yield f"e_{n}' + e_{n} = x^{n}", e.derivative() + e == _xn(n)
    yield (
        f"c_{n} = x^{n} + {n}*s_{n-1}'",
        c == _xn(n) + n * s_explicit(n - 1).derivative(),
    )
    yield f"c_{n}' = -{n}*s_{n-1}", c.derivative() == -n * s_explicit(n - 1)


RELATION_GROUPS = {
    "G1": _group_g1,
    "G2": _group_g2,
    "G3": _group_g3,
    "G4": _group_g4,
    "DIFF_EQS": _group_diff_eqs,
}


def check_relation_group(group: str, n_max: int) -> CheckReport:
    """Exactly verify one recurrence group for every index 0..n_max."""
    try:
        checker = RELATION_GROUPS[group]
    except KeyError:
        raise ValueError(f"unknown relation group {group!r}") from None
    entries = []
    for n in range(n_max + 1):
        for label, ok in checker(n):
            entries.append((f"{group}: {label}", ok))
    return CheckReport.of(entries)
