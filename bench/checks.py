"""Independent output checks, using the benchmark's own arithmetic.

Nothing here imports scepoly.  Polynomials are lists of plain Fractions in
ascending degree; each family is checked against its defining identity:

    e' + e = x^n            s'' + s = -x^n           c'' + c = x^n
    shat_k = -s'_{k+1}      chat_k = c'_{k+1}        e_m' + m e_m = m^(n+1) x^n

with s_n and c_n for the hatted families computed here from their sums.
Integrals are compared with the tabular antiderivative of x^n e^(mu x)
evaluated by mpmath at 50 digits, to 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import factorial

import mpmath

RELATIVE_TOL = 1e-9
# definite_integral forms F(b) - F(a) with 40 significant digits, so where
# the two endpoint values nearly cancel its absolute error is a few units of
# 1e-40 times the larger of them.  The check allows 1e-36 times the larger
# endpoint value on top of the relative tolerance; that floor binds only for
# an integral below about 1e-27 of its endpoint values.
CANCELLATION_FLOOR = 1e-36
RATE_AS_OPTION = "negative non-integer --m read by argparse as an option (exit 2)"
QUAD_NO_CONVERGENCE = "quad_adaptive fails to converge inside the documented domain (exit 2)"
QUAD_ORACLE_OFF = (
    "quad_adaptive misses the 1e-9 cross-check inside the documented domain"
    " while the closed form matches the reference (FAIL, exit 1)"
)


class CheckFailed(Exception):
    pass


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(path) -> dict[str, str]:
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").rpartition("\t")
            if key:
                table[key] = value
    return table


# -- polynomial arithmetic over Fraction lists ------------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p):
    return [k * p[k] for k in range(1, len(p))]


def _lin(*terms):
    """Sum of scalar * poly for (scalar, poly) pairs."""
    size = max((len(p) for _, p in terms), default=0)
    out = [Fraction(0)] * size
    for c, p in terms:
        for k, a in enumerate(p):
            out[k] += c * a
    return _trim(out)


def _monomial(n, c=1):
    return [Fraction(0)] * n + [Fraction(c)]


def _s_sum(n):
    """s_n = -sum_j (-1)^j n!/(n-2j)! x^(n-2j)."""
    out = [Fraction(0)] * (n + 1)
    for j in range(n // 2 + 1):
        out[n - 2 * j] = Fraction(-((-1) ** j) * factorial(n), factorial(n - 2 * j))
    return out


def check_family(family: str, n: int, p, m: Fraction | None = None) -> None:
    """Raise CheckFailed unless p is the family's polynomial of index n."""
    p = _trim(p)
    xn = _monomial(n)
    if family == "e":
        ok = _lin((1, _deriv(p)), (1, p)) == xn
    elif family == "s":
        ok = _lin((1, _deriv(_deriv(p))), (1, p)) == _lin((-1, xn))
    elif family == "c":
        ok = _lin((1, _deriv(_deriv(p))), (1, p)) == xn
    elif family == "shat":
        ok = p == _lin((-1, _deriv(_s_sum(n + 1))))
    elif family == "chat":
        ok = p == _lin((-1, _deriv(_s_sum(n + 1))))  # c_{k+1} = -s_{k+1}
    elif family == "em":
        ok = _lin((1, _deriv(p)), (m, p)) == _monomial(n, m ** (n + 1))
    else:
        raise CheckFailed(f"unknown family {family!r}")
    if not ok:
        raise CheckFailed(f"{family}_{n}: defining identity fails")


# -- parsing of CLI output ---------------------------------------------------

def _real(re_text: str, im_text: str) -> Fraction:
    if Fraction(im_text) != 0:
        raise CheckFailed("nonzero imaginary part in a real family")
    return Fraction(re_text)


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv_rows(text: str, header: str):
    lines = text.strip("\n").split("\n")
    if lines[0] != header:
        raise CheckFailed(f"unexpected CSV header {lines[0]!r}")
    return [[int(v) for v in line.split(",")] for line in lines[1:]]


def check_poly_output(argv, out: str) -> None:
    family, n, fmt = argv[1], int(_arg(argv, "--n")), _arg(argv, "--format", "text")
    m = Fraction(_arg(argv, "--m")) if family == "em" else None
    if fmt == "json":
        doc = json.loads(out)
        if doc["family"] != family or doc["n"] != n or (m is not None and Fraction(doc["m"]) != m):
            raise CheckFailed("JSON header does not match the request")
        coeffs = [_real(c["re"], c["im"]) for c in doc["coeffs"]]
    elif fmt == "csv":
        coeffs = []
        for k, (deg, rn, rd, im_n, im_d) in enumerate(_csv_rows(out, "degree,re_num,re_den,im_num,im_den")):
            if deg != k:
                raise CheckFailed("CSV degrees out of order")
            coeffs.append(_real(Fraction(rn, rd), Fraction(im_n, im_d)))
    else:
        return  # text and latex are covered by the digest
    check_family(family, n, coeffs, m)


def check_genfunc_output(argv, out: str) -> None:
    family, order, fmt = _arg(argv, "--family"), int(_arg(argv, "--order")), _arg(argv, "--format", "text")
    m = Fraction(_arg(argv, "--m")) if family == "em" else None
    if fmt == "json":
        doc = json.loads(out)
        if doc["family"] != family or doc["order"] != order or (m is not None and Fraction(doc["m"]) != m):
            raise CheckFailed("JSON header does not match the request")
        series = [[_real(c["re"], c["im"]) for c in poly] for poly in doc["coeffs"]]
    elif fmt == "csv":
        series = [[] for _ in range(order + 1)]
        for k, deg, rn, rd, im_n, im_d in _csv_rows(out, "t_power,degree,re_num,re_den,im_num,im_den"):
            if deg != len(series[k]):
                raise CheckFailed("CSV degrees out of order")
            series[k].append(_real(Fraction(rn, rd), Fraction(im_n, im_d)))
    else:
        return
    if len(series) != order + 1:
        raise CheckFailed("series has the wrong number of t-coefficients")
    for k, poly in enumerate(series):
        check_family(family, k, [factorial(k) * c for c in poly], m)


_INTEGRAL = re.compile(r"^integral\s+(\S+)$", re.M)
_QUAD = re.compile(r"^quadrature \S+ \(est err \S+, (\d+) evaluations\)$", re.M)
_VERDICT = re.compile(r"^relative discrepancy \S+: (PASS|FAIL)$", re.M)


def reference_integral(kind: str, n: int, m: Fraction | None, a: float, b: float) -> tuple[float, float]:
    """int_a^b x^n * {sin x | cos x | e^(mx)} dx from the tabular antiderivative

        int x^n e^(mu x) dx = e^(mu x) sum_k (-1)^k n!/(n-k)! x^(n-k) / mu^(k+1),

    with mu = i for sin (imaginary part) and cos (real part).  Returns the
    integral and its absolute error floor, CANCELLATION_FLOOR times the
    larger endpoint value."""
    with mpmath.workdps(50):
        mu = mpmath.mpc(0, 1) if kind in ("sin", "cos") else mpmath.mpf(m.numerator) / m.denominator

        def antiderivative(x):
            x = mpmath.mpf(x)
            total = sum(
                (-1) ** k * factorial(n) // factorial(n - k) * x ** (n - k) / mu ** (k + 1)
                for k in range(n + 1)
            )
            return mpmath.exp(mu * x) * total

        fb, fa = antiderivative(b), antiderivative(a)
        value = fb - fa
        if kind == "sin":
            value = mpmath.im(value)
        elif kind == "cos":
            value = mpmath.re(value)
        return float(value), float(max(abs(fb), abs(fa)) * CANCELLATION_FLOOR)


def check_quadrature_output(argv, out: str, reference: tuple[float, float]) -> int:
    """Check one integrate --check output; returns its evaluation count."""
    verdict, value, evals = _VERDICT.search(out), _INTEGRAL.search(out), _QUAD.search(out)
    if not (verdict and value and evals):
        raise CheckFailed("unrecognised integrate --check output")
    if verdict.group(1) != "PASS":
        raise CheckFailed("the CLI's own cross-check failed")
    if not _integral_matches(out, reference):
        raise CheckFailed(f"integral {value.group(1)} differs from reference {reference[0]!r}")
    return int(evals.group(1))


def quadrature_reference(argv) -> tuple[float, float]:
    kind, n = _arg(argv, "--kind"), int(_arg(argv, "--n"))
    m = Fraction(_arg(argv, "--m", "1"))
    return reference_integral(kind, n, m, float(_arg(argv, "--a")), float(_arg(argv, "--b")))


_IDENTITIES = re.compile(r"^(\d+) identities checked, (\d+) failed$", re.M)


def verify_counts(out: str) -> tuple[int, int]:
    """(identities checked, FAIL lines) of a verify output."""
    summary = _IDENTITIES.search(out)
    if not summary:
        raise CheckFailed("verify printed no summary line")
    checked = int(summary.group(1))
    fail_lines = sum(1 for line in out.splitlines() if line.startswith("FAIL"))
    pass_lines = sum(1 for line in out.splitlines() if line.startswith("PASS"))
    if pass_lines + fail_lines != checked or int(summary.group(2)) != fail_lines:
        raise CheckFailed("verify summary does not match its PASS/FAIL lines")
    return checked, fail_lines


def _integral_matches(out: str, reference: tuple[float, float]) -> bool:
    value = _INTEGRAL.search(out)
    ref, floor = reference
    return bool(value) and abs(float(value.group(1)) - ref) <= RELATIVE_TOL * abs(ref) + floor


def known_defect(argv, code, out: str, err: str, reference: tuple[float, float] | None = None) -> str | None:
    """The known CLI defect a failed request shows, or None.

    * exit 2 from argparse on a negative non-integer rate given as "--m VALUE";
    * exit 2 when the adaptive-Simpson oracle of ``integrate --check`` runs
      out of depth: its absolute budget halves per level and falls below
      double-precision rounding when the integral is small next to the
      integrand;
    * exit 1 with a FAIL verdict from ``integrate --check`` when the printed
      closed-form integral agrees with the benchmark's reference: the oracle,
      not the closed form, is off by more than its error estimate says.
    """
    rate = _arg(argv, "--m")
    if (
        code == 2 and rate is not None and rate.startswith("-") and Fraction(rate).denominator != 1
        and "argument --m: expected one argument" in err
    ):
        return RATE_AS_OPTION
    if code == 2 and "--check" in argv and "quadrature failed to converge" in err:
        return QUAD_NO_CONVERGENCE
    verdict = _VERDICT.search(out)
    if (
        code == 1 and reference is not None and verdict and verdict.group(1) == "FAIL"
        and _integral_matches(out, reference)
    ):
        return QUAD_ORACLE_OFF
    return None
