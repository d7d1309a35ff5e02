"""Command-line front end: construct polynomials, emit antiderivatives,
expand generating functions, and run the verification suites.

Verbs: poly, integrate, verify, genfunc.  Exit codes: 0 success,
1 verification failure, 2 usage error.  The SCE_MAX_N environment variable
(default 64) caps every index argument to bound factorial growth.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import families, genfunc, integrals
from .poly import Poly
from .rational import GaussianRational
from .report import CheckReport

__all__ = [
    "main",
    "console_main",
    "render_poly_text",
    "render_poly_latex",
    "poly_to_json",
    "poly_from_json",
    "poly_to_csv",
    "render_series_text",
    "render_closed_form_text",
    "VERIFY_SUITES",
]

RELATIVE_CHECK_TOL = 1e-9


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _term_text(c: Fraction, k: int) -> str:
    """Magnitude of c*x^k for positive rational c, e.g. '2x', 'x^2/2', '1/2'."""
    p, q = c.numerator, c.denominator
    if k == 0:
        return str(c)
    xpart = "x" if k == 1 else f"x^{k}"
    body = xpart if p == 1 else f"{p}{xpart}"
    return body if q == 1 else f"{body}/{q}"


def _join_signed(pieces: list[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def render_poly_text(p: Poly) -> str:
    """Descending powers: 'x^2 - 2x + 2'."""
    if p.is_zero():
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        if c.im != 0:
            raise ValueError("text rendering expects real coefficients")
        mag = _term_text(abs(c.re), k)
        pieces.append(f"-{mag}" if c.re < 0 else mag)
    return _join_signed(pieces)


def render_poly_latex(p: Poly) -> str:
    """Descending powers, braces on exponents, \\frac for non-integer coefficients."""
    if p.is_zero():
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        if c.im != 0:
            raise ValueError("latex rendering expects real coefficients")
        num, den = abs(c.re.numerator), c.re.denominator
        xpart = "" if k == 0 else ("x" if k == 1 else f"x^{{{k}}}")
        if den != 1:
            mag = rf"\frac{{{num}}}{{{den}}}{' ' + xpart if xpart else ''}"
        elif k == 0:
            mag = str(num)
        else:
            mag = xpart if num == 1 else f"{num}{xpart}"
        pieces.append(f"-{mag}" if c.re < 0 else mag)
    return _join_signed(pieces)


def _gauss_strings(c: GaussianRational) -> dict[str, str]:
    return {"re": str(c.re), "im": str(c.im)}


def poly_to_json(family: str, n: int, p: Poly, m: Fraction | None = None) -> str:
    doc: dict = {"family": family, "n": n}
    if m is not None:
        doc["m"] = str(m)
    doc["coeffs"] = [_gauss_strings(c) for c in p.coeffs]
    return json.dumps(doc, separators=(",", ":"))


def poly_from_json(text: str) -> Poly:
    doc = json.loads(text)
    return Poly(
        GaussianRational(Fraction(c["re"]), Fraction(c["im"])) for c in doc["coeffs"]
    )


def poly_to_csv(p: Poly) -> str:
    lines = ["degree,re_num,re_den,im_num,im_den"]
    for k, c in enumerate(p.coeffs):
        lines.append(
            f"{k},{c.re.numerator},{c.re.denominator},{c.im.numerator},{c.im.denominator}"
        )
    return "\n".join(lines)


def _count_terms(p: Poly) -> int:
    return sum(1 for c in p.coeffs if c)


def render_series_text(fs: genfunc.FormalSeries) -> str:
    """Ascending powers of t: '1 + (x - 1) t'."""
    pieces = []
    for k, c in enumerate(fs.coeffs):
        if c.is_zero():
            continue
        tpart = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k == 0:
            pieces.append(render_poly_text(c))
        elif c == Poly.one():
            pieces.append(tpart)
        elif c == -Poly.one():
            pieces.append("-" + tpart)
        elif _count_terms(c) == 1:
            pieces.append(f"{render_poly_text(c)} {tpart}")
        else:
            pieces.append(f"({render_poly_text(c)}) {tpart}")
    return _join_signed(pieces) if pieces else "0"


def _exp_basis_text(m: Fraction) -> str:
    if m == 1:
        return "e^x"
    if m == -1:
        return "e^(-x)"
    sign = "-" if m < 0 else ""
    return f"e^({sign}{_term_text(abs(m), 1)})"


def render_closed_form_text(cf: integrals.ClosedForm) -> str:
    """E.g. '(x^2 - 2x + 2) e^x + C' or '-x cos x + sin x + C'."""
    if cf.kind == "exp":
        term_list = [(cf.exp_part, _exp_basis_text(cf.m))]
    elif cf.kind == "sin":
        term_list = [(cf.cos_part, "cos x"), (cf.sin_part, "sin x")]
    else:
        term_list = [(cf.sin_part, "sin x"), (cf.cos_part, "cos x")]
    pieces = []
    for p, basis in term_list:
        if p.is_zero():
            continue
        if p == Poly.one():
            pieces.append(basis)
        elif p == -Poly.one():
            pieces.append("-" + basis)
        elif _count_terms(p) == 1:
            pieces.append(f"{render_poly_text(p)} {basis}")
        else:
            pieces.append(f"({render_poly_text(p)}) {basis}")
    body = _join_signed(pieces) if pieces else "0"
    return body + " + C"


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

_EM_RATES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _suite_routes(max_n: int) -> CheckReport:
    entries = []
    for n in range(max_n + 1):
        e = families.e_explicit(n)
        entries.append((f"e_{n}: explicit = recurrence", e == families.e_recurrence(n)))
        entries.append((f"e_{n}: explicit = rodrigues", e == families.e_rodrigues(n)))
        entries.append((f"e_{n}: explicit = laguerre", e == families.e_laguerre(n)))
        entries.append((f"em_{n}(1) = e_{n}", families.em_explicit(n, 1) == e))
        for m in _EM_RATES[1:]:
            entries.append(
                (
                    f"em_{n}(m={m}): explicit = rodrigues",
                    families.em_explicit(n, m) == families.em_rodrigues(n, m),
                )
            )
        s = families.s_explicit(n)
        entries.append((f"s_{n}: explicit = complex-argument route", s == families.s_from_e(n)))
        entries.append((f"s_{n}: explicit = derivative route", s == integrals.s_rodrigues(n)))
        entries.append((f"c_{n}: -s_{n} = complex-argument route", families.c_from_s(n) == families.c_from_e(n)))
    return CheckReport.of(entries)


def _suite_recurrences(max_n: int) -> CheckReport:
    report = CheckReport.of([])
    for group in ("G1", "G2", "G3", "G4", "DIFF_EQS"):
        report = report.merged_with(families.check_relation_group(group, max_n))
    extra = []
    for n in range(max_n + 1):
        extra.append((f"shat_{n} = chat_{n}", families.shat(n) == families.chat(n)))
        extra.append((f"c_{n} = -s_{n}", families.c_from_s(n) == -families.s_explicit(n)))
        extra.append(
            (
                f"e_{n}' = {n}*e_{n-1}",
                families.e_explicit(n).derivative() == n * families.e_explicit(n - 1),
            )
        )
    return report.merged_with(CheckReport.of(extra))


def _suite_odes(max_n: int) -> CheckReport:
    x = Poly.x()
    entries = []
    for n in range(max_n + 1):
        xn = Poly.monomial(n)
        e = families.e_explicit(n)
        s = families.s_explicit(n)
        c = families.c_from_s(n)
        entries.append((f"e_{n}' + e_{n} = x^{n}", e.derivative() + e == xn))
        entries.append((f"s_{n}'' + s_{n} = -x^{n}", s.derivative().derivative() + s == -xn))
        entries.append((f"c_{n}'' + c_{n} = x^{n}", c.derivative().derivative() + c == xn))
        hyper = x * e.derivative().derivative() + (x - Poly.constant(n)) * e.derivative() - n * e
        entries.append((f"x e_{n}'' + (x-{n}) e_{n}' - {n} e_{n} = 0", hyper.is_zero()))
        for m in _EM_RATES:
            em = families.em_explicit(n, m)
            hyper_m = (
                x * em.derivative().derivative()
                + (m * x - Poly.constant(n)) * em.derivative()
                - m * n * em
            )
            entries.append(
                (f"x em'' + ({m}x-{n}) em' - {m}*{n} em = 0 (m={m})", hyper_m.is_zero())
            )
            entries.append(
                (
                    f"em_{n}({m})' + {m} em = {m}^{n+1} x^{n}",
                    em.derivative() + m * em == m ** (n + 1) * xn,
                )
            )
            p = families.antideriv_poly_exp(n, m)
            entries.append((f"P' + {m}P = x^{n} (m={m})", p.derivative() + m * p == xn))
    return CheckReport.of(entries)


def _suite_genfunc(max_n: int) -> CheckReport:
    entries = []
    from math import factorial

    e_series = genfunc.series_E(max_n)
    s_series = genfunc.series_S(max_n)
    c_series = genfunc.series_C(max_n)
    em_series = genfunc.series_Em(2, max_n)
    for n in range(max_n + 1):
        f = factorial(n)
        entries.append((f"n! [t^{n}] E = e_{n}", f * e_series.coeff(n) == families.e_explicit(n)))
        entries.append((f"n! [t^{n}] S = s_{n}", f * s_series.coeff(n) == families.s_explicit(n)))
        entries.append((f"n! [t^{n}] C = c_{n}", f * c_series.coeff(n) == families.c_from_s(n)))
        entries.append(
            (f"n! [t^{n}] E_2 = em_{n}(2)", f * em_series.coeff(n) == families.em_explicit(n, 2))
        )
    exp_series = genfunc.series_exp_xt(1, max_n)
    entries.append(("dE/dx + E = e^(xt)", e_series.diff_x() + e_series == exp_series))
    entries.append(
        ("d2S/dx2 + S = -e^(xt)", s_series.diff_x().diff_x() + s_series == -exp_series)
    )
    entries.append(
        ("d2C/dx2 + C = e^(xt)", c_series.diff_x().diff_x() + c_series == exp_series)
    )
    report = CheckReport.of(entries)
    return report.merged_with(genfunc.series_connection_check(min(max_n, 20)))


def _suite_laguerre(max_n: int) -> CheckReport:
    x = Poly.x()
    entries = []
    for n in range(max_n + 1):
        entries.append(
            (f"e_{n} = n! L_{n}^(-{n}-1)(-x)", families.e_explicit(n) == families.e_laguerre(n))
        )
        for alpha in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 2)):
            lag = families.laguerre_general(n, alpha)
            ode = (
                x * lag.derivative().derivative()
                + (Poly.constant(alpha + 1) - x) * lag.derivative()
                + n * lag
            )
            entries.append((f"Laguerre ODE holds for L_{n}^({alpha})", ode.is_zero()))
    return CheckReport.of(entries)


def _suite_theorem1(max_n: int) -> CheckReport:
    entries = []
    for n in range(max_n + 1):
        for kind in ("sin", "cos"):
            cf = integrals.closed_form(kind, n)
            entries.append(
                (f"d/dx closed form = x^{n} {kind} x", integrals.check_antiderivative(cf))
            )
        for m in _EM_RATES:
            cf = integrals.closed_form("exp", n, m)
            entries.append(
                (f"d/dx closed form = x^{n} e^({m}x)", integrals.check_antiderivative(cf))
            )
    report = CheckReport.of(entries)
    return report.merged_with(
        integrals.antiderivative_recurrence_report(min(max_n, 20))
    )


def _suite_theorem2(max_n: int) -> CheckReport:
    entries = []
    entries.append(("degeneracy holds for the e_n equation", genfunc.nu_degeneracy_check(genfunc.E_SPEC)))
    entries.append(
        ("degeneracy fails for the Laguerre equation", not genfunc.nu_degeneracy_check(genfunc.laguerre_spec(0)))
    )
    shifted = genfunc.LinearHGSpec(1, 1, -1, 0, -1)
    entries.append(("degeneracy holds for the shifted-base equation", genfunc.nu_degeneracy_check(shifted)))
    entries.append(
        (
            "shifted weight independent of n (e_n equation)",
            len({genfunc.sigma_linear(genfunc.E_SPEC, n) for n in range(11)}) == 1,
        )
    )
    entries.append(
        (
            "closed form reproduces E",
            genfunc.degenerate_genfunc(genfunc.E_SPEC, max_n) == genfunc.series_E(max_n),
        )
    )
    for m in (Fraction(2), Fraction(1, 2)):
        entries.append(
            (
                f"closed form reproduces E_m (m={m})",
                genfunc.degenerate_genfunc(genfunc.em_spec(m), max_n)
                == genfunc.series_Em(m, max_n),
            )
        )
    return CheckReport.of(entries)


VERIFY_SUITES = {
    "routes": _suite_routes,
    "recurrences": _suite_recurrences,
    "odes": _suite_odes,
    "genfunc": _suite_genfunc,
    "laguerre": _suite_laguerre,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
}


def run_suite(suite: str, max_n: int) -> CheckReport:
    if suite == "all":
        report = CheckReport.of([])
        for fn in VERIFY_SUITES.values():
            report = report.merged_with(fn(max_n))
        return report
    if suite not in VERIFY_SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; choose from {', '.join([*VERIFY_SUITES, 'all'])}"
        )
    return VERIFY_SUITES[suite](max_n)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _index_cap() -> int:
    raw = os.environ.get("SCE_MAX_N", "64")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SCE_MAX_N must be an integer, got {raw!r}")


def _check_index(value: int, name: str) -> int:
    if value < 0:
        raise UsageError(f"{name} must be >= 0")
    cap = _index_cap()
    if value > cap:
        raise UsageError(f"{name}={value} exceeds SCE_MAX_N={cap}")
    return value


def _parse_rate(text: str) -> Fraction:
    try:
        m = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {text!r} (use integer or p/q)")
    if m == 0:
        raise UsageError("rate m must be nonzero")
    return m


def cmd_poly(args) -> int:
    n = _check_index(args.n, "n")
    m = None
    if args.family == "em":
        if args.m is None:
            raise UsageError("family 'em' requires --m")
        m = _parse_rate(args.m)
    elif args.m is not None:
        raise UsageError("--m applies only to family 'em'")
    p = families.family_poly(args.family, n, m)
    if args.format == "text":
        print(render_poly_text(p))
    elif args.format == "latex":
        print(render_poly_latex(p))
    elif args.format == "json":
        print(poly_to_json(args.family, n, p, m))
    else:
        print(poly_to_csv(p))
    return 0


def cmd_integrate(args) -> int:
    n = _check_index(args.n, "n")
    if args.m is not None and args.kind != "exp":
        raise UsageError("--m applies only to kind 'exp'")
    m = _parse_rate(args.m) if args.m is not None else None
    cf = integrals.closed_form(args.kind, n, m)
    if args.a is None and args.b is None:
        print(render_closed_form_text(cf))
        return 0
    if args.a is None or args.b is None:
        raise UsageError("provide both --a and --b, or neither")
    for name, bound in (("--a", args.a), ("--b", args.b)):
        if not math.isfinite(bound):
            raise UsageError(f"{name} must be finite, got {bound}")
    value = integrals.definite_integral(cf, args.a, args.b)
    if not args.check:
        print(f"{value:.17g}")
        return 0
    lo, hi = sorted((args.a, args.b))
    tol = 1e-12 * max(1.0, abs(value))
    quad = integrals.quad_adaptive(args.kind, n, m if m is not None else 1, lo, hi, tol)
    oracle = quad.value if args.a <= args.b else -quad.value
    discrepancy = abs(value - oracle)
    relative = discrepancy / max(1.0, abs(oracle))
    passed = relative <= RELATIVE_CHECK_TOL
    print(f"integral   {value:.17g}")
    print(f"quadrature {oracle:.17g} (est err {quad.est_error:.3g}, {quad.evaluations} evaluations)")
    print(f"relative discrepancy {relative:.3g}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    max_n = _check_index(args.max_n, "max-n")
    report = run_suite(args.suite, max_n)
    for entry in report.entries:
        print(f"{'PASS' if entry.passed else 'FAIL'}  {entry.label}")
    failed = len(report.failures)
    print(f"{len(report)} identities checked, {failed} failed")
    return 0 if report.all_passed else 1


def cmd_genfunc(args) -> int:
    order = _check_index(args.order, "order")
    m = None
    if args.family == "em":
        if args.m is None:
            raise UsageError("family 'em' requires --m")
        m = _parse_rate(args.m)
    elif args.m is not None:
        raise UsageError("--m applies only to family 'em'")
    series = {
        "e": genfunc.series_E,
        "s": genfunc.series_S,
        "c": genfunc.series_C,
    }[args.family](order) if args.family != "em" else genfunc.series_Em(m, order)
    if args.format == "text":
        print(render_series_text(series))
    elif args.format == "latex":
        parts = []
        for k, c in enumerate(series.coeffs):
            if c.is_zero():
                continue
            tpart = "" if k == 0 else (" t" if k == 1 else f" t^{{{k}}}")
            body = render_poly_latex(c)
            parts.append(f"\\left({body}\\right){tpart}" if tpart else body)
        print(" + ".join(parts) if parts else "0")
    elif args.format == "json":
        doc: dict = {"family": args.family, "order": order}
        if m is not None:
            doc["m"] = str(m)
        doc["coeffs"] = [[_gauss_strings(c) for c in poly.coeffs] for poly in series.coeffs]
        print(json.dumps(doc, separators=(",", ":")))
    else:
        lines = ["t_power,degree,re_num,re_den,im_num,im_den"]
        for k, poly in enumerate(series.coeffs):
            for deg, c in enumerate(poly.coeffs):
                lines.append(
                    f"{k},{deg},{c.re.numerator},{c.re.denominator},"
                    f"{c.im.numerator},{c.im.denominator}"
                )
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry points
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scepoly",
        description="Exact antiderivatives of x^n sin x, x^n cos x, x^n e^(mx) "
        "and the polynomial families behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="print a family polynomial")
    poly.add_argument("family", choices=["e", "s", "c", "shat", "chat", "em"])
    poly.add_argument("--n", type=int, required=True, help="index n >= 0")
    poly.add_argument("--m", help="rate for family 'em' (integer or p/q)")
    poly.add_argument(
        "--format", choices=["text", "latex", "json", "csv"], default="text"
    )
    poly.set_defaults(func=cmd_poly)

    integ = sub.add_parser("integrate", help="closed-form or definite integral")
    integ.add_argument("--kind", choices=["sin", "cos", "exp"], required=True)
    integ.add_argument("--n", type=int, required=True)
    integ.add_argument("--m", help="rate for kind 'exp' (default 1)")
    integ.add_argument("--a", type=float, help="lower bound")
    integ.add_argument("--b", type=float, help="upper bound")
    integ.add_argument(
        "--check",
        action="store_true",
        help="cross-check the definite value against adaptive quadrature",
    )
    integ.set_defaults(func=cmd_integrate)

    verify = sub.add_parser("verify", help="run an identity-verification suite")
    verify.add_argument(
        "--suite", required=True, choices=[*VERIFY_SUITES, "all"]
    )
    verify.add_argument("--max-n", dest="max_n", type=int, default=20)
    verify.set_defaults(func=cmd_verify)

    gf = sub.add_parser("genfunc", help="expand a generating function")
    gf.add_argument("--family", choices=["e", "s", "c", "em"], required=True)
    gf.add_argument("--order", type=int, required=True)
    gf.add_argument("--m", help="rate for family 'em' (integer or p/q)")
    gf.add_argument(
        "--format", choices=["text", "latex", "json", "csv"], default="text"
    )
    gf.set_defaults(func=cmd_genfunc)

    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--m VALUE" as "--m=VALUE", and the same for --a and --b.

    argparse reads a value that starts with "-" but does not look like a
    plain number to it, such as "-5/3" or "-1e3", as an option.
    """
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("--m", "--a", "--b") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
