"""Command-line front end: construct polynomials, emit antiderivatives,
expand generating functions, and run the verification suites of
``scepoly.suites``.  This module parses arguments and renders results.

Verbs: poly, integrate, verify, genfunc.  Exit codes: 0 success,
1 verification failure, 2 usage error.  The SCE_MAX_N environment variable
(default 64) caps every index argument to bound factorial growth.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from math import gcd

from . import families, genfunc, integrals
from .poly import Poly
from .rational import GaussianRational
from .suites import VERIFY_SUITES, run_suite

__all__ = [
    "main",
    "console_main",
    "render_poly_text",
    "render_poly_latex",
    "poly_to_json",
    "poly_from_json",
    "poly_to_csv",
    "render_series_text",
    "render_series_latex",
    "series_to_json",
    "series_to_csv",
    "render_closed_form_text",
    "VERIFY_SUITES",
]

RELATIVE_CHECK_TOL = 1e-9
FORMATS = ("text", "latex", "json", "csv")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _power(var: str, k: int, latex: bool = False) -> str:
    """'' for k = 0, then 'x', 'x^2' ('x^{2}' in LaTeX)."""
    if k <= 1:
        return var if k else ""
    return f"{var}^{{{k}}}" if latex else f"{var}^{k}"


def _term_text(p: int, q: int, k: int) -> str:
    """(p/q)*x^k for positive p and q in lowest terms, e.g. '2x', 'x^2/2', '1/2'."""
    xpart = _power("x", k)
    body = xpart if p == 1 and k else f"{p}{xpart}"
    return body if q == 1 else f"{body}/{q}"


def _term_latex(p: int, q: int, k: int) -> str:
    """(p/q)*x^k for positive p and q in lowest terms, e.g. '2x', '\\frac{1}{2} x^{2}'."""
    xpart = _power("x", k, latex=True)
    if q != 1:
        return rf"\frac{{{p}}}{{{q}}}{' ' + xpart if xpart else ''}"
    return xpart if p == 1 and k else f"{p}{xpart}"


def _join_signed(pieces: list[str]) -> str:
    """Text pieces joined by ' + ', or by ' - ' before a piece that starts with '-' (no piece holds ' + -')."""
    return " + ".join(pieces).replace(" + -", " - ") if pieces else "0"


def _parts(p: Poly) -> list[tuple[int, int, int, int]]:
    """(re_num, re_den, im_num, im_den) in lowest terms for x^0 .. x^degree, read once from p's numerators."""
    out, den = [(0, 1, 0, 1)] * p.lo, p.den
    if not p.im:  # a zero numerator, half of each s and c row, needs no gcd
        return out + [(r // (g := gcd(r, den)), den // g, 0, 1) if r else (0, 1, 0, 1) for r in p.re]
    for r, i in zip(p.re, p.im):
        g, h = gcd(r, den), gcd(i, den)
        out.append((r // g, den // g, i // h, den // h))
    return out


def _signed_terms(p: Poly, fmt: str, magnitude) -> str:
    """Nonzero real terms of p, highest power first, as sign and ``magnitude(|num|, den, k)``."""
    if p.im:
        raise ValueError(f"{fmt} rendering expects real coefficients")
    if not p.re:
        return "0"
    den, k, out = p.den, p.lo + len(p.re), []
    for num in reversed(p.re):
        k -= 1
        if num:
            g = gcd(num, den) if den != 1 else 1
            out += (" - " if num < 0 else " + ", magnitude(abs(num) // g, den // g, k))
    out[0] = "-" if p.re[-1] < 0 else ""  # the leading numerator is nonzero
    return "".join(out)


def render_poly_text(p: Poly) -> str:
    """Descending powers: 'x^2 - 2x + 2'."""
    return _signed_terms(p, "text", _term_text)


def render_poly_latex(p: Poly) -> str:
    """Descending powers, braces on exponents, \\frac for non-integer coefficients."""
    return _signed_terms(p, "latex", _term_latex)


def _json_coeffs(p: Poly) -> str:
    """The JSON text of p's coefficient array; each part as str(Fraction) prints it, "p/q" or "p" when q is 1."""
    return "[" + ",".join(f'{{"re":"{rn}{f"/{rd}" if rd != 1 else ""}","im":"{im}{f"/{idn}" if idn != 1 else ""}"}}'
                          for rn, rd, im, idn in _parts(p)) + "]"


def _json_doc(family: str, index_key: str, index: int, m: Fraction | None, coeffs: str) -> str:
    """json.dumps of the whole document, compact: json.dumps encodes the header, and the coefficients' text follows."""
    doc: dict = {"family": family, index_key: index}
    if m is not None:
        doc["m"] = str(m)
    return f'{json.dumps(doc, separators=(",", ":"))[:-1]},"coeffs":{coeffs}}}'


def poly_to_json(family: str, n: int, p: Poly, m: Fraction | None = None) -> str:
    return _json_doc(family, "n", n, m, _json_coeffs(p))


def series_to_json(
    family: str, order: int, fs: genfunc.FormalSeries, m: Fraction | None = None
) -> str:
    return _json_doc(family, "order", order, m, f"[{','.join(map(_json_coeffs, fs.coeffs))}]")


def poly_from_json(text: str) -> Poly:
    doc = json.loads(text)
    return Poly(GaussianRational(c["re"], c["im"]) for c in doc["coeffs"])


_CSV_HEADER = "degree,re_num,re_den,im_num,im_den"


def _csv_rows(p: Poly, prefix: str = "") -> list[str]:
    return [f"{prefix}{k},{rn},{rd},{im},{idn}" for k, (rn, rd, im, idn) in enumerate(_parts(p))]


def poly_to_csv(p: Poly) -> str:
    return "\n".join([_CSV_HEADER, *_csv_rows(p)])


def series_to_csv(fs: genfunc.FormalSeries) -> str:
    rows = [row for k, c in enumerate(fs.coeffs) for row in _csv_rows(c, f"{k},")]
    return "\n".join([f"t_power,{_CSV_HEADER}", *rows])


def _times_basis(p: Poly, basis: str) -> str:
    """Nonzero p times a basis element, in text: 'x t^2', '-cos x', '(x - 1) e^x'."""
    if p.re in ((1,), (-1,)) and not (p.lo or p.im) and p.den == 1:
        return basis if p.re[0] == 1 else "-" + basis
    text = render_poly_text(p)
    # The canonical form strips zeros at both ends: one numerator is one term.
    return f"{text} {basis}" if len(p.re) == 1 else f"({text}) {basis}"


def render_series_text(fs: genfunc.FormalSeries) -> str:
    """Ascending powers of t: '1 + (x - 1) t'."""
    return _join_signed([
        render_poly_text(c) if k == 0 else _times_basis(c, _power("t", k))
        for k, c in enumerate(fs.coeffs)
        if not c.is_zero()
    ])


def render_series_latex(fs: genfunc.FormalSeries) -> str:
    """Ascending powers of t, each coefficient after the first in \\left( \\right)."""
    parts = [
        render_poly_latex(c) if k == 0
        else rf"\left({render_poly_latex(c)}\right) {_power('t', k, latex=True)}"
        for k, c in enumerate(fs.coeffs)
        if not c.is_zero()
    ]
    return " + ".join(parts) if parts else "0"


def render_closed_form_text(cf: integrals.ClosedForm) -> str:
    """E.g. '(x^2 - 2x + 2) e^x + C' or '-x cos x + sin x + C'."""
    if cf.kind == "exp":
        exponent = "x" if cf.rate.re == 1 else f"({render_poly_text(Poly.monomial(1, cf.rate.re))})"
        term_list = [(cf.part, f"e^{exponent}")]
    else:
        p, q = cf.part.real_over_i_power(0), cf.part.real_over_i_power(3)  # F = p cos x + q sin x
        term_list = [(p, "cos x"), (q, "sin x")] if cf.kind == "sin" else [(q, "sin x"), (p, "cos x")]
    pieces = [_times_basis(part, basis) for part, basis in term_list if not part.is_zero()]
    return _join_signed(pieces) + " + C"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _print_exact(render, value) -> None:
    """print(render(value)) with Python's int-to-str digit limit lifted while it renders.

    Exact output may hold integers past the limit (4,300 digits; none before
    3.10.7).  Arguments are still parsed under it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = render(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)


def _index_cap() -> int:
    raw = os.environ.get("SCE_MAX_N", "64")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SCE_MAX_N must be an integer, got {raw!r}")


def _check_index(value: int, name: str) -> int:
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    cap = _index_cap()
    if value > cap:
        raise ValueError(f"{name}={value} exceeds SCE_MAX_N={cap}")
    return value


def _check_rate(m: Fraction | None, n: int, name: str) -> Fraction | None:
    """Refuse a rate whose digit count, n times over, passes the int-string limit that ``as_rational`` holds
    the rate itself to (no bound when it is 0): index n's coefficients grow as m^n."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if m is not None and limit:
        k = max(abs(m.numerator), m.denominator)
        digits = int((k.bit_length() - 1) * math.log10(2)) + 1  # those of 2^(bits-1): str(k) may be past the limit
        digits += k >= 10**digits  # k has at most one more
        if n * digits > limit:
            raise ValueError(
                f"{name}={n} times the rate's {digits} digits exceeds the int-string limit of {limit} digits"
            )
    return m


def cmd_poly(args) -> int:
    n = _check_index(args.n, "n")
    m = _check_rate(families.family_rate(args.family, args.m), n, "n")
    p = families.family_poly(args.family, n, m)
    renderers = {
        "text": render_poly_text, "latex": render_poly_latex, "csv": poly_to_csv,
        "json": lambda q: poly_to_json(args.family, n, q, m),
    }
    _print_exact(renderers[args.format], p)
    return 0


def cmd_integrate(args) -> int:
    n = _check_index(args.n, "n")
    cf = integrals.closed_form(args.kind, n, _check_rate(integrals.kind_rate(args.kind, args.m), n, "n"))
    if args.a is None and args.b is None:
        if args.check:
            raise ValueError("--check needs --a and --b")
        _print_exact(render_closed_form_text, cf)
        return 0
    if args.a is None or args.b is None:
        raise ValueError("provide both --a and --b, or neither")
    for name, bound in (("--a", args.a), ("--b", args.b)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    value = integrals.definite_integral(cf, args.a, args.b)
    if not args.check:
        print(f"{value:.17g}")
        return 0
    lo, hi = sorted((args.a, args.b))
    tol = 1e-12 * max(1.0, abs(value))
    quad = integrals.quad_adaptive(args.kind, n, cf.rate.re, lo, hi, tol)
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
    lines = [f"{'PASS' if entry.passed else 'FAIL'}  {entry.label}" for entry in report.entries]
    lines.append(f"{len(report)} identities checked, {len(report.failures)} failed")
    print("\n".join(lines))
    return 0 if report.all_passed else 1


def cmd_genfunc(args) -> int:
    order = _check_index(args.order, "order")
    m = _check_rate(families.family_rate(args.family, args.m), order, "order")
    if m is not None:
        series = genfunc.series_Em(m, order)
    else:
        series = {"e": genfunc.series_E, "s": genfunc.series_S, "c": genfunc.series_C}[args.family](order)
    renderers = {
        "text": render_series_text, "latex": render_series_latex, "csv": series_to_csv,
        "json": lambda fs: series_to_json(args.family, order, fs, m),
    }
    _print_exact(renderers[args.format], series)
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
    poly.add_argument("--format", choices=FORMATS, default="text")
    poly.set_defaults(func=cmd_poly)

    integ = sub.add_parser("integrate", help="closed-form or definite integral")
    integ.add_argument("--kind", choices=integrals.KINDS, required=True)
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
    gf.add_argument("--format", choices=FORMATS, default="text")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import.

    Parsing keeps no state in the parser, so every call to ``main`` can share
    it; help text is still formatted, at the terminal's width, when asked for.
    ``main`` parses a request with its verb's subparser, read from this parser's
    verb table; leftovers, "--" or a first word that is not a verb go to the full
    parser, so messages and exit codes are unchanged.  The ``cmd_*`` handlers are
    bound when it is built: code that replaces them must do so before the first call to ``main``.
    """
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = _parser()
    verbs = parser._subparsers._group_actions[0].choices  # {verb: subparser}, argparse keeps no public handle
    if argv and argv[0] in verbs and "--" not in argv:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
