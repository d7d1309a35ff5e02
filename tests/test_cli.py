import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scepoly import cli, integrals
from scepoly.cli import (
    _attach_signed_values,
    build_parser,
    main,
    poly_from_json,
    poly_to_csv,
    poly_to_json,
    render_closed_form_text,
    render_poly_latex,
    render_poly_text,
    render_series_latex,
    render_series_text,
    series_to_csv,
    series_to_json,
)
from scepoly.families import e_explicit, em_explicit, family_poly, s_explicit
from scepoly.genfunc import FormalSeries, series_C, series_S
from scepoly.integrals import ClosedForm, closed_form
from scepoly.poly import Poly
from scepoly.rational import I, GaussianRational

X = Poly.x()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentedOutputs:
    """The documented commands must produce these outputs byte-for-byte."""

    def test_poly_e_2_text(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "e", "--n", "2", "--format", "text")
        assert code == 0
        assert out == "x^2 - 2x + 2\n"

    def test_poly_em_1_text(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "em", "--n", "1", "--m", "3", "--format", "text")
        assert code == 0
        assert out == "3x - 1\n"

    def test_poly_e_0_json(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "e", "--n", "0", "--format", "json")
        assert code == 0
        assert out == '{"family":"e","n":0,"coeffs":[{"re":"1","im":"0"}]}\n'

    def test_integrate_exp_2_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--kind", "exp", "--n", "2")
        assert code == 0
        assert out == "(x^2 - 2x + 2) e^x + C\n"

    def test_genfunc_e_order_1(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--family", "e", "--order", "1")
        assert code == 0
        assert out == "1 + (x - 1) t\n"

    def test_genfunc_s_order_0(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--family", "s", "--order", "0")
        assert code == 0
        assert out == "-1\n"

    def test_genfunc_c_order_2(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--family", "c", "--order", "2")
        assert code == 0
        assert out == "1 + x t + (x^2/2 - 1) t^2\n"


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "family,n,m",
        [("e", 0, None), ("e", 7, None), ("s", 6, None), ("shat", 4, None), ("em", 5, "2/3")],
    )
    def test_round_trip(self, family, n, m):
        from fractions import Fraction

        rate = Fraction(m) if m else None
        p = family_poly(family, n, rate)
        text = poly_to_json(family, n, p, rate)
        assert poly_from_json(text) == p

    def test_schema_keys(self):
        doc = json.loads(poly_to_json("em", 2, em_explicit(2, 3), m=3))
        assert list(doc) == ["family", "n", "m", "coeffs"]
        assert doc["m"] == "3"
        assert all(set(c) == {"re", "im"} for c in doc["coeffs"])

    def test_rationals_survive_as_strings(self):
        from fractions import Fraction

        p = family_poly("em", 3, Fraction(1, 3))
        doc = json.loads(poly_to_json("em", 3, p, Fraction(1, 3)))
        assert doc["coeffs"][3]["re"] == "1/27"


class TestRenderers:
    def test_zero_polynomial(self):
        assert render_poly_text(Poly.zero()) == "0"

    def test_negative_leading_term(self):
        assert render_poly_text(s_explicit(2)) == "-x^2 + 2"

    def test_fraction_in_constant(self):
        from fractions import Fraction

        assert render_poly_text(Poly.constant(Fraction(-1, 4))) == "-1/4"

    def test_fraction_with_numerator(self):
        from fractions import Fraction

        assert render_poly_text(Poly([0, 0, Fraction(3, 2)])) == "3x^2/2"

    def test_latex_descending(self):
        assert render_poly_latex(e_explicit(2)) == "x^{2} - 2x + 2"

    def test_latex_fraction(self):
        from fractions import Fraction

        assert render_poly_latex(Poly([1, Fraction(-1, 2)])) == r"-\frac{1}{2} x + 1"

    def test_series_with_negative_terms(self):
        assert render_series_text(series_S(1)) == "-1 - x t"

    def test_series_zero(self):
        from scepoly.genfunc import FormalSeries

        assert render_series_text(FormalSeries.zero(3)) == "0"

    def test_closed_form_sin_n1(self):
        assert render_closed_form_text(closed_form("sin", 1)) == "-x cos x + sin x + C"

    def test_closed_form_sin_n0(self):
        assert render_closed_form_text(closed_form("sin", 0)) == "-cos x + C"

    def test_closed_form_exp_rates(self):
        from fractions import Fraction

        assert render_closed_form_text(closed_form("exp", 0, 2)) == "1/2 e^(2x) + C"
        assert (
            render_closed_form_text(closed_form("exp", 0, Fraction(-1)))
            == "-e^(-x) + C"
        )


def _ref_poly(p: Poly, latex: bool = False) -> str:
    """render_poly_text (or _latex) from the Fractions of p.coeffs, highest power first."""
    terms = []
    for k, c in reversed(list(enumerate(p.coeffs))):
        if c.im:
            raise ValueError("imaginary coefficient")
        if c.re:
            num, den = abs(c.re).numerator, abs(c.re).denominator
            xs = "" if k == 0 else "x" if k == 1 else f"x^{{{k}}}" if latex else f"x^{k}"
            if latex and den != 1:
                mag = rf"\frac{{{num}}}{{{den}}}" + (f" {xs}" if xs else "")
            else:
                mag = (xs if num == 1 and k else f"{num}{xs}") + (f"/{den}" if den != 1 else "")
            terms.append(("-" if c.re < 0 else "", mag))
    return _ref_join([sign + mag for sign, mag in terms])


def _ref_join(pieces: list[str]) -> str:
    if not pieces:
        return "0"
    return pieces[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in pieces[1:])


def _ref_times(p: Poly, basis: str) -> str:
    coeffs = [c for c in p.coeffs if c]
    if p.coeffs in ((1,), (-1,)):
        return basis if p.coeffs[0] == 1 else "-" + basis
    return f"{_ref_poly(p)} {basis}" if len(coeffs) == 1 else f"({_ref_poly(p)}) {basis}"


def _ref_t(k: int, latex: bool = False) -> str:
    return "t" if k == 1 else f"t^{{{k}}}" if latex else f"t^{k}"


def _ref_json_coeffs(p: Poly) -> list:
    return [{"re": str(c.re), "im": str(c.im)} for c in p.coeffs]


def _ref_csv_rows(p: Poly, prefix: str = "") -> list[str]:
    return [
        f"{prefix}{k},{c.re.numerator},{c.re.denominator},{c.im.numerator},{c.im.denominator}"
        for k, c in enumerate(p.coeffs)
    ]


NUMERATORS = st.just(0) | st.integers(-300, 300) | st.integers(-10**40, 10**40)


@st.composite
def render_polys(draw, gaussian=False):
    """A single term +-x^k (+-1 at k = 0), or numerators over one denominator up to 60
    from x^lo, lo in 0..3, with zeros inside; imaginary numerators too if ``gaussian``."""
    if draw(st.integers(0, 3)) == 0:
        return Poly.monomial(draw(st.integers(0, 5)), draw(st.sampled_from([1, -1])))
    lo = draw(st.integers(0, 3))
    den = draw(st.integers(1, 60))
    re = draw(st.lists(NUMERATORS, max_size=8))
    im = draw(st.lists(NUMERATORS, min_size=len(re), max_size=len(re))) if gaussian else [0] * len(re)
    return Poly([0] * lo + [GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)])


RATES_Q = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool)


class TestRenderersMatchReference:
    """Every renderer equals a reference that formats the Fractions of Poly.coeffs directly."""

    @given(p=render_polys(), n=st.integers(0, 64), m=st.none() | RATES_Q)
    @settings(deadline=None, max_examples=300)
    @example(p=Poly.zero(), n=0, m=None)
    @example(p=Poly.one(), n=0, m=None)
    @example(p=-Poly.x() ** 3, n=1, m=Fraction(-5, 3))
    @example(p=Poly([0, 0, 0, Fraction(1, 60), 0, 0, Fraction(-7, 60)]), n=2, m=None)
    def test_poly(self, p, n, m):
        assert render_poly_text(p) == _ref_poly(p)
        assert render_poly_latex(p) == _ref_poly(p, latex=True)
        self.check_exports(p, n, m)

    @given(p=render_polys(gaussian=True), n=st.integers(0, 64), m=st.none() | RATES_Q)
    @settings(deadline=None, max_examples=100)
    @example(p=Poly([GaussianRational(0, 1)]), n=0, m=None)
    def test_gaussian_poly(self, p, n, m):
        if any(c.im for c in p.coeffs):
            for render in (render_poly_text, render_poly_latex):
                with pytest.raises(ValueError):
                    render(p)
        self.check_exports(p, n, m)

    @staticmethod
    def check_exports(p, n, m):
        doc = {"family": "em", "n": n, **({"m": str(m)} if m is not None else {}), "coeffs": _ref_json_coeffs(p)}
        assert poly_to_json("em", n, p, m) == json.dumps(doc, separators=(",", ":"))
        assert poly_to_csv(p) == "\n".join(["degree,re_num,re_den,im_num,im_den", *_ref_csv_rows(p)])

    @given(coeffs=st.lists(render_polys(), min_size=1, max_size=5), m=st.none() | RATES_Q)
    @settings(deadline=None, max_examples=200)
    @example(coeffs=[Poly.zero(), Poly.one(), -Poly.one(), Poly.x(), Poly([1, 1])], m=None)
    @example(coeffs=[Poly.one(), Poly.constant(Fraction(1, 3)), Poly.constant(Fraction(-1, 2))], m=None)
    def test_series(self, coeffs, m):
        fs = FormalSeries(coeffs)
        text = [_ref_poly(c) if k == 0 else _ref_times(c, _ref_t(k)) for k, c in enumerate(coeffs) if not c.is_zero()]
        assert render_series_text(fs) == _ref_join(text)
        latex = [
            _ref_poly(c, latex=True) if k == 0
            else rf"\left({_ref_poly(c, latex=True)}\right) {_ref_t(k, latex=True)}"
            for k, c in enumerate(coeffs) if not c.is_zero()
        ]
        assert render_series_latex(fs) == (" + ".join(latex) or "0")
        order = len(coeffs) - 1
        doc = {"family": "e", "order": order, **({"m": str(m)} if m is not None else {}),
               "coeffs": [_ref_json_coeffs(c) for c in coeffs]}
        assert series_to_json("e", order, fs, m) == json.dumps(doc, separators=(",", ":"))
        rows = [row for k, c in enumerate(coeffs) for row in _ref_csv_rows(c, f"{k},")]
        assert series_to_csv(fs) == "\n".join(["t_power,degree,re_num,re_den,im_num,im_den", *rows])

    @given(kind=st.sampled_from(["sin", "cos", "exp"]), first=render_polys(), second=render_polys(), m=RATES_Q)
    @settings(deadline=None, max_examples=200)
    @example(kind="exp", first=-Poly.one(), second=Poly.zero(), m=Fraction(-1))
    @example(kind="sin", first=Poly.zero(), second=Poly.zero(), m=Fraction(1))
    @example(kind="cos", first=Poly.constant(Fraction(-1, 2)), second=Poly.monomial(2, Fraction(1, 3)), m=Fraction(1))
    def test_closed_form(self, kind, first, second, m):
        # F = Re(part e^(rate x)): P e^(mx), or P cos x + Q sin x from the part P - iQ at the rate i.
        if kind == "exp":
            cf = ClosedForm("exp", 0, GaussianRational(m), first)
            exponent = "x" if m == 1 else f"({_ref_poly(Poly([0, m]))})"
            terms = [(first, f"e^{exponent}")]
        elif kind == "sin":
            cf = ClosedForm("sin", 0, I, first - second * I)
            terms = [(first, "cos x"), (second, "sin x")]
        else:
            cf = ClosedForm("cos", 0, I, second - first * I)
            terms = [(first, "sin x"), (second, "cos x")]
        expected = _ref_join([_ref_times(p, basis) for p, basis in terms if not p.is_zero()]) + " + C"
        assert render_closed_form_text(cf) == expected


def _decimal(k: int) -> str:
    """str(k) past the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(k)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongExactOutput:
    """e_3000's constant term is 3000!, 9,131 digits: past Python's 4,300-digit limit."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_e_3000(self, capsys, monkeypatch, fmt):
        monkeypatch.setenv("SCE_MAX_N", "5000")
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "poly", "e", "--n", "3000", "--format", fmt)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # lifted only while rendering
        digits = _decimal(factorial(3000))
        if fmt == "text":
            assert out.startswith("x^3000 - 3000x^2999 + ")
            assert out.endswith(f" + {digits}\n")
        elif fmt == "json":
            coeffs = json.loads(out)["coeffs"]
            assert len(coeffs) == 3001
            assert coeffs[0] == {"re": digits, "im": "0"}
        else:
            rows = out.splitlines()
            assert len(rows) == 3002
            assert rows[1] == f"0,{digits},1,0,1"

    def test_rate_is_parsed_under_the_limit(self, capsys):
        code, _, err = run_cli(capsys, "poly", "em", "--n", "1", "--m", "7" * 5000)
        assert code == 2
        assert "malformed rational" in err

    @pytest.mark.parametrize(
        "argv",
        [("poly", "em", "--n", "1", "--m", rate) for rate in ("1e5000", "-1e5000", "1e-5000", "1e100000000")]
        + [("integrate", "--kind", "exp", "--n", "1", "--m", "1e-100000000", "--a", "0", "--b", "1")],
    )
    def test_exponent_rate_is_parsed_under_the_limit(self, capsys, argv):
        # Refused by its exponent: 10**exponent is never built.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed rational")
        assert f"limit of {sys.get_int_max_str_digits()} digits" in err


class TestExitCodes:
    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "q", "--n", "2")
        assert code == 2

    def test_zero_rate_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--kind", "exp", "--n", "1", "--m", "0")
        assert code == 2
        assert "nonzero" in err

    def test_malformed_rate(self, capsys):
        code, _, err = run_cli(capsys, "poly", "em", "--n", "1", "--m", "3/0")
        assert code == 2

    def test_em_without_rate(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "em", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("poly", "em", "--n", "1"), "family 'em' requires a rate m"),
            (("poly", "e", "--n", "2", "--m", "3"), "rate m applies only to family 'em'"),
            (("genfunc", "--family", "em", "--order", "3"), "family 'em' requires a rate m"),
            (("genfunc", "--family", "s", "--order", "3", "--m", "3"), "rate m applies only to family 'em'"),
        ],
    )
    def test_family_rate_rule(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_check_without_bounds(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--kind", "sin", "--n", "2", "--check")
        assert (code, out, err) == (2, "", "error: --check needs --a and --b\n")

    def test_m_rejected_for_sin(self, capsys):
        code, _, _ = run_cli(capsys, "integrate", "--kind", "sin", "--n", "1", "--m", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [("poly", "em", "--n", "1", "--m", "1/0"), ("integrate", "--kind", "exp", "--n", "1", "--m", "2/0")])
    def test_zero_denominator_is_malformed(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: malformed rational {argv[-1]!r} (use integer or p/q)\n"

    def test_negative_index(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "e", "--n", "-3")
        assert code == 2

    def test_bad_suite_name(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_missing_bound(self, capsys):
        code, _, _ = run_cli(capsys, "integrate", "--kind", "sin", "--n", "1", "--a", "0")
        assert code == 2

    def test_max_n_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SCE_MAX_N", "10")
        code, _, err = run_cli(capsys, "poly", "e", "--n", "11")
        assert code == 2
        assert "SCE_MAX_N" in err

    def test_cap_allows_at_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("SCE_MAX_N", "10")
        code, _, _ = run_cli(capsys, "poly", "e", "--n", "10")
        assert code == 0


class TestSignedValues:
    """A value after --m, --a or --b may start with "-" in either spelling."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "em", "--n", "3", "--format", "json"],
            ["integrate", "--kind", "exp", "--n", "3"],
            ["genfunc", "--family", "em", "--order", "4"],
        ],
    )
    def test_negative_fraction_rate(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--m", "-5/3")
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv, "--m=-5/3") == (code, out, err)

    def test_exponent_bound(self, capsys):
        argv = ["integrate", "--kind", "sin", "--n", "1", "--b", "1"]
        code, out, _ = run_cli(capsys, *argv, "--a", "-1e1")
        assert code == 0
        assert run_cli(capsys, *argv, "--a=-10")[1] == out


class TestBadBounds:
    @pytest.mark.parametrize(
        "bounds",
        [["--a", "0", "--b", "inf"], ["--a", "nan", "--b", "1"], ["--a", "-inf", "--b", "0"]],
    )
    def test_non_finite_bound_is_usage_error(self, capsys, bounds):
        code, out, err = run_cli(capsys, "integrate", "--kind", "sin", "--n", "1", *bounds)
        assert (code, out) == (2, "")
        assert err.startswith("error: --") and "must be finite" in err

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_overflowing_integral_is_reported(self, capsys, check):
        code, out, err = run_cli(
            capsys, "integrate", "--kind", "exp", "--n", "5", "--a", "0", "--b", "1000", *check
        )
        assert (code, out) == (2, "")
        assert err == "error: definite integral overflows double precision\n"


class TestQuadratureOverflow:
    """A --check request whose interval or integrand overflows a double is a quadrature failure."""

    @pytest.mark.parametrize(
        "bounds",
        [["--a", "-1e308", "--b", "1e308"], ["--a", "1e308", "--b", "1.7e308"]],
    )
    def test_overflowing_interval(self, capsys, bounds):
        code, out, err = run_cli(capsys, "integrate", "--kind", "cos", "--n", "0", *bounds, "--check")
        assert (code, out) == (2, "")
        assert err.startswith("error: quadrature failed")

    def test_overflowing_integrand(self, capsys, monkeypatch):
        # 65536^64 = 2^1024 is past the largest double, though the integral is not.
        monkeypatch.setenv("SCE_MAX_N", "100")
        code, out, err = run_cli(
            capsys, "integrate", "--kind", "sin", "--n", "64", "--a", "65536", "--b", "65536.00000000001", "--check"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: quadrature failed")

    def test_rate_too_large_for_a_double(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate", "--kind", "exp", "--n", "1", "--m", "1e400", "--a", "-1", "--b", "-0.5", "--check"
        )
        assert (code, out) == (2, "")
        assert err == "error: quadrature failed: the integrand overflows double precision on [-1.0, -0.5]\n"


class TestIntegrateCommand:
    def test_definite_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--kind", "sin", "--n", "1", "--a", "0", "--b", "3.14159265358979"
        )
        assert code == 0
        assert abs(float(out) - 3.14159265) < 1e-6

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--kind", "sin", "--n", "1",
            "--a", "0", "--b", "3.14159265358979", "--check",
        )
        assert code == 0
        assert "PASS" in out

    def test_check_exp_rate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--kind", "exp", "--n", "3", "--m", "2",
            "--a", "-2", "--b", "1.5", "--check",
        )
        assert code == 0
        assert "PASS" in out

    def test_reversed_bounds(self, capsys):
        code_fwd, out_fwd, _ = run_cli(
            capsys, "integrate", "--kind", "cos", "--n", "2", "--a", "0", "--b", "2"
        )
        code_rev, out_rev, _ = run_cli(
            capsys, "integrate", "--kind", "cos", "--n", "2", "--a", "2", "--b", "0"
        )
        assert code_fwd == code_rev == 0
        assert float(out_fwd) == pytest.approx(-float(out_rev))


class TestVerifyCommand:
    def test_routes_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "routes", "--max-n", "10")
        assert code == 0
        assert "FAIL" not in out
        assert "0 failed" in out

    def test_all_suites_base_cases(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")
        assert code == 0
        assert "0 failed" in out

    @pytest.mark.parametrize(
        "suite", ["recurrences", "odes", "genfunc", "laguerre", "theorem1", "theorem2"]
    )
    def test_each_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", "6")
        assert code == 0, out

    @pytest.mark.parametrize(
        "suite,count",
        [
            ("routes", 70), ("recurrences", 112), ("odes", 112), ("genfunc", 38),
            ("laguerre", 35), ("theorem1", 68), ("theorem2", 7), ("all", 442),
        ],
    )
    def test_identity_count(self, capsys, suite, count):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", "6")
        assert code == 0
        assert out.endswith(f"\n{count} identities checked, 0 failed\n")

    def test_all_output_digest(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "6")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "4b401828176f3045014ee90b312e08adcd62c870c6f185da7c799b1a59f98631"


class TestGenfuncCommand:
    def test_em_with_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfunc", "--family", "em", "--m", "2", "--order", "1"
        )
        assert code == 0
        assert out == "1 + (2x - 1) t\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfunc", "--family", "e", "--order", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 2
        assert len(doc["coeffs"]) == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfunc", "--family", "s", "--order", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_power,degree,re_num,re_den,im_num,im_den"

    @pytest.mark.parametrize(
        "argv,fmt,expected",
        [
            (
                ["--family", "e", "--order", "3"], "latex",
                r"1 + \left(x - 1\right) t + \left(\frac{1}{2} x^{2} - x + 1\right) t^{2}"
                r" + \left(\frac{1}{6} x^{3} - \frac{1}{2} x^{2} + x - 1\right) t^{3}",
            ),
            (
                ["--family", "e", "--order", "3"], "json",
                '{"family":"e","order":3,"coeffs":[[{"re":"1","im":"0"}],'
                '[{"re":"-1","im":"0"},{"re":"1","im":"0"}],'
                '[{"re":"1","im":"0"},{"re":"-1","im":"0"},{"re":"1/2","im":"0"}],'
                '[{"re":"-1","im":"0"},{"re":"1","im":"0"},{"re":"-1/2","im":"0"},{"re":"1/6","im":"0"}]]}',
            ),
            (
                ["--family", "e", "--order", "3"], "csv",
                "t_power,degree,re_num,re_den,im_num,im_den\n0,0,1,1,0,1\n1,0,-1,1,0,1\n"
                "1,1,1,1,0,1\n2,0,1,1,0,1\n2,1,-1,1,0,1\n2,2,1,2,0,1\n3,0,-1,1,0,1\n"
                "3,1,1,1,0,1\n3,2,-1,2,0,1\n3,3,1,6,0,1",
            ),
            (
                ["--family", "em", "--m", "-5/3", "--order", "2"], "latex",
                r"1 + \left(-\frac{5}{3} x - 1\right) t"
                r" + \left(\frac{25}{18} x^{2} + \frac{5}{3} x + 1\right) t^{2}",
            ),
            (
                ["--family", "em", "--m", "-5/3", "--order", "2"], "json",
                '{"family":"em","order":2,"m":"-5/3","coeffs":[[{"re":"1","im":"0"}],'
                '[{"re":"-1","im":"0"},{"re":"-5/3","im":"0"}],'
                '[{"re":"1","im":"0"},{"re":"5/3","im":"0"},{"re":"25/18","im":"0"}]]}',
            ),
            (
                ["--family", "em", "--m", "-5/3", "--order", "2"], "csv",
                "t_power,degree,re_num,re_den,im_num,im_den\n0,0,1,1,0,1\n1,0,-1,1,0,1\n"
                "1,1,-5,3,0,1\n2,0,1,1,0,1\n2,1,5,3,0,1\n2,2,25,18,0,1",
            ),
            (
                ["--family", "s", "--order", "2"], "latex",
                r"-1 + \left(-x\right) t + \left(-\frac{1}{2} x^{2} + 1\right) t^{2}",
            ),
            (
                ["--family", "s", "--order", "2"], "json",
                '{"family":"s","order":2,"coeffs":[[{"re":"-1","im":"0"}],'
                '[{"re":"0","im":"0"},{"re":"-1","im":"0"}],'
                '[{"re":"1","im":"0"},{"re":"0","im":"0"},{"re":"-1/2","im":"0"}]]}',
            ),
            (
                ["--family", "s", "--order", "2"], "csv",
                "t_power,degree,re_num,re_den,im_num,im_den\n0,0,-1,1,0,1\n1,0,0,1,0,1\n"
                "1,1,-1,1,0,1\n2,0,1,1,0,1\n2,1,0,1,0,1\n2,2,-1,2,0,1",
            ),
        ],
    )
    def test_exact_output(self, capsys, argv, fmt, expected):
        code, out, err = run_cli(capsys, "genfunc", *argv, "--format", fmt)
        assert (code, out, err) == (0, expected + "\n", "")


def run_python(*args, timeout=None):
    """Run ``python *args`` in a child process.

    The child does not inherit pytest's pythonpath setting, so an uninstalled
    checkout needs its src/ put on the child's path.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def run_module(*argv, timeout=None):
    """Run ``python -m scepoly.cli`` in a child process."""
    return run_python("-m", "scepoly.cli", *argv, timeout=timeout)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("poly", "e", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout == "x^2 - 2x + 2\n"

    def test_requests_do_not_import_dataclasses(self):
        # The records are _Immutable values, so neither the import nor a request loads dataclasses.
        script = (
            "import sys, scepoly\n"
            "from scepoly.cli import main\n"
            "seen = [('import', 0, 'dataclasses' in sys.modules)]\n"
            "for argv in (['poly', 'e', '--n', '5'], ['genfunc', '--family', 'c', '--order', '2'],\n"
            "             ['verify', '--suite', 'all', '--max-n', '8']):\n"
            "    seen.append((argv[0], main(argv), 'dataclasses' in sys.modules))\n"
            "print(seen, file=sys.stderr)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "[('import', 0, False), ('poly', 0, False), ('genfunc', 0, False), ('verify', 0, False)]\n")

    def test_wide_check_exhausts_the_panel_cap_quickly(self):
        # Every panel of [0, 1e16] has a large error, so only the panel cap
        # ends the oracle; the request must fail fast, not run on.
        proc = run_module(
            "integrate", "--kind", "cos", "--n", "0", "--a", "0", "--b", "1e16", "--check",
            timeout=10,
        )
        assert proc.returncode == 2
        assert "quadrature failed to converge" in proc.stderr

    def test_poly_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "e", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "degree,re_num,re_den,im_num,im_den",
            "0,-1,1,0,1",
            "1,1,1,0,1",
        ]


INDEXES = st.integers(-2, 10).map(str)
RATES = st.integers(-20, 20).map(str) | st.builds(
    "{}/{}".format, st.integers(-20, 20), st.integers(-20, 20)
)
BOUNDS = st.floats(-1e3, 1e3).map(repr) | st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308"])
# --check runs the quadrature oracle, whose cost grows with the interval.
CHECK_BOUNDS = st.floats(-50, 50).map(repr)
FORMATS = st.sampled_from(["text", "latex", "json", "csv"])
VERBS = {
    "poly": {"--n": INDEXES, "--m": RATES, "--format": FORMATS},
    "integrate": {
        "--kind": st.sampled_from(["sin", "cos", "exp"]),
        "--n": INDEXES, "--m": RATES, "--a": BOUNDS, "--b": BOUNDS,
    },
    "verify": {
        "--suite": st.sampled_from(["routes", "theorem2", "all", "bogus"]), "--max-n": INDEXES,
    },
    "genfunc": {
        "--family": st.sampled_from(["e", "s", "c", "em"]),
        "--order": INDEXES, "--m": RATES, "--format": FORMATS,
    },
}


@st.composite
def cli_argvs(draw):
    """A verb and a random subset of its flags, in random order; now and then --check or --help."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    head = [verb]
    if verb == "poly":
        head.append(draw(st.sampled_from(["e", "s", "c", "shat", "chat", "em"])))
    flags = VERBS[verb]
    switches = []
    if verb == "integrate" and draw(st.booleans()):
        flags = {**flags, "--a": CHECK_BOUNDS, "--b": CHECK_BOUNDS}
        switches.append(["--check"])
    if draw(st.sampled_from([False] * 7 + [True])):
        switches.append(["--help"])
    pairs = [
        [flag, draw(values)]
        for flag, values in flags.items()
        if draw(st.sampled_from([True, True, True, False]))
    ]
    return head + [token for pair in draw(st.permutations(pairs + switches)) for token in pair]


def run_quiet(argv):
    """(exit code, stdout, stderr) of main(argv) with indexes capped at 6."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SCE_MAX_N": "6"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzzedArgv:
    """Every argv exits 0, 1 or 2 through main, never with an exception."""

    @given(cli_argvs())
    @settings(deadline=None, max_examples=150)
    def test_exit_code_contract(self, argv):
        code, _, err = run_quiet(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err

    @given(
        kind=st.sampled_from(["sin", "cos", "exp"]), n=INDEXES, m=st.none() | RATES,
        a=CHECK_BOUNDS, b=CHECK_BOUNDS,
    )
    @settings(deadline=None, max_examples=100)
    def test_check_exit_code_contract(self, kind, n, m, a, b):
        # Every required flag is present, so most of these reach the oracle.
        rate = [] if m is None else ["--m", m]
        argv = ["integrate", "--kind", kind, "--n", n, *rate, "--a", a, "--b", b, "--check"]
        code, _, err = run_quiet(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err


class TestParserReuse:
    """main builds one parser per process, and reusing it changes no output."""

    def test_main_builds_the_parser_once(self):
        cli._parser.cache_clear()
        try:
            with mock.patch.object(cli, "build_parser", wraps=build_parser) as spy:
                for argv in (["poly", "e", "--n", "2"], ["poly", "q"], ["verify", "--help"]) * 3:
                    run_quiet(argv)
            assert spy.call_count == 1
        finally:
            cli._parser.cache_clear()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @given(argv=cli_argvs(), other=cli_argvs(), failing_check=st.booleans())
    @settings(deadline=None, max_examples=60)
    @example(argv=["--help"], other=["poly", "e", "--n", "1"], failing_check=False)
    @example(argv=["integrate", "--help"], other=["--help"], failing_check=False)
    @example(argv=["poly", "q", "--n", "2"], other=["poly"], failing_check=False)
    @example(argv=[], other=["verify", "--suite", "bogus"], failing_check=False)
    @example(
        argv=["integrate", "--kind", "sin", "--n", "1", "--a", "0", "--b", "1", "--check"],
        other=["poly", "e", "--n", "2"],
        failing_check=True,
    )
    def test_warm_parser_matches_cold(self, argv, other, failing_check):
        # failing_check makes every --check print FAIL and exit 1.
        tol = -1.0 if failing_check else cli.RELATIVE_CHECK_TOL
        with mock.patch.object(cli, "RELATIVE_CHECK_TOL", tol):
            cli._parser.cache_clear()
            cold = run_quiet(argv)
            run_quiet(other)
            assert run_quiet(argv) == cold
        if failing_check and "--check" in argv and cold[1].startswith("integral"):
            assert cold[0] == 1


def run_full_parser(argv):
    """run_quiet(argv), but parsed by a fresh parser's parse_args and run by the handler it sets."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SCE_MAX_N": "6"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = build_parser().parse_args(_attach_signed_values(argv))
                code = args.func(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except (ValueError, OverflowError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 2
    return code, out.getvalue(), err.getvalue()


JUNK = st.sampled_from(["extra", "--", "--bogus", "-5", "--n", "poly"])


class TestVerbParsing:
    """main parses with the verb's own parser, and answers every argv as the full parser does."""

    @given(argv=cli_argvs(), tail=st.lists(JUNK, max_size=2))
    @settings(deadline=None, max_examples=150)
    @example(argv="poly e --n 2 extra".split(), tail=[])
    @example(argv="poly e --n 1 -- x".split(), tail=[])
    @example(argv="poly -- e --n 1".split(), tail=[])
    @example(argv="poly -h".split(), tail=[])
    @example(argv=[], tail=[])
    @example(argv=["-h"], tail=[])
    @example(argv=["nope"], tail=[])
    @example(argv="integrate --kind sin --n 1 --bogus".split(), tail=[])
    @example(argv="genfunc --family e --order 2 --format json".split(), tail=[])
    def test_main_matches_the_full_parser(self, argv, tail):
        argv = argv + tail
        assert run_quiet(argv) == run_full_parser(argv)

    def test_leftovers_get_the_full_parsers_usage(self):
        code, out, err = run_quiet(["poly", "e", "--n", "2", "extra"])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "usage: scepoly [-h] {poly,integrate,verify,genfunc} ..."
        assert err.splitlines()[-1] == "scepoly: error: unrecognized arguments: extra"


def check_argvs(seed=8, count=20):
    """Seeded integrate --check requests over the documented domain: n <= 12, bounds in [-10, 10]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.choice(["sin", "cos", "exp"])
        argv = ["integrate", "--kind", kind, "--n", str(rng.randint(0, 12))]
        if kind == "exp":
            argv.append("--m=" + rng.choice(["1", "2", "-1", "1/2", "-5/3"]))
        argv += ["--a=" + repr(rng.uniform(-10, 10)), "--b=" + repr(rng.uniform(-10, 10)), "--check"]
        out.append(argv)
    return out


# sha256 prefixes of each check_argvs() request's stdout: any printed digit
# of the integral, the oracle or the discrepancy that moves shows here.
CHECK_DIGESTS = [
    "5ece613ec56cc88a", "e7ba5b25ce01cf1f", "c32ea5cf27cd7fae", "b9658e14d74175bc",
    "ab5b7d774e59a456", "4b34246cfffe1d95", "7681f408f8ad2da9", "6552776fb6c9000b",
    "007c0e7759fcc738", "59f88b22d6c471b2", "8b591f50ef1f783e", "3cc3380b78d64184",
    "777c58f6f6b6be34", "b911d4b9b26175a8", "2052c9072f25cc92", "f8e990f59d59aa2e",
    "12744ca59f547d06", "02458e5e082f5d9c", "af177da68241d05c", "0f6f8ae7ed4401d0",
]


@pytest.mark.parametrize("argv,digest", zip(check_argvs(), CHECK_DIGESTS))
def test_check_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith(": PASS\n")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, out


def test_check_requests_meet_the_exact_size_bound_once_each(capsys, monkeypatch):
    decided = []
    rounds_to_zero = integrals._rounds_to_zero

    def spy(*args):
        decided.append(rounds_to_zero(*args))
        return decided[-1]

    monkeypatch.setattr(integrals, "_rounds_to_zero", spy)
    for i, (argv, digest) in enumerate(zip(check_argvs(), CHECK_DIGESTS), 1):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, out
        assert decided == [False] * i


def test_tiny_integral_needs_no_polynomial_value(capsys, monkeypatch):
    decided = []
    rounds_to_zero = integrals._rounds_to_zero

    def spy(*args):
        decided.append(rounds_to_zero(*args))
        return decided[-1]

    monkeypatch.setattr(integrals, "_rounds_to_zero", spy)
    with mock.patch.object(Poly, "eval", side_effect=AssertionError("a polynomial value was computed")):
        for a, b in (("1e-300", "2e-300"), ("2e-300", "1e-300")):
            assert run_cli(capsys, "integrate", "--kind", "sin", "--n", "64", "--a", a, "--b", b) == (0, "0\n", "")
    # The bound rejects x^0 cos x over the same interval and x cos x over [0, 1e-160], whose value is near 5e-321.
    assert run_cli(capsys, "integrate", "--kind", "cos", "--n", "0", "--a", "1e-300", "--b", "2e-300") == (
        0, "1e-300\n", "")
    assert run_cli(capsys, "integrate", "--kind", "cos", "--n", "1", "--a", "0", "--b", "1e-160") == (
        0, "4.999944335913415e-321\n", "")
    assert decided == [True, True, False, False]


# integrate requests outside the benchmark's domain, each pinned by the sha256
# prefix of its exit code, stdout and stderr, as recorded before the rounding
# rule of integrals._closed_form_float replaced a tuned noise model.
EDGE_DIGESTS = [
    # n = 64 cancellation near 0
    ("--kind sin --n 64 --a 0 --b 0.001", "880c5239f6e929d3"),
    ("--kind sin --n 64 --a 0.2516 --b 0.264", "1ba494088755d9f0"),
    ("--kind cos --n 64 --a 0 --b 0.001", "da206a59ec64bf7a"),
    ("--kind exp --n 64 --a 0 --b 0.001", "4827824925189796"),
    ("--kind exp --n 64 --m -1 --a 0 --b 0.01", "e8f6651e52010038"),
    ("--kind sin --n 63 --a -0.001 --b 0.002", "8d99dfc34eaf6530"),
    # bounds of ±1e300, with exact zeros and an empty interval among them
    ("--kind sin --n 64 --a -1e300 --b 1e300", "52f96c26a39ed251"),
    ("--kind sin --n 1 --a 0 --b 1e300", "31b218bf59976854"),
    ("--kind cos --n 0 --a -1e300 --b 1e300", "4e72fe4e86d54b31"),
    ("--kind sin --n 0 --a -1e300 --b 1e300", "52f96c26a39ed251"),
    ("--kind exp --n 3 --m -1 --a 0 --b 1e300", "df4f9b728b7582d2"),
    ("--kind exp --n 2 --m -1 --a 1e300 --b 1e300", "52f96c26a39ed251"),
    ("--kind sin --n 2 --a 1e300 --b -1e300", "52f96c26a39ed251"),
    # overflow errors
    ("--kind exp --n 0 --a 0 --b 1e6", "a2d0ae28df397fdb"),
    ("--kind cos --n 64 --a -1e300 --b 1e300", "a2d0ae28df397fdb"),
    ("--kind exp --n 5 --m 2 --a 0 --b 400", "a2d0ae28df397fdb"),
    ("--kind sin --n 64 --a 0 --b 1e10", "a2d0ae28df397fdb"),
    ("--kind exp --n 0 --m -1 --a -1e300 --b 0", "a2d0ae28df397fdb"),
    # odd integrands over symmetric intervals
    ("--kind sin --n 2 --a -3 --b 3", "52f96c26a39ed251"),
    ("--kind cos --n 1 --a -1 --b 1", "52f96c26a39ed251"),
    ("--kind cos --n 63 --a -7.5 --b 7.5", "52f96c26a39ed251"),
    ("--kind sin --n 64 --a -2.5 --b 2.5", "52f96c26a39ed251"),
    ("--kind sin --n 0 --a -0.1 --b 0.1", "52f96c26a39ed251"),
    # an endpoint at 0
    ("--kind sin --n 5 --a 0 --b 2", "a0c5b5f5ba4a11d8"),
    ("--kind cos --n 3 --a 0 --b 0", "52f96c26a39ed251"),
    ("--kind exp --n 4 --m 1/2 --a -3 --b 0", "a1f0fdb5f24cb5dc"),
    ("--kind cos --n 0 --a 0 --b 1e-300", "0af6a5fe2e385bdc"),
    # subnormal results, and negative ones below the smallest double (printed 0)
    ("--kind sin --n 0 --a 0 --b 1e-160", "471df7f05ef45a37"),
    ("--kind cos --n 1 --a 0 --b 1e-160", "471df7f05ef45a37"),
    ("--kind exp --n 1 --a 0 --b 3e-162", "c71fcb8fca75a1ee"),
    ("--kind sin --n 1 --a 2e-300 --b 1e-300", "52f96c26a39ed251"),
    ("--kind sin --n 64 --a 2e-300 --b 1e-300", "52f96c26a39ed251"),
    # near-symmetric intervals whose integral is not 0
    ("--kind cos --n 1 --a -1 --b 1.0000000000000002", "5147e8b030d50eae"),
    ("--kind sin --n 64 --a -2.5 --b 2.5000000000000004", "b7de0fd1ea7ea362"),
    ("--kind sin --n 2 --a -3.0000000000000004 --b 3", "10149c1d505ae360"),
    ("--kind sin --n 0 --a -1e300 --b 1.0000000000000002e300", "8a38b6c7f4204bc3"),
    # exactly halfway between two doubles: (2^27 - 1)^2 = 2^54 - 2^28 + 1, printed ties-to-even
    ("--kind exp --n 1 --m 1/134217727 --a 0 --b 134217727", "e9ad2a2ba179c7c1"),
    ("--kind exp --n 1 --m 1/134217727 --a 134217727 --b 0", "cbfec6467b7d2e27"),
]


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("request_,digest", EDGE_DIGESTS)
def test_integrate_edges_are_pinned(capsys, request_, digest):
    code, out, err = run_cli(capsys, "integrate", *request_.split())
    printed = f"{code}\n{out}{err}"
    assert hashlib.sha256(printed.encode()).hexdigest()[:16] == digest, printed


# One request per kind at n = 9, and an odd integrand whose integral is exactly 0: the value
# of the one (rate, part) term prints the digits that the per-kind float formulas printed.
INTEGRATE_VALUES = [
    ("--kind sin --n 9 --a -3.25 --b 4.5", "-258832.94213651307"),
    ("--kind cos --n 9 --a -3.25 --b 4.5", "-169495.86186998236"),
    ("--kind exp --n 9 --m -5/3 --a -3.25 --b 4.5", "-1963158.3768968661"),
    ("--kind cos --n 1 --a -2 --b 2", "0"),
]


@pytest.mark.parametrize("request_,value", INTEGRATE_VALUES)
def test_integrate_values_are_pinned(capsys, request_, value):
    assert run_cli(capsys, "integrate", *request_.split()) == (0, value + "\n", "")


SEED_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "seed_digests.tsv"


def seed_digest_requests(verb):
    """(argv, digest) for each ``verb`` row of the benchmark's digest table, read only.

    Rates are spelled "--m=VALUE", as bench/record_digests.py records them.
    """
    out = []
    for line in SEED_DIGESTS.read_text(encoding="utf-8").splitlines():
        key, digest = line.split("\t")
        argv = key.split()
        if argv[0] != verb:
            continue
        for i, arg in enumerate(argv[:-1]):
            if arg == "--m":
                argv[i:i + 2] = [f"--m={argv[i + 1]}"]
                break
        out.append((argv, digest))
    return out


@pytest.mark.parametrize("verb,count", [("poly", 2080), ("integrate", 400), ("genfunc", 88), ("verify", 1)])
def test_emit_outputs_match_seed_digests(monkeypatch, verb, count):
    monkeypatch.setenv("SCE_MAX_N", "64")
    requests = seed_digest_requests(verb)
    assert len(requests) == count
    wrong = []
    for argv, digest in requests:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0 or hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] != digest:
            wrong.append(" ".join(argv))
    assert wrong == []


def readme_cli_examples() -> list[tuple[str, list[str]]]:
    """(argv string, expected lines) for each ``$ scepoly ...`` line of README's ``## CLI`` block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ scepoly "):
            examples.append((line.removeprefix("$ scepoly "), []))
        elif line:
            examples[-1][1].append(line)
    return examples


README_CLI_EXAMPLES = readme_cli_examples()


def test_readme_cli_block_has_every_example():
    assert len(README_CLI_EXAMPLES) == 7
    assert {argv.split()[0] for argv, _ in README_CLI_EXAMPLES} == {"poly", "integrate", "genfunc", "verify"}


@pytest.mark.parametrize("argv,expected", README_CLI_EXAMPLES, ids=[a for a, _ in README_CLI_EXAMPLES])
def test_readme_cli_transcript(capsys, monkeypatch, argv, expected):
    """Each README example prints the lines shown; a '...' line stands for any lines."""
    monkeypatch.delenv("SCE_MAX_N", raising=False)
    code = main(shlex.split(argv))
    out = capsys.readouterr().out
    pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in expected)
    assert code == 0
    assert re.fullmatch(pattern, out), out
