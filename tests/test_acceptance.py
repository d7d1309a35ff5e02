"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from scepoly import cli, families, genfunc, integrals
from scepoly.poly import Poly

X = Poly.x()


def done(msg: str) -> None:
    print(f"PASS  {msg}")


def test_criterion_01_route_equivalence():
    start = time.monotonic()
    for n in range(31):
        e = families.e_explicit(n)
        assert families.e_recurrence(n) == e
        assert families.e_rodrigues(n) == e
        assert families.e_laguerre(n) == e
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"route equivalence took {elapsed:.2f}s"
    done(f"criterion 1: four e-construction routes agree for n <= 30 ({elapsed:.2f}s)")


def test_criterion_02_reference_values():
    assert families.e_explicit(0) == Poly.one()
    assert families.e_explicit(1) == X - 1
    assert families.e_explicit(2) == X**2 - 2 * X + 2
    assert families.s_explicit(0) == Poly.constant(-1)
    assert families.s_explicit(1) == -X
    for m in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        assert families.em_explicit(1, m) == Poly([-1, m])
        assert families.em_explicit(2, m) == Poly([2, -2 * m, m**2])
    for n in range(21):
        assert families.e_explicit(n).eval(0) == (-1) ** n * factorial(n)
    done("criterion 2: reference polynomial values and e_n(0) = (-1)^n n! reproduced")


def test_criterion_03_ode_identities():
    for n in range(31):
        xn = Poly.monomial(n)
        e = families.e_explicit(n)
        s = families.s_explicit(n)
        c = families.c_from_s(n)
        assert e.derivative() + e == xn
        assert s.derivative().derivative() + s == -xn
        assert c.derivative().derivative() + c == xn
        assert (
            X * e.derivative().derivative()
            + (X - Poly.constant(n)) * e.derivative()
            - n * e
        ).is_zero()
        for m in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            em = families.em_explicit(n, m)
            assert (
                X * em.derivative().derivative()
                + (m * X - Poly.constant(n)) * em.derivative()
                - m * n * em
            ).is_zero()
    done("criterion 3: first-order, second-order and hypergeometric ODEs exact for n <= 30")


def test_criterion_04_scaled_rate_identity():
    for m in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        for n in range(21):
            em = families.em_explicit(n, m)
            xn = Poly.monomial(n)
            assert em.derivative() + m * em == m ** (n + 1) * xn
            p = families.antideriv_poly_exp(n, m)
            assert p.derivative() + m * p == xn
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "m^(n+1)" in text and "m = 1" in text, "normalization note missing from README"
    done("criterion 4: rate-m first-order identity carries m^(n+1); documented in README")


def test_criterion_05_generating_functions():
    order = 30
    e = genfunc.series_E(order)
    s = genfunc.series_S(order)
    c = genfunc.series_C(order)
    ems = {m: genfunc.series_Em(m, order) for m in (Fraction(2), Fraction(-1), Fraction(1, 2))}
    for n in range(order + 1):
        f = factorial(n)
        assert f * e.coeff(n) == families.e_explicit(n)
        assert f * s.coeff(n) == families.s_explicit(n)
        assert f * c.coeff(n) == families.c_from_s(n)
        for m, series in ems.items():
            assert f * series.coeff(n) == families.em_explicit(n, m)
    report = genfunc.series_connection_check(20)
    assert report.all_passed, report.failures
    done("criterion 5: generating-function coefficients exact to order 30; connection identity to order 20")


def test_criterion_06_degenerate_generating_formula():
    assert genfunc.nu_degeneracy_check(genfunc.E_SPEC) is True
    assert genfunc.nu_degeneracy_check(genfunc.laguerre_spec(0)) is False
    assert genfunc.degenerate_genfunc(genfunc.E_SPEC, 30) == genfunc.series_E(30)
    for m in (Fraction(2), Fraction(1, 2)):
        assert genfunc.degenerate_genfunc(genfunc.em_spec(m), 30) == genfunc.series_Em(m, 30)
    done("criterion 6: degenerate closed form reproduces E and E_m to order 30; degeneracy test discriminates")


def test_criterion_07_recurrence_groups():
    report = families.check_relation_group(30)
    groups = [e for e in report.entries if e.label.split(": ")[0] in ("G1", "G2", "G3", "G4")]
    assert len(groups) == 4 * 2 * 31
    assert all(e.passed for e in groups), groups
    for n in range(31):
        assert families.shat(n) == families.chat(n)
        assert families.c_from_s(n) == -families.s_explicit(n)
    done("criterion 7: recurrence groups G1-G4 and the shat=chat, c=-s identities exact for n <= 30")


def test_criterion_08_quadrature_cross_check():
    start = time.monotonic()
    rng = random.Random(20260810)
    kinds = [("sin", None), ("cos", None), ("exp", Fraction(1)), ("exp", Fraction(2)), ("exp", Fraction(-1))]
    checked = 0
    for kind, m in kinds:
        for n in range(13):
            cf = integrals.closed_form(kind, n, m)
            for _ in range(20):
                a, b = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
                value = integrals.definite_integral(cf, a, b)
                tol = 1e-12 * max(1.0, abs(value))
                quad = integrals.quad_adaptive(kind, n, m or 1, a, b, tol)
                assert abs(value - quad.value) <= 1e-9 * max(1.0, abs(quad.value)), (
                    kind, n, m, a, b, value, quad.value,
                )
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"quadrature sweep took {elapsed:.2f}s"
    done(f"criterion 8: {checked} closed-form vs quadrature comparisons within 1e-9 relative ({elapsed:.2f}s)")


def test_criterion_09_symbolic_antiderivatives():
    for n in range(31):
        assert integrals.check_antiderivative(integrals.closed_form("sin", n))
        assert integrals.check_antiderivative(integrals.closed_form("cos", n))
        for m in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
            assert integrals.check_antiderivative(integrals.closed_form("exp", n, m))
    report = integrals.antiderivative_recurrence_report(20)
    assert report.all_passed, report.failures
    done("criterion 9: exact derivative check of every closed form (n <= 30) and the integral-level recurrences")


def test_criterion_10_cli_contract(capsys):
    cases = [
        (["poly", "e", "--n", "2", "--format", "text"], "x^2 - 2x + 2\n"),
        (["poly", "em", "--n", "1", "--m", "3", "--format", "text"], "3x - 1\n"),
        (
            ["poly", "e", "--n", "0", "--format", "json"],
            '{"family":"e","n":0,"coeffs":[{"re":"1","im":"0"}]}\n',
        ),
        (["integrate", "--kind", "exp", "--n", "2"], "(x^2 - 2x + 2) e^x + C\n"),
        (["genfunc", "--family", "e", "--order", "1"], "1 + (x - 1) t\n"),
        (["genfunc", "--family", "s", "--order", "0"], "-1\n"),
        (["genfunc", "--family", "c", "--order", "2"], "1 + x t + (x^2/2 - 1) t^2\n"),
    ]
    for argv, expected in cases:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out == expected, (argv, out)

    for family, n in (("e", 9), ("s", 8), ("chat", 5)):
        code = cli.main(["poly", family, "--n", str(n), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert cli.poly_from_json(out) == families.family_poly(family, n)
        assert json.loads(out)["family"] == family

    assert cli.main(["integrate", "--kind", "exp", "--n", "1", "--m", "0"]) == 2
    capsys.readouterr()
    done("criterion 10: documented CLI outputs byte-for-byte; JSON round-trips; usage errors exit 2")
