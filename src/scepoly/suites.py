"""The verification suites: the paper's identities checked by exact equality.

Each suite takes the largest index ``max_n`` and returns a ``CheckReport``
with one entry per identity, in a fixed order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import families, genfunc, integrals
from .poly import Poly
from .report import CheckReport

__all__ = ["VERIFY_SUITES", "run_suite"]


_EM_RATES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _suite_routes(max_n: int) -> CheckReport:
    # The iterated routes run as one sweep each, and the complex-argument route
    # is built once per n (s_from_e(n) is -c_from_e(n)).  e_rodrigues stays per
    # n: the benchmark's tracer times the families.rodrigues layer through it.
    em_rates = _EM_RATES[1:]
    sweeps = zip(
        families.e_recurrence_sweep(max_n),
        integrals.s_rodrigues_sweep(max_n),
        *(families.rodrigues_sweep(m, max_n) for m in em_rates),
    )
    entries = []
    for n, (e_recurrence, s_rodrigues, *em_rodrigues) in enumerate(sweeps):
        e = families.e_explicit(n)
        entries.append((f"e_{n}: explicit = recurrence", e == e_recurrence))
        entries.append((f"e_{n}: explicit = rodrigues", e == families.e_rodrigues(n)))
        entries.append((f"e_{n}: explicit = laguerre", e == families.e_laguerre(n)))
        entries.append((f"em_{n}(1) = e_{n}", families.em_explicit(n, 1) == e))
        for m, part in zip(em_rates, em_rodrigues):
            entries.append((f"em_{n}(m={m}): explicit = rodrigues", families.em_explicit(n, m) == part))
        s, c_e = families.s_explicit(n), families.c_from_e(n)
        entries.append((f"s_{n}: explicit = complex-argument route", s == -c_e))
        entries.append((f"s_{n}: explicit = derivative route", s == s_rodrigues))
        entries.append((f"c_{n}: -s_{n} = complex-argument route", families.c_from_s(n) == c_e))
    return CheckReport.of(entries)


def _suite_recurrences(max_n: int) -> CheckReport:
    return families.check_relation_group(max_n)


def _suite_odes(max_n: int) -> CheckReport:
    em_specs = {m: genfunc.em_spec(m) for m in _EM_RATES}
    entries = []
    for n in range(max_n + 1):
        xn = Poly.monomial(n)
        e = families.e_explicit(n)
        s = families.s_explicit(n)
        c = families.c_from_s(n)
        entries.append((f"e_{n}' + e_{n} = x^{n}", e.derivative() + e == xn))
        entries.append((f"s_{n}'' + s_{n} = -x^{n}", s.derivative().derivative() + s == -xn))
        entries.append((f"c_{n}'' + c_{n} = x^{n}", c.derivative().derivative() + c == xn))
        entries.append((f"x e_{n}'' + (x-{n}) e_{n}' - {n} e_{n} = 0", genfunc.E_SPEC.residual(e, n).is_zero()))
        for m, spec in em_specs.items():
            em = families.em_explicit(n, m)
            entries.append((f"x em'' + ({m}x-{n}) em' - {m}*{n} em = 0 (m={m})", spec.residual(em, n).is_zero()))
            entries.append(
                (
                    f"em_{n}({m})' + {m} em = {m}^{n+1} x^{n}",
                    em.derivative() + m * em == m ** (n + 1) * xn,
                )
            )
            p = em / m ** (n + 1)  # antideriv_poly_exp(n, m), which theorem1 checks at these rates
            entries.append((f"P' + {m}P = x^{n} (m={m})", p.derivative() + m * p == xn))
    return CheckReport.of(entries)


def _suite_genfunc(max_n: int) -> CheckReport:
    entries = []
    e_series = genfunc.series_E(max_n)
    c_series = genfunc.series_C(max_n)
    s_series = -c_series  # genfunc.series_S(max_n), without building C a second time
    em_series = genfunc.series_Em(2, max_n)
    for n in range(max_n + 1):
        # Over n!, the family's numerators only gain a denominator; n! times the coefficient would cancel it again.
        f = factorial(n)
        entries.append((f"n! [t^{n}] E = e_{n}", e_series.coeff(n) == families.e_explicit(n) / f))
        entries.append((f"n! [t^{n}] S = s_{n}", s_series.coeff(n) == families.s_explicit(n) / f))
        entries.append((f"n! [t^{n}] C = c_{n}", c_series.coeff(n) == families.c_from_s(n) / f))
        entries.append((f"n! [t^{n}] E_2 = em_{n}(2)", em_series.coeff(n) == families.em_explicit(n, 2) / f))
    exp_series = genfunc.series_exp_xt(1, max_n)
    entries.append(("dE/dx + E = e^(xt)", e_series.diff_x() + e_series == exp_series))
    entries.append(
        ("d2S/dx2 + S = -e^(xt)", s_series.diff_x().diff_x() + s_series == -exp_series)
    )
    entries.append(
        ("d2C/dx2 + C = e^(xt)", c_series.diff_x().diff_x() + c_series == exp_series)
    )
    return CheckReport.of(entries).merged_with(genfunc.series_connection_check(min(max_n, 20)))


def _suite_laguerre(max_n: int) -> CheckReport:
    specs = {a: genfunc.laguerre_spec(a) for a in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 2))}
    entries = []
    for n in range(max_n + 1):
        entries.append(
            (f"e_{n} = n! L_{n}^(-{n}-1)(-x)", families.e_explicit(n) == families.e_laguerre(n))
        )
        for alpha, spec in specs.items():
            ode = spec.residual(families.laguerre_general(n, alpha), n)
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
    entries = [("degeneracy holds for the e_n equation", genfunc.nu_degeneracy_check(genfunc.E_SPEC))]
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


# Entries are looked up at call time, so a caller may wrap one in place.
VERIFY_SUITES = {
    "routes": _suite_routes,
    "recurrences": _suite_recurrences,
    "odes": _suite_odes,
    "genfunc": _suite_genfunc,
    "laguerre": _suite_laguerre,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
}


def run_suite(name: str, max_n: int) -> CheckReport:
    """Run suite ``name`` (``"all"``: every suite, in order) to max_n; ValueError if unknown."""
    if name == "all":
        report = CheckReport.of([])
        for fn in VERIFY_SUITES.values():
            report = report.merged_with(fn(max_n))
        return report
    if name not in VERIFY_SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join([*VERIFY_SUITES, 'all'])}"
        )
    return VERIFY_SUITES[name](max_n)
