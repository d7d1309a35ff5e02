"""The verification suites as a library, with no argument parsing."""

import sys

import pytest

from scepoly import cli, families, genfunc, poly, suites
from scepoly.genfunc import FormalSeries
from scepoly.poly import Poly
from scepoly.rational import I
from scepoly.suites import VERIFY_SUITES, run_suite


@pytest.mark.parametrize("name", list(VERIFY_SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, 6)
    assert len(report) > 0
    assert report.all_passed, report.failures


def test_all_is_every_suite_in_order():
    expected = tuple(e for name in VERIFY_SUITES for e in run_suite(name, 3).entries)
    assert run_suite("all", 3).entries == expected


def test_unknown_name_raises_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suite("bogus", 3)


def test_cli_shares_the_suite_table():
    # Wrapping a suite in cli.VERIFY_SUITES must reach run_suite.
    assert cli.VERIFY_SUITES is suites.VERIFY_SUITES


@pytest.mark.parametrize("name,count", [("genfunc", 284), ("theorem2", 7)])
def test_series_suites_at_max_n_64(name, count):
    # 64 is the default SCE_MAX_N cap; both suites compare series built by division and by recurrence
    report = run_suite(name, 64)
    assert len(report) == count
    assert report.all_passed, report.failures


def test_all_at_max_n_24_does_no_gaussian_arithmetic(gaussian_arithmetic):
    # The polynomial layers work on integer numerators, and the complex-argument
    # routes read Re(p/i^n) from them, so Gaussian rationals are only rates and
    # dict keys here.
    report = run_suite("all", 24)
    assert report.all_passed, report.failures
    assert gaussian_arithmetic == [], f"{len(gaussian_arithmetic)} calls: {sorted(set(gaussian_arithmetic))}"


def test_routes_build_e_of_ix_once_per_index(monkeypatch):
    # The complex-argument route is c_from_e(n) alone; s_from_e(n) is its negative.
    # em_explicit(n, m) is e_explicit(n).scale_arg(m), so each of the suite's
    # four rates adds one e_explicit call per index and no scale_arg(I).
    scaled, explicit = [], []
    scale_arg, e_explicit = Poly.scale_arg, families.e_explicit

    def scale_spy(p, c):
        if c == I:
            scaled.append(p)
        return scale_arg(p, c)

    def explicit_spy(n):
        explicit.append(n)
        return e_explicit(n)

    monkeypatch.setattr(Poly, "scale_arg", scale_spy)
    monkeypatch.setattr(families, "e_explicit", explicit_spy)
    report = run_suite("routes", 24)
    assert report.all_passed, report.failures
    assert (len(scaled), len(explicit)) == (25, 150)


def test_recurrences_build_each_family_value_once_per_index(monkeypatch):
    # One table of s, c, shat, chat and e at the indices -2..24, read by every
    # relation group and the three cross-family identities.
    calls = {name: 0 for name in ("shat", "chat", "e_explicit")}
    for name in calls:
        member = getattr(families, name)

        def spy(n, name=name, member=member):
            calls[name] += 1
            return member(n)

        monkeypatch.setattr(families, name, spy)
    report = run_suite("recurrences", 24)
    assert report.all_passed, report.failures
    assert calls == {"shat": 27, "chat": 27, "e_explicit": 27}


def test_genfunc_divides_each_series_once(monkeypatch):
    # E, C and E_2 at max-n, and E and C again in the connection check at
    # order 20, each one division by 1 + t^k; S is the suite's own -C.
    # No series is multiplied by another.
    divisions, products = [], []
    divide, mul = genfunc._over_one_plus_t_power, FormalSeries.__mul__

    def divide_spy(series, k):
        divisions.append((series.order, k))
        return divide(series, k)

    def mul_spy(a, b):
        if isinstance(b, FormalSeries):
            products.append(a.order)
        return mul(a, b)

    monkeypatch.setattr(genfunc, "_over_one_plus_t_power", divide_spy)
    monkeypatch.setattr(FormalSeries, "__mul__", mul_spy)
    report = run_suite("genfunc", 24)
    assert report.all_passed, report.failures
    assert divisions == [(24, 1), (24, 2), (24, 1), (20, 1), (20, 2)]
    assert products == []


def test_all_multiplies_no_series_by_a_series(monkeypatch):
    # Every series is a division or, in theorem2, degenerate_genfunc's t-recurrence; a series may still be
    # scaled by a Poly or a scalar.
    products, mul = [], FormalSeries.__mul__

    def mul_spy(a, b):
        if isinstance(b, FormalSeries):
            products.append(a.order)
        return mul(a, b)

    monkeypatch.setattr(FormalSeries, "__mul__", mul_spy)
    monkeypatch.setattr(FormalSeries, "__rmul__", mul_spy)
    report = run_suite("all", 24)
    assert report.all_passed, report.failures
    assert products == []


def test_odes_build_each_em_once_per_rate_and_index(monkeypatch):
    # P = e_n^(m) / m^(n+1) reuses the e_n^(m) that the ODE checks build;
    # antideriv_poly_exp is checked by theorem1 at the same rates.
    built, em_explicit = [], families.em_explicit

    def spy(n, m):
        built.append((n, m))
        return em_explicit(n, m)

    monkeypatch.setattr(families, "em_explicit", spy)
    monkeypatch.setattr(families, "antideriv_poly_exp", lambda n, m: pytest.fail("P was built a second time"))
    report = run_suite("odes", 24)
    assert report.all_passed, report.failures
    assert sorted(built) == sorted({(n, m) for n in range(25) for m in suites._EM_RATES})
    assert len(built) == 100


@pytest.mark.parametrize(
    "suite, family, ode_label", [("odes", "em_explicit", "x em''"), ("laguerre", "laguerre_general", "Laguerre ODE")]
)
def test_residual_catches_a_wrong_family(monkeypatch, suite, family, ode_label):
    # A mutant family gains x^(n+1) from n = 3 on: the ODE entry of each of the
    # suite's four rates or Laguerre parameters fails at exactly those n.
    correct = getattr(families, family)

    def mutant(n, rate):
        p = correct(n, rate)
        return p + Poly.monomial(n + 1) if n >= 3 else p

    monkeypatch.setattr(families, family, mutant)
    odes = [e.passed for e in run_suite(suite, 8).entries if e.label.startswith(ode_label)]
    assert odes == [True] * (3 * 4) + [False] * (6 * 4)


# The kill matrix: each mutant perturbs one family constructor, route or series from n = 3 on (x^4 at t^3 for
# a series), the Rodrigues sweep's kernel, the derivative kernel (its rate dropped), the hypergeometric
# residual (n*y added from n = 3 on), the shifted weight's exponent K (one too large) or one field of an
# equation's spec (gamma + 1 for the rate-m family, delta0 + 1 for Laguerre's), and some suite must fail for it.
# A mutant rebinds every scepoly module attribute that is its target, since integrals binds families names at
# import; a target qualified by its module (and class) rebinds that one attribute alone.  E_SPEC, built at
# import, keeps the correct spec.
CONSTRUCTORS = ("e_explicit", "s_explicit", "c_from_s", "shat", "chat", "em_explicit", "laguerre_general")
MUTANTS = {
    **{name: ("constructor", name) for name in (*CONSTRUCTORS, "antideriv_poly_exp", "c_from_e")},
    **{name: ("sweep", name) for name in ("rodrigues_sweep", "e_recurrence_sweep", "s_rodrigues_sweep")},
    **{name: ("series", name) for name in ("series_exp_xt", "degenerate_genfunc", "_over_one_plus_t_power")},
    # The sweep's kernel reading its numerators from an offset one off; Poly.derivative keeps poly's binding.
    **{f"rodrigues_kernel(lo{shift:+d})": (shift, "families._derivative") for shift in (1, -1)},
    # p' in place of p' + r*p wherever Poly.derivative(r) is called; the Rodrigues sweep keeps families' binding.
    "derivative_kernel(rate 0)": ("no rate", "poly._derivative"),
    "residual(+n*y)": ("residual", "genfunc.LinearHGSpec.residual"),
    "sigma_linear": ("exponent", "sigma_linear"),
    **{name: ("spec", name) for name in ("em_spec", "laguerre_spec")},
}
# The suites that must be among the killers of a row.  theorem2 compares ``degenerate_genfunc``'s t-recurrence,
# which reads K from ``sigma_linear``, with the division of ``series_E`` and ``series_Em``, so a wrong K or a
# wrong division fails there too.
KILLERS = {
    **{name: {"genfunc"} for name in ("e_explicit", "s_explicit", "c_from_s", "em_explicit")},
    **{name: {"theorem2"} for name in ("degenerate_genfunc", "sigma_linear")},
    "_over_one_plus_t_power": {"genfunc", "theorem2"},
    **{row: {"routes"} for row in MUTANTS if row.startswith("rodrigues_kernel")},
    "derivative_kernel(rate 0)": {"odes", "theorem1"},
    "residual(+n*y)": {"odes", "laguerre"},
    "em_spec": {"odes", "theorem2"},
    "laguerre_spec": {"laguerre"},
}
# The field of each equation's spec that its mutant moves by one.
SPEC_FIELDS = {"em_spec": "gamma", "laguerre_spec": "delta0"}


def _mutant(kind, correct):
    if kind == "constructor":
        def mutant(n, *args):
            p = correct(n, *args)
            return p + Poly.monomial(n + 1) if n >= 3 else p
    elif kind == "sweep":
        def mutant(*args):
            for n, p in enumerate(correct(*args)):
                yield p + Poly.monomial(n + 1) if n >= 3 else p
    elif kind == "series":
        def mutant(*args):
            coeffs = correct(*args).coeffs
            return FormalSeries(c + Poly.monomial(4) if k == 3 else c for k, c in enumerate(coeffs))
    elif kind == "no rate":
        def mutant(p, lo, a, b, q):
            return correct(p, lo, 0, 0, q)
    elif kind == "residual":
        def mutant(spec, y, n):
            r = correct(spec, y, n)
            return r + n * y if n >= 3 else r
    elif kind == "exponent":
        def mutant(spec, n):
            w = correct(spec, n)
            return genfunc.WeightForm(w.alpha, w.beta, w.exponent + 1, w.rate)
    elif kind == "spec":
        def mutant(parameter):
            spec = correct(parameter)
            fields = {name: getattr(spec, name) for name in spec.__slots__}
            fields[SPEC_FIELDS[correct.__name__]] += 1
            return genfunc.LinearHGSpec(**fields)
    else:  # a kernel reading its numerators from the offset lo + kind
        def mutant(p, lo, *rate):
            return correct(p, lo + kind, *rate)
    return mutant


@pytest.mark.parametrize("row", MUTANTS)
def test_kill_matrix(monkeypatch, row):
    kind, target = MUTANTS[row]
    *owner_path, name = target.split(".")
    if owner_path:
        owner = sys.modules[f"scepoly.{owner_path[0]}"]
        for attr in owner_path[1:]:
            owner = getattr(owner, attr)
        owners = [owner]
    else:
        owners = [module for key, module in sys.modules.items() if key == "scepoly" or key.startswith("scepoly.")]
    correct = next(getattr(owner, name) for owner in owners if hasattr(owner, name))
    mutant = _mutant(kind, correct)
    for owner in owners:
        if getattr(owner, name, None) is correct:
            monkeypatch.setattr(owner, name, mutant)
    killed = {suite for suite in VERIFY_SUITES if not run_suite(suite, 8).all_passed}
    assert len(killed) >= (2 if row in CONSTRUCTORS else 1), killed
    if row in KILLERS:
        assert KILLERS[row] <= killed, killed


def test_no_route_builds_a_laurent_poly(monkeypatch):
    # Every value of the layout is made by poly._raw; no suite or CLI request may make a LaurentPoly.
    built, raw = [], poly._raw

    def spy(cls, *parts):
        built.append(cls)
        return raw(cls, *parts)

    for key, module in sys.modules.items():
        if (key == "scepoly" or key.startswith("scepoly.")) and getattr(module, "_raw", None) is raw:
            monkeypatch.setattr(module, "_raw", spy)
    assert run_suite("all", 8).all_passed
    for argv in (
        ["poly", "em", "--n", "8", "--m", "-5/3"],
        ["integrate", "--kind", "exp", "--n", "8", "--m", "-5/3", "--a", "0", "--b", "1", "--check"],
        ["genfunc", "--family", "em", "--order", "8", "--m", "-5/3"],
    ):
        assert cli.main(argv) == 0, argv
    assert set(built) == {Poly}
