import inspect
import sys
from fractions import Fraction
from math import factorial

import pytest

from scepoly import families, genfunc, integrals, poly
from scepoly.families import (
    antideriv_poly_exp,
    c_from_e,
    c_from_s,
    chat,
    check_relation_group,
    e_explicit,
    e_laguerre,
    e_recurrence,
    e_recurrence_sweep,
    e_rodrigues,
    em_explicit,
    em_rodrigues,
    family_poly,
    family_rate,
    laguerre_general,
    rodrigues_sweep,
    s_explicit,
    s_from_e,
    shat,
)
from scepoly.poly import ExpPoly, Poly
from scepoly.rational import I

X = Poly.x()

RATES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 5)]


class TestEFamily:
    def test_first_values(self):
        assert e_explicit(0) == Poly.one()
        assert e_explicit(1) == X - 1
        assert e_explicit(2) == X**2 - 2 * X + 2

    def test_explicit_n3(self):
        # evaluating the explicit sum at n=3 by hand
        assert e_explicit(3) == X**3 - 3 * X**2 + 6 * X - 6

    def test_negative_index_is_zero(self):
        for route in (e_explicit, e_recurrence, e_rodrigues, e_laguerre):
            assert route(-1).is_zero()
            assert route(-5).is_zero()

    def test_recurrence_base_and_step(self):
        assert e_recurrence(0) == Poly.one()
        assert e_recurrence(2) == X**2 - 2 * (X - 1)

    def test_rodrigues_small(self):
        assert e_rodrigues(0) == Poly.one()
        assert e_rodrigues(1) == X - 1
        assert e_rodrigues(2) == X**2 - 2 * X + 2

    def test_route_equivalence(self):
        # up to the CLI's default SCE_MAX_N cap of 64
        for n in range(65):
            e = e_explicit(n)
            assert e_recurrence(n) == e
            assert e_rodrigues(n) == e
            assert e_laguerre(n) == e

    def test_monic_with_alternating_constant(self):
        for n in range(21):
            e = e_explicit(n)
            assert e.degree == n
            assert e.coeff(n) == 1
            assert e.eval(0) == (-1) ** n * factorial(n)

    def test_derivative_recursion(self):
        for n in range(31):
            assert e_explicit(n).derivative() == n * e_explicit(n - 1)

    def test_first_order_ode(self):
        for n in range(31):
            e = e_explicit(n)
            assert e.derivative() + e == Poly.monomial(n)

    def test_hypergeometric_ode(self):
        # x e'' + (x - n) e' - n e = 0
        for n in range(31):
            e = e_explicit(n)
            lhs = (
                X * e.derivative().derivative()
                + (X - Poly.constant(n)) * e.derivative()
                - n * e
            )
            assert lhs.is_zero()

    def test_general_solution_of_first_order_ode(self):
        # y = e_n + C e^(-x) satisfies y' + y = x^n for any constant C
        for n in (0, 3, 7):
            for c in (Fraction(0), Fraction(1), Fraction(-2, 3)):
                y = ExpPoly.of(0, e_explicit(n)) + ExpPoly.of(
                    -1, Poly.constant(c)
                )
                assert y.derivative() + y == ExpPoly.of(0, Poly.monomial(n))


class TestExplicitCoefficients:
    """The explicit coefficients against the termwise formulas: n!/l!, times m**l for e^(m)(x) = e(mx)."""

    @pytest.mark.parametrize("n", [*range(65), 500])
    def test_match_termwise_formula(self, n):
        def ratio(l):
            return Fraction(factorial(n), factorial(l))

        assert e_explicit(n) == Poly([(-1) ** (l + n) * ratio(l) for l in range(n)] + [1])
        for m in (Fraction(2), Fraction(-5, 3), Fraction(1, 2), Fraction(-3, 5), Fraction(1, 134217727)):
            assert em_explicit(n, m) == Poly(
                [(-1) ** (l + n) * m**l * ratio(l) for l in range(n)] + [m**n]
            )
        s_terms = {l: (-1) ** ((l + n) // 2 + n + 1) * ratio(l) for l in range(n, -1, -2)}
        assert s_explicit(n) == Poly(s_terms.get(l, 0) for l in range(n + 1))


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_general(0, Fraction(7, 2)) == Poly.one()

    def test_degree_one(self):
        alpha = Fraction(7, 2)
        assert laguerre_general(1, alpha) == Poly([alpha + 1, -1])

    def test_e2_via_negative_order(self):
        # 2! L_2^(-3)(-x) must reproduce x^2 - 2x + 2
        lag = laguerre_general(2, Fraction(-3)).scale_arg(-1)
        assert 2 * lag == X**2 - 2 * X + 2

    @pytest.mark.parametrize(
        "alpha", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-5, 3)]
    )
    def test_laguerre_ode(self, alpha):
        # x y'' + (alpha + 1 - x) y' + n y = 0
        for n in range(16):
            lag = laguerre_general(n, alpha)
            lhs = (
                X * lag.derivative().derivative()
                + (Poly.constant(alpha + 1) - X) * lag.derivative()
                + n * lag
            )
            assert lhs.is_zero()


class TestRodriguesPart:
    """x^(n+1) e^(-rx) d^n/dx^n (x^(-1) e^(rx)), element n of the shared Rodrigues sweep."""

    def test_n3_values(self):
        # recorded from the three separate Rodrigues routes the sweep replaced
        assert list(rodrigues_sweep(1, 3))[3] == Poly([-6, 6, -3, 1])
        assert list(rodrigues_sweep(Fraction(-1, 2), 3))[3] == Poly(
            [-6, -3, Fraction(-3, 4), Fraction(-1, 8)]
        )
        assert list(rodrigues_sweep(I, 3))[3] == Poly([-6, 6 * I, 3, -I])
        assert list(rodrigues_sweep(-I, 3))[3] == Poly([-6, -6 * I, 3, I])

    @pytest.mark.parametrize("rate", [1, Fraction(-1, 2), I, -I])
    def test_matches_rate_m_sum(self, rate):
        # e_n^(r) = sum_l (-1)^(l+n) r^l (n!/l!) x^l, at real and imaginary r
        for n in range(25):
            expected = Poly(
                (-1) ** (l + n) * rate**l * Fraction(factorial(n), factorial(l))
                for l in range(n + 1)
            )
            assert list(rodrigues_sweep(rate, n))[n] == expected


class TestSweeps:
    """Each sweep's iterate at n is the per-n value: the last element of the sweep to n."""

    @pytest.mark.parametrize("rate", [1, 2, -1, Fraction(1, 2), Fraction(-5, 3), I, -I])
    def test_rodrigues_sweep_matches_per_n(self, rate):
        assert list(rodrigues_sweep(rate, 40)) == [list(rodrigues_sweep(rate, n))[n] for n in range(41)]

    @pytest.mark.parametrize("rate", [1, 2, Fraction(-5, 3), I])
    def test_rodrigues_sweep_normalises_once_per_derivative(self, rate, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return normalise(*args)

        normalise = poly._normalise
        monkeypatch.setattr(poly, "_normalise", spy)
        assert len(list(rodrigues_sweep(rate, 10))) == 11
        assert len(calls) == 10

    def test_recurrence_sweep_matches_per_n(self):
        assert list(e_recurrence_sweep(40)) == [e_recurrence(n) for n in range(41)]

    def test_negative_n_max(self):
        # A sweep to a negative index yields nothing; the per-n functions give zero there.
        for n in (-1, -3):
            assert list(e_recurrence_sweep(n)) == []
            assert list(rodrigues_sweep(I, n)) == []
            assert e_recurrence(n) == Poly.zero()
            assert em_rodrigues(n, 2) == Poly.zero()


class TestEmFamily:
    def test_small_cases_symbolically(self):
        for m in RATES:
            assert em_explicit(0, m) == Poly.one()
            assert em_explicit(1, m) == Poly([-1, m])
            assert em_explicit(2, m) == Poly([2, -2 * m, m**2])

    def test_rate_one_specializes(self):
        for n in range(31):
            assert em_explicit(n, 1) == e_explicit(n)

    def test_rodrigues_route(self):
        for m in RATES:
            for n in range(65):
                assert em_rodrigues(n, m) == em_explicit(n, m)

    def test_rodrigues_n1(self):
        assert em_rodrigues(1, Fraction(5, 3)) == Poly([-1, Fraction(5, 3)])

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate must be nonzero"):
            em_explicit(3, 0)
        with pytest.raises(ValueError, match="rate must be nonzero"):
            em_rodrigues(3, Fraction(0))
        with pytest.raises(ValueError, match="rate must be nonzero"):
            antideriv_poly_exp(3, 0)

    def test_malformed_rate_rejected(self):
        for build in (em_explicit, em_rodrigues, antideriv_poly_exp):
            with pytest.raises(ValueError, match="malformed rational '1/0'"):
                build(3, "1/0")

    def test_scaled_first_order_identity(self):
        # (e_n^(m))' + m e_n^(m) = m^(n+1) x^n; collapses to x^n only at m=1
        for m in RATES:
            for n in range(21):
                em = em_explicit(n, m)
                assert em.derivative() + m * em == m ** (n + 1) * Poly.monomial(n)

    def test_hypergeometric_ode(self):
        for m in RATES:
            for n in range(21):
                em = em_explicit(n, m)
                lhs = (
                    X * em.derivative().derivative()
                    + (m * X - Poly.constant(n)) * em.derivative()
                    - m * n * em
                )
                assert lhs.is_zero()


class TestAntiderivPolyExp:
    def test_unit_rate_cases(self):
        assert antideriv_poly_exp(0, 1) == Poly.one()
        assert antideriv_poly_exp(1, 1) == X - 1

    def test_rate_two(self):
        # solve P' + 2P = x directly: P = x/2 - 1/4
        assert antideriv_poly_exp(1, 2) == Poly([Fraction(-1, 4), Fraction(1, 2)])

    def test_defining_property(self):
        for m in RATES:
            for n in range(21):
                p = antideriv_poly_exp(n, m)
                assert p.derivative() + m * p == Poly.monomial(n)


def brute_sin_poly(n: int) -> Poly:
    """Independent oracle for s_n: undetermined coefficients in s'' + s = -x^n.

    Matching coefficients in (s'' + s) = -x^n top-down gives a_n = -1,
    a_{n-1} = 0 and a_l = -(l+2)(l+1) a_{l+2}; polynomial solutions of the
    ODE are unique, so this pins s_n completely without using any closed form.
    """
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(-1)
    for l in range(n - 2, -1, -1):
        coeffs[l] = -(l + 2) * (l + 1) * coeffs[l + 2]
    return Poly(coeffs)


class TestSinCosFamilies:
    def test_base_values(self):
        assert s_explicit(0) == Poly.constant(-1)
        assert s_explicit(1) == -X

    def test_frozen_small_cases(self):
        assert s_explicit(2) == -(X**2) + 2
        assert s_explicit(3) == -(X**3) + 6 * X

    def test_against_undetermined_coefficients_oracle(self):
        for n in range(31):
            assert s_explicit(n) == brute_sin_poly(n)

    def test_second_order_ode(self):
        for n in range(31):
            s = s_explicit(n)
            assert s.derivative().derivative() + s == -Poly.monomial(n)
            c = c_from_s(n)
            assert c.derivative().derivative() + c == Poly.monomial(n)

    def test_parity_and_leading_coefficient(self):
        for n in range(31):
            s = s_explicit(n)
            assert s.degree == n
            assert s.coeff(n) == -1
            for k in range(n + 1):
                if (k - n) % 2 == 1:
                    assert not s.coeff(k)

    def test_complex_argument_route(self):
        for n in range(31):
            assert s_from_e(n) == s_explicit(n)
            assert c_from_e(n) == c_from_s(n)

    def test_complex_route_real_and_small_values(self):
        assert s_from_e(0) == Poly.constant(-1)
        assert s_from_e(2) == -(X**2) + 2
        assert c_from_e(0) == Poly.one()
        assert c_from_e(1) == X
        assert c_from_e(3) == -s_explicit(3)

    def test_c_negates_s(self):
        for n in range(31):
            assert c_from_s(n) == -s_explicit(n)

    def test_negative_indices(self):
        assert s_explicit(-3).is_zero()
        assert c_from_s(-1).is_zero()
        assert s_from_e(-2).is_zero()
        assert c_from_e(-2).is_zero()


CONJUGATE_N = 40


def _conjugate(p: Poly) -> Poly:
    return Poly([c.conjugate() for c in p.coeffs])


class TestConjugateSums:
    """The complex-argument routes read Re(p/i^n) from the rate-i half alone.  That is
    the paper's sum of the halves at i and -i, written here with Gaussian-rational
    arithmetic as the reference, because the -i half is the conjugate of the i half."""

    def test_rodrigues_sweep_at_minus_i_is_the_conjugate(self):
        plus, minus = list(rodrigues_sweep(I, CONJUGATE_N)), list(rodrigues_sweep(-I, CONJUGATE_N))
        assert minus == [_conjugate(p) for p in plus]

    def test_s_and_c_from_e(self):
        for n in range(CONJUGATE_N + 1):
            e = e_explicit(n)
            assert s_from_e(n) == (I ** (n % 4) / 2) * ((-1) ** (n + 1) * e.scale_arg(I) - e.scale_arg(-I))
            assert c_from_e(n) == (I ** (n % 4) / 2) * ((-1) ** n * e.scale_arg(I) + e.scale_arg(-I))

    def test_s_rodrigues_sweep(self):
        sweeps = zip(integrals.s_rodrigues_sweep(CONJUGATE_N), rodrigues_sweep(I, CONJUGATE_N),
                     rodrigues_sweep(-I, CONJUGATE_N))
        for n, (s, plus, minus) in enumerate(sweeps):
            assert s == (plus * (-1) ** n + minus) * (-(I ** (n % 4)) / 2)

    def test_connection_right_hand_side(self):
        # series_connection_check passes only if its right-hand side equals 2C at every t^n.
        e, two_c = genfunc.series_E(CONJUGATE_N), 2 * genfunc.series_C(CONJUGATE_N)
        for n in range(CONJUGATE_N + 1):
            p = e.coeff(n)
            assert p.scale_arg(I) * (-I) ** (n % 4) + p.scale_arg(-I) * I ** (n % 4) == two_c.coeff(n)
        assert genfunc.series_connection_check(CONJUGATE_N).all_passed


class TestHattedFamilies:
    def test_negative_index_is_zero(self):
        assert shat(-1).is_zero()
        assert chat(-1).is_zero()

    def test_small_values(self):
        assert shat(0) == Poly.one()
        assert chat(0) == Poly.one()
        assert shat(1) == 2 * X
        assert chat(1) == 2 * X

    def test_shat_equals_chat(self):
        for n in range(31):
            assert shat(n) == chat(n)

    def test_degrees(self):
        for n in range(1, 21):
            assert shat(n).degree == n


class TestRelationGroups:
    @pytest.mark.parametrize("group", ["G1", "G2", "G3", "G4", "DIFF_EQS"])
    def test_group_passes_exactly(self, group):
        entries = [e for e in check_relation_group(30).entries if e.label.startswith(f"{group}: ")]
        assert len(entries) == (5 if group == "DIFF_EQS" else 2) * 31
        assert all(e.passed for e in entries), entries

    def test_g2_spot_check(self):
        # s_2 = -x^2 - 2*1*s_0
        assert s_explicit(2) == -(X**2) - 2 * s_explicit(0)

    def test_g1_base_case(self):
        assert s_explicit(0) == Poly.constant(-1)

    def test_report_shape(self):
        # 13 group entries and 3 cross-family identities per index.
        report = check_relation_group(3)
        assert len(report) == 64
        assert report.entries[0].label == "G1: s_0 = -x^0 + 0*chat_-2"
        assert report.entries[-1].label == "e_3' = 3*e_2"
        assert report.all_passed
        assert not report.failures


class TestFamilyDispatch:
    def test_known_families(self):
        assert family_poly("e", 2) == e_explicit(2)
        assert family_poly("s", 2) == s_explicit(2)
        assert family_poly("c", 2) == c_from_s(2)
        assert family_poly("shat", 1) == shat(1)
        assert family_poly("chat", 1) == chat(1)
        assert family_poly("em", 2, Fraction(3)) == em_explicit(2, 3)

    def test_em_requires_rate(self):
        with pytest.raises(ValueError):
            family_poly("em", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_poly("q", 2)

    @pytest.mark.parametrize("family", ["e", "s", "c", "shat", "chat"])
    def test_rate_refused_for_other_families(self, family):
        with pytest.raises(ValueError, match="rate m applies only to family 'em'"):
            family_poly(family, 3, m=2)

    def test_family_rate(self):
        assert family_rate("em", "-5/3") == Fraction(-5, 3)
        assert family_rate("e", None) is None

    @pytest.mark.parametrize(
        "family, m, message",
        [
            ("em", None, "family 'em' requires a rate m"),
            ("s", "2", "rate m applies only to family 'em'"),
            ("em", "0", "rate must be nonzero"),
        ],
    )
    def test_family_rate_refusals(self, family, m, message):
        with pytest.raises(ValueError, match=message):
            family_rate(family, m)


# ---------------------------------------------------------------------------
# Route independence: each route is built while the constructors it must not
# use raise, so an optimisation cannot quietly turn it into another route.
# ---------------------------------------------------------------------------

GUARD_N = 8
E_ROUTES = {"e_explicit", "e_recurrence", "e_recurrence_sweep", "e_rodrigues", "e_laguerre"}
FAMILY_FUNCTIONS = {
    name for name, f in vars(families).items() if inspect.isfunction(f) and f.__module__ == families.__name__
}


def _each_n(module, name, *args):
    return lambda: [getattr(module, name)(n, *args) for n in range(GUARD_N + 1)]


def _sweep(module, name):
    return lambda: list(getattr(module, name)(GUARD_N))


def _series(make):
    """n! [t^n] of a generating function, for n = 0..GUARD_N."""
    return lambda: [factorial(n) * c for n, c in enumerate(make().coeffs)]


def _explicit(name, *args):
    return [getattr(families, name)(n, *args) for n in range(GUARD_N + 1)]


# route id -> (build the route up to GUARD_N, the explicit values it must give, forbidden names)
ROUTE_GUARDS = {
    "e_rodrigues": (_each_n(families, "e_rodrigues"), ("e_explicit",), E_ROUTES - {"e_rodrigues"}),
    "e_recurrence_sweep": (
        _sweep(families, "e_recurrence_sweep"),
        ("e_explicit",),
        E_ROUTES - {"e_recurrence", "e_recurrence_sweep"},
    ),
    "e_laguerre": (_each_n(families, "e_laguerre"), ("e_explicit",), E_ROUTES - {"e_laguerre"}),
    "em_rodrigues(-5/3)": (
        _each_n(families, "em_rodrigues", Fraction(-5, 3)),
        ("em_explicit", Fraction(-5, 3)),
        {"em_explicit"},
    ),
    "s_from_e": (_each_n(families, "s_from_e"), ("s_explicit",), {"s_explicit", "c_from_s"}),
    "c_from_e": (_each_n(families, "c_from_e"), ("c_from_s",), {"s_explicit", "c_from_s"}),
    "s_rodrigues_sweep": (_sweep(integrals, "s_rodrigues_sweep"), ("s_explicit",), {"s_explicit", "e_explicit"}),
    "series_E": (_series(lambda: genfunc.series_E(GUARD_N)), ("e_explicit",), FAMILY_FUNCTIONS),
    "series_S": (_series(lambda: genfunc.series_S(GUARD_N)), ("s_explicit",), FAMILY_FUNCTIONS),
    "series_C": (_series(lambda: genfunc.series_C(GUARD_N)), ("c_from_s",), FAMILY_FUNCTIONS),
    "series_Em(2)": (_series(lambda: genfunc.series_Em(2, GUARD_N)), ("em_explicit", 2), FAMILY_FUNCTIONS),
    "degenerate_genfunc(E)": (
        _series(lambda: genfunc.degenerate_genfunc(genfunc.E_SPEC, GUARD_N)),
        ("e_explicit",),
        FAMILY_FUNCTIONS,
    ),
    "degenerate_genfunc(em 1/2)": (
        _series(lambda: genfunc.degenerate_genfunc(genfunc.em_spec(Fraction(1, 2)), GUARD_N)),
        ("em_explicit", Fraction(1, 2)),
        FAMILY_FUNCTIONS,
    ),
}


def _forbid(monkeypatch, names):
    """Point every scepoly module's binding of each named families function at one that raises."""
    for name in names:
        original = getattr(families, name)

        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"the route called {name}")

        for module_name, module in list(sys.modules.items()):
            if module_name == "scepoly" or module_name.startswith("scepoly."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)


class TestRouteIndependence:
    @pytest.mark.parametrize("route", ROUTE_GUARDS)
    def test_route_uses_no_forbidden_constructor(self, route, monkeypatch):
        build, reference, forbidden = ROUTE_GUARDS[route]
        expected = _explicit(*reference)
        _forbid(monkeypatch, forbidden)
        assert build() == expected

    def test_guard_reaches_every_binding(self, monkeypatch):
        """The patch reaches families' own name and the copy integrals imported."""
        _forbid(monkeypatch, {"e_explicit", "s_explicit"})
        with pytest.raises(AssertionError, match="e_explicit"):
            families.s_from_e(3)
        with pytest.raises(AssertionError, match="s_explicit"):
            integrals.closed_form("sin", 3)


CONTRACT_RATES = {"1": 1, "2": 2, "-5/3": Fraction(-5, 3), "i": I, "-i": -I}
PER_N_CONSTRUCTORS = {
    "e_explicit": e_explicit,
    "e_recurrence": e_recurrence,
    "e_rodrigues": e_rodrigues,
    "e_laguerre": e_laguerre,
    "s_explicit": s_explicit,
    "s_from_e": s_from_e,
    "s_rodrigues": integrals.s_rodrigues,
    "c_from_s": c_from_s,
    "c_from_e": c_from_e,
    "shat": shat,
    "chat": chat,
    **{f"{f.__name__}(m={m})": (lambda n, f=f, m=m: f(n, m))
       for f in (em_explicit, em_rodrigues, antideriv_poly_exp) for m in (1, 2, Fraction(-5, 3))},
    # The Rodrigues part at each rate: element n of the public sweep, which is empty below n = 0
    # (test_sweeps_yield_poly); em_rodrigues(m=…) above covers the per-n route's n < 0.
    **{f"rodrigues_part(rate={k})": (lambda n, r=r: list(rodrigues_sweep(r, n))[n] if n >= 0 else Poly.zero())
       for k, r in CONTRACT_RATES.items()},
}


class TestTypeContract:
    """Every constructor, route and sweep hands out exactly ``Poly``; ``LaurentPoly`` stays inside the sweep."""

    @pytest.mark.parametrize("name", PER_N_CONSTRUCTORS)
    def test_per_n_constructors_return_poly(self, name):
        for n in range(-5, 9):
            p = PER_N_CONSTRUCTORS[name](n)
            assert type(p) is Poly, (name, n)
            assert n >= 0 or p.is_zero(), (name, n)

    @pytest.mark.parametrize(
        "sweep",
        [lambda n: e_recurrence_sweep(n), lambda n: integrals.s_rodrigues_sweep(n)]
        + [lambda n, r=r: rodrigues_sweep(r, n) for r in CONTRACT_RATES.values()],
        ids=["e_recurrence_sweep", "s_rodrigues_sweep"] + [f"rodrigues_sweep(rate={k})" for k in CONTRACT_RATES],
    )
    def test_sweeps_yield_poly(self, sweep):
        for n in range(-2, 9):
            assert [type(p) for p in sweep(n)] == [Poly] * (n + 1 if n >= 0 else 0)
