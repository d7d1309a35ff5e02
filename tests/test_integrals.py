import inspect
import math
import random
import textwrap
from fractions import Fraction
from itertools import product
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scepoly import integrals, poly
from scepoly.cli import main
from scepoly.families import antideriv_poly_exp, c_from_s, chat, e_explicit, s_explicit, shat
from scepoly.integrals import (
    KINDS,
    ClosedForm,
    antiderivative_recurrence_report,
    check_antiderivative,
    closed_form,
    definite_integral,
    eval_closed_form,
    integrand_function,
    lift_closed_form,
    quad_adaptive,
    s_rodrigues,
    s_rodrigues_sweep,
)
from scepoly.poly import ExpPoly, Poly
from scepoly.rational import I, ZERO, GaussianRational, as_gaussian

X = Poly.x()

EXP_RATES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]


def _cos_sin(cf):
    """(P, Q) with F = P cos x + Q sin x = Re((P - iQ) e^(ix))."""
    return cf.part.real_over_i_power(0), cf.part.real_over_i_power(3)


class TestClosedFormConstruction:
    def test_sin_base_case(self):
        cf = closed_form("sin", 0)
        assert (cf.rate, cf.part) == (I, Poly.constant(-1))

    def test_exp_of_degree_two(self):
        cf = closed_form("exp", 2, 1)
        assert (cf.rate, cf.part) == (1, X**2 - 2 * X + 2)

    def test_sin_degree_two(self):
        # -x^2 cos x + 2x sin x + 2 cos x
        cf = closed_form("sin", 2)
        assert (cf.rate, cf.part) == (I, 2 - X**2 - 2 * X * I)

    def test_part_degrees(self):
        for n in range(1, 16):
            p, q = _cos_sin(closed_form("sin", n))
            assert (p.degree, q.degree) == (n, n - 1)
            p, q = _cos_sin(closed_form("cos", n))
            assert (q.degree, p.degree) == (n, n - 1)

    def test_trig_parts_come_from_their_own_routes(self, monkeypatch):
        # s_n - i shat_{n-1} and chat_{n-1} - i c_n, never read from e_n(ix).
        monkeypatch.setattr(Poly, "scale_arg", lambda p, c: pytest.fail("scale_arg was called"))
        for n in range(16):
            assert closed_form("sin", n).part == s_explicit(n) - shat(n - 1) * I
            assert closed_form("cos", n).part == chat(n - 1) - c_from_s(n) * I

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form("tan", 1)
        with pytest.raises(ValueError):
            closed_form("exp", 1, 0)
        with pytest.raises(ValueError):
            closed_form("sin", 1, 2)
        with pytest.raises(ValueError):
            closed_form("sin", -1)


class TestSymbolicVerification:
    @pytest.mark.parametrize("kind", ["sin", "cos"])
    def test_trig_kinds_to_30(self, kind):
        for n in range(31):
            assert check_antiderivative(closed_form(kind, n))

    @pytest.mark.parametrize("m", EXP_RATES)
    def test_exp_kind_to_30(self, m):
        for n in range(31):
            assert check_antiderivative(closed_form("exp", n, m))

    def test_perturbed_form_fails(self):
        cf = closed_form("sin", 4)
        broken = ClosedForm(cf.kind, cf.n, cf.rate, cf.part + 1 + X)
        assert not check_antiderivative(broken)

    def test_gaussian_rate_checks_against_that_rate(self):
        # The part of Re(x^n e^(mu x)) at mu = 1 + i is e_n(mu x)/mu^(n+1); checking
        # against Re(mu) would reject it.
        mu = GaussianRational(1, 1)
        for n in range(5):
            part = e_explicit(n).scale_arg(mu) / mu ** (n + 1)
            assert check_antiderivative(ClosedForm("exp", n, mu, part)), n
            assert not check_antiderivative(ClosedForm("exp", n, mu, part + X**n)), n

    def test_lift_is_one_term_at_rate_i(self):
        # F = Re(lift): P cos x + Q sin x = Re((P - iQ) e^(ix)).
        for kind in ("sin", "cos"):
            for n in range(8):
                cf = closed_form(kind, n)
                assert lift_closed_form(cf).terms == {I: cf.part}
        for m in EXP_RATES:
            cf = closed_form("exp", 5, m)
            assert lift_closed_form(cf).terms == {m: cf.part} == {m: antideriv_poly_exp(5, m)}

    def test_every_sign_flip_or_swap_of_a_trig_form_fails(self):
        # A one-term lift must still see both parts and their signs.
        rejected = 0
        for kind in ("sin", "cos"):
            for n in range(11):
                cf = closed_form(kind, n)
                p, q = _cos_sin(cf)
                for (u, v), su, sv in product([(p, q), (q, p)], (1, -1), (1, -1)):
                    part = su * u - sv * v * I
                    if part == cf.part:
                        continue
                    assert not check_antiderivative(ClosedForm(cf.kind, cf.n, cf.rate, part)), (kind, n)
                    rejected += 1
        # 7 mutants per form; at n = 0 one part is 0, so one sign flip of each form is the form itself.
        assert rejected == 2 * 11 * 7 - 2


class TestSRodrigues:
    def test_small_values(self):
        assert s_rodrigues(0) == Poly.constant(-1)
        assert s_rodrigues(1) == -X

    def test_matches_explicit(self):
        for n in range(65):
            assert s_rodrigues(n) == s_explicit(n)

    def test_negative_index(self):
        assert s_rodrigues(-2).is_zero()
        assert list(s_rodrigues_sweep(-2)) == []

    def test_sweep_matches_per_n(self):
        assert list(s_rodrigues_sweep(40)) == [s_rodrigues(n) for n in range(41)]


class TestParity:
    def test_s_and_shat_parities(self):
        for n in range(1, 31):
            s, sh = s_explicit(n), shat(n - 1)
            for k in range(s.degree + 1):
                if (k - n) % 2:
                    assert not s.coeff(k)
            for k in range(sh.degree + 1):
                if (k - (n - 1)) % 2:
                    assert not sh.coeff(k)


class TestIntegralLevelRecurrences:
    def test_recurrences_up_to_constants(self):
        report = antiderivative_recurrence_report(20)
        assert report.all_passed, report.failures

    def test_report_covers_both_reductions(self):
        labels = [e.label for e in antiderivative_recurrence_report(3).entries]
        assert any("two-step" in label for label in labels)
        assert any("C_2 = x^2 sin x" in label for label in labels)


class TestFloatEvaluation:
    def test_sin_one_at_pi(self):
        # S_1 = -x cos x + sin x, so S_1(pi) = pi
        value = eval_closed_form(closed_form("sin", 1), math.pi)
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_exp_at_zero(self):
        assert eval_closed_form(closed_form("exp", 0, 1), 0.0) == 1.0

    def test_cos_zero_at_half_pi(self):
        value = eval_closed_form(closed_form("cos", 0), math.pi / 2)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_overflow_is_explicit(self):
        with pytest.raises(OverflowError):
            eval_closed_form(closed_form("exp", 0, 1), 1e6)
        with pytest.raises(OverflowError):
            definite_integral(closed_form("exp", 0, 1), 0.0, 1e6)


def _reference_integral(kind, n, m, a, b):
    """mpmath.quad of x^n * basis over [a, b] at 70 digits, independent of the closed forms.

    quad's tolerance is absolute, so the integrand is mapped to [0, 1] and
    divided by its size at the endpoints, which makes it relative.
    """
    with mpmath.workdps(70):
        basis = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": lambda x: mpmath.exp(m * x)}[kind]
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        f = lambda x: x**n * basis(x)
        size = max(abs(f(a)), abs(f(b)))
        return (b - a) * size * mpmath.quad(lambda u: f(a + (b - a) * u) / size, [0, 1])


class TestPrecisionFromMagnitudes:
    """Endpoint values ~n! that cancel to a small difference (40 digits printed 0 here)."""

    @pytest.mark.parametrize(
        "kind, n, m, a, b",
        [("exp", 40, -1, 0.0, 1.0), ("sin", 30, None, 0.0, 0.5), ("sin", 64, None, 0.0, 0.001)],
    )
    def test_cancelling_endpoints_keep_double_accuracy(self, kind, n, m, a, b, capsys):
        argv = ["integrate", "--kind", kind, "--n", str(n), "--a", str(a), "--b", str(b)]
        assert main(argv + (["--m", str(m)] if m is not None else [])) == 0
        printed = float(capsys.readouterr().out)
        reference = _reference_integral(kind, n, m, a, b)
        assert abs(printed - reference) <= 1e-15 * abs(reference)

    def test_closed_form_value_at_high_degree(self):
        # F(3) = F(0) + the integral over [0, 3]; F(0) is the constant term of chat_23.
        cf = closed_form("cos", 24)
        reference = cf.part.coeff(0).re + _reference_integral("cos", 24, None, 0.0, 3.0)
        assert abs(eval_closed_form(cf, 3.0) - reference) <= 1e-12 * abs(reference)

    def test_true_zero_stays_zero(self):
        # x cos x is odd, so its integral over [-1, 1] is 0.
        assert definite_integral(closed_form("cos", 1), -1.0, 1.0) == 0.0


class TestDefiniteIntegral:
    def test_x_sin_x_over_zero_pi(self):
        value = definite_integral(closed_form("sin", 1), 0.0, math.pi)
        assert value == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.usefixtures("deadline")
    def test_rational_values_halfway_between_doubles(self):
        # No precision separates a midpoint from its neighbours; it is found exact and rounded to even.
        assert eval_closed_form(closed_form("exp", 0, Fraction(1, 2**53 + 1)), 0.0) == 2.0**53
        cf = closed_form("exp", 1, Fraction(1, 2**27 - 1))  # P(x) = q x - q^2 with q = 2^27 - 1, so P(q) = 0
        assert definite_integral(cf, 0.0, 2.0**27 - 1) == 2.0**54 - 2.0**28
        assert definite_integral(cf, 2.0**27 - 1, 0.0) == -(2.0**54 - 2.0**28)

    def test_empty_interval(self):
        assert definite_integral(closed_form("cos", 7), 2.5, 2.5) == 0.0
        # e^(1e300) has no double, and no working precision would resolve it.
        assert definite_integral(closed_form("exp", 3, 1), 1e300, 1e300) == 0.0

    def test_x_exp_x_over_unit_interval(self):
        value = definite_integral(closed_form("exp", 1, 1), 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_fraction_endpoints(self):
        # 1/3 and 1/2 share the denominator lcm(3, 2) = 6, not max(3, 2) = 3, over which both numerators are 1.
        with mpmath.workdps(50):
            F = lambda x: (2 - x**2) * mpmath.cos(x) + 2 * x * mpmath.sin(x)  # noqa: E731
            want = float(F(mpmath.mpf(1) / 2) - F(mpmath.mpf(1) / 3))
        cf = closed_form("sin", 2)
        assert definite_integral(cf, Fraction(1, 3), Fraction(1, 2)) == want
        assert definite_integral(cf, Fraction(1, 4), Fraction(1, 2)) == definite_integral(cf, 0.25, 0.5)

    @pytest.mark.usefixtures("deadline")
    def test_midpoint_plus_a_term_far_below(self):
        # F(0) = -(2^27 - 1)^2 lies halfway between two doubles, and F(a) is about e^(-7.45e6) or far less, of known
        # sign: the value rounds toward it at the first pass, where doubling the precision would need millions of bits.
        cf = closed_form("exp", 1, Fraction(1, 2**27 - 1))
        for a in (-1e15, -8.532038695719615e307):
            assert definite_integral(cf, a, 0.0) == -(2.0**54 - 2.0**28)
            assert definite_integral(cf, 0.0, a) == 2.0**54 - 2.0**28

    @pytest.mark.usefixtures("deadline")
    def test_tiny_fraction_interval_is_zero(self):
        a, b = Fraction(1, 3 * 10**300), Fraction(2, 3 * 10**300)
        assert integrals._rounds_to_zero(closed_form("sin", 64), b, a)
        assert definite_integral(closed_form("sin", 64), a, b) == 0.0


def _tabular_reference(kind, n, m, a, b):
    """The double nearest F(b) - F(a), from the tabular antiderivative of x^n e^(mu x),

        e^(mu x) * sum_k (-1)^k n!/(n-k)! x^(n-k) / mu^(k+1),

    with mu = m for exp and mu = i for sin (imaginary part) and cos (real part).
    It runs at 200 digits, doubled while the cancellation leaves fewer than 100;
    the rounding goes through an exact Fraction, so a value too large for a
    double raises OverflowError.
    """
    dps = 200
    while True:
        with mpmath.workdps(dps):
            mu = mpmath.mpf(m.numerator) / m.denominator if kind == "exp" else mpmath.mpc(0, 1)
            terms = []
            for x, sign in ((mpmath.mpf(b), 1), (mpmath.mpf(a), -1)):
                e = sign * mpmath.exp(mu * x)
                terms += [e * ((-1) ** k * math.perm(n, k)) * x ** (n - k) / mu ** (k + 1) for k in range(n + 1)]
            total = mpmath.fsum(terms)
            value = total.imag if kind == "sin" else total.real
            if value and mpmath.mag(value) - max(map(mpmath.mag, terms)) + mpmath.mp.prec >= 333:
                man, exp = value.man_exp  # the sign is not in man
                exact = Fraction(man) * Fraction(2) ** exp
                return float(exact if value > 0 else -exact)
        dps *= 2


@st.composite
def _integral_requests(draw):
    """(kind, n, m, a, b) with n <= 64, a in [-1e3, 1e3] and b either -a or
    within 1e3 of a at a log-uniform width down to 1e-12, in either order."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.sampled_from(EXP_RATES)) if kind == "exp" else None
    n = draw(st.integers(0, 64))
    a = draw(st.floats(-1e3, 1e3))
    if draw(st.booleans()):
        return kind, n, m, a, -a
    width = 10.0 ** draw(st.floats(-12, 3))
    b = a + width if a + width <= 1e3 else a - width
    return (kind, n, m, b, a) if draw(st.booleans()) else (kind, n, m, a, b)


class TestCorrectRounding:
    """definite_integral returns exactly the double nearest the integral."""

    @given(request=_integral_requests())
    @settings(deadline=None, max_examples=200)
    @example(request=("sin", 64, None, 0.0, 0.001))
    @example(request=("sin", 64, None, 0.2516, 0.264))
    @example(request=("cos", 24, None, 0.0, 3.0))
    @example(request=("exp", 64, Fraction(2), -1e3, 1e3))
    @example(request=("sin", 64, None, 1e3, -1e3))
    # Subnormal results near a midpoint, where rounding to 53 bits first would pick the even neighbour.
    @example(request=("sin", 0, None, 2.0**-537, 2.0**-536))
    @example(request=("cos", 1, None, 2.0**-536, 2.0**-537))
    @example(request=("sin", 0, None, 3 * 2.0**-537, 2.0**-535))
    # A value far below the least subnormal is 0 at the first pass; one near 1e-300 is not.
    @example(request=("sin", 64, None, 1e-300, 2e-300))
    @example(request=("cos", 0, None, 1e-300, 2e-300))
    # (b - a) * b^n is 2^-1086, but e^(mx) reaches e^8 and the value is 5e-324: the bound must count it.
    @example(request=("exp", 64, Fraction(2**19), 2.0**-16 - 2.0**-62, 2.0**-16))
    # (b - a) * b^n is 2^-1075 but m*b is 0.9 and the value is 5e-324: G must take the ceiling of m*b.
    @example(request=("exp", 64, Fraction(58982), 2.0**-16 - 2.0**-51, 2.0**-16))
    # The bound is 2^-1074, and so is the value.
    @example(request=("cos", 0, None, 0.0, 5e-324))
    # With min(|a|, |b|) in place of max(|a|, |b|) the bound would be far below 2^-1075.
    @example(request=("sin", 2, None, 2.0**-1000, 2.0**-10))
    def test_nearest_double(self, request):
        kind, n, m, a, b = request
        cf = closed_form(kind, n, m)
        if a == b or a == -b and (kind, n % 2) in (("sin", 0), ("cos", 1)):
            # An empty interval, or an odd integrand over a symmetric one: exactly 0.
            value = definite_integral(cf, a, b)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
            return
        try:
            expected = _tabular_reference(kind, n, m or Fraction(1), a, b)
        except OverflowError:
            with pytest.raises(OverflowError):
                definite_integral(cf, a, b)
            return
        assert definite_integral(cf, a, b) == expected

    def test_integer_endpoints_match_their_doubles(self):
        for kind, m in (("sin", None), ("cos", None), ("exp", Fraction(-5, 3))):
            cf = closed_form(kind, 9, m)
            for a, b in ((0, 1), (-3, 4), (2, 2), (5, -2)):
                assert definite_integral(cf, a, b) == definite_integral(cf, float(a), float(b))
            assert eval_closed_form(cf, 3) == eval_closed_form(cf, 3.0)

    def test_tiny_value_is_zero_before_any_pass(self, monkeypatch):
        # Without the size bound this value, about 1e-19782, settles only at 2,176 bits.
        points = []
        kernel = integrals._eval_numerators
        monkeypatch.setattr(integrals, "_eval_numerators",
                            lambda p, a, b, q: points.append(Fraction(a, q)) or kernel(p, a, b, q))
        for a, b in ((1e-300, 2e-300), (2e-300, 1e-300)):
            assert definite_integral(closed_form("sin", 64), a, b) == 0.0
        assert definite_integral(closed_form("cos", 7), 2.5, 2.5) == 0.0  # an empty interval's bound is 0
        assert points == []
        # One near 5e-321 is above the size bound and is evaluated.
        assert definite_integral(closed_form("cos", 1), 0.0, 1e-160) > 0
        assert points[:2] == [1e-160, 0.0]


def _two_rate_exact_value(kind, n, m, points):
    """``integrals._exact_value`` with sin and cos lifted to the conjugate pair
    (P/2 - iQ/2) e^(ix) + (P/2 + iQ/2) e^(-ix): the lift is the value itself."""
    if kind == "exp":
        terms = ExpPoly.of(m, antideriv_poly_exp(n, m)).terms
    else:
        p, q = (s_explicit(n), shat(n - 1)) if kind == "sin" else (chat(n - 1), c_from_s(n))
        half_cos, half_i_sin = p * Fraction(1, 2), q * (I / 2)
        terms = ExpPoly([(I, half_cos - half_i_sin), (-I, half_cos + half_i_sin)]).terms
    merged = {0: ZERO}
    for rate, part in terms.items():
        for sign, x in zip((1, -1), map(Fraction, points)):
            merged[rate * x] = merged.get(rate * x, ZERO) + sign * part.eval(x)
    return None if any(c for e, c in merged.items() if e != 0) else merged[0].re


class TestExactValue:
    def test_matches_the_two_rate_formula(self):
        rng = random.Random(23)
        forms = [("sin", None), ("cos", None)] + [("exp", m) for m in (1, 2, -1, Fraction(-5, 3))]
        xs = [1.5, -2.25, 0.1, 3.0] + [rng.uniform(-10, 10) for _ in range(4)]
        point_lists = [[0.0, 0.0], [0.0]]
        for x in xs:
            point_lists += [[x, -x], [x, 0.0], [0.0, x], [x, x], [x], [x, rng.uniform(-10, 10)]]
        outcomes = set()
        for kind, m in forms:
            for n in range(9):
                cf = closed_form(kind, n, m)
                for points in point_lists:
                    at = [(x, cf.part.eval(Fraction(x))) for x in points]
                    value = integrals._exact_value(cf.rate, at)
                    assert value == _two_rate_exact_value(kind, n, m, points), (kind, m, n, points)
                    outcomes.add("irrational" if value is None else "zero" if value == 0 else "nonzero")
        assert outcomes == {"irrational", "zero", "nonzero"}

    @pytest.mark.parametrize("bounds", [("sin", "64", "-1e300", "1e300"), ("cos", "1", "-2", "2")])
    def test_the_part_is_evaluated_once_per_point(self, bounds, monkeypatch, capsys):
        # The float pass and the exact value share one part value per endpoint: the integer kernel, as
        # ``integrals`` binds it, runs once per endpoint, and ``Poly.eval`` not at all.
        points = []
        kernel, poly_eval = integrals._eval_numerators, Poly.eval
        monkeypatch.setattr(integrals, "_eval_numerators",
                            lambda p, a, b, q: points.append(Fraction(a, q)) or kernel(p, a, b, q))
        monkeypatch.setattr(Poly, "eval", lambda p, z: points.append(z) or poly_eval(p, z))
        kind, n, a, b = bounds
        assert main(["integrate", "--kind", kind, "--n", n, "--a", a, "--b", b]) == 0
        assert capsys.readouterr().out == "0\n"
        assert points == [Fraction(float(b)), Fraction(float(a))]


def _reference_value(rate, part, points, wp):
    """Re(part(x) e^(rate x)) at [x], or its difference at [b, a], as mpmath values at wp bits from the exact
    ``Poly.eval``: the value and the noise, the sum of (|Re c| + |Im c|) e^(Re(rate) x) over the points."""
    with mpmath.workprec(wp):
        mu = mpmath.mpc(mpmath.mpf(rate.re.numerator) / rate.re.denominator,
                        mpmath.mpf(rate.im.numerator) / rate.im.denominator)
        value = noise = mpmath.mpf(0)
        for sign, x in zip((1, -1), points):
            c = part.eval(Fraction(x))
            re, im = (mpmath.mpf(v.numerator) / v.denominator for v in (c.re, c.im))
            value += sign * (mpmath.mpc(re, im) * mpmath.exp(mu * x)).real
            noise += (abs(re) + abs(im)) * mpmath.exp(mu.real * x)
        return value, noise


class TestEnclosure:
    """The integer kernel brackets the value, within a few ulps of the working precision."""

    @pytest.mark.parametrize("rate", [I, GaussianRational(1), GaussianRational(2), GaussianRational(Fraction(-5, 3)),
                                      GaussianRational(1, 1), GaussianRational(0, Fraction(5, 7)),
                                      GaussianRational(Fraction(-1, 2), 3)],
                             ids=["i", "1", "2", "-5/3", "1+i", "5i/7", "-1/2+3i"])
    def test_brackets_the_reference(self, rate):
        parts = [closed_form("sin", n).part for n in (0, 1, 4, 9)]
        parts += [X**3 - 2, 5 * X * I - Fraction(1, 3), X**2 * (X - 3)]  # the last with x^2 factored out (lo = 2)
        # Huge points reduce by pi/2 at about 1,100 bits; with a real part in the rate they far exceed or underflow
        # the other point's term, as in [-1e5, 1] too, whose far term is bounded, not shifted into line.
        xs = [0.0, -3.25, 4.5, 2.0**-1074, -7e-5, 1e3] + ([] if rate.re else [-1e300, 5.035422062787872e44])
        point_lists = [[x] for x in xs] + [[4.5, -3.25], [1e3, -7e-5], [-1e5, 1.0]]
        point_lists += [] if rate.re else [[1e-300, 1e300], [-1e300, 0.0]]
        worst = 0
        for part in parts:
            for points in point_lists:
                at = [(p, q, integrals._eval_numerators(part, p, 0, q))
                      for p, q in (x.as_integer_ratio() for x in points)]
                for prec in (53, 136, 1088):
                    num, err, den, s = integrals._enclosure(rate, at, prec)
                    assert err >= 0 and den > 0
                    assert max(num.bit_length(), den.bit_length()) < 10**5  # no shift by a far term's exponent
                    wp = 2 * prec + 64 + max(0, *(math.frexp(x)[1] for x in points))  # rate * x to 2 prec + 64 bits
                    value, noise = _reference_value(rate, part, points, wp)
                    with mpmath.workprec(wp):
                        mid, radius = (mpmath.ldexp(mpmath.mpf(v) / den, s) for v in (num, err))
                        assert abs(value - mid) <= radius, (rate, part, points, prec)
                        if noise and radius:
                            worst = max(worst, int(mpmath.floor(mpmath.log(radius / noise, 2))) + prec)
        assert worst <= 12  # the error counts stay within 2^12 ulps of the noise


def _edited(function, old, new):
    """``function`` rebuilt from its source with ``old`` replaced by ``new``, in its own module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, (function.__name__, old)
    namespace = {}
    exec(source.replace(old, new), vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]


def _subnormal_midpoint():
    TestCorrectRounding.test_nearest_double.hypothesis.inner_test(
        TestCorrectRounding(), request=("sin", 0, None, 2.0**-537, 2.0**-536))


def _tiny_value_before_any_pass():
    with pytest.MonkeyPatch.context() as patch:
        TestCorrectRounding().test_tiny_value_is_zero_before_any_pass(patch)


# Each killer is a tier-1 test, called with one of its parameters or examples.
FLOAT_KILLERS = {
    "TestEnclosure::test_brackets_the_reference[i]": lambda: TestEnclosure().test_brackets_the_reference(I),
    "TestEnclosure::test_brackets_the_reference[1]":
        lambda: TestEnclosure().test_brackets_the_reference(GaussianRational(1)),
    "TestCorrectRounding::test_nearest_double (2^-537, 2^-536)": _subnormal_midpoint,
    "TestCorrectRounding::test_tiny_value_is_zero_before_any_pass": _tiny_value_before_any_pass,
}
# A mutant that moves a value by an ulp or two, well inside the error count, leaves every enclosure valid and every
# output the same: nothing can kill it, and its row is a strict xfail.
_WITHIN_THE_COUNT = pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                                      reason="inside the kernel's error count: every enclosure stays valid")
FLOAT_MUTANTS = [
    pytest.param("_odd_taylor", lambda: _edited(integrals._odd_taylor, "while term:",
                                                "while term * t2 // ((k + 1) * (k + 2) << 2 * prec):"),
                 "TestEnclosure::test_brackets_the_reference[i]", marks=_WITHIN_THE_COUNT, id="taylor-one-term-short"),
    pytest.param("_odd_taylor", lambda: _edited(integrals._odd_taylor, "-total, k + 1", "-total, 2"),
                 "TestEnclosure::test_brackets_the_reference[i]", id="error-count-without-the-floors"),
    pytest.param("_half_pi", lambda: _edited(integrals._half_pi, "8 * a - 2 * b,", "8 * a - 2 * b - 1,"),
                 "TestEnclosure::test_brackets_the_reference[i]", marks=_WITHIN_THE_COUNT, id="half-pi-one-ulp-low"),
    pytest.param("_ln2", lambda: _edited(integrals._ln2, "2 * total,", "2 * total - 1,"),
                 "TestEnclosure::test_brackets_the_reference[1]", marks=_WITHIN_THE_COUNT, id="ln2-one-ulp-low"),
    pytest.param("_nearest", lambda: _edited(
        integrals._nearest, "(num << s) / den if s >= 0 else num / (den << -s)",
        "math.ldexp(float((num << 64 - top + s if 64 - top + s >= 0 else num >> top - s - 64) // den), top - 64)"),
                 "TestCorrectRounding::test_nearest_double (2^-537, 2^-536)", id="rounded-twice"),
    pytest.param("_eval_numerators", lambda: _edited(poly._eval_numerators, ", *[0] * p.lo]", "]"),
                 "TestEnclosure::test_brackets_the_reference[i]", id="eval-numerators-ignores-lo"),
    pytest.param("_rounds_to_zero", lambda: (lambda cf, b, a: False),
                 "TestCorrectRounding::test_tiny_value_is_zero_before_any_pass", id="size-bound-skipped"),
]


@pytest.mark.parametrize("target, mutant, killer", FLOAT_MUTANTS)
def test_float_kill_table(monkeypatch, target, mutant, killer):
    # Each mutant rebinds one name of integrals (poly keeps its own _eval_numerators), and its killer must fail.
    monkeypatch.setattr(integrals, target, mutant())
    with pytest.raises(AssertionError):
        FLOAT_KILLERS[killer]()


def _reference_rounds_to_zero(kind, n, m, b, a):
    """The size bound of ``integrals._rounds_to_zero`` in Fractions."""
    a, b = Fraction(a), Fraction(b)
    half_tiniest = Fraction(1, 2**1075)
    bound = abs(b - a) * max(abs(a), abs(b)) ** n
    if kind == "exp" and 0 < bound <= half_tiniest:
        k = math.ceil(max(0, m * a, m * b))
        if k >= (half_tiniest // bound).bit_length():  # 3^k > 2^k > 2^-1075/bound
            return False
        bound *= 3**k
    return bound <= half_tiniest


# Any finite double, subnormals and both zeros among them, or one of magnitude 2^-1100 to 2^20.
_BOUND_POINTS = st.floats(allow_nan=False, allow_infinity=False) | st.builds(
    math.ldexp, st.floats(-1, 1), st.integers(-1100, 20))
# p/q * 2^-k with any small q, so that endpoint denominators need not divide one another.
_FRACTION_POINTS = st.builds(lambda p, q, k: Fraction(p, q) / 2**k, st.integers(-9, 9), st.integers(1, 99),
                             st.integers(0, 1100))


class TestSizeBound:
    """``_rounds_to_zero`` decides in integers what the Fraction formula decides."""

    @given(
        kind=st.sampled_from(KINDS),
        m=st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(-5, 3), Fraction(1, 3),
                           Fraction(1, 134217727)]),
        n=st.sampled_from([0, 1, 7, 12, 64]),
        a=_BOUND_POINTS,
        b=_BOUND_POINTS | st.none(),
    )
    @settings(deadline=None, max_examples=500)
    @example(kind="cos", m=Fraction(1), n=0, a=0.0, b=5e-324)  # 2^-1074 is above the bound
    @example(kind="sin", m=Fraction(1), n=2, a=2.0**-1000, b=2.0**-10)  # max(|a|, |b|), not min
    @example(kind="exp", m=Fraction(1), n=1, a=0.0, b=2.0**-538)  # G = 3^ceil(2^-538) = 3
    @example(kind="exp", m=Fraction(-5, 3), n=1, a=-(2.0**-538), b=0.0)
    @example(kind="exp", m=Fraction(1, 3), n=0, a=-0.0, b=-0.0)
    def test_matches_the_fraction_formula(self, kind, m, n, a, b):
        b = a if b is None else b  # an empty interval
        cf = closed_form(kind, n, m if kind == "exp" else None)
        expected = _reference_rounds_to_zero(kind, n, m, b, a)
        assert integrals._rounds_to_zero(cf, b, a) == expected
        assert integrals._rounds_to_zero(cf, a, b) == expected

    @given(
        kind=st.sampled_from(KINDS),
        n=st.sampled_from([0, 1, 2, 64]),
        a=_FRACTION_POINTS,
        b=_FRACTION_POINTS,
    )
    @settings(deadline=None, max_examples=300)
    @example(kind="sin", n=2, a=Fraction(1, 3), b=Fraction(1, 2))
    def test_sound_for_fraction_endpoints(self, kind, n, a, b):
        # Over the lcm of the denominators a shift bounds q * r^n from below: "rounds to zero" is never wrong.
        cf = closed_form(kind, n, Fraction(-5, 3) if kind == "exp" else None)
        if integrals._rounds_to_zero(cf, b, a):
            assert _reference_rounds_to_zero(kind, n, Fraction(-5, 3), b, a)


class TestOverflowDecision:
    """``_overflows`` says yes only where the correctly rounded value is infinite."""

    @given(
        n=st.sampled_from([0, 1, 2, 5]),
        m=(st.integers(-3000, 3000) | st.fractions(-1500, 1500, max_denominator=40)).filter(bool).map(Fraction),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3) | st.none(),
    )
    @settings(deadline=None, max_examples=300)
    @example(n=0, m=Fraction(1037), a=0.0, b=1.0)  # 1037 >= 1026 + bit_length(1037): decided
    @example(n=0, m=Fraction(1036), a=0.0, b=1.0)  # one less: left to the rounding loop
    @example(n=1, m=Fraction(-1200), a=-1.0, b=-0.999)  # x1 is the lower bound for a negative rate
    # A = 2^1020 and g*x1 = 7 pass the first test, but b - a is one ulp: F(a) cancels F(b) to about 2^980.
    @example(n=0, m=Fraction(1, 2**1020), a=7 * 2.0**1020, b=math.nextafter(7 * 2.0**1020, math.inf))
    # A = 17 * 2^1040 at g*x1 = -16: e^(g*x1) < 1, so that A alone says nothing; F(x1) is about 2^1021.
    @example(n=1, m=Fraction(-1, 2**520), a=16 * 2.0**520, b=32 * 2.0**520)
    def test_sound(self, n, m, a, b):
        decided, overflows = [], integrals._overflows

        def spy(rate, at):
            decided.append(overflows(rate, at))
            return False

        cf = closed_form("exp", n, m)
        with mock.patch.object(integrals, "_overflows", spy):
            try:
                definite_integral(cf, a, b) if b is not None else eval_closed_form(cf, a)
            except OverflowError:
                return
        assert True not in decided

    @pytest.mark.parametrize("m, decided", [(1037, True), (1036, False)])
    def test_edge(self, m, decided):
        # e^(m x)/m on [0, 1]: A = 1/m has bits = -bit_length(m), so g*x1 must reach 1026 + bit_length(m) = 1037.
        cf = closed_form("exp", 0, m)
        at = [(p, 1, integrals._eval_numerators(cf.part, p, 0, 1)) for p in (1, 0)]
        assert integrals._overflows(cf.rate, at) is decided
        with pytest.raises(OverflowError):
            definite_integral(cf, 0.0, 1.0)

    def test_sin_cos_and_complex_rates_are_not_decided(self):
        at = [(10**6, 1, (1, 0, 1)), (0, 1, (1, 0, 1))]
        assert not integrals._overflows(I, at)
        assert not integrals._overflows(GaussianRational(10**6, 1), at)
        assert integrals._overflows(GaussianRational(10**6), at)


class TestQuadrature:
    def test_self_consistency_on_x_sin_x(self):
        q = quad_adaptive("sin", 1, 1, 0.0, math.pi, 1e-12)
        assert q.value == pytest.approx(math.pi, abs=1e-10)
        assert q.est_error >= 0
        assert q.evaluations > 0

    def test_degenerate_interval(self):
        q = quad_adaptive("cos", 3, 1, 1.0, 1.0)
        assert q.value == 0.0 and q.evaluations == 0

    def test_matches_closed_form(self):
        cf = closed_form("exp", 3, 1)
        v = definite_integral(cf, 0.0, 2.0)
        q = quad_adaptive("exp", 3, 1, 0.0, 2.0, 1e-12)
        assert abs(v - q.value) <= 1e-9 * max(1.0, abs(q.value))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quad_adaptive("sin", 1, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            quad_adaptive("sin", 1, 1, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrand_function("sinh", 1)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bound_is_refused(self, a, b):
        with pytest.raises(ValueError, match="quad_adaptive requires a <= b"):
            quad_adaptive("sin", 1, 1, a, b)

    def test_nan_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            quad_adaptive("sin", 1, 1, 0.0, 1.0, tol=math.nan)

    def test_rate_too_large_for_a_double(self):
        with pytest.raises(ValueError, match="quadrature failed"):
            quad_adaptive("exp", 1, Fraction(10**400), -1.0, -0.5)

    def test_panel_cap_is_explicit(self, monkeypatch):
        monkeypatch.setattr(integrals, "_MAX_PANELS", 1)
        with pytest.raises(ValueError, match="quadrature failed to converge within 1 panels"):
            quad_adaptive("sin", 3, 1, 0.0, 3.0, tol=1e-13)

    def test_random_intervals_all_kinds(self):
        rng = random.Random(987123)
        for kind, m in [("sin", None), ("cos", None), ("exp", Fraction(2))]:
            for n in (0, 5, 12):
                cf = closed_form(kind, n, m)
                for _ in range(5):
                    a, b = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
                    v = definite_integral(cf, a, b)
                    q = quad_adaptive(
                        kind, n, m or 1, a, b, 1e-12 * max(1.0, abs(v))
                    )
                    assert abs(v - q.value) <= 1e-9 * max(1.0, abs(q.value))

    def test_evaluation_ceiling(self):
        # A 15-point Kronrod rule settles x sin x on [0, pi] in a few panels;
        # a low-order rule needs thousands of evaluations at this tolerance.
        assert quad_adaptive("sin", 1, 1, 0.0, math.pi, 1e-12).evaluations < 500

    def test_converges_where_a_halving_budget_hit_rounding(self, capsys):
        # The integral is small next to the integrand: a per-panel budget that
        # halves at each level would fall below double-precision rounding.
        argv = ["integrate", "--kind", "cos", "--n", "11", "--a", "-0.59", "--b", "5.0916", "--check"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(": PASS\n")

    def test_error_within_estimate(self):
        value = definite_integral(closed_form("exp", 2, -1), -9.3, 9.6951)
        q = quad_adaptive("exp", 2, -1, -9.3, 9.6951, 1e-12 * abs(value))
        assert abs(q.value - value) <= q.est_error

    def test_seeded_sweep_of_the_documented_domain(self):
        # n <= 12, bounds in [-10, 10], both interval-width strata, every
        # kind and rate the cross-check documents.
        rng = random.Random(20261018)
        combos = [("sin", None), ("cos", None), ("exp", 1), ("exp", 2), ("exp", -1)]
        for _ in range(300):
            kind, m = rng.choice(combos)
            n = rng.randint(0, 12)
            width = rng.uniform(*rng.choice([(0.5, 10.0), (10.0, 20.0)]))
            a = rng.uniform(-10.0, 10.0 - width)
            b = a + width
            v = definite_integral(closed_form(kind, n, m), a, b)
            q = quad_adaptive(kind, n, m or 1, a, b, 1e-12 * max(1.0, abs(v)))
            case = (kind, n, m, a, b, v, q)
            assert abs(v - q.value) <= 1e-9 * max(1.0, abs(q.value)), case
            assert abs(v - q.value) <= q.est_error, case


class TestDirectConstruction:
    def test_closed_form_is_frozen(self):
        cf = closed_form("sin", 2)
        with pytest.raises(AttributeError):
            cf.n = 3

    def test_handmade_form_checks_out(self):
        # S_1 = -x cos x + 1 sin x = Re((-x - i) e^(ix))
        cf = ClosedForm("sin", 1, I, -X - I)
        assert check_antiderivative(cf)

    def test_closed_form_is_one_rate_and_one_part(self):
        assert ClosedForm.__slots__ == ("kind", "n", "rate", "part")
        for cf in (closed_form("sin", 3), closed_form("cos", 0), closed_form("exp", 2, Fraction(-5, 3))):
            assert [type(getattr(cf, name)).__name__ for name in ClosedForm.__slots__] == [
                "str", "int", "GaussianRational", "Poly"]
