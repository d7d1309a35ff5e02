import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scepoly import integrals
from scepoly.cli import main
from scepoly.families import s_explicit, shat
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
from scepoly.poly import Poly

X = Poly.x()

EXP_RATES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]


class TestClosedFormConstruction:
    def test_sin_base_case(self):
        cf = closed_form("sin", 0)
        assert cf.cos_part == Poly.constant(-1)
        assert cf.sin_part.is_zero()

    def test_exp_of_degree_two(self):
        cf = closed_form("exp", 2, 1)
        assert cf.exp_part == X**2 - 2 * X + 2

    def test_sin_degree_two(self):
        cf = closed_form("sin", 2)
        assert cf.cos_part == 2 - X**2
        assert cf.sin_part == 2 * X

    def test_part_degrees(self):
        for n in range(1, 16):
            cf = closed_form("sin", n)
            assert cf.cos_part.degree == n
            assert cf.sin_part.degree == n - 1
            cf = closed_form("cos", n)
            assert cf.sin_part.degree == n
            assert cf.cos_part.degree == n - 1

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
        broken = replace(cf, cos_part=cf.cos_part + 1 + X)
        assert not check_antiderivative(broken)

    def test_lift_is_single_pair_of_rates(self):
        lifted = lift_closed_form(closed_form("sin", 5))
        assert len(lifted.terms) == 2


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
        reference = cf.cos_part.coeff(0).re + _reference_integral("cos", 24, None, 0.0, 3.0)
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

    def test_tiny_value_settles_at_the_first_pass(self, monkeypatch):
        # Without the size bound this value, about 1e-19782, settles only at 2,176 bits.
        points = []
        value_mp = integrals._value_mp
        monkeypatch.setattr(integrals, "_value_mp", lambda cf, x, values: points.append(x) or value_mp(cf, x, values))
        for a, b in ((1e-300, 2e-300), (2e-300, 1e-300)):
            assert definite_integral(closed_form("sin", 64), a, b) == 0.0
        assert points == [2e-300, 1e-300, 1e-300, 2e-300]


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

    def test_depth_exhaustion_is_explicit(self):
        with pytest.raises(ValueError, match="depth"):
            quad_adaptive("sin", 3, 1, 0.0, 3.0, tol=1e-13, max_depth=0)

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
    def test_closed_form_dataclass_is_frozen(self):
        cf = closed_form("sin", 2)
        with pytest.raises(AttributeError):
            cf.n = 3

    def test_handmade_form_checks_out(self):
        # S_1 = -x cos x + 1 sin x
        cf = ClosedForm("sin", 1, cos_part=-X, sin_part=Poly.one())
        assert check_antiderivative(cf)
