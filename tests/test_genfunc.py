from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scepoly.families import c_from_s, e_explicit, em_explicit, laguerre_general, s_explicit
from scepoly.genfunc import (
    E_SPEC,
    FormalSeries,
    LinearHGSpec,
    _over_one_plus_t_power,
    degenerate_genfunc,
    em_spec,
    laguerre_spec,
    nu_degeneracy_check,
    rho_linear,
    series_C,
    series_E,
    series_Em,
    series_S,
    series_connection_check,
    series_exp_xt,
    sigma_linear,
)
from scepoly.poly import ExpPoly, LaurentPoly, Poly
from scepoly.rational import GaussianRational, I

X = Poly.x()

# A series as plain data: one list per power of t of (re, im) Fraction pairs by
# ascending degree in x, zeros allowed anywhere (so also between nonzero terms).
_parts = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_scalars = st.just((Fraction(0), Fraction(0))) | st.tuples(_parts, _parts)
_rows = st.lists(_scalars, max_size=5)


@st.composite
def _row_pairs(draw):
    """Two same-order series as (re, im) rows, order 0 to 8."""
    order = draw(st.integers(0, 8))
    return tuple(draw(st.lists(_rows, min_size=order + 1, max_size=order + 1)) for _ in "ab")


def _series(rows):
    return FormalSeries(Poly(GaussianRational(re, im) for re, im in row) for row in rows)


def _as_dicts(series):
    return [{d: (c.re, c.im) for d, c in enumerate(p.coeffs) if c} for p in series.coeffs]


def _dense_product(a_rows, b_rows):
    """Schoolbook reference: every (t^i x^da) * (t^j x^db) with i + j <= order, zeros included."""
    out = [{} for _ in a_rows]
    for i, a in enumerate(a_rows):
        for j, b in enumerate(b_rows[: len(a_rows) - i]):
            for da, (ar, ai) in enumerate(a):
                for db, (br, bi) in enumerate(b):
                    re, im = out[i + j].get(da + db, (0, 0))
                    out[i + j][da + db] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return [{d: v for d, v in row.items() if v != (0, 0)} for row in out]


# x^2 - 2i and (1/2 + i) x t^2 times x t + (3 + x^2) t^2: interior zeros, non-real
# entries, and both factors non-constant in x
_MIXED = ([[(0, -2), (0, 0), (1, 0)], [], [(0, 0), (Fraction(1, 2), 1)]],
          [[], [(0, 0), (1, 0)], [(3, 0), (0, 0), (1, 0)]])


def _exp_rows(scale, order):
    """exp(scale*x*t) as rows: its t^k row is scale^k/k! at x^k, so unlike scales give unlike row denominators."""
    return [[(0, 0)] * k + [(scale**k / factorial(k), 0)] for k in range(order + 1)]


class TestSeriesArithmetic:
    def test_geometric_inverse(self):
        n = 12
        one_plus_t = FormalSeries([Poly.one(), Poly.one()] + [Poly.zero()] * (n - 1))
        geom = FormalSeries(Poly.constant((-1) ** k) for k in range(n + 1))
        assert one_plus_t * geom == FormalSeries.one(n)

    def test_multiplication_by_zero(self):
        f = series_E(6)
        assert f * FormalSeries.zero(6) == FormalSeries.zero(6)

    def test_square_of_exponential(self):
        # (sum x^k t^k / k!)^2 = 1 + 2xt + 2x^2 t^2 + ...
        f = series_exp_xt(1, 2)
        sq = f * f
        assert sq.coeff(0) == Poly.one()
        assert sq.coeff(1) == 2 * X
        assert sq.coeff(2) == 2 * X**2

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="orders differ"):
            series_E(3) + series_E(4)
        with pytest.raises(ValueError, match="orders differ"):
            series_E(3) * series_E(4)

    @given(rows=_row_pairs(), k=st.integers(-3, 3), p=_rows)
    @example(rows=_MIXED, k=2, p=[(0, 1), (0, 0), (Fraction(-1, 3), 0)])
    @example(rows=([[(1, 1)]], [[(0, 0), (2, -1)]]), k=0, p=[])
    @example(rows=(_exp_rows(Fraction(1, 2), 4), _exp_rows(Fraction(-2, 3), 4)), k=-3, p=[(Fraction(1, 3), 0)])
    def test_product_matches_dense_convolution(self, rows, k, p):
        a_rows, b_rows = rows
        f, g = _series(a_rows), _series(b_rows)
        assert _as_dicts(f * g) == _dense_product(a_rows, b_rows)
        assert f * g == g * f
        # int * series and series * Poly are products with a series constant in t
        padding = [[]] * f.order
        assert _as_dicts(k * f) == _dense_product(a_rows, [[(k, 0)]] + padding)
        poly = Poly(GaussianRational(re, im) for re, im in p)
        assert _as_dicts(f * poly) == _dense_product(a_rows, [p] + padding)

    @given(order=st.integers(0, 8), extra=st.integers(1, 3))
    def test_product_order_mismatch_rejected(self, order, extra):
        f, g = series_E(order), FormalSeries.one(order + extra)
        with pytest.raises(ValueError, match="orders differ"):
            f * g
        with pytest.raises(ValueError, match="orders differ"):
            g * f

    def test_addition_and_negation(self):
        f = series_S(5)
        assert f - f == FormalSeries.zero(5)
        assert -(-f) == f

    def test_foreign_operands_get_not_implemented(self):
        """+ and - take only a FormalSeries; - checks the type before it negates."""
        f = series_E(3)
        for foreign in (1, Fraction(1, 2), I, X, 1.5, "1", None, ExpPoly.of(1, X)):
            assert f.__add__(foreign) is NotImplemented
            assert f.__sub__(foreign) is NotImplemented
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'FormalSeries' and 'int'"):
            f - 1
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'FormalSeries' and 'Poly'"):
            f + X
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'int' and 'FormalSeries'"):
            1 - f

    def test_products_take_series_polys_and_scalars_only(self):
        f = series_E(3)
        for foreign in (1.5, "x", None, LaurentPoly({0: 1}), ExpPoly.of(1, X)):
            assert f.__mul__(foreign) is NotImplemented and f.__rmul__(foreign) is NotImplemented
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*: 'FormalSeries' and 'float'"):
            f * 1.5
        with pytest.raises(TypeError, match="FormalSeries"):
            f * "x"
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*: 'LaurentPoly' and 'FormalSeries'"):
            LaurentPoly({0: 1}) * f
        for factor in (3, Fraction(-1, 2), I, X + 1):
            expected = FormalSeries(c * factor for c in f.coeffs)
            assert f * factor == factor * f == expected


class TestLongDivision:
    """``_over_one_plus_t_power`` is f/(1+t^k): the product route is its oracle."""

    @given(rows=st.lists(_rows, min_size=1, max_size=9), k=st.sampled_from([1, 2, 3]))  # order 0 to 8
    @example(rows=_MIXED[0], k=2)
    @example(rows=_exp_rows(Fraction(-2, 3), 5), k=1)
    @example(rows=[[(1, 0)]], k=3)  # order below k: nothing to divide
    def test_matches_the_product_route(self, rows, k):
        f = _series(rows)
        q = _over_one_plus_t_power(f, k)
        one_plus_t_power = FormalSeries(1 if i in (0, k) else 0 for i in range(f.order + 1))
        assert q * one_plus_t_power == f
        # The Neumann series 1/(1+t^k) = sum (-1)^j t^(kj), as the product route built it.
        alternating = FormalSeries((-1) ** (i // k) if i % k == 0 else 0 for i in range(f.order + 1))
        assert q == f * alternating


class TestExpXtSeries:
    def test_unit_scale(self):
        f = series_exp_xt(1, 2)
        assert f.coeff(0) == Poly.one()
        assert f.coeff(1) == X
        assert f.coeff(2) == X**2 * Fraction(1, 2)

    def test_zero_scale_is_constant_one(self):
        f = series_exp_xt(0, 5)
        assert f == FormalSeries.one(5)

    def test_scale_three(self):
        assert series_exp_xt(3, 2).coeff(2) == X**2 * Fraction(9, 2)

    @given(scale=st.fractions(min_value=-5, max_value=5, max_denominator=7), order=st.integers(0, 12))
    @example(scale=Fraction(0), order=4)
    @example(scale=Fraction(-3), order=6)
    @example(scale=Fraction(-5, 3), order=8)
    def test_coefficients_are_scaled_monomials(self, scale, order):
        p, q = scale.as_integer_ratio()
        expected = FormalSeries(Poly.monomial(k, Fraction(p**k, q**k * factorial(k))) for k in range(order + 1))
        assert series_exp_xt(scale, order) == expected

    @given(a=st.fractions(min_value=-4, max_value=4, max_denominator=6),
           b=st.fractions(min_value=-4, max_value=4, max_denominator=6), order=st.integers(0, 10))
    @example(a=Fraction(1, 2), b=Fraction(-2, 3), order=12)
    @example(a=Fraction(5, 4), b=Fraction(-5, 4), order=6)
    def test_product_adds_scales(self, a, b, order):
        """exp(a*x*t) * exp(b*x*t) = exp((a+b)*x*t) exactly; unlike a and b give each factor its own
        growing row denominators."""
        assert series_exp_xt(a, order) * series_exp_xt(b, order) == series_exp_xt(a + b, order)


class TestGeneratingFunctions:
    def test_e_series_first_coefficients(self):
        e = series_E(3)
        assert e.coeff(0) == Poly.one()
        assert e.coeff(1) == X - 1

    def test_s_series_base(self):
        assert series_S(2).coeff(0) == Poly.constant(-1)

    def test_c_series_t2(self):
        assert series_C(4).coeff(2) == (X**2 - 2) * Fraction(1, 2)

    def test_coefficients_match_families_to_order_30(self):
        order = 30
        e, s, c = series_E(order), series_S(order), series_C(order)
        for n in range(order + 1):
            f = factorial(n)
            assert f * e.coeff(n) == e_explicit(n)
            assert f * s.coeff(n) == s_explicit(n)
            assert f * c.coeff(n) == c_from_s(n)

    @pytest.mark.parametrize("m", [Fraction(2), Fraction(-1), Fraction(1, 2)])
    def test_em_series_matches_family(self, m):
        order = 30
        em = series_Em(m, order)
        for n in range(order + 1):
            assert factorial(n) * em.coeff(n) == em_explicit(n, m)

    def test_em_series_rejects_zero_rate(self):
        with pytest.raises(ValueError, match="nonzero"):
            series_Em(0, 5)

    def test_em_spec_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="malformed rational"):
            em_spec("1/0")

    def test_series_satisfy_their_pdes(self):
        order = 30
        rhs = series_exp_xt(1, order)
        e = series_E(order)
        assert e.diff_x() + e == rhs
        s = series_S(order)
        assert s.diff_x().diff_x() + s == -rhs
        c = series_C(order)
        assert c.diff_x().diff_x() + c == rhs


class TestConnectionIdentity:
    def test_order_zero_value(self):
        e0 = series_E(0).coeff(0)
        rhs = e0.scale_arg(I) * (-I) ** 0 + e0.scale_arg(-I) * I**0
        assert rhs == Poly.constant(2)
        assert rhs == 2 * c_from_s(0)

    def test_order_one_value(self):
        e1 = series_E(1).coeff(1)
        rhs = e1.scale_arg(I) * (-I) + e1.scale_arg(-I) * I
        assert rhs == 2 * X
        assert rhs == 2 * c_from_s(1)

    def test_full_check_to_order_20(self):
        report = series_connection_check(20)
        assert len(report) == 21
        assert report.all_passed, report.failures


class TestWeightForms:
    def test_rho_for_e_equation(self):
        w = rho_linear(E_SPEC, 3)
        assert (w.alpha, w.beta) == (1, 0)
        assert w.exponent == -4
        assert w.rate == 1

    def test_rho_for_laguerre_equation(self):
        alpha_l = Fraction(5, 2)
        w = rho_linear(laguerre_spec(alpha_l), 9)
        assert w.exponent == alpha_l
        assert w.rate == -1

    def test_rho_for_rate_m_equation(self):
        w = rho_linear(em_spec(Fraction(3)), 4)
        assert w.exponent == -5
        assert w.rate == 3

    def test_sigma_constant_for_e_equation(self):
        forms = {sigma_linear(E_SPEC, n) for n in range(11)}
        assert len(forms) == 1
        w = forms.pop()
        assert w.exponent == -1 and w.rate == 1

    def test_sigma_depends_on_n_for_laguerre(self):
        spec = laguerre_spec(Fraction(0))
        assert sigma_linear(spec, 2).exponent == 2
        assert sigma_linear(spec, 5).exponent == 5

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            LinearHGSpec(0, 0, 1, 0, -1)

    def test_lambda_n(self):
        assert E_SPEC.lambda_n(4) == -4
        m = Fraction(7, 2)
        for n in range(6):
            assert em_spec(m).lambda_n(n) == -m * n


def d2(y):
    return y.derivative().derivative()


class TestResidual:
    """``LinearHGSpec.residual`` is the NU equation the suites used to write out by hand."""

    def test_e_equation(self):
        for n in range(11):
            e = e_explicit(n)
            by_hand = X * d2(e) + (X - Poly.constant(n)) * e.derivative() - n * e
            assert E_SPEC.residual(e, n) == by_hand
            assert by_hand.is_zero()

    @pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)])
    def test_rate_m_equation(self, m):
        for n in range(11):
            em = em_explicit(n, m)
            by_hand = X * d2(em) + (m * X - Poly.constant(n)) * em.derivative() - m * n * em
            assert em_spec(m).residual(em, n) == by_hand
            assert by_hand.is_zero()

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 2)])
    def test_laguerre_equation(self, alpha):
        for n in range(11):
            lag = laguerre_general(n, alpha)
            by_hand = X * d2(lag) + (Poly.constant(alpha + 1) - X) * lag.derivative() + n * lag
            assert laguerre_spec(alpha).residual(lag, n) == by_hand
            assert by_hand.is_zero()

    def test_general_linear_spec(self):
        # A = 2x + 1, B_n = 3x + 1/2 - 2n, lambda_n = -3n, on a y that solves nothing
        spec = LinearHGSpec(2, 1, 3, Fraction(1, 2), -2)
        y = X**3 - Fraction(2, 3) * X + 5
        for n in range(6):
            by_hand = (
                (2 * X + 1) * d2(y)
                + (3 * X + Fraction(1, 2) - 2 * n) * y.derivative()
                - 3 * n * y
            )
            assert spec.residual(y, n) == by_hand

    def test_perturbed_solution_is_caught(self):
        # adding x^(n+1) leaves a residual led by gamma*x^(n+1), and gamma != 0 here
        specs = [E_SPEC, em_spec(Fraction(1, 2)), laguerre_spec(Fraction(-3, 2))]
        solutions = [e_explicit, lambda n: em_explicit(n, Fraction(1, 2)),
                     lambda n: laguerre_general(n, Fraction(-3, 2))]
        for spec, solution in zip(specs, solutions):
            for n in range(11):
                assert spec.residual(solution(n), n).is_zero()
                residual = spec.residual(solution(n) + X ** (n + 1), n)
                assert not residual.is_zero()
                assert (residual.degree, residual.coeff(n + 1)) == (n + 1, spec.gamma)


@st.composite
def _offset_polys(draw):
    """x^lo * p for lo = 0..3 and p of up to 5 Gaussian-rational coefficients: zero and constants included."""
    p = Poly(GaussianRational(re, im) for re, im in draw(_rows))
    return X ** draw(st.integers(0, 3)) * p


class TestResidualAgainstComposition:
    """The one-pass residual is the Poly-operator composition A*y'' + B_n*y' + lambda_n*y."""

    @given(
        alpha=_parts.filter(bool), beta=_parts, gamma=_parts, delta0=_parts, delta1=_parts,
        y=_offset_polys(), n=st.integers(0, 10),
    )
    @example(alpha=Fraction(1), beta=Fraction(0), gamma=Fraction(1), delta0=Fraction(0), delta1=Fraction(-1),
             y=Poly.zero(), n=0)
    @example(alpha=Fraction(-2, 3), beta=Fraction(1, 5), gamma=Fraction(3, 4), delta0=Fraction(1, 2),
             delta1=Fraction(-1), y=Poly.constant(GaussianRational(2, -1)), n=3)
    def test_matches_poly_operators(self, alpha, beta, gamma, delta0, delta1, y, n):
        spec = LinearHGSpec(alpha, beta, gamma, delta0, delta1)
        a = alpha * X + beta
        b = gamma * X + (delta0 + delta1 * n)
        assert spec.residual(y, n) == a * d2(y) + b * y.derivative() + (-n * gamma) * y


class TestDegeneracy:
    def test_e_equation_is_degenerate(self):
        assert nu_degeneracy_check(E_SPEC)

    def test_laguerre_equation_is_not(self):
        assert not nu_degeneracy_check(laguerre_spec(0))
        assert not nu_degeneracy_check(laguerre_spec(Fraction(7, 3)))

    def test_shifted_base_equation_is_degenerate(self):
        assert nu_degeneracy_check(LinearHGSpec(1, 1, -1, 0, -1))

    def test_rate_m_equation_is_degenerate(self):
        assert nu_degeneracy_check(em_spec(Fraction(-2)))


class TestDegenerateGenfunc:
    def test_reproduces_e_series(self):
        assert degenerate_genfunc(E_SPEC, 30) == series_E(30)

    @pytest.mark.parametrize("m", [Fraction(2), Fraction(-1), Fraction(1, 2)])
    def test_reproduces_em_series(self, m):
        assert degenerate_genfunc(em_spec(m), 30) == series_Em(m, 30)

    def test_shifted_base_family(self):
        # alpha=1, beta=1, gamma=-1, delta=-n generates (-1)^n (x+1)^n
        spec = LinearHGSpec(1, 1, -1, 0, -1)
        series = degenerate_genfunc(spec, 12)
        for n in range(13):
            expected = (-1) ** n * (X + 1) ** n
            assert factorial(n) * series.coeff(n) == expected

    def test_rejects_nondegenerate_spec(self):
        with pytest.raises(ValueError, match="n-independent"):
            degenerate_genfunc(laguerre_spec(0), 10)
