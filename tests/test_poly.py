from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scepoly.poly import ExpPoly, LaurentPoly, Poly
from scepoly.rational import GaussianRational, I, as_gaussian

X = Poly.x()

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_gaussians = st.builds(GaussianRational, small_rationals, small_rationals)
polys = st.lists(small_gaussians, max_size=5).map(Poly)
laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4), small_gaussians, max_size=4
).map(LaurentPoly)
rates = st.sampled_from(
    [GaussianRational(0), GaussianRational(1), GaussianRational(-1), I, -I, GaussianRational(2)]
)
exp_polys = st.lists(st.tuples(rates, laurents), max_size=3).map(ExpPoly)


class TestPolyArithmetic:
    def test_add(self):
        assert (X - 1) + Poly.one() == X

    def test_mul(self):
        assert (X - 1) * (X + 1) == X**2 - 1

    def test_zero_absorbs(self):
        p = 3 * X**2 - 2
        assert Poly.zero() * p == Poly.zero()

    def test_degree_of_product(self):
        p, q = X**3 - 1, 2 * X**2 + X
        assert (p * q).degree == p.degree + q.degree

    def test_canonical_no_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()
        assert Poly([0]).degree == -1

    @given(p=polys, q=polys, r=polys)
    def test_ring_axioms(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p


class TestPolyCalculus:
    def test_derivative_of_quadratic(self):
        # x^2 - 2x + 2 differentiates to 2(x - 1)
        assert (X**2 - 2 * X + 2).derivative() == 2 * X - 2

    def test_derivative_of_constant(self):
        assert Poly.constant(Fraction(7, 3)).derivative() == Poly.zero()

    def test_derivative_of_linear(self):
        assert (X - 1).derivative() == Poly.one()

    def test_eval_at_zero_gives_constant_term(self):
        p = X**2 - 2 * X + 2
        assert p.eval(0) == 2

    def test_eval_at_gaussian_point(self):
        assert (X - 1).eval(I) == GaussianRational(-1, 1)

    def test_eval_horner_matches_direct(self):
        p = Poly([Fraction(1, 2), -3, 0, 5])
        z = Fraction(2, 3)
        direct = Fraction(1, 2) - 3 * z + 5 * z**3
        assert p.eval(z) == direct

    @given(p=polys)
    def test_high_derivative_vanishes(self, p):
        d = p
        for _ in range(len(p.coeffs) + 1):
            d = d.derivative()
        assert d.is_zero()


class TestScaleArg:
    def test_scale_by_i(self):
        assert (X**2).scale_arg(I) == -(X**2)

    def test_scale_by_one_is_identity(self):
        p = X**3 - 2 * X + 5
        assert p.scale_arg(1) == p

    def test_scale_quadratic_by_i(self):
        # substitute ix into x^2 - 2x + 2
        p = (X**2 - 2 * X + 2).scale_arg(I)
        assert p == Poly([2, GaussianRational(0, -2), -1])

    @given(p=polys)
    def test_scaling_by_i_twice_negates_argument(self, p):
        assert p.scale_arg(I).scale_arg(I) == p.scale_arg(-1)


class TestLaurentPoly:
    def test_shift_and_to_poly(self):
        lp = LaurentPoly({-1: 1, 0: 2})
        assert lp.shift(1).to_poly() == Poly([1, 2])

    def test_to_poly_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            LaurentPoly({-1: 1}).to_poly()

    def test_derivative_kills_constant(self):
        assert LaurentPoly({0: 5}).derivative().is_zero()

    def test_derivative_of_inverse_power(self):
        assert LaurentPoly({-1: 1}).derivative() == LaurentPoly({-2: -1})

    def test_merging_cancels(self):
        assert (LaurentPoly({2: 1}) + LaurentPoly({2: -1})).is_zero()


class TestExpPoly:
    def test_derivative_first_weight_step(self):
        # d/dx (x^-1 e^x) = (x^-1 - x^-2) e^x
        f = ExpPoly.of(1, LaurentPoly({-1: 1}))
        expected = ExpPoly.of(1, LaurentPoly({-1: 1, -2: -1}))
        assert f.derivative() == expected

    def test_derivative_of_pure_exponential(self):
        f = ExpPoly.of(1, LaurentPoly({0: 1}))
        assert f.derivative() == f

    def test_zero_rate_degenerates_to_poly_derivative(self):
        p = X**3 - X
        f = ExpPoly.of(0, p)
        assert f.derivative() == ExpPoly.of(0, p.derivative())

    def test_second_weight_step(self):
        f = ExpPoly.of(1, LaurentPoly({-1: 1}))
        expected = ExpPoly.of(1, LaurentPoly({-1: 1, -2: -2, -3: 2}))
        assert f.nth_derivative(2) == expected

    def test_nth_derivative_order_zero(self):
        f = ExpPoly.of(2, LaurentPoly({3: 1}))
        assert f.nth_derivative(0) == f

    def test_distinct_rates_merge_on_construction(self):
        f = ExpPoly([(1, LaurentPoly({0: 1})), (1, LaurentPoly({0: 2}))])
        assert f.terms == {GaussianRational(1): LaurentPoly({0: 3})}

    @given(f=exp_polys, g=exp_polys)
    def test_derivative_is_linear(self, f, g):
        assert (f + g).derivative() == f.derivative() + g.derivative()

    @given(f=exp_polys, a=st.integers(0, 3), b=st.integers(0, 3))
    def test_nth_derivative_composes(self, f, a, b):
        assert f.nth_derivative(a + b) == f.nth_derivative(a).nth_derivative(b)


# Reference for the integer layer: a Laurent polynomial over Q(i) as a pair
# of plain dicts exponent -> Fraction (real parts, imaginary parts), with no
# zero entries.
def _clean(d):
    return {e: Fraction(c) for e, c in d.items() if c}


ref_parts = st.dictionaries(st.integers(min_value=-4, max_value=4), small_rationals, max_size=4)
ref_laurents = st.tuples(ref_parts.map(_clean), ref_parts.map(_clean))
REF_RATES = [(1, 0), (2, 0), (-1, 0), (Fraction(1, 2), 0), (0, 1), (0, -1)]


def _from_ref(p):
    re, im = p
    return LaurentPoly({e: GaussianRational(re.get(e, 0), im.get(e, 0)) for e in re.keys() | im.keys()})


def _ref_add(p, q):
    return tuple(_clean({e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()}) for a, b in zip(p, q))


def _ref_scale(p, c):
    (re, im), (cr, ci) = p, c
    keys = re.keys() | im.keys()
    return (
        _clean({e: re.get(e, 0) * cr - im.get(e, 0) * ci for e in keys}),
        _clean({e: re.get(e, 0) * ci + im.get(e, 0) * cr for e in keys}),
    )


def _ref_shift(p, k):
    return tuple({e + k: c for e, c in d.items()} for d in p)


def _ref_derivative(p):
    return tuple(_clean({e - 1: e * c for e, c in d.items()}) for d in p)


def _agrees(lp, expected):
    """lp holds the reference value, in the canonical form equality relies on."""
    terms = lp.terms
    got = (_clean({e: c.re for e, c in terms.items()}), _clean({e: c.im for e, c in terms.items()}))
    return got == expected and lp == _from_ref(expected)


class TestIntegerLayerAgainstReference:
    @given(p=ref_laurents, q=ref_laurents)
    def test_add_and_sub(self, p, q):
        assert _agrees(_from_ref(p) + _from_ref(q), _ref_add(p, q))
        assert _agrees(_from_ref(p) - _from_ref(q), _ref_add(p, _ref_scale(q, (-1, 0))))
        assert _agrees(-_from_ref(p), _ref_scale(p, (-1, 0)))

    @given(p=ref_laurents, c=st.tuples(small_rationals, small_rationals), k=st.integers(-5, 5))
    def test_scalar_mul_and_shift(self, p, c, k):
        assert _agrees(_from_ref(p) * GaussianRational(*c), _ref_scale(p, c))
        assert _agrees(c[0] * _from_ref(p), _ref_scale(p, (c[0], 0)))
        assert _agrees(_from_ref(p).shift(k), _ref_shift(p, k))

    @given(p=ref_laurents, rate=st.sampled_from(REF_RATES))
    def test_derivatives(self, p, rate):
        lp = _from_ref(p)
        assert _agrees(lp.derivative(), _ref_derivative(p))
        expected = _ref_add(_ref_derivative(p), _ref_scale(p, rate))
        f = ExpPoly.of(GaussianRational(*rate), lp).derivative()
        assert f == ExpPoly.of(GaussianRational(*rate), _from_ref(expected))
        if not lp.is_zero():
            (part,) = f.terms.values()
            assert _agrees(part, expected)


# Reference for Poly.eval: Horner over (real, imaginary) pairs of plain
# Fractions, one Fraction operation at a time.
def _ref_eval(coeffs, z):
    zr, zi = Fraction(z.re), Fraction(z.im)
    ar = ai = Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c.re, ar * zi + ai * zr + c.im
    return ar, ai


wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
real_gaussians = wide_rationals.map(GaussianRational)
wide_gaussians = st.builds(GaussianRational, wide_rationals, wide_rationals) | real_gaussians
# Floats as the exact binary rationals the definite integral evaluates at.
BINARY_POINTS = [Fraction(x) for x in (2.0**-1074, 1e-300, 1e300, -2.0**-1074, -1e-300, -1e300, -0.1, 9.6951)]


class TestEvalAgainstReference:
    @given(coeffs=st.lists(wide_gaussians, max_size=12), z=wide_gaussians)
    def test_gaussian(self, coeffs, z):
        value = Poly(coeffs).eval(z)
        assert (value.re, value.im) == _ref_eval(Poly(coeffs).coeffs, z)

    @given(coeffs=st.lists(real_gaussians, max_size=12), z=wide_rationals)
    def test_real(self, coeffs, z):
        value = Poly(coeffs).eval(z)
        assert (value.re, value.im) == _ref_eval(Poly(coeffs).coeffs, GaussianRational(z))
        assert value.im == 0

    @pytest.mark.parametrize("z", [0, Fraction(0), GaussianRational(0), -1, Fraction(-7, 3), -I, *BINARY_POINTS])
    @pytest.mark.parametrize(
        "coeffs",
        [[], [0], [5], [Fraction(-2, 3)], [GaussianRational(1, -1)], [1, -3, Fraction(1, 2), 0, 7],
         [GaussianRational(Fraction(1, 3), 2), 0, -I, Fraction(5, 7)]],
    )
    def test_edge_cases(self, coeffs, z):
        p = Poly(coeffs)
        value = p.eval(z)
        assert (value.re, value.im) == _ref_eval(p.coeffs, as_gaussian(z))

    def test_zero_polynomial_and_constants(self):
        assert Poly.zero().eval(Fraction(1e300)) == 0
        assert Poly.constant(Fraction(-5, 9)).eval(Fraction(2.0**-1074)) == Fraction(-5, 9)
        assert (X**3).eval(0) == 0

    def test_tiny_point_keeps_every_bit(self):
        tiny = Fraction(2.0**-1074)
        assert (X**2 + X).eval(tiny) == GaussianRational(tiny**2 + tiny)
        assert (X**2 + X).eval(tiny).re.denominator == 2**2148

    def test_refuses_floats(self):
        with pytest.raises(TypeError):
            X.eval(0.5)
