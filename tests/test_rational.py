from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scepoly.rational import (
    GaussianRational,
    I,
    ONE,
    as_gaussian,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)
gaussians = st.builds(GaussianRational, rationals, rationals)


class TestRational:
    def test_exact_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_zero_product(self):
        assert Fraction(3, 4) * 0 == Fraction(0, 1)

    def test_canonical_form(self):
        f = Fraction(2, 4)
        assert (f.numerator, f.denominator) == (1, 2)
        g = Fraction(3, -6)
        assert g.denominator > 0 and g == Fraction(-1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    @given(a=rationals, b=rationals, c=rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


class TestFactorial:
    def test_base_cases(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        assert factorial(12) == 479001600


class TestGaussianRational:
    def test_i_squared(self):
        assert I * I == -1

    def test_i_has_order_four(self):
        assert I**4 == ONE
        assert I**2 == GaussianRational(-1)
        assert I**3 == -I

    def test_conjugate_product(self):
        z = GaussianRational(1, 1)
        assert z * z.conjugate() == 2
        assert (GaussianRational(1, 1)) * (GaussianRational(1, -1)) == 2

    def test_division(self):
        assert ONE / I == -I
        z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        assert (z * I) / I == z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / GaussianRational(0, 0)

    def test_negative_power(self):
        assert I**-1 == -I
        assert GaussianRational(2) ** -2 == GaussianRational(Fraction(1, 4))

    def test_coercion(self):
        assert as_gaussian(3) == GaussianRational(3)
        assert as_gaussian(Fraction(1, 2)).re == Fraction(1, 2)
        with pytest.raises(TypeError):
            as_gaussian(1.5)

    @given(a=gaussians, b=gaussians, c=gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=gaussians)
    def test_conjugation_norm_is_real(self, a):
        assert (a * a.conjugate()).is_real

    @given(a=gaussians, b=gaussians)
    def test_division_inverts_multiplication(self, b, a):
        if not b:
            return
        assert (a * b) / b == a
