import copy
import operator
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scepoly.rational import (
    GaussianRational,
    I,
    ONE,
    as_gaussian,
    as_rate,
    as_rational,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero = rationals.filter(bool)
reals = st.builds(GaussianRational, rationals)
non_reals = st.builds(GaussianRational, rationals, nonzero)
# Operand pairs for each branch: real x real, real x non-real, non-real x real
# and non-real x non-real.
operand_pairs = st.one_of(
    st.tuples(reals, reals),
    st.tuples(reals, non_reals),
    st.tuples(non_reals, reals),
    st.tuples(non_reals, non_reals),
)


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


class TestAsRational:
    """The one parser from text to Fraction: ``Fraction`` reads it, under the int-string digit bound."""

    @pytest.mark.parametrize(
        "text,value",
        [("2", Fraction(2)), ("-5/3", Fraction(-5, 3)), ("0.5", Fraction(1, 2)), ("1e400", Fraction(10**400)),
         ("0.1", Fraction(1, 10)), ("-2.5e-3", Fraction(-1, 400)), (" +7/2 ", Fraction(7, 2)), (".5", Fraction(1, 2))],
    )
    def test_spellings(self, text, value):
        assert as_rational(text) == value == Fraction(text)

    @given(st.text(alphabet="0123456789_./eE+- ", max_size=6))  # exponents of at most 4 digits, which Fraction builds fast
    def test_agrees_with_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            assert as_rational(text) == expected
        except ValueError as exc:
            # Refused: not a Fraction, or past the bound by its exponent.
            assert expected is None or "int-string limit" in str(exc)

    @pytest.mark.parametrize("text", ["1/0", "0/0", "abc", "", "1/2.0", "1e", "1__0", "inf"])
    def test_malformed(self, text):
        with pytest.raises(ValueError, match=re.escape(f"malformed rational {text!r} (use integer or p/q)")):
            as_rational(text)

    def test_zero_denominator_is_not_a_zero_division(self):
        with pytest.raises(ValueError, match="malformed rational"):
            as_rate("1/0")

    def test_digit_bound(self):
        limit = sys.get_int_max_str_digits()
        within = ["9" * limit, f"1e{limit - 1}", f"1e-{limit - 1}", f"1/{'7' * limit}", f"{'1' * (limit - 1)}.5"]
        for text in within:
            assert as_rational(text) == Fraction(text)
        beyond = ["9" * (limit + 1), f"1e{limit}", f"1e-{limit}", f"1/{'7' * (limit + 1)}",
                  "1e100000000", f"1e{'0' * limit}1"]
        for text in beyond:
            with pytest.raises(ValueError, match=re.escape(f"(over the int-string limit of {limit} digits)")):
                as_rational(text)

    def test_no_bound_when_the_limit_is_off(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert as_rational("1e5000") == 10**5000
            assert as_rational("-1e-5000") == Fraction(-1, 10**5000)
        finally:
            sys.set_int_max_str_digits(limit)


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
        assert not (a * a.conjugate()).im

    @given(a=gaussians, b=gaussians)
    def test_division_inverts_multiplication(self, b, a):
        if not b:
            return
        assert (a * b) / b == a


# The Q(i) formulas on (re, im) pairs of plain Fractions, the reference for
# every operator on real and non-real operands alike.

def _ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm


def _ref_pow(a, e):
    if e < 0:
        return _ref_pow(_ref_div((Fraction(1), Fraction(0)), a), -e)
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


REFERENCE = {
    operator.add: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    operator.sub: lambda a, b: (a[0] - b[0], a[1] - b[1]),
    operator.mul: _ref_mul,
    operator.truediv: _ref_div,
}


def _parts(z):
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


class TestBranchesAgainstReference:
    @pytest.mark.parametrize("op", list(REFERENCE), ids=lambda op: op.__name__)
    @given(pair=operand_pairs)
    def test_binary_ops(self, op, pair):
        a, b = pair
        if op is operator.truediv and not b:
            return
        assert _parts(op(a, b)) == REFERENCE[op](_parts(a), _parts(b))

    @pytest.mark.parametrize("op", list(REFERENCE), ids=lambda op: op.__name__)
    @given(a=gaussians, q=rationals | st.integers(-50, 50))
    def test_mixed_operands(self, op, a, q):
        """An int or a Fraction on either side acts as the real value q."""
        g = GaussianRational(q)
        if q:
            assert _parts(op(a, q)) == _parts(op(a, g))
        if a:
            assert _parts(op(q, a)) == _parts(op(g, a))

    @given(a=st.one_of(reals, non_reals))
    def test_negation(self, a):
        assert _parts(-a) == (-a.re, -a.im)
        assert _parts(a.conjugate()) == (a.re, -a.im)

    @given(a=st.one_of(reals, non_reals), e=st.integers(-6, 6))
    def test_powers(self, a, e):
        if e < 0 and not a:
            with pytest.raises(ZeroDivisionError):
                a**e
            return
        assert _parts(a**e) == _ref_pow(_parts(a), e)

    @given(re=rationals | st.integers(-50, 50), im=rationals | st.integers(-50, 50))
    def test_parts_are_fractions(self, re, im):
        z = GaussianRational(re, im)
        assert _parts(z) == (re, im)
        assert (not z.im) == (im == 0)

    @given(a=gaussians)
    def test_immutable(self, a):
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, Fraction(1))
        with pytest.raises(AttributeError):
            del a.re

    def test_repr(self):
        assert repr(GaussianRational(Fraction(-3, 4))) == "GaussianRational(-3/4)"
        assert repr(GaussianRational(2, 0)) == "GaussianRational(2)"
        assert repr(GaussianRational(0, Fraction(1, 2))) == "GaussianRational(0, 1/2)"
        assert repr(I * I) == "GaussianRational(-1)"
        assert repr(ONE / GaussianRational(1, 1)) == "GaussianRational(1/2, -1/2)"


class TestHashEq:
    """A real value equals, and hashes as, its real part, as complex does."""

    @given(q=rationals | st.integers(-50, 50))
    def test_real_value_hashes_as_its_real_part(self, q):
        z = GaussianRational(q)
        assert z == q and q == z
        for value in (z, z, copy.copy(z), pickle.loads(pickle.dumps(z))):  # the first hash is stored
            assert hash(value) == hash(q) == hash(Fraction(q))
        assert z in {q} and q in {z}
        assert {q: "q"}[z] == "q" and {z: "z"}[q] == "z"

    def test_set_and_dict_lookups(self):
        assert 1 in {GaussianRational(1)}
        assert GaussianRational(0) in {0, 5}
        assert Fraction(1, 2) in {GaussianRational(Fraction(2, 4))}
        assert {GaussianRational(-3): "a"}[-3] == "a"
        assert {3: "b"}[GaussianRational(6) / 2] == "b"
        assert len({1, Fraction(1), GaussianRational(1), I * I * -1}) == 1
        assert I not in {0, 1, -1}

    @given(a=gaussians, b=gaussians)
    def test_equal_values_hash_equal(self, a, b):
        assert (a == b) == (_parts(a) == _parts(b))
        if a == b:
            assert hash(a) == hash(b) == hash(b)
        assert GaussianRational(a.re, a.im) == a
        for value in (a, GaussianRational(a.re, a.im), copy.copy(a), pickle.loads(pickle.dumps(a))):
            assert hash(value) == hash(value) == hash(a)

    def test_stored_hash_cannot_be_assigned(self):
        z = GaussianRational(1, 2)
        hash(z)
        for value in (z, GaussianRational(3)):
            with pytest.raises(AttributeError):
                value._hash = 0
