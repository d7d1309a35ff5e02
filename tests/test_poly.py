import copy
import operator
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scepoly.genfunc import E_SPEC, FormalSeries, em_spec, rho_linear, series_E, series_Em
from scepoly.integrals import QuadResult, closed_form
from scepoly.poly import ExpPoly, LaurentPoly, Poly, _eval_numerators, _normalise
from scepoly.rational import GaussianRational, I, as_gaussian
from scepoly.report import CheckEntry, CheckReport

X = Poly.x()
LAURENT_BINDINGS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "derivative",
                    "__eq__")

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_gaussians = st.builds(GaussianRational, small_rationals, small_rationals)
polys = st.lists(small_gaussians, max_size=5).map(Poly)
rates = st.sampled_from(
    [GaussianRational(0), GaussianRational(1), GaussianRational(-1), I, -I, GaussianRational(2)]
)
exp_polys = st.lists(st.tuples(rates, polys), max_size=3).map(ExpPoly)


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


# Gaussian numerators (im nonempty), a positive offset and a common denominator above 1.
offset_gaussian_polys = st.builds(
    lambda p, k: p * Poly.monomial(k), polys, st.integers(1, 3)
).filter(lambda p: p.im and p.den > 1)


class TestRealOverIPower:
    @given(p=offset_gaussian_polys, n=st.integers(-5, 8))
    def test_matches_gaussian_division(self, p, n):
        q = p.real_over_i_power(n)
        assert not q.im and q.degree <= p.degree
        assert all(q.coeff(k) == (p.coeff(k) / I**n).re for k in range(p.degree + 1))

    def test_table_by_n_mod_4(self):
        p = Poly([GaussianRational(Fraction(1, 2), 3), GaussianRational(-5, Fraction(1, 3))])
        re, im = Poly([Fraction(1, 2), -5]), Poly([3, Fraction(1, 3)])
        assert [p.real_over_i_power(n) for n in range(-4, 4)] == [re, im, -re, -im] * 2

    def test_real_poly_at_odd_n_is_zero(self):
        p = X**3 - Fraction(2, 3) * X
        assert p.real_over_i_power(1).is_zero() and p.real_over_i_power(-1).is_zero()
        assert p.real_over_i_power(2) == -p


class TestLaurentPoly:
    def test_derivative_kills_constant(self):
        assert LaurentPoly({0: 5}).derivative().is_zero()

    def test_derivative_of_inverse_power(self):
        assert LaurentPoly({-1: 1}).derivative() == LaurentPoly({-2: -1})

    def test_merging_cancels(self):
        assert (LaurentPoly({2: 1}) + LaurentPoly({2: -1})).is_zero()

    def test_scalar_products_refuse_foreign_operands(self):
        p = LaurentPoly({-1: 2, 1: I})
        assert p * 3 == 3 * p == LaurentPoly({-1: 6, 1: 3 * I})
        assert p * Fraction(1, 2) == LaurentPoly({-1: 1, 1: I / 2})
        assert I * p == LaurentPoly({-1: 2 * I, 1: -1})
        for foreign in (1.5, "1", None, X, series_E(3), ExpPoly.of(1, X)):
            assert p.__mul__(foreign) is NotImplemented
            assert p.__rmul__(foreign) is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            LaurentPoly({0: 1}) * series_E(3)

    @pytest.mark.parametrize("name", LAURENT_BINDINGS)
    def test_operators_are_polys(self, name):
        assert LaurentPoly.__dict__[name] is Poly.__dict__[name]

    def test_class_keeps_no_operator_body(self):
        metadata = {"__module__", "__qualname__", "__doc__", "__firstlineno__", "__static_attributes__"}
        own = set(LaurentPoly.__dict__) - metadata
        assert own == {"__slots__", "__new__", "terms", "__repr__", "__hash__", *LAURENT_BINDINGS}

    @pytest.mark.parametrize("c", [3, Fraction(-2, 5), GaussianRational(Fraction(1, 2), -1)], ids=repr)
    def test_scalar_operands(self, c):
        p, k = LaurentPoly({-2: 1, 1: I}), LaurentPoly({0: c})
        assert p + c == c + p == p + k
        assert p - c == p - k and c - p == k - p
        assert p * c == c * p == p * k
        assert k == c and c == k and p != c
        assert k.derivative(c) == LaurentPoly({0: c * c})

    def test_foreign_operands_get_not_implemented(self):
        p = LaurentPoly({-1: 2, 1: I})
        for foreign in (1.5, "1", None, X, series_E(3), ExpPoly.of(1, X)):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
                assert getattr(p, name)(foreign) is NotImplemented, name
            for op in (operator.add, operator.sub, operator.mul):
                for left, right in ((p, foreign), (foreign, p)):
                    with pytest.raises(TypeError):
                        op(left, right)
            assert (p == foreign) is False and (foreign == p) is False
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'LaurentPoly' and 'Poly'"):
            p + X
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'Poly' and 'LaurentPoly'"):
            X - p
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*: 'LaurentPoly' and 'FormalSeries'"):
            p * series_E(3)

    def test_constant_equals_and_hashes_as_its_scalar(self):
        for c in (3, Fraction(1, 2), GaussianRational(1, -2), 0):
            k = LaurentPoly({0: c})
            assert k == c and hash(k) == hash(c) == hash(Poly.constant(c)) and c in {k} and k in {c}
        assert LaurentPoly({-1: 3}) != 3 and LaurentPoly({1: 3}) != 3

    def test_derivative_takes_a_rate(self):
        assert LaurentPoly({-1: 1}).derivative(2) == LaurentPoly({-2: -1, -1: 2})
        assert LaurentPoly({-1: 1}).derivative(I) == LaurentPoly({-2: -1, -1: I})


class TestExpPoly:
    def test_derivative_first_weight_step(self):
        # d/dx (x e^x) = (x + 1) e^x
        f = ExpPoly.of(1, X)
        expected = ExpPoly.of(1, X + 1)
        assert f.derivative() == expected

    def test_derivative_of_pure_exponential(self):
        f = ExpPoly.of(1, Poly.one())
        assert f.derivative() == f

    def test_zero_rate_degenerates_to_poly_derivative(self):
        p = X**3 - X
        f = ExpPoly.of(0, p)
        assert f.derivative() == ExpPoly.of(0, p.derivative())

    def test_second_weight_step(self):
        # d^2/dx^2 (x e^x) = (x + 2) e^x
        f = ExpPoly.of(1, X)
        expected = ExpPoly.of(1, X + 2)
        assert f.nth_derivative(2) == expected

    def test_nth_derivative_order_zero(self):
        f = ExpPoly.of(2, Poly.monomial(3))
        assert f.nth_derivative(0) == f

    def test_foreign_operands_get_not_implemented(self):
        """+ and - take only an ExpPoly; - checks the type before it negates."""
        f = ExpPoly.of(1, X)
        for foreign in (1, Fraction(1, 2), I, X, 1.5, "1", None, series_E(3)):
            assert f.__add__(foreign) is NotImplemented
            assert f.__sub__(foreign) is NotImplemented
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'ExpPoly' and 'Poly'"):
            f + X
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'ExpPoly' and 'int'"):
            f - 1
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'Poly' and 'ExpPoly'"):
            X - f
        assert f + ExpPoly.of(2, X) - ExpPoly.of(2, X) == f

    def test_products_take_polys_and_scalars_only(self):
        f = ExpPoly.of(1, X)
        for foreign in (1.5, "x", None, LaurentPoly({0: 1}), series_E(2)):
            assert f.__mul__(foreign) is NotImplemented and f.__rmul__(foreign) is NotImplemented
            for left, right in ((f, foreign), (foreign, f)):
                with pytest.raises(TypeError):
                    left * right
        for left, right, names in ((f, 1.5, "'ExpPoly' and 'float'"), (1.5, f, "'float' and 'ExpPoly'"),
                                   (f, series_E(2), "'ExpPoly' and 'FormalSeries'"),
                                   (series_E(2), f, "'FormalSeries' and 'ExpPoly'")):
            with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \*: {names}"):
                left * right
        assert f * 3 == 3 * f == ExpPoly.of(1, 3 * X) and f * I == ExpPoly.of(1, I * X)

    def test_poly_times_exppoly_reaches_the_reflected_operator(self, monkeypatch):
        f, seen, rmul = ExpPoly.of(1, X + 1), [], ExpPoly.__rmul__
        monkeypatch.setattr(ExpPoly, "__rmul__", lambda self, other: seen.append(other) or rmul(self, other))
        assert X * f == f * X == ExpPoly.of(1, X * X + X)
        assert seen == [X]

    def test_distinct_rates_merge_on_construction(self):
        f = ExpPoly([(1, Poly.constant(1)), (1, Poly.constant(2))])
        assert f.terms == {GaussianRational(1): Poly.constant(3)}

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


def _poly_from_ref(p):
    """The reference value, whose exponents are >= 0, as a Poly."""
    re, im = p
    return Poly(GaussianRational(re.get(e, 0), im.get(e, 0)) for e in range(max([*re, *im], default=-1) + 1))


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


def _ref_mul(p, q):
    """The product by dict convolution, over pairs of terms."""
    (pr, pi), (qr, qi) = p, q
    re, im = {}, {}
    for e, (a, b) in {e: (pr.get(e, 0), pi.get(e, 0)) for e in pr.keys() | pi.keys()}.items():
        for f, (c, d) in {f: (qr.get(f, 0), qi.get(f, 0)) for f in qr.keys() | qi.keys()}.items():
            re[e + f] = re.get(e + f, 0) + a * c - b * d
            im[e + f] = im.get(e + f, 0) + a * d + b * c
    return _clean(re), _clean(im)


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

    @given(p=ref_laurents, q=ref_laurents)
    def test_mul(self, p, q):
        assert _agrees(_from_ref(p) * _from_ref(q), _ref_mul(p, q))

    @given(p=ref_laurents, c=st.tuples(small_rationals, small_rationals))
    def test_scalar_mul(self, p, c):
        assert _agrees(_from_ref(p) * GaussianRational(*c), _ref_scale(p, c))
        assert _agrees(c[0] * _from_ref(p), _ref_scale(p, (c[0], 0)))

    @given(p=ref_laurents, rate=st.sampled_from(REF_RATES))
    def test_derivatives(self, p, rate):
        assert _agrees(_from_ref(p).derivative(), _ref_derivative(p))
        p, r = _ref_shift(p, 4), GaussianRational(*rate)  # exponents 0..8: a Poly part
        part = _poly_from_ref(p)
        expected = _poly_from_ref(_ref_add(_ref_derivative(p), _ref_scale(p, rate)))
        assert part.derivative(r) == expected
        assert ExpPoly.of(r, part).derivative() == ExpPoly.of(r, expected)


@st.composite
def raw_layouts(draw):
    """(lo, re, im, den) as a kernel hands it to ``_normalise``: about half the numerators zero, so
    also at either end; ``im`` empty, all zero or drawn; a factor shared by every numerator and den;
    den = 1 or not."""
    size = draw(st.integers(0, 7))
    numerators = st.lists(st.just(0) | st.integers(-12, 12), min_size=size, max_size=size)
    re = draw(numerators)
    im = draw(st.sampled_from([(), [0] * size, draw(numerators)]))
    shared, den = draw(st.sampled_from([1, 2, 3, 6])), draw(st.just(1) | st.integers(2, 12))
    seq = draw(st.sampled_from([list, tuple]))
    return draw(st.integers(-3, 3)), seq(shared * c for c in re), seq(shared * c for c in im), shared * den


def _reference_layout(lo, re, im, den):
    """The canonical layout rebuilt from the Fraction coefficients of the value."""
    pairs = zip(re, im or [0] * len(re))
    coeffs = {lo + k: (Fraction(r, den), Fraction(i, den)) for k, (r, i) in enumerate(pairs) if r or i}
    if not coeffs:
        return 0, (), (), 1
    low, high = min(coeffs), max(coeffs)
    common = lcm(*(part.denominator for c in coeffs.values() for part in c))
    zero = (Fraction(0), Fraction(0))
    parts = [coeffs.get(e, zero) for e in range(low, high + 1)]
    re = tuple(int(r * common) for r, _ in parts)
    im = tuple(int(i * common) for _, i in parts) if any(i for _, i in parts) else ()
    return low, re, im, common


class TestNormaliseCanonicalForm:
    @given(layout=raw_layouts())
    def test_matches_fraction_reference(self, layout):
        # tuple equality: the same exponents, tuples of the same numerators, the same den
        assert _normalise(*layout) == _reference_layout(*layout)


# Reference for Poly: {degree: (re, im)} of plain Fractions, zero entries
# dropped, with the Q(i) formulas written out one Fraction operation at a time.
def _model(coeffs):
    return {k: (Fraction(c.re), Fraction(c.im)) for k, c in enumerate(map(as_gaussian, coeffs)) if c}


def _model_clean(d):
    return {k: v for k, v in d.items() if v != (0, 0)}


def _model_add(p, q, sign=1):
    zero = (Fraction(0), Fraction(0))
    return _model_clean({
        k: (p.get(k, zero)[0] + sign * q.get(k, zero)[0], p.get(k, zero)[1] + sign * q.get(k, zero)[1])
        for k in p.keys() | q.keys()
    })


def _model_mul(p, q):
    out = {}
    for i, (ar, ai) in p.items():
        for j, (br, bi) in q.items():
            cr, ci = out.get(i + j, (0, 0))
            out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return _model_clean(out)


def _model_inverse(c):
    norm = c[0] * c[0] + c[1] * c[1]
    return c[0] / norm, -c[1] / norm


def _model_pow(c, k):
    out = {0: (Fraction(1), Fraction(0))}
    for _ in range(k):
        out = _model_mul(out, {0: c})
    return out.get(0, (Fraction(0), Fraction(0)))


def _model_agrees(p, expected):
    """p holds the model's value, in the canonical integer layout."""
    assert {k: (c.re, c.im) for k, c in enumerate(p.coeffs) if c} == expected
    assert p.degree == max(expected, default=-1)
    if not p.re:
        assert (p.lo, p.re, p.im, p.den) == (0, (), (), 1)
        return True
    im = p.im or (0,) * len(p.re)
    assert p.lo >= 0 and p.den > 0 and len(im) == len(p.re) and any(im) == bool(p.im)
    assert (p.re[0] or im[0]) and (p.re[-1] or im[-1])
    assert gcd(p.den, *p.re, *im) == 1
    rebuilt = Poly([GaussianRational(*expected.get(k, (0, 0))) for k in range(p.degree + 1)])
    return p == rebuilt and hash(p) == hash(rebuilt)


real_polys = st.lists(small_rationals.map(GaussianRational), max_size=6)
complex_polys = st.lists(small_gaussians, min_size=1, max_size=6).filter(lambda cs: any(c.im for c in cs))
POLY_KINDS = {"real": real_polys, "complex": complex_polys}
KIND_PAIRS = [("real", "real"), ("real", "complex"), ("complex", "complex")]
any_polys = real_polys | complex_polys
scalars = st.one_of(st.integers(-6, 6), small_rationals, small_gaussians)


class TestPolyAgainstModel:
    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="x".join)
    @given(data=st.data())
    def test_ring_operations(self, kinds, data):
        a, b = (data.draw(POLY_KINDS[kind]) for kind in kinds)
        p, q, mp, mq = Poly(a), Poly(b), _model(a), _model(b)
        assert _model_agrees(p + q, _model_add(mp, mq))
        assert _model_agrees(p - q, _model_add(mp, mq, -1))
        assert _model_agrees(-q, _model_add({}, mq, -1))
        assert _model_agrees(p * q, _model_mul(mp, mq))
        assert _model_agrees(q * p, _model_mul(mp, mq))

    @given(a=any_polys, c=scalars)
    def test_scalar_operations(self, a, c):
        p, mp, mc = Poly(a), _model(a), _model([c]).get(0, (Fraction(0), Fraction(0)))
        assert _model_agrees(p * c, _model_mul(mp, {0: mc}))
        assert _model_agrees(c * p, _model_mul(mp, {0: mc}))
        assert _model_agrees(p + c, _model_add(mp, {0: mc}))
        assert _model_agrees(c - p, _model_add({0: mc}, mp, -1))
        if c:
            assert _model_agrees(p / c, _model_mul(mp, {0: _model_inverse(mc)}))
        else:
            with pytest.raises(ZeroDivisionError):
                p / c

    @given(a=any_polys, z=small_gaussians, n=st.integers(0, 3))
    def test_calculus_and_powers(self, a, z, n):
        p, mp, mz = Poly(a), _model(a), (z.re, z.im)
        assert _model_agrees(p.derivative(), _model_clean({k - 1: (k * r, k * i) for k, (r, i) in mp.items()}))
        scaled = {k: _model_mul({0: c}, {0: _model_pow(mz, k)}).get(0, (0, 0)) for k, c in mp.items()}
        assert _model_agrees(p.scale_arg(z), _model_clean(scaled))
        power = {0: (Fraction(1), Fraction(0))}
        for _ in range(n):
            power = _model_mul(power, mp)
        assert _model_agrees(p**n, power)

    @given(a=any_polys, k=st.integers(1, 30), pad=st.integers(0, 3))
    def test_canonical_form(self, a, k, pad):
        p = Poly(a)
        cs = [as_gaussian(c) for c in a]
        den = lcm(*(c.re.denominator for c in cs), *(c.im.denominator for c in cs))
        scaled = Poly.from_numerators(
            [int(c.re * den) * k for c in cs], [int(c.im * den) * k for c in cs], den * k
        )
        for same in (scaled, Poly(a + [0] * pad), (p * k) / k, p * Fraction(1, k) * k):
            assert same == p and hash(same) == hash(p)
            assert (same.lo, same.re, same.im, same.den) == (p.lo, p.re, p.im, p.den)
        assert _model_agrees(Poly([0] * pad + a), {d + pad: c for d, c in _model(a).items()})

    def test_zero_polynomial(self):
        for zero in (Poly(), Poly([0, 0]), Poly([GaussianRational(0, 0)]), Poly.zero(), X - X, X * 0,
                     Poly.monomial(3, 0), Poly.zero() * (X + I)):
            assert zero == Poly.zero() == 0 and hash(zero) == hash(Poly.zero())
            assert (zero.lo, zero.re, zero.im, zero.den, zero.degree, zero.coeffs) == (0, (), (), 1, -1, ())
            assert zero.is_zero()

    @pytest.mark.parametrize("c", [0, 3, -7, Fraction(1, 2), GaussianRational(1, 2)], ids=repr)
    def test_constant_hashes_as_its_scalar(self, c):
        p = Poly.constant(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}

    @given(a=any_polys)
    def test_copy_and_pickle(self, a):
        p = Poly(a)
        for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(other) is Poly and other == p and hash(other) == hash(p) and repr(other) == repr(p)

    @pytest.mark.parametrize("p", [Poly.zero(), X + 1, Poly([I, Fraction(1, 2)])], ids=repr)
    def test_errors(self, p):
        for zero in (0, Fraction(0), GaussianRational(0), GaussianRational(0, 0)):
            with pytest.raises(ZeroDivisionError):
                p / zero
        for foreign in (0.5, "1", 1j, LaurentPoly({0: 1}), None):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(p, foreign)
            with pytest.raises(TypeError):
                p.scale_arg(foreign)
            assert (p == foreign) is False
        with pytest.raises(ValueError):
            Poly.monomial(-1)
        with pytest.raises(ValueError):
            p**-1

    @pytest.mark.parametrize("p", [Poly.zero(), X + 1, Poly([I, Fraction(1, 2)])], ids=repr)
    def test_foreign_operands_get_not_implemented(self, p):
        """A non-scalar operand is left to the other type, whose reflected operator may take it."""
        for foreign in (1.5, "1", None, LaurentPoly({0: 1}), series_E(3), ExpPoly.of(1, X)):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                         "__eq__"):
                assert getattr(p, name)(foreign) is NotImplemented, name
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'Poly' and 'float'"):
            p + 1.5
        with pytest.raises(TypeError, match="cannot interpret 'x' as a Gaussian rational"):
            FormalSeries(["x"])

    @pytest.mark.parametrize("p", [Poly.zero(), X + 1, Poly([I, Fraction(1, 2)])], ids=repr)
    def test_products_with_richer_types_commute(self, p):
        for other in (series_E(3), series_Em(Fraction(-5, 3), 4), ExpPoly.of(1, Poly.one()),
                      ExpPoly([(I, X + 2), (-1, Poly.constant(3))])):
            assert p * other == other * p
            assert type(p * other) is type(other)

    def test_exppoly_refuses_laurent_parts(self):
        for part in (LaurentPoly({0: 1}), LaurentPoly({-1: 3}), 1, None):
            with pytest.raises(TypeError):
                ExpPoly([(1, X), (2, part)])
            with pytest.raises(TypeError):
                ExpPoly.of(1, part)


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


class TestEvalFloat:
    """eval_float is the exact kernel's value at the float, rounded once."""

    @given(coeffs=st.lists(small_rationals, max_size=9), x=st.floats(min_value=-1e6, max_value=1e6))
    def test_is_the_exact_value_correctly_rounded(self, coeffs, x):
        p = Poly(coeffs)
        assert p.eval_float(x) == float(p.eval(Fraction(x)).re)

    def test_cancellation_keeps_every_bit(self):
        # (x - 1)^8 at 1 + 2^-30 is exactly 2^-240; float Horner steps cancel it to 0.0.
        assert ((X - 1) ** 8).eval_float(1 + 2**-30) == 2.0**-240

    def test_refuses_gaussian_coefficients(self):
        with pytest.raises(ValueError, match="real coefficients"):
            Poly([1, I]).eval_float(0.5)


EMIT_RATES = [Fraction(m) for m in ("2", "3", "-1", "-2", "1/2", "3/4", "5/3", "-5/3")]


def test_division_by_a_rational_does_no_gaussian_arithmetic(gaussian_arithmetic):
    """p / c multiplies by the Fraction 1/c, so the exp closed forms, P = e_n^(m) / m^(n+1), build no
    GaussianRational reciprocal at the emit requests' rates."""
    for m in EMIT_RATES:
        for n in range(40):
            closed_form("exp", n, m)
    assert gaussian_arithmetic == [], f"{len(gaussian_arithmetic)} calls: {sorted(set(gaussian_arithmetic))}"


# (a, b, q) for z = (a + b*i)/q: each float as the definite integral passes it, and one unreduced Gaussian point.
KERNEL_POINTS = [(p, 0, q) for p, q in map(float.as_integer_ratio, (0.0, -0.0, 3.25, -3.25, 1e300, 5e-324))]
KERNEL_POINTS.append((-10, 3, 6))
KERNEL_POLYS = [
    Poly.zero(),
    Poly.constant(Fraction(-5, 9)),
    Poly([1, -3, Fraction(1, 2), 0, 7]),
    Poly.monomial(3, Fraction(2, 7)) + Poly.monomial(5, -1),  # lo = 3
    Poly([GaussianRational(Fraction(1, 3), 2), 0, -I, Fraction(5, 7)]),
    Poly.monomial(2, I) * (X - Fraction(3, 4)),  # Gaussian, lo = 2
]


@pytest.mark.parametrize("z", KERNEL_POINTS, ids=repr)
@pytest.mark.parametrize("p", KERNEL_POLYS, ids=repr)
def test_eval_numerators_match_eval(p, z):
    """The integer kernel's unreduced (re, im, den) is p's exact value at z, over p.den * q^degree."""
    a, b, q = z
    re, im, den = _eval_numerators(p, a, b, q)
    point = GaussianRational(Fraction(a, q), Fraction(b, q))
    assert Fraction(re, den) + I * Fraction(im, den) == p.eval(point)
    assert (Fraction(re, den), Fraction(im, den)) == _ref_eval(p.coeffs, point)
    assert den == p.den * q ** max(p.degree, 0)


IMMUTABLE_VALUES = [
    GaussianRational(Fraction(-5, 3), Fraction(1, 2)),
    Poly([Fraction(1, 2), 0, I, -3]),
    LaurentPoly({-3: Fraction(2, 7), 0: 1, 2: I}),
    ExpPoly([(I, Poly([1, 2])), (-1, Poly.constant(3)), (0, X)]),
    series_Em(Fraction(-5, 3), 5),
    closed_form("exp", 1, Fraction(-5, 3)),
    QuadResult(0.5, 2.5e-15, 15),
    CheckEntry("x", True),
    CheckReport.of([("a", 1), ("b", 0)]),
    em_spec(Fraction(7, 2)),
    rho_linear(E_SPEC, 2),
]

# Each record, another of its type that differs in one field, and its repr: the class name and each field=value.
RECORDS = [
    (closed_form("sin", 1), closed_form("sin", 2),
     "ClosedForm(kind='sin', n=1, rate=GaussianRational(0, 1), part=Poly((0-1i) + -1*x^1))"),
    (closed_form("exp", 1, Fraction(-5, 3)), closed_form("exp", 1, Fraction(5, 3)),
     "ClosedForm(kind='exp', n=1, rate=GaussianRational(-5/3), part=Poly(-9/25 + -3/5*x^1))"),
    (QuadResult(0.5, 2.5e-15, 15), QuadResult(0.5, 2.5e-15, 30),
     "QuadResult(value=0.5, est_error=2.5e-15, evaluations=15)"),
    (CheckEntry("x", True), CheckEntry("x", False), "CheckEntry(label='x', passed=True)"),
    (CheckReport.of([("a", 1), ("b", 0)]), CheckReport.of([("a", 1)]),
     "CheckReport(entries=(CheckEntry(label='a', passed=True), CheckEntry(label='b', passed=False)))"),
    (em_spec(Fraction(7, 2)), em_spec(Fraction(-7, 2)),
     "LinearHGSpec(alpha=Fraction(1, 1), beta=Fraction(0, 1), gamma=Fraction(7, 2), delta0=Fraction(0, 1), "
     "delta1=Fraction(-1, 1))"),
    (rho_linear(E_SPEC, 2), rho_linear(E_SPEC, 3),
     "WeightForm(alpha=Fraction(1, 1), beta=Fraction(0, 1), exponent=Fraction(-3, 1), rate=Fraction(1, 1))"),
]


@pytest.mark.parametrize("value,other,text", RECORDS, ids=[type(value).__name__ for value, _, _ in RECORDS])
def test_records_compare_hash_and_print_by_their_fields(value, other, text):
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    twin = type(value)(*fields)
    assert twin is not value and twin == value and hash(twin) == hash(value) and not twin != value
    assert other != value and not other == value
    assert value.__eq__(fields) is NotImplemented and value != fields
    assert repr(value) == text
    for wrong in (fields[:-1], fields + fields[-1:]):
        with pytest.raises((TypeError, ValueError)):  # the generic field loop raises ValueError
            type(value)(*wrong)


@pytest.mark.parametrize("value", IMMUTABLE_VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_immutable_values_copy_and_pickle(value, round_trip):
    other = round_trip(value)
    assert type(other) is type(value) and other == value
    assert repr(other) == repr(value)
    if isinstance(value, ExpPoly):
        assert list(other.terms) == list(value.terms)
    if isinstance(value, FormalSeries):
        assert other.coeffs == value.coeffs
    if type(value).__hash__ is not None:
        assert hash(other) == hash(value)


@pytest.mark.parametrize("value", IMMUTABLE_VALUES, ids=lambda v: type(v).__name__)
def test_immutable_values_refuse_assignment_and_deletion(value):
    value, original = copy.copy(value), value  # a failed refusal alters only the copy
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    message = f"{type(value).__name__} is immutable"
    for name in slots + ["other"]:
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 1)
    for name in slots:
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == original and repr(value) == repr(original)
