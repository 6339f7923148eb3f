from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellid.errors import NonIntegerExponent, OutOfRange
from ellid.identities import eval_exact
from ellid.qexact import ExactQ, LaurentPoly, RationalFn, q_binomial, q_number


def poly_from(d):
    return LaurentPoly.from_dict(d)


# hypothesis strategy: small sparse Laurent polynomials with rational coeffs
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(st.integers(min_value=-6, max_value=6), coeffs,
                        max_size=5).map(poly_from)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(polys)
@settings(max_examples=60, deadline=None)
def test_no_zero_coefficients_stored(a):
    b = a - a
    assert b.coeffs == {}
    for c in (a + a).coeffs.values():
        assert c != 0


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_cross_mult_equivalence(a, s, t):
    # f ~ g by cross multiplication is an equivalence relation; scaled copies
    # of the same fraction are equal without any gcd reduction
    if s.is_zero() or t.is_zero():
        return
    den = poly_from({0: 2, 1: 3})
    f = RationalFn(a * s, den * s)
    g = RationalFn(a * t, den * t)
    assert f == f
    assert f == g and g == f
    h = RationalFn(a * (s * t), den * (s * t))
    assert f == g and g == h and f == h


def test_q_number_examples():
    assert q_number(0) == RationalFn.zero()
    assert q_number(4) == RationalFn(poly_from({0: 1, 1: 1, 2: 1, 3: 1}))
    assert q_number(-1) == RationalFn(poly_from({-1: -1}))


def test_q_number_q_to_one():
    # the polynomial form of [n]_q evaluated at q = 1 is n
    for n in range(0, 12):
        poly = poly_from({e: 1 for e in range(n)})
        assert q_number(n) == RationalFn(poly)
        assert poly(Fraction(1)) == n


def _qbinom_pascal(n, k):
    # oracle: q-Pascal recurrence C(n,k) = C(n-1,k-1) + q^k C(n-1,k)
    if k < 0 or k > n:
        return LaurentPoly.zero()
    if k == 0 or k == n:
        return LaurentPoly.one()
    return (_qbinom_pascal(n - 1, k - 1)
            + LaurentPoly.monomial(k) * _qbinom_pascal(n - 1, k))


def test_q_binomial_examples():
    assert q_binomial(7, 0) == RationalFn.one()
    assert q_binomial(4, 2) == RationalFn(poly_from({0: 1, 1: 1, 2: 2, 3: 1, 4: 1}))
    assert q_binomial(3, 2) == RationalFn(poly_from({0: 1, 1: 1, 2: 1}))
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k) == RationalFn(_qbinom_pascal(n, k))
    with pytest.raises(OutOfRange):
        q_binomial(3, -1)
    with pytest.raises(OutOfRange):
        q_binomial(3, 4)


def test_exactq_rejects_fractional_exponent():
    P = ExactQ()
    with pytest.raises(NonIntegerExponent):
        P.qpow(0.5)
    with pytest.raises(NonIntegerExponent):
        P.qn(Fraction(1, 2))
    assert P.qpow(Fraction(4, 2)) == RationalFn.monomial(2)


def test_eval_exact_examples():
    lhs, rhs = eval_exact("spc-4i", 2)
    want = RationalFn(poly_from({0: 1, 1: 1, 2: 1}))
    assert lhs == want and rhs == want

    lhs, rhs = eval_exact("spc-4ii", 2)
    want = RationalFn(poly_from({0: 1, 2: 2, 4: 3, 6: 2, 8: 1}))
    assert lhs == want and rhs == want

    lhs, rhs = eval_exact("geo", 5)
    want = RationalFn(poly_from({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}))
    assert lhs == want and rhs == want


def test_rationalfn_arithmetic():
    half = RationalFn(poly_from({0: 1}), poly_from({0: 2}))
    one = RationalFn.one()
    assert half + half == one
    assert one - half == half
    assert half * RationalFn.from_scalar(2) == one
    assert one / RationalFn.from_scalar(2) == half
    with pytest.raises(ZeroDivisionError):
        one / RationalFn.zero()
    with pytest.raises(ZeroDivisionError):
        RationalFn(poly_from({0: 1}), LaurentPoly.zero())


def test_rationalfn_evaluate():
    f = q_number(4)
    assert f(0.5) == pytest.approx((1 - 0.5**4) / 0.5)
    assert f(Fraction(1, 2)) == Fraction(15, 8)
