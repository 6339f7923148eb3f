from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellid.errors import NonIntegerExponent, OutOfRange
from ellid.identities import eval_exact
from ellid.qexact import (ExactQ, LaurentPoly, RationalFn, _kronecker_mul, q_binomial,
                          q_number)


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


def schoolbook(a: dict, b: dict) -> dict:
    """Reference product: every term pair, then the zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# polynomials past the Kronecker crossover: up to 40 consecutive exponents
# from a negative start, with zero coefficients leaving gaps
big_coeffs = st.one_of(st.integers(min_value=-9, max_value=9),
                       st.sampled_from([2**100, -2**100]))
wide_polys = st.builds(
    lambda lo, cs: LaurentPoly.from_dict({lo + i: c for i, c in enumerate(cs)}),
    st.integers(min_value=-30, max_value=5),
    st.lists(big_coeffs, min_size=30, max_size=40))


@given(wide_polys, wide_polys)
@settings(max_examples=100, deadline=None)
def test_kronecker_matches_schoolbook(a, b):
    assume(not a.is_zero() and not b.is_zero())
    got = _kronecker_mul(a.coeffs, b.coeffs)
    assume(got is not None)
    want = schoolbook(a.coeffs, b.coeffs)
    assert got == want
    assert (a * b).coeffs == want and (b * a).coeffs == want
    assert all(type(c) is int and c != 0 for c in got.values())


@pytest.mark.parametrize("m", [24, 33, 64])
def test_kronecker_drops_cancelled_coefficients(m):
    # [m]_q expanded times (1 - q) c is c - q^m c: every middle slot cancels
    c = {e: (-1) ** e * (e + 2**100) for e in range(-(m // 3), m // 3)}
    a = LaurentPoly.from_dict({e: 1 for e in range(m)})
    b = LaurentPoly.from_dict(schoolbook({0: 1, 1: -1}, c))
    assert _kronecker_mul(a.coeffs, b.coeffs) is not None
    want = LaurentPoly.from_dict(c) - LaurentPoly.monomial(m) * LaurentPoly.from_dict(c)
    assert a * b == want and b * a == want
    assert 0 not in (a * b).coeffs.values()


def test_kronecker_leaves_fractions_to_the_sparse_loop():
    a = LaurentPoly.from_dict({e: e + 1 for e in range(-20, 20)})
    b = LaurentPoly.from_dict({**{e: 3 - e for e in range(30)}, 7: Fraction(1, 3)})
    assert _kronecker_mul(a.coeffs, b.coeffs) is None
    assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)
    assert any(isinstance(c, Fraction) for c in (a * b).coeffs.values())


@given(polys, st.integers(min_value=-9, max_value=9), coeffs.filter(bool))
@settings(max_examples=100, deadline=None)
def test_monomial_product_shifts_and_scales(a, e, c):
    want = LaurentPoly.from_dict({k + e: v * c for k, v in a.coeffs.items()})
    m = LaurentPoly.monomial(e, c)
    assert a * m == want and m * a == want
    assert (a * LaurentPoly.zero()).is_zero() and (LaurentPoly.zero() * a).is_zero()


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
    assert P.qn(Fraction(3, 1)) == q_number(3)
    for call in (P.qpow, P.qn, P.qn_den, lambda z: P.pow(q_number(2), z)):
        with pytest.raises(NonIntegerExponent):
            call(2.0)


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
