import cmath
import math

import pytest

from ellid._scaled import ScaledComplex, cpow, sc
from ellid.errors import DomainRejected, TruncationNotConverged, ZeroArgument
from ellid.theta import (MAX_TERMS, ThetaEnv, shifted_factorial, theta, theta_prod,
                         theta_scaled, truncation_terms)


def test_types_validate():
    with pytest.raises(ValueError):
        theta(0.5, 1.0)
    with pytest.raises(ValueError):
        theta(0.5, 1.2 + 0.1j)
    theta(0.5, 0.89j)
    with pytest.raises(ValueError):
        shifted_factorial(0.5, 0, 0.1, 2)


def test_theta_scaled_rejects_nome_outside_unit_disc():
    for p in (1.0, -1.2, 1.5j, 0.8 + 0.8j):
        with pytest.raises(ValueError, match=r"\|p\| < 1"):
            theta_scaled(0.5, p)


def test_theta_scaled_rejects_non_finite_argument():
    for a in (math.inf, complex("nan"), complex(1.0, -math.inf)):
        for p in (0.3, 0):
            with pytest.raises(ValueError, match="theta argument a must be finite"):
                theta_scaled(a, p)


@pytest.mark.parametrize("p", [0.3, -0.45 + 0.2j, 0.1j])
def test_theta_den_rejects_near_every_zero(p):
    # theta(x; p) vanishes at x = p^k; only k = 0 meets the j = 0 factor
    # 1 - x directly, the others reach it through the quasi-periodic shift
    for k in range(-3, 4):
        for d in (1e-7, -1e-7, 1e-7j, 7e-8 - 7e-8j):
            with pytest.raises(DomainRejected, match="theta factor within 1e-06 of zero"):
                ThetaEnv().theta_den(p ** k * (1 + d), p)


def test_theta_examples():
    assert theta(0.5, 0) == 0.5
    assert theta(1.0, 0.3) == 0
    a, p = 0.3 + 0.1j, 0.2
    t1 = theta(a, p)
    t2 = theta(p / a, p)
    assert abs(t1 - t2) <= 1e-12 * abs(t1)


def test_theta_zero_argument():
    with pytest.raises(ZeroArgument):
        theta(0, 0.2)
    with pytest.raises(ZeroArgument):
        theta(0, 0)


def test_theta_truncation_failure():
    # |p| near 1 needs about 1/(1 - |p|) terms, more than MAX_TERMS allows
    for p in (0.95, 0.99):
        with pytest.raises(TruncationNotConverged, match="> MAX_TERMS = 512"):
            theta(0.5, p)


def test_widest_nome_box_fits_under_max_terms():
    # the worst theta of a pinned |p| = 0.9 has reduced |a| = |p|
    assert truncation_terms(0.9, 0.9) == 341 <= MAX_TERMS


def test_theta_prod_examples():
    assert theta_prod([], 0.4) == 1
    assert theta_prod([0.5], 0) == 0.5
    x, p = 0.4, 0.2
    lhs = theta_prod([x, p / x], p)
    rhs = theta(x, p) ** 2
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_theta_inversion_law(draws):
    # theta(a) = theta(p/a) = -a theta(1/a) on the default sampling domain
    worst = 0.0
    for _ in range(1000):
        a = draws.box(0.1)
        p = draws.p(0.5)
        t1 = theta(a, p)
        t2 = theta(p / a, p) if p != 0 else theta(a, p)
        t3 = -a * theta(1 / a, p)
        worst = max(worst, abs(t1 - t2) / abs(t1), abs(t1 - t3) / abs(t1))
    assert worst <= 1e-10


def test_theta_inversion_wide_nome(draws):
    # |p| up to 0.9 needs up to 341 terms
    for _ in range(200):
        a = draws.box(0.1)
        p = draws.p(0.9)
        t1 = theta(a, p)
        t3 = -a * theta(1 / a, p)
        assert abs(t1 - t3) <= 1e-10 * abs(t1)


def test_weierstrass_addition(draws):
    worst = 0.0
    for _ in range(1000):
        x, y, u, v = (draws.box(0.1) for _ in range(4))
        p = draws.p(0.5)
        t1 = theta_prod([x * y, x / y, u * v, u / v], p)
        t2 = theta_prod([x * v, x / v, u * y, u / y], p)
        t3 = theta_prod([y * v, y / v, x * u, x / u], p)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs(t1 - t2 - (u / y) * t3) / scale)
    assert worst <= 1e-10


def test_quasi_periodicity_normalization(draws):
    # the annulus reduction agrees with the directly evaluated product
    for _ in range(50):
        a = draws.box(0.1)
        p = draws.p(0.45)
        direct = theta(a, p)
        via_big = theta(a / p**6, p)
        # theta(a p^-6) = (-1)^6 (a/p^6)^... : check through the functional eq
        v = via_big
        arg = a / p**6
        for _ in range(6):
            v = -v / arg  # theta(x p) = -theta(x)/x  iterated downward
            arg = arg * p
        assert abs(v - direct) <= 1e-11 * abs(direct)


def test_huge_argument_scaled():
    # arguments far outside the double range still evaluate
    big = sc(0.37) * ScaledComplex(1.0, 2000)
    val, minfac = theta_scaled(big, 0.5 + 0.1j)
    assert minfac > 0
    assert math.isfinite(val.log2_abs())


def test_shifted_factorial_examples():
    assert shifted_factorial(0.7, 0.5, 0, 0) == 1
    assert shifted_factorial(0.5, 0.5, 0, 2) == pytest.approx(0.375)
    # base q^{-1} = 2 with a = q^2 = 0.25: (1 - 0.25)(1 - 0.5)
    assert shifted_factorial(0.25, 2.0, 0, 2) == pytest.approx(0.375)


def test_shifted_factorial_negative_and_pole():
    # (a; q)_{-1} = 1/(1 - a/q)
    val = shifted_factorial(0.3, 0.5, 0, -1)
    assert val == pytest.approx(1 / (1 - 0.6))
    with pytest.raises(DomainRejected, match="theta factor within 1e-06 of zero"):
        shifted_factorial(0.5, 0.5, 0, -1)  # factor 1 - 0.5/0.5 = 0


def test_factorial_splicing(draws):
    # (a)_{m+n} = (a)_m (a b^m)_n including negative indices
    for _ in range(60):
        p = draws.p(0.4)
        base = draws.box(0.2)
        a = draws.box(0.2)
        for m, n in [(3, 2), (2, -4), (-3, 5), (-2, -2), (0, 4), (5, 0)]:
            try:
                lhs = shifted_factorial(a, base, p, m + n)
                rhs = (shifted_factorial(a, base, p, m)
                       * shifted_factorial(a * base**m, base, p, n))
            except DomainRejected as exc:
                assert "theta factor within 1e-06 of zero" in str(exc)
                continue
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_p_zero_consistency(draws):
    # at p = 0 the factorial is the bare product of (1 - a b^j)
    for _ in range(40):
        a, base = draws.box(0.1), draws.box(0.1)
        for k in range(6):
            direct = 1.0 + 0j
            for j in range(k):
                direct *= 1 - a * base**j
            assert shifted_factorial(a, base, 0, k) == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_cpow_principal_branch():
    q = 0.5 + 0.2j
    for z in (0, 1, 3, -2, 0.5, 1.7 - 0.3j):
        want = cmath.exp(complex(z) * cmath.log(q))
        got = cpow(q, z).to_complex()
        assert abs(got - want) <= 1e-13 * abs(want)
