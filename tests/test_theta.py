import cmath
import math

import pytest

from ellid._scaled import ScaledComplex, cpow, sc
from ellid.errors import DivisionByZeroFactor, TruncationNotConverged, ZeroArgument
from ellid.theta import (DEFAULT_CONFIG, ThetaConfig, shifted_factorial, theta,
                         theta_prod, theta_scaled)


def test_types_validate():
    with pytest.raises(ValueError):
        theta(0.5, 1.0)
    with pytest.raises(ValueError):
        theta(0.5, 1.2 + 0.1j)
    theta(0.5, 0.89j, ThetaConfig(max_terms=512))
    with pytest.raises(ValueError):
        ThetaConfig(max_terms=0)
    with pytest.raises(ValueError):
        ThetaConfig(tail_tol=0.0)
    with pytest.raises(ValueError):
        shifted_factorial(0.5, 0, 0.1, 2)


def test_theta_scaled_rejects_nome_outside_unit_disc():
    for p in (1.0, -1.2, 1.5j, 0.8 + 0.8j):
        with pytest.raises(ValueError, match=r"\|p\| < 1"):
            theta_scaled(0.5, p)


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
    # |p| near 1 genuinely needs more terms than a small cap allows
    with pytest.raises(TruncationNotConverged):
        theta(0.5, 0.95, ThetaConfig(max_terms=16))


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
    # |p| up to 0.9 needs a deeper product than the default 64 terms
    cfg = ThetaConfig(max_terms=512)
    for _ in range(200):
        a = draws.box(0.1)
        p = draws.p(0.9)
        t1 = theta(a, p, cfg)
        t3 = -a * theta(1 / a, p, cfg)
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
    val, minfac = theta_scaled(big, 0.5 + 0.1j, DEFAULT_CONFIG)
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
    with pytest.raises(DivisionByZeroFactor):
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
            except DivisionByZeroFactor:
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


def test_truncation_rule_matches_tail_bound():
    # raising max_terms beyond the tail-determined order changes nothing
    a, p = 0.3 + 0.4j, 0.45 + 0.1j
    v1 = theta(a, p, ThetaConfig(max_terms=64))
    v2 = theta(a, p, ThetaConfig(max_terms=4096))
    assert v1 == v2


def test_cpow_principal_branch():
    q = 0.5 + 0.2j
    for z in (0, 1, 3, -2, 0.5, 1.7 - 0.3j):
        want = cmath.exp(complex(z) * cmath.log(q))
        got = cpow(q, z).to_complex()
        assert abs(got - want) <= 1e-13 * abs(want)
