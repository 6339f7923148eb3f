"""theta_scaled against an oracle that shares no code with it.

theta(a; p) = (a; p)_inf (p/a; p)_inf, each infinite q-Pochhammer symbol
computed by mpmath.qp at 40 digits.  The identities are balanced theta
quotients, so a kernel off by a constant factor passes every law and
identity check; these tests compare values.
"""

import cmath
import math

import mpmath
import pytest

from ellid._scaled import ScaledComplex, sc
from ellid.theta import shifted_factorial, theta_prod, theta_scaled

DPS = 40


def _exact(x) -> mpmath.mpc:
    x = sc(x)
    with mpmath.workdps(DPS):
        return mpmath.mpc(x.m) * mpmath.mpf(2) ** x.e


def _theta(a, p) -> mpmath.mpc:
    """The reference theta(a; p) of mpmath values a and p."""
    return mpmath.qp(a, p) * mpmath.qp(p / a, p)


def _worst(cases) -> float:
    """Largest |theta_scaled - reference| / |reference|, in scaled form."""
    worst = 0.0
    with mpmath.workdps(DPS):
        for a, p in cases:
            val, _ = theta_scaled(a, p)
            ref = _theta(_exact(a), mpmath.mpc(p))
            worst = max(worst, float(abs(_exact(val) - ref) / abs(ref)))
    return worst


def test_theta_matches_oracle_on_sampler_box(draws):
    cases = [(draws.box(0.1), draws.p(0.5)) for _ in range(40)]
    assert _worst(cases) <= 1e-13


def test_theta_matches_oracle_at_wide_nome(draws):
    cases = [(draws.box(0.1), 0.9 * cmath.exp(1j * draws.rng.uniform(-math.pi, math.pi)))
             for _ in range(20)]
    assert _worst(cases) <= 1e-13


@pytest.mark.parametrize("exponent", [30, -30, 100, -100])
def test_theta_matches_oracle_at_extreme_arguments(draws, exponent):
    # |a| = 1e+-30 and 1e+-100: the quasi-periodic shift carries the whole
    # magnitude, and to_complex() of the result overflows, so compare in
    # scaled form
    mod = ScaledComplex.from_exp(complex(exponent * math.log(10)))
    cases = []
    for _ in range(20):
        u = draws.box(0.1)
        cases.append((sc(u / abs(u)) * mod, draws.p(0.5)))
    assert _worst(cases) <= {30: 1.2e-12, 100: 1e-11}[abs(exponent)]


def test_shifted_factorial_matches_oracle(draws):
    # (a; b, p)_k against the product of k reference thetas at a b^j, and
    # (a; b, p)_{-k} against 1 / the product of k reference thetas at a b^-j
    errs = []
    with mpmath.workdps(DPS):
        for _ in range(30):
            a, b, p, k = draws.box(0.1), draws.q(), draws.p(0.5), draws.rng.randint(-6, 6)
            a_, b_, p_ = _exact(a), _exact(b), _exact(p)
            if k >= 0:
                ref = mpmath.fprod(_theta(a_ * b_ ** j, p_) for j in range(k))
            else:
                ref = 1 / mpmath.fprod(_theta(a_ / b_ ** j, p_) for j in range(1, -k + 1))
            errs.append(abs(shifted_factorial(a, b, p, k) - ref) / abs(ref))
    assert max(errs) <= 1e-13


def test_theta_prod_matches_oracle(draws):
    errs = []
    with mpmath.workdps(DPS):
        for _ in range(30):
            args, p = [draws.box(0.1) for _ in range(draws.rng.randint(2, 4))], draws.p(0.5)
            ref = mpmath.fprod(_theta(_exact(a), _exact(p)) for a in args)
            errs.append(abs(theta_prod(args, p) - ref) / abs(ref))
    assert max(errs) <= 1e-13


@pytest.mark.parametrize("zero, side, d, bound", [
    ("1", "inside", 1e-4, 1e-14), ("1", "inside", 1e-6, 1e-14),
    ("1", "outside", 1e-4, 1e-11), ("1", "outside", 1e-6, 1e-9),
    ("p", "outside", 1e-4, 1e-11), ("p", "outside", 1e-6, 1e-9),
])
def test_theta_matches_oracle_near_its_zeros(draws, zero, side, d, bound):
    # a = z (1 -+ d u), |u| = 1, at relative distance d from the zero z = 1
    # or z = p, on the side of |a| = |z| named.  Inside the annulus the
    # factor 1 - a is formed from a itself; from outside, the reduction
    # moves the zero into 1 - p/a' with a' rounded, so the error grows as
    # 2^-53 / d (measured 4.5e-12 and 3.2e-10 at a -> 1, 1.4e-12 and
    # 1.7e-10 at a -> p; 4.4e-15 inside)
    sign = -1 if side == "inside" else 1
    cases = []
    for _ in range(60):
        p = draws.p(0.5)
        u = cmath.exp(1j * draws.rng.uniform(-1.2, 1.2))
        cases.append(((1 if zero == "1" else p) * (1 + sign * d * u), p))
    assert _worst(cases) <= bound
