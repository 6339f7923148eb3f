"""The catalog's evaluators over environments written outside the package.

An mpmath full-elliptic context and an mpmath theta environment, both
defined here, provide one, zero, sum, pow and den plus num/wt or
theta/theta_den.
The unchanged catalog lhs/rhs of tel-c, ft-indef and bigid then run at 40
digits on a sampled draw promoted to mpc, with no ellid global patched.
"""


import mpmath
import pytest
from mpmath import mp, mpc, mpf

from ellid._scaled import POLE_TOL
from ellid.errors import DomainRejected
from ellid.harness import SampleConfig, sample_params
from ellid.identities import get_identity
from ellid.telescope import builder

DPS = 40
N = 3


class MpArith:
    """The environment arithmetic over mpmath numbers, with no cancellation guard."""

    one = mpf(1)
    zero = mpf(0)

    def sum(self, terms):
        return sum(terms, self.zero)

    def pow(self, base, z):
        return mpmath.power(base, z)

    def den(self, x):
        if abs(x) < POLE_TOL:
            raise DomainRejected("denominator within pole tolerance of zero")
        return x


def mp_theta(x, p):
    """theta(x; p) = (x; p)_inf (p/x; p)_inf."""
    return mpmath.qp(x, p) * mpmath.qp(p / x, p)


class MpEllipticCtx(MpArith):
    """Elliptic numbers and weights as mpmath theta quotients, theta memoised."""

    def __init__(self, a, b, q, p):
        self.a, self.b, self.q, self.p = a, b, q, p
        self._memo = {}

    def _quot(self, nums, dens):
        def th(x):
            if x not in self._memo:
                self._memo[x] = mp_theta(x, self.p)
            return self._memo[x]
        return mpmath.fprod(map(th, nums)) / mpmath.fprod(map(th, dens))

    def _shifted_ab(self, s):
        qs = self.pow(self.q, s)
        return self.a * qs * qs, self.b * qs

    def num(self, z, s=0):
        a_, b_ = self._shifted_ab(s)
        q, qz = self.q, self.pow(self.q, z)
        return self._quot([qz, a_ * qz, b_ * q * q, a_ / b_],
                          [q, a_ * q, b_ * qz * q, a_ * qz / (b_ * q)])

    def wt(self, k, s=0):
        a_, b_ = self._shifted_ab(s)
        q, qk = self.q, self.pow(self.q, k)
        return self._quot(
            [a_ * qk * qk * q, b_ * q, b_ * q * q, a_ / (b_ * q), a_ / b_],
            [a_ * q, b_ * qk * q, b_ * qk * q * q, a_ * qk / (b_ * q), a_ * qk / b_]) * qk


class MpThetaEnv(MpArith):
    """theta at mpmath precision; a denominator theta is guarded by den."""

    def theta(self, x, p):
        return mp_theta(x, p)

    def theta_den(self, x, p):
        return self.den(mp_theta(x, p))


def _full_ctx(prm):
    return MpEllipticCtx(prm["a"], prm["b"], prm["q"], prm["p"])


ENVS = {"tel-c": _full_ctx, "ft-indef": lambda prm: MpThetaEnv(), "bigid": _full_ctx}


def _mp_draw(ident, **fixed):
    """A seed-1 draw of the double sampler, promoted exactly to mpc."""
    prm = sample_params(ident, SampleConfig(seed=1, trials=1), 0, N, fixed=fixed)
    return {k: mpc(v) if isinstance(v, complex) else v for k, v in prm.items()}


def _rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


@pytest.mark.parametrize("ident", sorted(ENVS))
def test_catalog_sides_agree_at_40_digits(ident):
    desc = get_identity(ident)
    with mp.workdps(DPS):
        prm = _mp_draw(ident)
        lhs = desc.lhs(ENVS[ident](prm), prm, N)
        rhs = desc.rhs(ENVS[ident](prm), prm, N)
        assert isinstance(lhs, mpc) and isinstance(rhs, mpc)
        assert _rel(lhs, rhs) < 1e-30
        # negative control: a 1e-20 relative RHS error is far above the floor
        assert _rel(lhs, rhs * (1 + mpf("1e-20"))) > 1e-30


def test_tel_a_builder_difference_at_40_digits():
    with mp.workdps(DPS):
        prm = _mp_draw("tel-a", m=2)
        pair = builder("tel-a", _full_ctx(prm), {"m": 2})
        for k in range(1, 4):
            diff = pair.u(k) - pair.v(k)
            assert isinstance(diff, mpc)
            assert _rel(diff, pair.t_claim(k)) < 1e-30
