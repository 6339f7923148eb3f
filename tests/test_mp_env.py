"""The catalog's evaluators over the package's environments in another field.

MpField, defined here, is the environment arithmetic over mpmath numbers:
one, zero, lift, sum, pow, den, theta and theta_den.  desc.env(prm, MpField)
lists it first over the package environment, replacing its double arithmetic
while its own formulas (num/wt, qn/qn_den) stay the package's.  The unchanged
catalog lhs/rhs then run at 40 digits on a sampled draw promoted to mpc, with
no ellid global patched.
"""


import mpmath
import pytest
from mpmath import mp, mpc, mpf

from ellid._scaled import POLE_TOL
from ellid.errors import DomainRejected
from ellid.harness import SampleConfig, sample_params
from ellid.identities import catalog, get_identity
from ellid.telescope import builder

DPS = 40
N = 3


class MpField:
    """The environment arithmetic over mpmath numbers, with no cancellation guard."""

    one = mpf(1)
    zero = mpf(0)
    lift = staticmethod(mpmath.mpmathify)

    def sum(self, terms):
        return sum(terms, self.zero)

    def pow(self, base, z):
        return mpmath.power(base, z)

    def den(self, x):
        if abs(x) < POLE_TOL:
            raise DomainRejected("denominator within pole tolerance of zero")
        return x

    def theta(self, x, p):
        """theta(x; p) = (x; p)_inf (p/x; p)_inf."""
        return mpmath.qp(x, p) * mpmath.qp(p / x, p)

    def theta_den(self, x, p):
        return self.den(self.theta(x, p))


CHEAP = sorted(d.id for d in catalog()
               if d.env.__name__ in ("_q_env", "_abq_env", "_aq_env", "_bq_env")
               ) + ["indef-1", "cubic-odds"]
# the full-elliptic and theta-family sides that take longest at 40 digits
SLOW = ["tel-c", "ft-indef", "bigid"]


def _mp_draw(ident, **fixed):
    """A seed-1 draw of the double sampler, promoted exactly to mpc."""
    prm = sample_params(ident, SampleConfig(seed=1, trials=1), 0, N, fixed=fixed)
    return {k: mpc(v) if isinstance(v, complex) else v for k, v in prm.items()}


def _rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


@pytest.mark.parametrize("ident", CHEAP + SLOW)
def test_catalog_sides_agree_at_40_digits(ident):
    desc = get_identity(ident)
    with mp.workdps(DPS):
        prm = _mp_draw(ident)
        lhs = desc.lhs(desc.env(prm, MpField), prm, N)
        rhs = desc.rhs(desc.env(prm, MpField), prm, N)
        assert isinstance(lhs, mpc) and isinstance(rhs, mpc)
        assert _rel(lhs, rhs) < 1e-30
        # negative control: a 1e-20 relative RHS error is far above the floor
        assert _rel(lhs, rhs * (1 + mpf("1e-20"))) > 1e-30


def test_tel_a_builder_difference_at_40_digits():
    with mp.workdps(DPS):
        prm = _mp_draw("tel-a", m=2)
        pair = builder("tel-a", get_identity("tel-a").env(prm, MpField), {"m": 2})
        for k in range(1, 4):
            diff = pair.u(k) - pair.v(k)
            assert isinstance(diff, mpc)
            assert _rel(diff, pair.t_claim(k)) < 1e-30


def test_qpow_memo_keeps_exponents_a_double_would_merge():
    # z1 and z2 differ in the 31st digit, below a double's resolution, so a
    # memo keyed by complex(z) would hand z2 the power of z1
    with mp.workdps(DPS):
        env = get_identity("tel-c-a").env({"a": mpc("0.3"), "q": mpc("0.5", "0.2")}, MpField)
        z1 = mpf(1) / 3
        z2 = z1 + mpf("1e-30")
        assert complex(z1) == complex(z2)
        assert env.qpow(z1) != env.qpow(z2)
        assert env.qpow(z2) == MpField().pow(env.q, z2)
