"""Exact checks of the q- and p = 0 elliptic identities over GF(2^61 - 1).

FpField, defined here, is the environment arithmetic over the prime field
GF(P): theta(x; 0) = 1 - x, and q^z is q^(z mod (P - 1)).  Listed first in a
class with a package environment it replaces the double arithmetic, so the
package's own num/wt and qn/qn_den formulas run over field elements drawn at
random.  Both sides of an identity are rational functions of a, b and q; a
nonzero rational function of degree D vanishes at a uniformly random point
of GF(P) with probability at most D / P (Schwartz 1980; Zippel 1979), so
exact equality at one random point is strong evidence of the identity, and
an RHS * (1 + q^2) mutant is unequal.

Fp's operators accept only Fp: an integer literal where the field's one
belongs raises TypeError instead of being coerced.
"""

import random

import pytest

from ellid.elliptic import ABQCtx, AQCtx, BQCtx, FullEllipticCtx
from ellid.errors import DomainRejected
from ellid.identities import NumericQ, catalog, get_identity
from ellid.telescope import builder

P = 2**61 - 1


class Fp:
    """An element of GF(P)."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    def _other(self, o):
        if not isinstance(o, Fp):
            raise TypeError(f"Fp op with {type(o).__name__}")
        return o.v

    def __add__(self, o):
        return Fp(self.v + self._other(o))

    def __sub__(self, o):
        return Fp(self.v - self._other(o))

    def __mul__(self, o):
        return Fp(self.v * self._other(o))

    def __truediv__(self, o):
        d = self._other(o)
        if d == 0:
            raise ZeroDivisionError("Fp division by zero")
        return Fp(self.v * pow(d, P - 2, P))

    def __neg__(self):
        return Fp(-self.v)

    def __eq__(self, o):
        return isinstance(o, Fp) and self.v == o.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"Fp({self.v})"


class FpField:
    """The environment arithmetic over GF(P), at nome 0."""

    one = Fp(1)
    zero = Fp(0)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Fp) else Fp(x)

    def sum(self, terms):
        total = self.zero
        for t in terms:
            total = total + t
        return total

    def pow(self, base, z: int):
        return Fp(pow(base.v, z % (P - 1), P))

    def den(self, x):
        if x == self.zero:
            raise DomainRejected("denominator is zero in GF(P)")
        return x

    def theta(self, x, p):
        assert p == 0
        return self.one - x

    def theta_den(self, x, p):
        return self.den(self.theta(x, p))


class FpQ(FpField, NumericQ):
    pass


class FpEllipticCtx(FpField, FullEllipticCtx):
    pass


class FpABQCtx(FpField, ABQCtx):
    pass


class FpAQCtx(FpField, AQCtx):
    pass


class FpBQCtx(FpField, BQCtx):
    pass


#: the catalog's env builder -> the same environment over GF(P), at p = 0
ENVS = {
    "_q_env": lambda prm: FpQ(prm["q"]),
    "_full_env": lambda prm: FpEllipticCtx(prm["a"], prm["b"], prm["q"], 0),
    "_abq_env": lambda prm: FpABQCtx(prm["a"], prm["b"], prm["q"]),
    "_aq_env": lambda prm: FpAQCtx(prm["a"], prm["q"]),
    "_bq_env": lambda prm: FpBQCtx(prm["b"], prm["q"]),
}

PLAIN_Q = [d.id for d in catalog() if d.env.__name__ == "_q_env"]
ELLIPTIC = [d.id for d in catalog()
            if d.env.__name__ in ("_full_env", "_abq_env", "_aq_env", "_bq_env")]


def _params(seed):
    rng = random.Random(seed)
    prm = {k: Fp(rng.randrange(2, P)) for k in ("a", "b", "q")}
    prm.update(m=2, c=2, d=3, g=1, h=2)
    return prm


def test_catalog_split():
    assert (len(PLAIN_Q), len(ELLIPTIC)) == (22, 15)


@pytest.mark.parametrize("ident,n", [(i, n) for i in PLAIN_Q for n in (0, 1, 4, 9)]
                         + [(i, n) for i in ELLIPTIC for n in (3, 6)])
def test_sides_equal_over_gf(ident, n):
    desc = get_identity(ident)
    env = ENVS[desc.env.__name__]
    prm = _params(f"{ident}|{n}")
    lhs = desc.lhs(env(prm), prm, n)
    rhs = desc.rhs(env(prm), prm, n)
    assert isinstance(lhs, Fp) and lhs == rhs
    # an empty sum makes both sides zero, which no scaling can tell apart
    if n > 0:
        q = prm["q"]
        assert rhs != FpField.zero
        assert lhs != rhs * (FpField.one + q * q)


def test_tel_c_difference_over_gf():
    prm = _params("tel-c builder")
    pair = builder("tel-c", ENVS["_full_env"](prm))
    q = prm["q"]
    for k in range(1, 6):
        diff = pair.u(k) - pair.v(k)
        assert diff == pair.t_claim(k)
        assert diff != pair.t_claim(k) * (FpField.one + q * q)
