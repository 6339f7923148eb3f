"""Exact checks of the q- and p = 0 elliptic identities over GF(2^61 - 1).

FpField, defined here, is the environment arithmetic over the prime field
GF(P): theta(x; 0) = 1 - x, and q^z is q^(z mod (P - 1)).  desc.env(prm,
FpField) lists it first over the package environment, replacing the double
arithmetic, so the package's own num/wt and qn/qn_den formulas run over
field elements drawn at random.  Both sides of an identity are rational functions of a, b and q; a
nonzero rational function of degree D vanishes at a uniformly random point
of GF(P) with probability at most D / P (Schwartz 1980; Zippel 1979), so
exact equality at one random point is strong evidence of the identity, and
an RHS * (1 + q^2) mutant is unequal.

Fp's operators accept only Fp: an integer literal where the field's one
belongs raises TypeError instead of being coerced.
"""

import random

import pytest

from ellid.errors import DomainRejected
from ellid.identities import catalog, get_identity
from ellid.telescope import TelescopePair, builder, telescope_both_sides

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


PLAIN_Q = [d.id for d in catalog() if d.env.__name__ == "_q_env"]
ELLIPTIC = [d.id for d in catalog()
            if d.env.__name__ in ("_full_env", "_abq_env", "_aq_env", "_bq_env")]


def _params(seed):
    rng = random.Random(seed)
    prm = {k: Fp(rng.randrange(2, P)) for k in ("a", "b", "q")}
    prm.update(p=0, m=2, c=2, d=3, g=1, h=2)
    return prm


def test_catalog_split():
    assert (len(PLAIN_Q), len(ELLIPTIC)) == (22, 15)


@pytest.mark.parametrize("ident,n", [(i, n) for i in PLAIN_Q for n in (0, 1, 4, 9)]
                         + [(i, n) for i in ELLIPTIC for n in (3, 6)])
def test_sides_equal_over_gf(ident, n):
    desc = get_identity(ident)
    prm = _params(f"{ident}|{n}")
    lhs = desc.lhs(desc.env(prm, FpField), prm, n)
    rhs = desc.rhs(desc.env(prm, FpField), prm, n)
    assert isinstance(lhs, Fp) and lhs == rhs
    # an empty sum makes both sides zero, which no scaling can tell apart
    if n > 0:
        q = prm["q"]
        assert rhs != FpField.zero
        assert lhs != rhs * (FpField.one + q * q)


@pytest.mark.parametrize("tid", ["tel-c", "tel-a", "tel-b", "bigid"])
def test_telescoped_sides_over_gf(tid):
    # _params carries m = 2 and (c, d, g, h) = (2, 3, 1, 2)
    prm = _params(f"{tid} telescoped")
    pair = builder(tid, get_identity(tid).env(prm, FpField), prm)
    lhs, rhs = telescope_both_sides(pair, 5)
    assert isinstance(lhs, Fp) and isinstance(rhs, Fp) and lhs == rhs
    assert all(pair.u(k) - pair.v(k) == pair.t_claim(k) for k in range(1, 6))
    # negative control: u_2 off by 1 + q^2.  Euler's lemma holds for any u
    # and v, so the telescoped sides still agree (at other values), and only
    # the difference equation u_2 - v_2 = t_2 fails
    q = prm["q"]
    bad = TelescopePair(lambda k: pair.u(k) * (FpField.one + q * q) if k == 2 else pair.u(k),
                        pair.v, pair.label, env=pair.env)
    bad_lhs, bad_rhs = telescope_both_sides(bad, 5)
    assert bad_lhs == bad_rhs != rhs and bad.u(2) - bad.v(2) != pair.t_claim(2)
    # with the claimed t_k kept, the engine sums t_k instead of u_k - v_k,
    # so the same bad u_2 unbalances the sides
    claimed = TelescopePair(bad.u, pair.v, pair.label, pair.t_claim, pair.env)
    claimed_lhs, claimed_rhs = telescope_both_sides(claimed, 5)
    assert claimed_lhs != claimed_rhs
