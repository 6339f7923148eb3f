"""Elliptic numbers, elliptic weights, and their specializations.

The elliptic analogue of a complex number z, with parameters a, b, base q and
nome p, is the balanced four-theta quotient

    [z]_{a,b;q,p} = theta(q^z, a q^z, b q^2, a/b; p)
                  / theta(q, a q, b q^(z+1), a q^(z-1) / b; p),

with [0] = 0 and [1] = 1.  The elliptic weight is the five-theta quotient

    W_{a,b;q,p}(k) = theta(a q^(2k+1), b q, b q^2, a q^(-1)/b, a/b; p)
                   / theta(a q, b q^(k+1), b q^(k+2), a q^(k-1)/b, a q^k/b; p) * q^k,

which mediates the addition rule [x+y] = [x] + W(x) [y]_{a q^(2x), b q^x}.

Each specialization is one context class, built directly from its
parameters and implemented as a distinct closed form, never by plugging tiny
or huge parameter values into another:

    FullEllipticCtx(a, b, q, p) : the theta quotients above;
    ABQCtx(a, b, q) : p = 0, all theta factors become 1 - x;
    AQCtx(a, q)     : p = 0 and b -> 0 (or b -> infinity),
          [z] = (1-q^z)(1-a q^z) / ((1-q)(1-a q)) * q^(1-z),  W(k) = (1-a q^(2k+1))/(1-a q) * q^(-k);
    BQCtx(b, q)     : p = 0 and a -> 0 (or a -> infinity),
          [z] = (1-q^z)(1-b q^2) / ((1-q)(1-b q^(z+1))),      W(k) = (1-bq)(1-bq^2)/((1-bq^(k+1))(1-bq^(k+2))) * q^k;
    QCtx(q)         : both limits, [z]_q = (1-q^z)/(1-q) and W(k) = q^k.

Every context reaches numbers only through its environment's arithmetic:
one, zero, lift(x), pow, den, sum, and theta/theta_den for the quotients.
So num(z) and wt(k) return values of that field: ScaledComplex for the
contexts here, which inherit _scaled.ScaledArith (write
complex(AQCtx(a, q).num(z)) for a plain number).  A catalog builder lists
another field first over a context class, e.g. get_identity("tel-c").env(
prm, MpField), with the parameters passed in that field.  FullEllipticCtx
validates its inputs (|p| < 1, q != 0, and a, b nonzero when p != 0), every
closed form needs q != 0 and ABQCtx needs b != 0 (it divides by b); a
violation raises ValueError.  Each denominator factor 1 - x goes through den, each
denominator theta through theta_den.

ThetaEnv (of `theta`) memoises theta and its nomes' records, QEnv memoises
qpow, and FullEllipticCtx (both of them) memoises num and wt; each memo is
keyed by _scaled.exact_key of the arguments, so a hit is bit for bit what a
fresh call returns.  The identity path builds one
environment per check, which both sides share.  A parameter shift
a -> a q^(2s), b -> b q^s is the s argument of num and wt; every power of
q, q^s included, is computed by qpow.
"""

from __future__ import annotations

from ._scaled import ScaledArith, exact_key
from .theta import ThetaEnv


class QEnv(ScaledArith):
    """An environment with a nonzero base q: its powers and the (a, b) shift."""

    def __init__(self, q):
        if q == 0:
            raise ValueError("q must be nonzero")
        self.q = q
        self._qpow = {}

    def qpow(self, z):
        """q^z, the one place a context computes a power of q; memoised."""
        key = exact_key(z)
        out = self._qpow.get(key)
        if out is None:
            out = self._qpow[key] = self.pow(self.q, z)
        return out

    def _shifted_ab(self, s):
        qs = self.qpow(s)
        return self.lift(self.a) * qs * qs, self.lift(self.b) * qs


class FullEllipticCtx(ThetaEnv, QEnv):
    """Elliptic numbers/weights as theta quotients (any nome, incl. p = 0)."""

    def __init__(self, a, b, q, p):
        if not abs(p) < 1:
            raise ValueError("|p| < 1 required")
        QEnv.__init__(self, q)
        if p != 0 and (a == 0 or b == 0):
            raise ValueError("a and b must be nonzero when p != 0")
        ThetaEnv.__init__(self)
        self.a, self.b, self.p = a, b, p
        self._num = {}
        self._wt = {}

    def _tquot(self, nums, dens):
        p = self.p
        top = bot = self.one
        for x in nums:
            top = top * self.theta(x, p)
        for x in dens:
            bot = bot * self.theta_den(x, p)
        return top / bot

    def num_from_power(self, qz, s=0):
        """[z] with q^z supplied explicitly (used by the ellipticity checks)."""
        a_, b_ = self._shifted_ab(s)
        q = self.q
        q2 = q * q
        return self._tquot(
            [qz, a_ * qz, b_ * q2, a_ / b_],
            [self.lift(q), a_ * q, b_ * qz * q, a_ * qz / (b_ * q)],
        )

    def num(self, z, s=0):
        key = (exact_key(z), exact_key(s))
        out = self._num.get(key)
        if out is None:
            out = self._num[key] = self.num_from_power(self.qpow(z), s)
        return out

    def wt(self, k, s=0):
        key = (exact_key(k), exact_key(s))
        out = self._wt.get(key)
        if out is None:
            a_, b_ = self._shifted_ab(s)
            q = self.q
            q2 = q * q
            qk = self.qpow(k)
            out = self._wt[key] = self._tquot(
                [a_ * qk * qk * q, b_ * q, b_ * q2, a_ / (b_ * q), a_ / b_],
                [a_ * q, b_ * qk * q, b_ * qk * q2, a_ * qk / (b_ * q), a_ * qk / b_],
            ) * qk
        return out


class ABQCtx(QEnv):
    """a,b;q-numbers and weights (p = 0)."""

    def __init__(self, a, b, q):
        super().__init__(q)
        if b == 0:
            raise ValueError("b must be nonzero")
        self.a, self.b = a, b

    def num(self, z, s=0):
        a_, b_ = self._shifted_ab(s)
        q = self.q
        qz = self.qpow(z)
        one, den = self.one, self.den
        return ((one - qz) * (one - a_ * qz) * (one - b_ * q * q) * (one - a_ / b_)) / (
            den(one - self.lift(q)) * den(one - a_ * q) * den(one - b_ * qz * q)
            * den(one - a_ * qz / (b_ * q)))

    def wt(self, k, s=0):
        a_, b_ = self._shifted_ab(s)
        q = self.q
        q2 = q * q
        qk = self.qpow(k)
        one, den = self.one, self.den
        return ((one - a_ * qk * qk * q) * (one - b_ * q) * (one - b_ * q2)
                * (one - a_ / (b_ * q)) * (one - a_ / b_)) / (
            den(one - a_ * q) * den(one - b_ * qk * q) * den(one - b_ * qk * q2)
            * den(one - a_ * qk / (b_ * q)) * den(one - a_ * qk / b_)) * qk


class AQCtx(QEnv):
    """a;q-numbers and weights (p = 0, b -> 0 or b -> infinity)."""

    def __init__(self, a, q):
        super().__init__(q)
        self.a = a

    def _shifted_a(self, s):
        qs = self.qpow(s)
        return self.lift(self.a) * qs * qs

    def num(self, z, s=0):
        a_ = self._shifted_a(s)
        q = self.q
        qz = self.qpow(z)
        one = self.one
        return ((one - qz) * (one - a_ * qz)) / (
            self.den(one - self.lift(q)) * self.den(one - a_ * q)) * q / qz

    def wt(self, k, s=0):
        a_ = self._shifted_a(s)
        q = self.q
        qk = self.qpow(k)
        return (self.one - a_ * qk * qk * q) / self.den(self.one - a_ * q) / qk


class BQCtx(QEnv):
    """(b;q)-numbers and weights (p = 0, a -> 0 or a -> infinity)."""

    def __init__(self, b, q):
        super().__init__(q)
        self.b = b

    def _shifted_b(self, s):
        return self.lift(self.b) * self.qpow(s)

    def num(self, z, s=0):
        b_ = self._shifted_b(s)
        q = self.q
        qz = self.qpow(z)
        one = self.one
        return ((one - qz) * (one - b_ * q * q)) / (
            self.den(one - self.lift(q)) * self.den(one - b_ * qz * q))

    def wt(self, k, s=0):
        b_ = self._shifted_b(s)
        q = self.q
        q2 = q * q
        qk = self.qpow(k)
        one = self.one
        return ((one - b_ * q) * (one - b_ * q2)) / (
            self.den(one - b_ * qk * q) * self.den(one - b_ * qk * q2)) * qk


class QCtx(QEnv):
    """Plain q-numbers: [z]_q = (1 - q^z)/(1 - q), W(k) = q^k."""

    def num(self, z, s=0):
        return (self.one - self.qpow(z)) / self.den(self.one - self.lift(self.q))

    def wt(self, k, s=0):
        return self.qpow(k)


class QInvCtx(QEnv):
    """The other one-parameter-free limit: a -> 0 of aq (= b -> inf of bq).

    [z] -> [z]_q q^(1-z) and W(k) -> q^(-k); used only by the degeneration
    edges.
    """

    def num(self, z, s=0):
        q = self.q
        qz = self.qpow(z)
        return (self.one - qz) / self.den(self.one - self.lift(q)) * q / qz

    def wt(self, k, s=0):
        return self.one / self.qpow(k)


class ClassicalCtx(ScaledArith):
    """q -> 1 degeneration: [z] = z and W = 1 (for the hypergeometric forms)."""

    def num(self, z, s=0):
        return self.lift(z)

    def wt(self, k, s=0):
        return self.one


def _quad_rel_terms(x, y, r, ctx: FullEllipticCtx):
    """The three products of the quadratic theta relation, in scaled form.

    term1 - term2 = term3 is the difference equation behind the main
    multiparameter telescoping identity:

        [x] [y]_{s} - [x+r] [y-r]_{s} = [r+x-y] [r]_{a q^(2x), b q^x} W_{s}(y - r),

    with s the shift r + x - y applied to (a, b).
    """
    s = r + x - y
    t1 = ctx.num(x) * ctx.num(y, s=s)
    t2 = ctx.num(x + r) * ctx.num(y - r, s=s)
    t3 = ctx.num(s) * ctx.num(r, s=x) * ctx.wt(y - r, s=s)
    return t1, t2, t3


def quad_rel_residual(x, y, r, ctx: FullEllipticCtx) -> complex:
    """LHS - RHS of the quadratic relation; zero for valid parameters."""
    t1, t2, t3 = _quad_rel_terms(x, y, r, ctx)
    return (t1 - t2 - t3).to_complex()
