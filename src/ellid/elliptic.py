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

Every context's num(z) and wt(k) return ScaledComplex values; write
complex(AQCtx(a, q).num(z)) for a plain number.  FullEllipticCtx validates
its inputs (|p| < 1, q != 0, and a, b nonzero when p != 0) and every closed
form needs q != 0; a violation raises ValueError.

A parameter shift a -> a q^(2s), b -> b q^s is the s argument of num and
wt; the power q^s is materialized at evaluation time through the single
principal-branch power convention of cpow.
"""

from __future__ import annotations

from ._scaled import ONE, ScaledComplex, cpow, sc
from .errors import PoleProximity
from .theta import DEFAULT_CONFIG, POLE_TOL, ThetaConfig, theta_scaled


class FullEllipticCtx:
    """Elliptic numbers/weights as theta quotients (any nome, incl. p = 0).

    An explicit logq may be supplied when the base is itself a power, e.g.
    base q^x with logq = x * Log q; exponents then combine symbolically
    instead of through the principal branch of the materialized base.  The
    caller guarantees q == exp(logq).
    """

    def __init__(self, a, b, q, p, cfg: ThetaConfig = DEFAULT_CONFIG,
                 logq: complex | None = None):
        self.a = complex(a)
        self.b = complex(b)
        self.q = complex(q)
        self.p = complex(p)
        if not abs(self.p) < 1:
            raise ValueError("|p| < 1 required")
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.p != 0 and (self.a == 0 or self.b == 0):
            raise ValueError("a and b must be nonzero when p != 0")
        self.cfg = cfg
        self._logq = logq

    def qpow(self, z) -> ScaledComplex:
        if self._logq is None:
            return cpow(self.q, z)
        z = complex(z)
        w = self._logq
        return ScaledComplex.from_exp(complex(z.real * w.real - z.imag * w.imag,
                                              z.real * w.imag + z.imag * w.real))

    def _tquot(self, nums, dens) -> ScaledComplex:
        top = ONE
        for x in nums:
            val, _ = theta_scaled(x, self.p, self.cfg)
            top = top * val
        bot = ONE
        for x in dens:
            val, mf = theta_scaled(x, self.p, self.cfg)
            if mf < POLE_TOL:
                raise PoleProximity(
                    f"denominator theta factor within {POLE_TOL:g} of zero "
                    f"(min |factor| = {mf:.3g})")
            bot = bot * val
        return top / bot

    def _shifted_ab(self, s):
        qs = self.qpow(s)
        return sc(self.a) * qs * qs, sc(self.b) * qs

    def num_from_power(self, qz: ScaledComplex, s=0) -> ScaledComplex:
        """[z] with q^z supplied explicitly (used by the ellipticity checks)."""
        a_, b_ = self._shifted_ab(s)
        q = self.q
        q2 = q * q
        return self._tquot(
            [qz, a_ * qz, b_ * q2, a_ / b_],
            [sc(q), a_ * q, b_ * qz * q, a_ * qz / (b_ * q)],
        )

    def num(self, z, s=0) -> ScaledComplex:
        return self.num_from_power(self.qpow(z), s)

    def wt(self, k, s=0) -> ScaledComplex:
        a_, b_ = self._shifted_ab(s)
        q = self.q
        q2 = q * q
        qk = self.qpow(k)
        return self._tquot(
            [a_ * qk * qk * q, b_ * q, b_ * q2, a_ / (b_ * q), a_ / b_],
            [a_ * q, b_ * qk * q, b_ * qk * q2, a_ * qk / (b_ * q), a_ * qk / b_],
        ) * qk


class _ClosedFormCtx:
    """Shared plumbing for the p = 0 closed forms."""

    def __init__(self, q):
        self.q = complex(q)
        if self.q == 0:
            raise ValueError("q must be nonzero")

    def _f(self, x) -> ScaledComplex:
        return ONE - x

    def _fd(self, x) -> ScaledComplex:
        out = ONE - x
        if abs(out) < POLE_TOL:
            raise PoleProximity(f"denominator factor 1 - x within {POLE_TOL:g} of zero")
        return out

    def qpow(self, e) -> ScaledComplex:
        return cpow(self.q, e)


class ABQCtx(_ClosedFormCtx):
    """a,b;q-numbers and weights (p = 0)."""

    def __init__(self, a, b, q):
        super().__init__(q)
        self.a = complex(a)
        self.b = complex(b)

    def _shifted_ab(self, s):
        qs = self.qpow(s)
        return sc(self.a) * qs * qs, sc(self.b) * qs

    def num(self, z, s=0) -> ScaledComplex:
        a_, b_ = self._shifted_ab(s)
        q = self.q
        qz = self.qpow(z)
        f, fd = self._f, self._fd
        return (f(qz) * f(a_ * qz) * f(b_ * q * q) * f(a_ / b_)) / (
            fd(sc(q)) * fd(a_ * q) * fd(b_ * qz * q) * fd(a_ * qz / (b_ * q)))

    def wt(self, k, s=0) -> ScaledComplex:
        a_, b_ = self._shifted_ab(s)
        q = self.q
        q2 = q * q
        qk = self.qpow(k)
        f, fd = self._f, self._fd
        return (f(a_ * qk * qk * q) * f(b_ * q) * f(b_ * q2) * f(a_ / (b_ * q)) * f(a_ / b_)) / (
            fd(a_ * q) * fd(b_ * qk * q) * fd(b_ * qk * q2)
            * fd(a_ * qk / (b_ * q)) * fd(a_ * qk / b_)) * qk


class AQCtx(_ClosedFormCtx):
    """a;q-numbers and weights (p = 0, b -> 0 or b -> infinity)."""

    def __init__(self, a, q):
        super().__init__(q)
        self.a = complex(a)

    def _shifted_a(self, s):
        qs = self.qpow(s)
        return sc(self.a) * qs * qs

    def num(self, z, s=0) -> ScaledComplex:
        a_ = self._shifted_a(s)
        q = self.q
        qz = self.qpow(z)
        return (self._f(qz) * self._f(a_ * qz)) / (
            self._fd(sc(q)) * self._fd(a_ * q)) * q / qz

    def wt(self, k, s=0) -> ScaledComplex:
        a_ = self._shifted_a(s)
        q = self.q
        qk = self.qpow(k)
        return self._f(a_ * qk * qk * q) / self._fd(a_ * q) / qk


class BQCtx(_ClosedFormCtx):
    """(b;q)-numbers and weights (p = 0, a -> 0 or a -> infinity)."""

    def __init__(self, b, q):
        super().__init__(q)
        self.b = complex(b)

    def _shifted_b(self, s):
        return sc(self.b) * self.qpow(s)

    def num(self, z, s=0) -> ScaledComplex:
        b_ = self._shifted_b(s)
        q = self.q
        qz = self.qpow(z)
        return (self._f(qz) * self._f(b_ * q * q)) / (
            self._fd(sc(q)) * self._fd(b_ * qz * q))

    def wt(self, k, s=0) -> ScaledComplex:
        b_ = self._shifted_b(s)
        q = self.q
        q2 = q * q
        qk = self.qpow(k)
        return (self._f(b_ * q) * self._f(b_ * q2)) / (
            self._fd(b_ * qk * q) * self._fd(b_ * qk * q2)) * qk


class QCtx(_ClosedFormCtx):
    """Plain q-numbers: [z]_q = (1 - q^z)/(1 - q), W(k) = q^k."""

    def num(self, z, s=0) -> ScaledComplex:
        return self._f(self.qpow(z)) / self._fd(sc(self.q))

    def wt(self, k, s=0) -> ScaledComplex:
        return self.qpow(k)


class QInvCtx(_ClosedFormCtx):
    """The other one-parameter-free limit: a -> 0 of aq (= b -> inf of bq).

    [z] -> [z]_q q^(1-z) and W(k) -> q^(-k); used only by the degeneration
    edges.
    """

    def num(self, z, s=0) -> ScaledComplex:
        q = self.q
        qz = self.qpow(z)
        return self._f(qz) / self._fd(sc(q)) * q / qz

    def wt(self, k, s=0) -> ScaledComplex:
        return ONE / self.qpow(k)


class ClassicalCtx:
    """q -> 1 degeneration: [z] = z and W = 1 (for the hypergeometric forms)."""

    def num(self, z, s=0) -> ScaledComplex:
        return sc(z)

    def wt(self, k, s=0) -> ScaledComplex:
        return ONE


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
