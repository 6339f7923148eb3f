"""The identity catalog: every verified summation identity of the package.

Each identity is registered with independent LHS and RHS evaluators (the RHS
is never derived from the LHS), a parameter signature and the verification
modes it supports.  A draw near a pole, numeric or exact, is rejected only by
the evaluation itself, at a factor it multiplies in: the environment's den and
the theta environment's theta_den raise DomainRejected, and so do a plain
division by an exact zero and a theta at a zero argument.  Identity families:

  * plain q-identities evaluated over a q-arithmetic provider, so one
    transcription serves both the numeric engine and the exact
    Laurent-polynomial oracle;
  * elliptic-context identities (sums of elliptic numbers and weights),
    evaluated over the specialization contexts of `elliptic`;
  * theta-factorial identities (indefinite summations with q-, q^{-1}- and
    multibasic shifted-factorial slots), evaluated over a theta environment;
  * rational identities (the hypergeometric degenerations), evaluated over
    double-precision or Fraction arithmetic.

An evaluator lhs(env, prm, n) or rhs(env, prm, n) reaches numbers only
through its environment env and the parameters prm.  Every environment
provides one, zero, sum(terms) (a left fold from the first term, zero when
empty), pow(base, z) and den(x) (x itself, or DomainRejected near a pole);
the q-provider adds qn, qn_den and qpow, a context num and wt, and the theta
environment theta(x, p) and theta_den(x, p), both returning theta's value;
theta_den, for a denominator, first rejects a draw whose smallest theta
factor lies within POLE_TOL of zero.  Running shifted factorials are built
from these two by stepping a _Slot.  The double-precision arithmetic is
_scaled.ScaledArith, whose sum also rejects a draw that cancels beyond
COND_LIMIT and whose lift(x) brings a parameter into the field; the theta
environment ThetaEnv lives in `elliptic` (re-exported here), and the exact
modes use qexact.ExactArith and ExactQ.  A builder env(params, field) takes
the field, an arithmetic class (FIELDS maps each mode to one), and lists any
other field first over its environment's class; since NumericQ and the
contexts reach numbers only through that arithmetic, every evaluator runs
unchanged in any field once the caller promotes the parameters to its number
type (the tests use an mpmath field and GF(2^61 - 1)).

Degeneration edges record how each identity specializes into the next one
down the chain (nome to zero, parameters to 0/1/q/infinity, index shifts),
including the normalizing prefactor the specialization picks up; the checker
evaluates the parent in its hand-derived limit form and the child directly,
both at the child's parameters alone, and asserts both sides agree after
normalization.  An edge's least n and exact support follow from its
endpoints and its index shift when it is registered.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul
from typing import Callable, Optional

from ._scaled import ScaledArith, sc
from .elliptic import (ABQCtx, AQCtx, BQCtx, ClassicalCtx, FullEllipticCtx,
                       QCtx, QEnv, QInvCtx, ThetaEnv)
from .errors import (DomainRejected, ModeUnsupported, UnknownEdge, UnknownIdentity,
                     ZeroArgument)
from .qexact import ExactArith, ExactQ, RationalFn

MODE_NUMERIC = "numeric-elliptic"
MODE_EXACT_Q = "exact-q"
MODE_EXACT_RATIONAL = "exact-rational"

#: the field each verification mode computes in
FIELDS = {MODE_NUMERIC: ScaledArith, MODE_EXACT_Q: ExactQ, MODE_EXACT_RATIONAL: ExactArith}
#: the numeric rel_err an identity check, and a degeneration edge, passes at
DEFAULT_TOL = 1e-8
EDGE_TOL = 1e-10


# ---------------------------------------------------------------------------
# double-precision environments (the exact ones live in qexact)
# ---------------------------------------------------------------------------

class NumericQ(QEnv):
    """q-numbers and q-powers over the environment's field (mirrors qexact.ExactQ)."""

    def __init__(self, q):
        super().__init__(q)
        self._den = self.den(self.one - self.lift(q))

    def qn(self, z):
        return (self.one - self.qpow(z)) / self._den

    def qn_den(self, z):
        return self.den(self.one - self.qpow(z)) / self._den


# ---------------------------------------------------------------------------
# plain q-identities (one transcription, numeric and exact)
# ---------------------------------------------------------------------------

def _geo_lhs(P, prm, n):
    return P.sum(P.qpow(k) for k in range(n))


def _geo_rhs(P, prm, n):
    return P.qn(n)


def _qodds_lhs(P, prm, n):
    return P.sum(P.qn(2 * k + 1) * P.qpow(-k) for k in range(n))


def _qodds_rhs(P, prm, n):
    return P.qn(n) * P.qn(n) * P.qpow(1 - n)


def _sp1_lhs(P, prm, n):
    two = P.qn(2)
    return P.sum(P.qpow(k - 1) * (two * P.qn(k + 1) - P.one) for k in range(n + 1))


def _sp1_rhs(P, prm, n):
    r = P.qn(n + 1)
    return r * r


def _sp2_lhs(P, prm, n):
    two = P.qn(2)
    return P.sum(P.qpow(2 * n - 2 * k) * (two * P.qn(k + 1) - P.qpow(k + 1))
                 for k in range(n + 1))


def _telc_a1_lhs(P, prm, n):
    two = P.qn(2)

    def terms():
        for k in range(n + 1):
            kk = P.qn(k + 1)
            yield P.qpow(2 * n - 2 * k) * (
                two * kk * kk * P.qn(2 * k + 2) - P.qpow(k + 1) * P.qn(2 * k + 1))
    return P.sum(terms())


def _telc_a1_rhs(P, prm, n):
    r = P.qn(n + 1)
    return r * r * r * P.qn(n + 3)


def _telc_b1_lhs(P, prm, n):
    two = P.qn(2)
    return P.sum((P.qpow(k - 1) / (P.qn_den(k + 1) * P.qn_den(k + 2))) * (
        P.qn(k + 1) * two * two / P.qn_den(k + 3) - P.one) for k in range(n + 1))


def _telc_b1_rhs(P, prm, n):
    r = P.qn(n + 1)
    return r * r / (P.qn_den(n + 2) * P.qn_den(n + 3))


def _telc_aq_lhs(P, prm, n):
    return P.sum(P.qpow(2 * n - 2 * k) * (
        P.qn(k + 1) * P.qn(k + 2) * P.qn(2 * k + 3)
        - P.qpow(k + 1) * P.qn(2 * k + 2)) for k in range(n + 1))


def _telc_aq_rhs(P, prm, n):
    r = P.qn(n + 1)
    return r * r * P.qn(n + 2) * P.qn(n + 4) / P.qn_den(2)


def _telc_bq_lhs(P, prm, n):
    f23 = P.qn(2) * P.qn(3)
    return P.sum((P.qpow(k - 1) / (P.qn_den(k + 2) * P.qn_den(k + 3))) * (
        P.qn(k + 1) * f23 / P.qn_den(k + 4) - P.one) for k in range(n + 1))


def _telc_bq_rhs(P, prm, n):
    r = P.qn(n + 1)
    return r * r / (P.qn_den(n + 3) * P.qn_den(n + 4))


def _triangular_lhs(P, prm, n):
    return P.sum(P.qpow(k - 1) * P.qn(k) for k in range(1, n + 1))


def _triangular_rhs(P, prm, n):
    return P.qn(n) * P.qn(n + 1) / P.qn_den(2)


def _warnaar_triangular_lhs(P, prm, n):
    return P.sum(P.qpow(2 * n - 2 * k) * P.qn(k) for k in range(1, n + 1))


def _warnaar_cubes_lhs(P, prm, n):
    den2 = P.qn_den(2)

    def terms():
        for k in range(1, n + 1):
            kk = P.qn(k)
            yield P.qpow(2 * n - 2 * k) * kk * kk * P.qn(2 * k) / den2
    return P.sum(terms())


def _warnaar_cubes_rhs(P, prm, n):
    r = _triangular_rhs(P, prm, n)
    return r * r


def _even_b1_lhs(P, prm, n):
    two = P.qn(2)
    return P.sum(P.qpow(k - 1) * two / (P.qn_den(k + 1) * P.qn_den(k + 2))
                 for k in range(1, n + 1))


def _even_b1_rhs(P, prm, n):
    return P.qn(n) / P.qn_den(n + 2)


def _even_aqq_lhs(P, prm, n):
    return P.sum(P.qpow(2 * n - 2 * k) * P.qn(k) * P.qn(k + 1) * P.qn(2 * k + 1)
                 for k in range(1, n + 1))


def _even_aqq_rhs(P, prm, n):
    r = P.qn(n + 1)
    return P.qn(n) * r * r * P.qn(n + 2) / P.qn_den(2)


def _even_bqq_lhs(P, prm, n):
    two = P.qn(2)
    return P.sum(P.qpow(k - 1) * two * two * P.qn(k) / (
        P.qn_den(k + 1) * P.qn_den(k + 2) * P.qn_den(k + 3)) for k in range(1, n + 1))


def _even_bqq_rhs(P, prm, n):
    return P.qn(n) * P.qn(n + 1) / (P.qn_den(n + 2) * P.qn_den(n + 3))


def _m3r_a0_lhs(P, prm, n):
    return P.sum(P.qpow(3 * n - 3 * k) * P.qn(k) * P.qn(k + 1) for k in range(1, n + 1))


def _m3r_a0_rhs(P, prm, n):
    return P.qn(n) * P.qn(n + 1) * P.qn(n + 2) / P.qn_den(3)


def _m3r_a1_lhs(P, prm, n):
    def terms():
        for k in range(1, n + 1):
            t = P.qn(k) * P.qn(k + 1)
            yield P.qpow(3 * n - 3 * k) * t * t * P.qn(2 * k + 1)
    return P.sum(terms())


def _m3r_a1_rhs(P, prm, n):
    t = P.qn(n) * P.qn(n + 1) * P.qn(n + 2)
    return t * t / P.qn_den(3)


def _m3r_aq_lhs(P, prm, n):
    def terms():
        for k in range(1, n + 1):
            k1 = P.qn(k + 1)
            yield P.qpow(3 * n - 3 * k) * P.qn(k) * k1 * k1 * P.qn(k + 2) * P.qn(2 * k + 2)
    return P.sum(terms())


def _m3r_aq_rhs(P, prm, n):
    n1 = P.qn(n + 1)
    n2 = P.qn(n + 2)
    return P.qn(n) * n1 * n1 * n2 * n2 * P.qn(n + 3) / P.qn_den(3)


def _m3r_q2aq_lhs(P, prm, n):
    return P.sum(P.qpow(6 * n - 6 * k) * P.qn(2 * k) * P.qn(2 * k + 1)
                 * P.qn(2 * k + 2) * P.qn(2 * k + 3) * P.qn(4 * k + 3)
                 for k in range(1, n + 1))


def _m3r_q2aq_rhs(P, prm, n):
    return (P.qn(2 * n) * P.qn(2 * n + 1) * P.qn(2 * n + 2) * P.qn(2 * n + 3)
            * P.qn(2 * n + 4) * P.qn(2 * n + 5) / P.qn_den(6))


def _m3r_q2a1q_lhs(P, prm, n):
    return P.sum(P.qpow(6 * n - 6 * k) * P.qn(2 * k - 1) * P.qn(2 * k)
                 * P.qn(2 * k + 1) * P.qn(2 * k + 2) * P.qn(4 * k + 1)
                 for k in range(1, n + 1))


def _m3r_q2a1q_rhs(P, prm, n):
    # the matching sixth factor is [2n+4]; direct expansion of the base-q^2
    # specialization confirms it (the sum collapses termwise at q = 1)
    return (P.qn(2 * n - 1) * P.qn(2 * n) * P.qn(2 * n + 1) * P.qn(2 * n + 2)
            * P.qn(2 * n + 3) * P.qn(2 * n + 4) / P.qn_den(6))


def _spc4i_lhs(P, prm, n):
    den2 = P.qn_den(2)
    return P.sum(P.qpow(n - k) * P.qn(2 * k) / den2 for k in range(1, n + 1))


def _spc4ii_lhs(P, prm, n):
    den2 = P.qn_den(2)
    return P.sum(P.qpow(n * n - k * k + n - k) * P.qn(2 * k * k) * P.qn(2 * k)
                 / (den2 * den2) for k in range(1, n + 1))


def _spc4ii_rhs(P, prm, n):
    r = P.qn(n * (n + 1)) / P.qn_den(2)
    return r * r


def _spc2_den(P, prm):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    return P.qn_den(2 * c * d) * P.qn_den(c * h + d * g)


def _spc2_lhs(P, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den = _spc2_den(P, prm)
    return P.sum((P.qn(2 * (g * k + c) * (h * k + d))
                  * P.qn(2 * g * h * k + c * h + d * g) / den)
                 * P.qpow(-(g * h * k * k + (c * h + d * g + g * h) * k))
                 for k in range(n + 1))


def _spc2_rhs(P, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den = _spc2_den(P, prm)
    e = g * h * n * n + (c * h + d * g + g * h) * n
    first = (P.qn((g * n + c) * (h * n + h + d)) * P.qn((g * n + g + c) * (h * n + d))
             / den) * P.qpow(-e)
    second = (P.qn(c * (d - h)) * P.qn((c - g) * d) / den) * P.qpow(c * h + d * g)
    return P.sum((first, -second))


# ---------------------------------------------------------------------------
# elliptic-context identities
# ---------------------------------------------------------------------------

def _basicg_lhs(ctx, prm, n):
    return ctx.sum(ctx.wt(k) for k in range(n))


def _basicg_rhs(ctx, prm, n):
    return ctx.num(n)


def _telc_lhs(ctx, prm, n):
    return ctx.sum(ctx.wt(k) * (ctx.num(k + 1) * ctx.num(2, s=k) - ctx.one)
                   for k in range(n + 1))


def _telc_rhs(ctx, prm, n):
    return ctx.wt(1) * ctx.num(n + 1) * ctx.num(n + 1, s=1)


def _tela_lhs(ctx, prm, n):
    m = prm["m"]
    return ctx.sum(reduce(mul, (ctx.num(k + i) for i in range(1, m + 1)),
                          ctx.wt(k) * ctx.num(m + 1, s=k))
                   for k in range(n + 1))


def _tela_rhs(ctx, prm, n):
    m = prm["m"]
    return reduce(mul, (ctx.num(n + i) for i in range(1, m + 2)), ctx.one)


def _sumeven_lhs(ctx, prm, n):
    return ctx.sum(ctx.wt(k - 1) * ctx.num(2, s=k - 1) * ctx.num(k)
                   for k in range(1, n + 1))


def _sumeven_rhs(ctx, prm, n):
    return ctx.num(n) * ctx.num(n + 1)


def _m3rising_lhs(ctx, prm, n):
    return ctx.sum(ctx.wt(k - 1) * ctx.num(3, s=k - 1) * ctx.num(k) * ctx.num(k + 1)
                   for k in range(1, n + 1))


def _m3rising_rhs(ctx, prm, n):
    return ctx.num(n) * ctx.num(n + 1) * ctx.num(n + 2)


def _telb_lhs(ctx, prm, n):
    m = prm["m"]

    def terms():
        for k in range(1, n + 1):
            den = reduce(mul, (ctx.den(ctx.num(k + i)) for i in range(m + 1)), ctx.one)
            yield ctx.wt(k) * ctx.num(m, s=k) / den
    return ctx.sum(terms())


def _telb_rhs(ctx, prm, n):
    m = prm["m"]
    fact = reduce(mul, (ctx.den(ctx.num(j)) for j in range(1, m + 1)), ctx.one)
    tail = reduce(mul, (ctx.den(ctx.num(n + i)) for i in range(1, m + 1)), ctx.one)
    return ctx.sum((ctx.one / fact, -(ctx.one / tail)))


def _bigid_lhs(ctx, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den = ctx.den(ctx.num(2 * c * d) * ctx.num(c * h + d * g, s=(c - g) * d))

    def terms():
        ratio = winv = ctx.one
        for k in range(n + 1):
            if k:
                j = k - 1
                zj = (g * j + g + c) * (h * j + d)
                ratio = (ratio * ctx.num(zj, s=(g * j - g + c) * (h * j + d))
                         / ctx.den(ctx.num(zj, s=(g * j + g + c) * (h * j + 2 * h + d))))
                winv = winv / ctx.den(
                    ctx.wt(2 * g * h * j + 2 * g * h + c * h + d * g,
                           s=(g * j + c) * (h * j + h + d)))
            t = (ctx.num(2 * (g * k + c) * (h * k + d))
                 * ctx.num(2 * g * h * k + c * h + d * g, s=(g * k - g + c) * (h * k + d)))
            yield (t / den) * ratio * winv
    return ctx.sum(terms())


def _bigid_rhs(ctx, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den = ctx.den(ctx.num(2 * c * d) * ctx.num(c * h + d * g, s=(c - g) * d))
    first = (ctx.num((g * n + c) * (h * n + h + d))
             * ctx.num((g + c) * d, s=(c - g) * d)) / den
    for j in range(1, n + 1):
        first = (first
                 * ctx.num((g * j + g + c) * (h * j + d), s=(g * j - g + c) * (h * j + d))
                 / ctx.den(ctx.num((g * j + c) * (h * j - h + d),
                                   s=(g * j + c) * (h * j + h + d)))
                 / ctx.den(ctx.wt(2 * g * h * j + c * h + d * g,
                                  s=(g * j - g + c) * (h * j + d))))
    second = (ctx.num((c - g) * d) * ctx.num(c * (d - h), s=c * (h + d))
              * ctx.wt(c * h + d * g, s=(c - g) * d)) / den
    return ctx.sum((first, -second))


# ---------------------------------------------------------------------------
# theta-factorial identities (indefinite summations over running slots)
# ---------------------------------------------------------------------------

class _Slot:
    """Running shifted factorial (x; base, p)_k, advanced one index at a time."""

    __slots__ = ("env", "arg", "base", "p", "val", "guard")

    def __init__(self, env, x, base, p, guard: bool = False):
        self.env = env
        self.arg = env.zero + x  # x in the environment's number type
        self.base = base
        self.p = p
        self.val = env.one
        self.guard = guard

    def step(self):
        theta = self.env.theta_den if self.guard else self.env.theta
        self.val = self.val * theta(self.arg, self.p)
        self.arg = self.arg * self.base


def _fact(env, x, base, p, k: int, guard: bool = False):
    """(x; base, p)_k: a _Slot stepped k times (an empty product for k <= 0)."""
    slot = _Slot(env, x, base, p, guard)
    for _ in range(k):
        slot.step()
    return slot.val


def _slot_sum(env, p, ks, tops, den0, nums, dens, weight):
    """Sum over k in ks of prod theta(tops) / den0 * prod nums / prod dens * weight(k).

    Each top is (x, mults): theta(x; p), with x multiplied by each of mults
    in turn after every term.  nums and dens are (x, base) pairs of running
    factorials (x; base, p)_k, denominators guarded against poles; a pair
    listed twice enters squared.  The slots and tops advance before every
    term but the first, so the sum tests only the factors it multiplies in.
    """
    slots = {}
    num = [slots.setdefault((x, b, False), _Slot(env, x, b, p)) for x, b in nums]
    den = [slots.setdefault((x, b, True), _Slot(env, x, b, p, True)) for x, b in dens]

    def terms():
        xs = [env.zero + x for x, _ in tops]
        for i, k in enumerate(ks):
            if i:
                for s in slots.values():
                    s.step()
                xs = [reduce(mul, mults, x) for x, (_, mults) in zip(xs, tops)]
            term = reduce(mul, [env.theta(x, p) for x in xs]) / den0
            term = reduce(mul, [s.val for s in num], term)
            yield term / reduce(mul, [s.val for s in den]) * weight(k)
    return env.sum(terms())


def _indef1_lhs(env, prm, n):
    a, b, q = prm["a"], prm["b"], prm["q"]
    return _slot_sum(env, 0, range(n + 1), [(a, (q, q))], env.theta_den(a, 0),
                     [(a, q), (b, q)], [(q, q), (a * q / b, q)],
                     lambda k: env.pow(b, n - k))


def _indef1_rhs(env, prm, n):
    a, b, q = prm["a"], prm["b"], prm["q"]
    return (_fact(env, a * q, q, 0, n) * _fact(env, b * q, q, 0, n)
            / _fact(env, q, q, 0, n, guard=True)
            / _fact(env, a * q / b, q, 0, n, guard=True))


def _eindef1_lhs(env, prm, n):
    a, b, c, q, p = prm["a"], prm["b"], prm["c"], prm["q"], prm["p"]
    p2 = p * p
    qi = 1.0 / q
    return _slot_sum(env, p2, range(n + 1), [(a, (q, q))], env.theta_den(a, p2),
                     [(a, q), (b, q), (c * p, q), (b * c * p / a, qi)],
                     [(q, q), (a * q / b, q), (b * c * p * q, q), (c * p / (a * q), qi)],
                     lambda k: env.pow(b, n - k))


def _eindef1_rhs(env, prm, n):
    a, b, c, q, p = prm["a"], prm["b"], prm["c"], prm["q"], prm["p"]
    p2 = p * p
    qi = 1.0 / q
    return (_fact(env, a * q, q, p2, n) * _fact(env, b * q, q, p2, n)
            * _fact(env, c * p * q, q, p2, n)
            / _fact(env, q, q, p2, n, guard=True)
            / _fact(env, a * q / b, q, p2, n, guard=True)
            / _fact(env, b * c * p * q, q, p2, n, guard=True)
            * _fact(env, b * c * p / (a * q), qi, p2, n)
            / _fact(env, c * p / (a * q), qi, p2, n, guard=True))


def _ftindef_lhs(env, prm, n):
    a, b, c, q, p = prm["a"], prm["b"], prm["c"], prm["q"], prm["p"]
    return _slot_sum(env, p, range(n + 1), [(a, (q, q))], env.theta_den(a, p),
                     [(a, q), (b, q), (c, q), (a / (b * c), q)],
                     [(q, q), (a * q / b, q), (a * q / c, q), (b * c * q, q)],
                     lambda k: env.pow(q, k))


def _ftindef_rhs(env, prm, n):
    a, b, c, q, p = prm["a"], prm["b"], prm["c"], prm["q"], prm["p"]
    return (_fact(env, a * q, q, p, n) * _fact(env, b * q, q, p, n)
            * _fact(env, c * q, q, p, n) * _fact(env, a * q / (b * c), q, p, n)
            / _fact(env, q, q, p, n, guard=True)
            / _fact(env, a * q / b, q, p, n, guard=True)
            / _fact(env, a * q / c, q, p, n, guard=True)
            / _fact(env, b * c * q, q, p, n, guard=True))


def _wce_lhs(env, prm, n):
    c, q, p = prm["c"], prm["q"], prm["p"]
    p2 = p * p
    qi = 1.0 / q
    q2 = q * q
    q3 = q2 * q
    # (q^2; q, p^2)_{k-1} and (q; q, p^2)_{k-1} enter squared
    return _slot_sum(env, p2, range(1, n + 1), [(q2, (q2,))], env.theta_den(q2, p2),
                     [(q2, q), (q2, q), (c * p, q), (c * p, qi)],
                     [(q, q), (q, q), (c * p * q3, q), (c * p / q3, qi)],
                     lambda k: env.pow(q, 2 * (n - k)))


def _wce_rhs(env, prm, n):
    c, q, p = prm["c"], prm["q"], prm["p"]
    p2 = p * p
    qi = 1.0 / q
    q3 = q * q * q
    f_q3 = _fact(env, q3, q, p2, n - 1)
    f_q = _fact(env, q, q, p2, n - 1, guard=True)
    return (f_q3 * f_q3 * _fact(env, c * p * q, q, p2, n - 1)
            / (f_q * f_q) / _fact(env, c * p * q3, q, p2, n - 1, guard=True)
            * _fact(env, c * p / q, qi, p2, n - 1)
            / _fact(env, c * p / q3, qi, p2, n - 1, guard=True))


def _cubicodds_lhs(env, prm, n):
    a, q = prm["a"], prm["q"]
    q3 = q * q * q
    one_minus_q = env.den(env.one - q)
    one_minus_aq = env.den(env.one - a * q)
    num3 = _Slot(env, a * q, q3, 0)
    den3 = _Slot(env, a * q**5, q3, 0, guard=True)

    def terms():
        argq = env.zero + q        # q^{2k+1}
        arga = env.zero + a * q    # a q^{2k+1}
        for k in range(n):
            if k:
                num3.step(); den3.step()
                argq = argq * q * q
                arga = arga * q * q
            f = env.one - arga
            yield (env.pow(q, -k) * num3.val / den3.val
                   * (env.one - argq) / one_minus_q
                   * f * f / (one_minus_aq * one_minus_aq))
    return env.sum(terms())


def _cubicodds_rhs(env, prm, n):
    a, q = prm["a"], prm["q"]
    q3 = q * q * q
    one_minus_q = env.den(env.one - q)
    one_minus_aq = env.den(env.one - a * q)
    qn_ = (env.one - env.pow(q, n)) / one_minus_q
    return (qn_ * qn_ * (env.one - a * env.pow(q, n)) / one_minus_aq
            * _fact(env, a * q**4, q3, 0, n - 1)
            / _fact(env, a * q**5, q3, 0, n - 1, guard=True)
            * env.pow(q, 1 - n))


def _m00_lhs(env, prm, n):
    a, b, c, d = prm["a"], prm["b"], prm["c"], prm["d"]
    q, r, s, p = prm["q"], prm["r"], prm["s"], prm["p"]
    w = r * s / q
    env.den(d)
    den0 = (env.theta_den(a * d, p) * env.theta_den(b / d, p)
            * env.theta_den(c / d, p))
    return _slot_sum(env, p, range(n + 1),
                     [(a * d, (r * s,)), (b / d, (r / q,)), (c / d, (s / q,))], den0,
                     [(a * d * d / (b * c), q), (b, r), (c, s), (a, w)],
                     [(d * q, q), (a * d * r / c, r), (a * d * s / b, s),
                      (b * c * r * s / (d * q), w)],
                     lambda k: env.pow(q, k))


def _m00_rhs(env, prm, n):
    a, b, c, d = prm["a"], prm["b"], prm["c"], prm["d"]
    q, r, s, p = prm["q"], prm["r"], prm["s"], prm["p"]
    w = r * s / q
    env.den(d)
    denc = (env.theta_den(a * d, p) * env.theta_den(b / d, p)
            * env.theta_den(c / d, p) * env.theta_den(a * d / (b * c), p)) * d
    first = (env.theta(a, p) * env.theta(b, p) * env.theta(c, p)
             * env.theta(a * d * d / (b * c), p) / denc
             * _fact(env, a * d * d * q / (b * c), q, p, n)
             * _fact(env, b * r, r, p, n) * _fact(env, c * s, s, p, n)
             * _fact(env, a * w, w, p, n)
             / _fact(env, d * q, q, p, n, guard=True)
             / _fact(env, a * d * r / c, r, p, n, guard=True)
             / _fact(env, a * d * s / b, s, p, n, guard=True)
             / _fact(env, b * c * r * s / (d * q), w, p, n, guard=True))
    second = (env.theta(d, p) * env.theta(a * d / b, p) * env.theta(a * d / c, p)
              * env.theta(b * c / d, p) / denc)
    return env.sum((first, -second))


# ---------------------------------------------------------------------------
# rational identities (hypergeometric degenerations)
# ---------------------------------------------------------------------------

def _hyper_lhs(env, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den = env.den(c * d * (c * h + d * g))
    return env.sum((g * k + c) * (h * k + d) * (2 * g * h * k + c * h + d * g)
                   for k in range(n + 1)) / den


def _hyper_rhs(env, prm, n):
    c, d, g, h = prm["c"], prm["d"], prm["g"], prm["h"]
    den1 = env.den(2 * c * d * (c * h + d * g))
    den2 = env.den(2 * (c * h + d * g))
    first = (g * n + c) * (h * n + h + d) * (g * n + g + c) * (h * n + d) / den1
    second = (d - h) * (c - g) / den2
    return env.sum((first, -second))


def _sumcubes_lhs(env, prm, n):
    return env.sum(k**3 for k in range(n + 1))


def _sumcubes_rhs(env, prm, n):
    return (n * (n + 1) // 2) ** 2


# ---------------------------------------------------------------------------
# descriptors and catalog
# ---------------------------------------------------------------------------

# Each builder env(params, field) returns what an identity's evaluators run
# over, a fresh one per call, in the field (an arithmetic class): the
# q-provider, a specialization context, the theta environment, or the field.

@cache
def _over(field, cls):
    """cls computing in field: cls itself when it already does, else one
    class, made once, that lists field first over cls."""
    if issubclass(cls, field):
        return cls
    return type(f"{field.__name__}{cls.__name__}", (field, cls), {})


def _q_env(prm, field):
    # in the exact-q field q is the indeterminate, not a parameter
    return ExactQ() if field is ExactQ else _over(field, NumericQ)(prm["q"])


def _full_env(prm, field):
    return _over(field, FullEllipticCtx)(prm["a"], prm["b"], prm["q"], prm["p"])


def _abq_env(prm, field):
    return _over(field, ABQCtx)(prm["a"], prm["b"], prm["q"])


def _aq_env(prm, field):
    return _over(field, AQCtx)(prm["a"], prm["q"])


def _bq_env(prm, field):
    return _over(field, BQCtx)(prm["b"], prm["q"])


def _theta_env(prm, field):
    return _over(field, ThetaEnv)()


def _rational_env(prm, field):
    return field()


@dataclass(frozen=True)
class IdentityDescriptor:
    """A registry entry: parameter signature, modes, independent evaluators."""

    id: str
    title: str
    source: str
    env: Callable                     # env(params, field): what lhs/rhs evaluate over
    param_signature: tuple            # ((name, kind), ...) kinds: complex / non-negative-integer / positive-integer
    modes: frozenset
    lhs: Callable
    rhs: Callable
    min_n: int = 0

    def supports(self, mode: str) -> bool:
        return mode in self.modes


_CPX = "complex"
_NNI = "non-negative-integer"
_PI = "positive-integer"
#: least value of each integer parameter kind
INT_MIN = {_NNI: 0, _PI: 1}

_NUM = frozenset({MODE_NUMERIC})
_NUM_EXQ = frozenset({MODE_NUMERIC, MODE_EXACT_Q})
_NUM_EXR = frozenset({MODE_NUMERIC, MODE_EXACT_RATIONAL})

_SIG_Q = (("q", _CPX),)
_SIG_FULL = (("a", _CPX), ("b", _CPX), ("q", _CPX), ("p", _CPX))
_SIG_ABQ = (("a", _CPX), ("b", _CPX), ("q", _CPX))
_SIG_AQ = (("a", _CPX), ("q", _CPX))
_SIG_BQ = (("b", _CPX), ("q", _CPX))
_SIG_CDGH = (("c", _CPX), ("d", _CPX), ("g", _CPX), ("h", _CPX))


def _build_catalog() -> dict:
    ids = []

    def add(id, title, source, env, sig, modes, lhs, rhs, **kw):
        ids.append(IdentityDescriptor(id, title, source, env, tuple(sig),
                                      modes, lhs, rhs, **kw))

    # --- plain q-identities ------------------------------------------------
    add("geo", "geometric sum = [n]_q", "q-number definition",
        _q_env, _SIG_Q, _NUM_EXQ, _geo_lhs, _geo_rhs)
    add("qodds", "sum of first n odd numbers, q-analogue", "Schlosser (2004), Eq. (3.9)",
        _q_env, _SIG_Q, _NUM_EXQ, _qodds_lhs, _qodds_rhs)
    add("sp1", "odd-sum q-analogue from a -> infinity", "odd-number telescoping, first q-case",
        _q_env, _SIG_Q, _NUM_EXQ, _sp1_lhs, _sp1_rhs)
    add("sp2", "odd-sum q-analogue from a -> 0", "odd-number telescoping, second q-case",
        _q_env, _SIG_Q, _NUM_EXQ, _sp2_lhs, _sp1_rhs)
    add("tel-c-a1", "odd-sum specialization at a = 1", "odd-number telescoping, a = 1",
        _q_env, _SIG_Q, _NUM_EXQ, _telc_a1_lhs, _telc_a1_rhs)
    add("tel-c-b1", "odd-sum specialization at b = 1", "odd-number telescoping, b = 1",
        _q_env, _SIG_Q, _NUM_EXQ, _telc_b1_lhs, _telc_b1_rhs)
    add("tel-c-aq", "odd-sum specialization at a = q", "odd-number telescoping, a = q",
        _q_env, _SIG_Q, _NUM_EXQ, _telc_aq_lhs, _telc_aq_rhs)
    add("tel-c-bq", "odd-sum specialization at b = q", "odd-number telescoping, b = q",
        _q_env, _SIG_Q, _NUM_EXQ, _telc_bq_lhs, _telc_bq_rhs)
    add("triangular", "triangular-number q-analogue", "even-sum limit a -> infinity",
        _q_env, _SIG_Q, _NUM_EXQ, _triangular_lhs, _triangular_rhs)
    add("warnaar-triangular", "Warnaar's triangular-number q-analogue", "Warnaar (2004), Eq. (2)",
        _q_env, _SIG_Q, _NUM_EXQ, _warnaar_triangular_lhs, _triangular_rhs)
    add("warnaar-cubes", "Warnaar's sum-of-cubes q-analogue", "Warnaar (2004), Eq. (2)",
        _q_env, _SIG_Q, _NUM_EXQ, _warnaar_cubes_lhs, _warnaar_cubes_rhs)
    add("even-b1", "even-sum specialization at b = 1", "even-sum telescoping, b = 1",
        _q_env, _SIG_Q, _NUM_EXQ, _even_b1_lhs, _even_b1_rhs)
    add("even-aqq", "even-sum specialization at a = q", "even-sum telescoping, a = q",
        _q_env, _SIG_Q, _NUM_EXQ, _even_aqq_lhs, _even_aqq_rhs)
    add("even-bqq", "even-sum specialization at b = q", "even-sum telescoping, b = q",
        _q_env, _SIG_Q, _NUM_EXQ, _even_bqq_lhs, _even_bqq_rhs)
    add("m3rising-aq-a0", "rising-product m=2 case, a -> 0", "three-rising-factorial sum, a -> 0",
        _q_env, _SIG_Q, _NUM_EXQ, _m3r_a0_lhs, _m3r_a0_rhs)
    add("m3rising-aq-a1", "rising-product m=2 case, a = 1", "three-rising-factorial sum, a = 1",
        _q_env, _SIG_Q, _NUM_EXQ, _m3r_a1_lhs, _m3r_a1_rhs)
    add("m3rising-aq-aq", "rising-product m=2 case, a = q", "three-rising-factorial sum, a = q",
        _q_env, _SIG_Q, _NUM_EXQ, _m3r_aq_lhs, _m3r_aq_rhs)
    add("m3rising-q2-aq", "rising-product case, base q^2 and a = q", "base-q^2 pair, first",
        _q_env, _SIG_Q, _NUM_EXQ, _m3r_q2aq_lhs, _m3r_q2aq_rhs)
    add("m3rising-q2-a1q", "rising-product case, base q^2 and a = 1/q", "base-q^2 pair, second",
        _q_env, _SIG_Q, _NUM_EXQ, _m3r_q2a1q_lhs, _m3r_q2a1q_rhs)
    add("spc-4i", "q-analogue of the sum of the first n integers", "Gaussian-binomial form",
        _q_env, _SIG_Q, _NUM_EXQ, _spc4i_lhs, _triangular_rhs)
    add("spc-4ii", "q-analogue of the sum of the first n cubes", "Cigler (2014), Thm. 1 with q -> q^2",
        _q_env, _SIG_Q, _NUM_EXQ, _spc4ii_lhs, _spc4ii_rhs)
    add("spc-2", "four-parameter q-degeneration of the main identity", "main identity, q-case",
        _q_env, _SIG_Q + _SIG_CDGH, _NUM_EXQ, _spc2_lhs, _spc2_rhs)

    # --- elliptic-context identities ----------------------------------------
    add("basic-g", "geometric sum of elliptic weights", "weight recurrence iterated",
        _full_env, _SIG_FULL, _NUM, _basicg_lhs, _basicg_rhs)
    add("tel-c", "elliptic sum of the first n odd numbers", "odd-number telescoping, elliptic",
        _full_env, _SIG_FULL, _NUM, _telc_lhs, _telc_rhs)
    add("tel-c-ab", "odd-number sum, a,b;q-case", "odd-number telescoping, p = 0",
        _abq_env, _SIG_ABQ, _NUM, _telc_lhs, _telc_rhs)
    add("tel-c-a", "odd-number sum, a;q-case", "odd-number telescoping, b -> 0",
        _aq_env, _SIG_AQ, _NUM, _telc_lhs, _telc_rhs)
    add("tel-c-b", "odd-number sum, (b;q)-case", "odd-number telescoping, a -> 0",
        _bq_env, _SIG_BQ, _NUM, _telc_lhs, _telc_rhs)
    add("tel-a", "elliptic sum of m-fold rising products", "rising-factorial telescoping",
        _full_env, _SIG_FULL + (("m", _NNI),), _NUM, _tela_lhs, _tela_rhs)
    add("sum-even", "elliptic sum of the first n even numbers", "rising-factorial sum at m = 1",
        _full_env, _SIG_FULL, _NUM, _sumeven_lhs, _sumeven_rhs)
    add("even-abq", "even-number sum, a,b;q-case", "even-number sum, p = 0",
        _abq_env, _SIG_ABQ, _NUM, _sumeven_lhs, _sumeven_rhs)
    add("even-aq", "even-number sum, a;q-case", "even-number sum, b -> 0",
        _aq_env, _SIG_AQ, _NUM, _sumeven_lhs, _sumeven_rhs)
    add("even-bq", "even-number sum, (b;q)-case", "even-number sum, a -> 0",
        _bq_env, _SIG_BQ, _NUM, _sumeven_lhs, _sumeven_rhs)
    add("m3rising", "elliptic rising-product sum, m = 2", "rising-factorial sum at m = 2",
        _full_env, _SIG_FULL, _NUM, _m3rising_lhs, _m3rising_rhs)
    add("m3rising-aq", "rising-product sum m = 2, a;q-case", "rising-factorial m = 2, b -> 0",
        _aq_env, _SIG_AQ, _NUM, _m3rising_lhs, _m3rising_rhs)
    add("tel-b", "elliptic sum of reciprocal rising products", "reciprocal-product telescoping",
        _full_env, _SIG_FULL + (("m", _PI),), _NUM, _telb_lhs, _telb_rhs)
    add("bigid", "the multiparameter elliptic telescoping identity", "main theorem",
        _full_env, _SIG_FULL + _SIG_CDGH, _NUM, _bigid_lhs, _bigid_rhs)
    add("spc-1", "main identity, a;q-case", "main theorem, p -> 0 and b -> 0",
        _aq_env, _SIG_AQ + _SIG_CDGH, _NUM, _bigid_lhs, _bigid_rhs)

    # --- theta-factorial identities -----------------------------------------
    add("indef-1", "very-well-poised indefinite q-summation", "Schlosser (2004) indefinite sum",
        _theta_env, (("a", _CPX), ("b", _CPX), ("q", _CPX)), _NUM, _indef1_lhs, _indef1_rhs)
    add("e-indef-1", "elliptic indefinite summation with balancing parameter", "elliptic indefinite sum",
        _theta_env, (("a", _CPX), ("b", _CPX), ("c", _CPX), ("q", _CPX), ("p", _CPX)),
        _NUM, _eindef1_lhs, _eindef1_rhs)
    add("ft-indef", "Frenkel-Turaev summation, e -> a q^(n+1) case", "Frenkel-Turaev 10V9 specialization",
        _theta_env, (("a", _CPX), ("b", _CPX), ("c", _CPX), ("q", _CPX), ("p", _CPX)),
        _NUM, _ftindef_lhs, _ftindef_rhs)
    add("warnaar-cubes-elliptic", "elliptic extension of Warnaar's cube sum", "elliptic indefinite sum at a = b = q^2",
        _theta_env, (("c", _CPX), ("q", _CPX), ("p", _CPX)), _NUM, _wce_lhs, _wce_rhs,
        min_n=1)
    add("cubic-odds", "cubic basic hypergeometric extension of the odd sum", "cubic-base odd-number sum",
        _theta_env, (("a", _CPX), ("q", _CPX)), _NUM, _cubicodds_lhs, _cubicodds_rhs)
    add("m00", "Gasper-Schlosser multibasic indefinite summation", "Gasper-Schlosser (2005), Eq. (3.19) at t = q",
        _theta_env, (("a", _CPX), ("b", _CPX), ("c", _CPX), ("d", _CPX),
                  ("q", _CPX), ("r", _CPX), ("s", _CPX), ("p", _CPX)),
        _NUM, _m00_lhs, _m00_rhs)

    # --- rational identities -------------------------------------------------
    add("bigid-hyper", "hypergeometric version of the main identity", "main theorem, classical limit",
        _rational_env, _SIG_CDGH, _NUM_EXR, _hyper_lhs, _hyper_rhs)
    add("sum-cubes", "sum of the first n cubes", "classical",
        _rational_env, (), _NUM_EXR, _sumcubes_lhs, _sumcubes_rhs)

    return {d.id: d for d in ids}


_CATALOG = _build_catalog()


def catalog() -> list[IdentityDescriptor]:
    """All registered identities, in a stable order."""
    return list(_CATALOG.values())


def get_identity(ident) -> IdentityDescriptor:
    if isinstance(ident, IdentityDescriptor):
        return ident
    try:
        return _CATALOG[ident]
    except KeyError:
        raise UnknownIdentity(f"no identity with id {ident!r}") from None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    """One verification outcome: both sides, error metrics, pass flag."""

    identity: str
    mode: str
    n: int
    lhs: object
    rhs: object
    abs_err: float
    rel_err: float
    passed: bool
    params: dict
    trial: Optional[int] = None


def _check_tol(tol: float) -> None:
    """A numeric tolerance is a number in (0, 1); nan and inf are not."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _check_n(ident: str, n: int, min_n: int) -> None:
    """n below an identity's or an edge's range: no redraw can fix it."""
    if n < min_n:
        raise ValueError(f"{ident} needs n >= {min_n}, got {n}")


def _eval_sides(desc: IdentityDescriptor, params: dict, n: int, field=ScaledArith):
    """Raw (lhs, rhs) values in field; a pole raises DomainRejected.

    Over ExactArith the parameters are first made Fractions.  Both sides
    evaluate over one environment, built once per check: the sides are
    independent formulas, and what they share are the memos of theta, q^z
    and a full-elliptic context's num/wt, each keyed by _scaled.exact_key,
    so a value one side memoised is bit for bit what the other would
    compute afresh.
    """
    _check_n(desc.id, n, desc.min_n)
    if field is ExactArith:
        params = {k: Fraction(v) for k, v in params.items()}
    env = desc.env(params, field)
    return desc.lhs(env, params, n), desc.rhs(env, params, n)


def _metrics_numeric(lv, rv) -> tuple[float, float]:
    lv, rv = sc(lv), sc(rv)
    diff = lv - rv
    mx = lv if lv.log2_abs() >= rv.log2_abs() else rv
    if mx.log2_abs() <= 0:
        rel = abs(diff)
    else:
        rel = abs(diff / mx)
    return abs(diff), rel


def _compare(pairs, field, tol: float):
    """Compare (lhs, rhs) pairs: the first pair's sides, abs_err, rel_err, passed.

    Double field: the largest _metrics_numeric over the pairs, passing at
    rel_err <= tol.  Exact: every pair equal; a RationalFn pair is compared,
    and returned, as its cross products lhs.num * rhs.den and rhs.num * lhs.den.
    """
    if field is ScaledArith:
        errs = [_metrics_numeric(lv, rv) for lv, rv in pairs]
        abs_err, rel_err = map(max, zip(*errs))
        lv, rv = pairs[0]
        return complex(lv), complex(rv), abs_err, rel_err, rel_err <= tol
    pairs = [(lv.num * rv.den, rv.num * lv.den) if isinstance(lv, RationalFn)
             else (lv, rv) for lv, rv in pairs]
    equal = all(lv == rv for lv, rv in pairs)
    err = 0.0 if equal else math.inf
    return (*pairs[0], err, err, equal)


def _exact_mode(desc: IdentityDescriptor) -> str:
    """The exact mode an identity is checked in when exactness is asked for."""
    for mode in (MODE_EXACT_Q, MODE_EXACT_RATIONAL):
        if mode in desc.modes:
            return mode
    raise ModeUnsupported(f"{desc.id} has no exact mode")


def _verify(ident: str, mode: str, n: int, params: dict, tol: float,
            trial: Optional[int], sides: Callable) -> VerificationResult:
    """The one verification tail: checks tol, compares the (lhs, rhs) pairs
    that sides(field) gives in FIELDS[mode] and records the result."""
    _check_tol(tol)
    field = FIELDS[mode]
    try:
        pairs = sides(field)
    except (ZeroDivisionError, ZeroArgument) as exc:
        # a pinned zero in a theta-family argument: a * q / b at b = 0, or
        # theta(0; p) at a = 0
        raise DomainRejected(str(exc)) from exc
    return VerificationResult(ident, mode, n, *_compare(pairs, field, tol),
                              dict(params), trial)


def evaluate(ident, params: dict, n: int, mode: str = "auto", tol: float = DEFAULT_TOL,
             trial: Optional[int] = None) -> VerificationResult:
    """Evaluate both sides of an identity independently and compare.

    Numeric mode ("auto") passes when rel_err = |lhs - rhs| / max(|lhs|, |rhs|, 1)
    is at most tol; exact modes require exact equality.  An exact-q result's
    lhs and rhs are the cross products lhs.num * rhs.den and rhs.num * lhs.den
    (eval_exact returns the RationalFn sides themselves).  A non-finite
    parameter, a tol outside (0, 1) and an n below the identity's least n
    raise ValueError; a draw at a pole raises DomainRejected.
    """
    desc = get_identity(ident)
    infinite = [f"{name}={v}" for name, v in params.items()
                if isinstance(v, (float, complex)) and not cmath.isfinite(v)]
    if infinite:
        raise ValueError(f"parameters must be finite, got {' '.join(infinite)}")
    if mode == "auto":
        mode = MODE_NUMERIC
    if not desc.supports(mode):
        raise ModeUnsupported(f"{desc.id} does not support mode {mode!r}")
    return _verify(desc.id, mode, n, params, tol, trial,
                   lambda field: [_eval_sides(desc, params, n, field)])


def eval_exact(ident, n: int, int_params: dict | None = None) -> tuple[RationalFn, RationalFn]:
    """Both sides of an exact-capable identity as RationalFn values.

    `ident` is an identity id or descriptor from the catalog; the caller
    compares the returned pair (RationalFn equality cross-multiplies).  No
    _verify is needed: an exact field has no theta and divides only through
    den or qn_den, so no ZeroArgument or ZeroDivisionError can arise.
    """
    desc = get_identity(ident)
    mode = _exact_mode(desc)
    lv, rv = _eval_sides(desc, int_params or {}, n, FIELDS[mode])
    if mode == MODE_EXACT_Q:
        return lv, rv
    return RationalFn.from_scalar(Fraction(lv)), RationalFn.from_scalar(Fraction(rv))


# ---------------------------------------------------------------------------
# degeneration edges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerationEdge:
    """How a parent identity specializes into a child identity.

    parent_sides(params, n, field) evaluates the parent in its
    hand-derived limit form at the child's parameters, already multiplied by
    the normalizing prefactor the specialization picks up, so the result is
    directly comparable with the child's own evaluators.
    """

    parent: str
    child: str
    note: str
    parent_sides: Callable
    min_n: int       # the least n both endpoints are defined at
    exact_ok: bool   # checkable in the endpoints' exact mode


def _edge(shape_lhs, shape_rhs, env, scale=None, shift=0, prm_map=None):
    """Parent evaluator: the parent's shapes in a limit environment.

    env(prm, field) builds what the shapes evaluate over (a limit context,
    a q-provider, or the theta environment), once for both sides, as in
    _eval_sides; the child's sides get an environment of their own.
    scale(P, prm, n) is the normalizing prefactor over the q-provider P for
    prm["q"]; both sides are multiplied by it.  The parent is evaluated at
    n - shift.
    """

    def sides(prm, n, field):
        e = env(prm, field)
        np_ = n - shift
        pp = prm if prm_map is None else prm_map(prm)
        if scale is None:
            return shape_lhs(e, pp, np_), shape_rhs(e, pp, np_)
        s = scale(_q_env(prm, field), prm, n)
        return shape_lhs(e, pp, np_) * s, shape_rhs(e, pp, np_) * s

    return sides


def _build_edges() -> dict:
    E = []

    def add(parent, child, note, env=None, scale=None, shift=0, prm_map=None,
            sides=None):
        """Register parent -> child.  Unless sides is given, the parent's own
        evaluators run over env, by default the parent's own environment, at
        n - shift; only that default can run in the endpoints' exact mode."""
        pdesc, cdesc = _CATALOG[parent], _CATALOG[child]
        min_n = max(cdesc.min_n, pdesc.min_n + shift)
        exact_ok = (sides is None and env is None
                    and all(d.modes - _NUM for d in (pdesc, cdesc)))
        if sides is None:
            sides = _edge(pdesc.lhs, pdesc.rhs, env or pdesc.env, scale, shift, prm_map)
        E.append(DegenerationEdge(parent, child, note, sides, min_n, exact_ok))

    full0 = lambda prm, field: _over(field, FullEllipticCtx)(prm["a"], prm["b"], prm["q"], 0)
    qctx = lambda prm, field: _over(field, QCtx)(prm["q"])
    qinv = lambda prm, field: _over(field, QInvCtx)(prm["q"])
    aq_at = lambda aval: (lambda prm, field: _over(field, AQCtx)(aval(prm), prm["q"]))
    bq_at = lambda bval: (lambda prm, field: _over(field, BQCtx)(bval(prm), prm["q"]))
    one = lambda prm: 1.0
    q_ = lambda prm: prm["q"]

    # geometric sum of weights -> plain geometric sum
    add("basic-g", "geo", "weights reduce to q^k", qctx)

    # odd-number chain
    add("tel-c", "tel-c-ab", "p = 0: theta factors become 1 - x", full0)
    add("tel-c-ab", "tel-c-a", "b -> 0 closed form", _aq_env)
    add("tel-c-ab", "tel-c-b", "a -> 0 closed form", _bq_env)
    add("tel-c-a", "sp1", "a -> infinity; divide both sides by q", qctx,
        lambda P, prm, n: P.qpow(-1))
    add("tel-c-b", "sp1", "b -> 0; divide both sides by q", qctx,
        lambda P, prm, n: P.qpow(-1))
    add("tel-c-a", "sp2", "a -> 0; multiply both sides by q^(2n+1)", qinv,
        lambda P, prm, n: P.qpow(2 * n + 1))
    add("tel-c-b", "sp2", "b -> infinity; multiply both sides by q^(2n+1)", qinv,
        lambda P, prm, n: P.qpow(2 * n + 1))
    add("tel-c-a", "tel-c-a1", "a = 1; multiply both sides by q^(2n+1)", aq_at(one),
        lambda P, prm, n: P.qpow(2 * n + 1))
    add("tel-c-b", "tel-c-b1", "b = 1; divide both sides by [2] q", bq_at(one),
        lambda P, prm, n: P.one / (P.qn_den(2) * P.qpow(1)))
    add("tel-c-a", "tel-c-aq", "a = q; multiply both sides by [2] q^(2n+1)", aq_at(q_),
        lambda P, prm, n: P.qn(2) * P.qpow(2 * n + 1))
    add("tel-c-b", "tel-c-bq", "b = q; divide both sides by [2][3] q", bq_at(q_),
        lambda P, prm, n: P.one / (P.qn_den(2) * P.qn_den(3) * P.qpow(1)))

    # even-number chain (rising products, m = 1 and m = 2 reindexed)
    add("tel-a", "sum-even", "m = 1, index shifted by one", shift=1,
        prm_map=lambda prm: {**prm, "m": 1})
    add("tel-a", "m3rising", "m = 2, index shifted by one", shift=1,
        prm_map=lambda prm: {**prm, "m": 2})
    add("sum-even", "even-abq", "p = 0: theta factors become 1 - x", full0)
    add("even-abq", "even-aq", "b -> 0 closed form", _aq_env)
    add("even-abq", "even-bq", "a -> 0 closed form", _bq_env)
    add("even-aq", "triangular", "a -> infinity; divide both sides by [2]", qctx,
        lambda P, prm, n: P.one / P.qn_den(2))
    add("even-bq", "triangular", "b -> 0; divide both sides by [2]", qctx,
        lambda P, prm, n: P.one / P.qn_den(2))
    add("even-aq", "warnaar-triangular", "a -> 0; multiply by q^(2n-1)/[2]", qinv,
        lambda P, prm, n: P.qpow(2 * n - 1) / P.qn_den(2))
    add("even-bq", "warnaar-triangular", "b -> infinity; multiply by q^(2n-1)/[2]", qinv,
        lambda P, prm, n: P.qpow(2 * n - 1) / P.qn_den(2))
    add("even-aq", "warnaar-cubes", "a = 1; multiply by q^(2n-1)/[2]^2", aq_at(one),
        lambda P, prm, n: P.qpow(2 * n - 1) / (P.qn_den(2) * P.qn_den(2)))
    add("even-bq", "even-b1", "b = 1; divide both sides by [2]^2", bq_at(one),
        lambda P, prm, n: P.one / (P.qn_den(2) * P.qn_den(2)))
    add("even-aq", "even-aqq", "a = q; multiply both sides by [2] q^(2n-1)", aq_at(q_),
        lambda P, prm, n: P.qn(2) * P.qpow(2 * n - 1))
    add("even-bq", "even-bqq", "b = q; divide both sides by [3]^2", bq_at(q_),
        lambda P, prm, n: P.one / (P.qn_den(3) * P.qn_den(3)))

    # m = 2 rising-product chain
    add("m3rising", "m3rising-aq", "p = 0 then b -> 0 closed form", _aq_env)
    add("m3rising-aq", "m3rising-aq-a0", "a -> 0; multiply by q^(3n)/[3]", qinv,
        lambda P, prm, n: P.qpow(3 * n) / P.qn_den(3))
    add("m3rising-aq", "m3rising-aq-a1", "a = 1; multiply by q^(3n)/[3]", aq_at(one),
        lambda P, prm, n: P.qpow(3 * n) / P.qn_den(3))
    add("m3rising-aq", "m3rising-aq-aq", "a = q; multiply by [2]^3 q^(3n)/[3]", aq_at(q_),
        lambda P, prm, n: (P.qn(2) * P.qn(2) * P.qn(2) / P.qn_den(3)) * P.qpow(3 * n))
    add("m3rising-aq", "m3rising-q2-aq",
        "q -> q^2 then a = q; multiply by [2]^3 [3]^3 q^(6n)/[6]",
        lambda prm, field: _over(field, AQCtx)(prm["q"], prm["q"] ** 2),
        lambda P, prm, n: ((P.qn(2) * P.qn(3)) * (P.qn(2) * P.qn(3))
                           * (P.qn(2) * P.qn(3)) / P.qn_den(6)) * P.qpow(6 * n))
    add("m3rising-aq", "m3rising-q2-a1q",
        "q -> q^2 then a = 1/q; multiply by [2]^3 q^(6n)/[6]",
        lambda prm, field: _over(field, AQCtx)(1.0 / prm["q"], prm["q"] ** 2),
        lambda P, prm, n: (P.qn(2) * P.qn(2) * P.qn(2) / P.qn_den(6)) * P.qpow(6 * n))

    # main identity chain
    add("bigid", "bigid-hyper", "q -> 1 classical limit: [z] -> z, W -> 1",
        lambda prm, field: _over(field, ClassicalCtx)())
    add("bigid", "spc-1", "p -> 0 then b -> 0 closed form", _aq_env)
    add("spc-1", "spc-2", "a -> 0: products collapse into explicit q-powers", qinv)
    add("spc-2", "spc-4i", "c = d = g = 1, h = 0, index shift; scale q^(n-1)",
        scale=lambda P, prm, n: P.qpow(n - 1), shift=1,
        prm_map=lambda prm: {"c": 1, "d": 1, "g": 1, "h": 0})
    add("spc-2", "spc-4ii", "c = d = g = h = 1, index shift; scale q^(n^2+n-2)",
        scale=lambda P, prm, n: P.qpow(n * n + n - 2), shift=1,
        prm_map=lambda prm: {"c": 1, "d": 1, "g": 1, "h": 1})

    def _cubes_sides(prm, n, field):
        # cleared polynomial form of the hypergeometric identity at
        # c = d = 0, g = h = 1 (multiply by cd(ch+dg)/2 before the limit)
        lhs = sum(Fraction(k) ** 3 for k in range(n + 1))
        rhs = Fraction(n * (n + 1), 2) ** 2
        return lhs, rhs

    add("bigid-hyper", "sum-cubes", "clear cd(ch+dg)/2, then c = d = 0, g = h = 1",
        sides=_cubes_sides)

    # indefinite-summation chain
    add("e-indef-1", "indef-1", "p = 0 makes every theta factor literal",
        prm_map=lambda prm: {"a": prm["a"], "b": prm["b"], "c": 1.0,
                             "q": prm["q"], "p": 0.0})
    add("e-indef-1", "warnaar-cubes-elliptic", "a = b = q^2, index shift", shift=1,
        prm_map=lambda prm: {"a": prm["q"] ** 2, "b": prm["q"] ** 2,
                             "c": prm["c"], "q": prm["q"], "p": prm["p"]})
    add("warnaar-cubes-elliptic", "warnaar-cubes", "p = 0",
        prm_map=lambda prm: {"c": 1.0, "q": prm["q"], "p": 0.0})
    add("indef-1", "qodds", "a = b = q, then n -> n - 1; scale q^(1-n)",
        scale=lambda P, prm, n: P.qpow(1 - n), shift=1,
        prm_map=lambda prm: {"a": prm["q"], "b": prm["q"], "q": prm["q"]})
    add("cubic-odds", "qodds", "a = 0 empties the cubic-base factorials",
        prm_map=lambda prm: {"a": 0.0, "q": prm["q"]})

    return {(e.parent, e.child): e for e in E}


_EDGES = _build_edges()


def edges() -> list[DegenerationEdge]:
    """All registered degeneration edges."""
    return list(_EDGES.values())


def get_edge(parent_id: str, child_id: str) -> DegenerationEdge:
    try:
        return _EDGES[(parent_id, child_id)]
    except KeyError:
        raise UnknownEdge(f"no degeneration edge {parent_id!r} -> {child_id!r}") from None


def reduce_chain_check(parent_id: str, child_id: str, params: dict, n: int,
                       mode: str = MODE_NUMERIC, tol: float = EDGE_TOL,
                       trial: Optional[int] = None) -> VerificationResult:
    """Check a registered degeneration edge at the child's parameters.

    Evaluates the parent in its specialized closed form (with the edge's
    normalization) and the child directly, and asserts that the two LHS
    values and the two RHS values agree.  A bad tol or n raises ValueError.
    """
    edge = get_edge(parent_id, child_id)
    child = get_identity(child_id)
    ident = f"{parent_id}->{child_id}"
    _check_n(ident, n, edge.min_n)
    if mode != MODE_NUMERIC and not edge.exact_ok:
        raise ModeUnsupported(f"edge {ident} supports only numeric checking")
    # pairs (parent lhs, child lhs) and (parent rhs, child rhs)
    return _verify(ident, mode, n, params, tol, trial, lambda field: list(zip(
        edge.parent_sides(params, n, field), _eval_sides(child, params, n, field))))
