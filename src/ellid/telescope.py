"""Euler's telescoping lemma as a generic summation engine.

Given sequences u_k, v_k and t_k = u_k - v_k with t_0 != 0,

    sum_{k=0}^{n} (t_k / t_0) (u_0 u_1 ... u_{k-1}) / (v_1 v_2 ... v_k)
        = (u_0 / t_0) (u_1 u_2 ... u_n / (v_1 v_2 ... v_n) - v_0 / u_0),

provided no denominator vanishes.  The engine evaluates both sides literally
(running partial products, never per-k recomputation) in the field of the
pair's env, whose one and zero it reads: the lemma holds in every field.

`builder` returns the concrete u/v pairs used in the proofs of the summation
theorems verified by this package, together with the claimed closed form of
t_k, so the difference equation u_k - v_k = t_k can be checked independently
of the summed identity:

    tel-c : u_k = [k+1] [k+1]_{shift 1},                     v_k = u_{k-1};
    tel-a : u_k = [k+1][k+2]...[k+m+1],                      v_k = u_{k-1};
    tel-b : u_k = 1 / ([k+2][k+3]...[k+m+1]),                v_k = u_{k-1};
    bigid : the quadratic-relation triple with parameters c, d, g, h,
            u_k = [(gk+c)(hk+h+d)] [(gk+g+c)(hk+d)]_{shift (gk-g+c)(hk+d)},
            v_k = [(gk-g+c)(hk+d)] [(gk+c)(hk-h+d)]_{shift (gk+c)(hk+h+d)}
                  * W_{shift (gk-g+c)(hk+d)}(2ghk+ch+dg),
            t_k = [2(gk+c)(hk+d)] [2ghk+ch+dg]_{shift (gk-g+c)(hk+d)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ._scaled import ZERO, ScaledArith
from .errors import DomainRejected, UnknownTheorem
from .identities import INT_MIN, get_identity

VANISH_TOL = 1e-12  # a double vanishes at |x| <= VANISH_TOL * max |u_k|, |v_k|


@dataclass
class TelescopePair:
    """Sequences u, v (callables k -> value) with an optional claimed t_k,
    whose values lie in the field of env: builder's context, else double."""

    u: Callable
    v: Callable
    label: str
    t_claim: Optional[Callable] = None
    env: object = ScaledArith()


def telescope_both_sides(pair: TelescopePair, n: int):
    """Evaluate both sides of the telescoping identity for 0 <= k <= n.

    Returns (lhs, rhs) in the field of pair.env.  The sum takes t_k from
    pair.t_claim when the pair has one, else u_k - v_k, so a u or v that
    breaks u_k - v_k = t_k unbalances the sides.  Raises DomainRejected if
    t_0, any of v_1..v_n, or any of u_0..u_{n-1} vanishes: over the double
    field, when its modulus is at most VANISH_TOL times the largest |u_k|,
    |v_k|; over any other field, when it equals the field's zero.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    us = [pair.u(k) for k in range(n + 1)]
    vs = [pair.v(k) for k in range(n + 1)]
    ts = [pair.t_claim(k) if pair.t_claim else us[k] - vs[k] for k in range(n + 1)]
    t0 = ts[0]
    one, zero = pair.env.one, pair.env.zero

    # a context built over another field still subclasses ScaledArith, so
    # the double field is told by its zero, not by isinstance
    if zero is ZERO:
        scale = max((abs(x) for x in us + vs), default=1.0)
        if scale == 0 or math.isinf(scale):
            scale = 1.0

        def vanishes(x):
            return abs(x) <= VANISH_TOL * scale
    else:
        def vanishes(x):
            return x == zero

    if vanishes(t0):
        raise DomainRejected(f"{pair.label}: t_0 = u_0 - v_0 vanishes")
    for k in range(1, n + 1):
        if vanishes(vs[k]):
            raise DomainRejected(f"{pair.label}: v_{k} vanishes")
    for k in range(0, n):
        if vanishes(us[k]):
            raise DomainRejected(f"{pair.label}: u_{k} vanishes")

    # lhs: running product of u_0..u_{k-1} / v_1..v_k, term (t_k/t_0) * ratio
    lhs = ts[0] / t0  # k = 0 term, equals 1
    ratio = prod = one
    for k in range(1, n + 1):
        ratio = ratio * us[k - 1] / vs[k]
        lhs = lhs + (ts[k] / t0) * ratio
        prod = prod * us[k] / vs[k]
    rhs = (us[0] / t0) * (prod - vs[0] / us[0])
    return lhs, rhs


def _m(theorem_id: str, extra: dict) -> int:
    """extra["m"], an int no less than the least value of its catalog kind."""
    m = extra["m"]
    least = INT_MIN[dict(get_identity(theorem_id).param_signature)["m"]]
    if type(m) is not int or m < least:
        raise ValueError(f"{theorem_id} needs an integer m >= {least}, got m = {m!r}")
    return m


def builder(theorem_id: str, ctx, extra: dict | None = None) -> TelescopePair:
    """The u/v (and claimed t) sequences from the named summation proof.

    ctx is an elliptic context (any class of `elliptic`, e.g. the one a
    catalog identity's `env(params, field)` builds, or any environment with
    num, wt, one and zero) whose num/wt the sequences use, so they lie in its
    field; the pair's env is ctx.  extra carries per-theorem data: m for
    "tel-a"/"tel-b" (an int no less than in the catalog, else ValueError),
    the four parameters c, d, g, h for "bigid".
    """
    extra = extra or {}

    if theorem_id == "tel-c":
        def u(k):
            return ctx.num(k + 1) * ctx.num(k + 1, s=1)

        def v(k):
            return ctx.num(k) * ctx.num(k, s=1)

        def t(k):
            return ctx.wt(k - 1, s=1) * (ctx.num(k + 1) * ctx.num(2, s=k) - ctx.one)

        return TelescopePair(u, v, "tel-c", t, ctx)

    if theorem_id == "tel-a":
        m = _m(theorem_id, extra)

        def u(k):
            out = ctx.one
            for i in range(1, m + 2):
                out = out * ctx.num(k + i)
            return out

        def v(k):
            return u(k - 1)

        def t(k):
            out = ctx.wt(k) * ctx.num(m + 1, s=k)
            for i in range(1, m + 1):
                out = out * ctx.num(k + i)
            return out

        return TelescopePair(u, v, f"tel-a(m={m})", t, ctx)

    if theorem_id == "tel-b":
        m = _m(theorem_id, extra)

        def u(k):
            out = ctx.one
            for i in range(2, m + 2):
                out = out * ctx.num(k + i)
            return ctx.one / out

        def v(k):
            return u(k - 1)

        def t(k):
            out = ctx.wt(k + 1) * ctx.num(m, s=k + 1)
            den = ctx.one
            for i in range(1, m + 2):
                den = den * ctx.num(k + i)
            return -(out / den)

        return TelescopePair(u, v, f"tel-b(m={m})", t, ctx)

    if theorem_id == "bigid":
        c, d, g, h = extra["c"], extra["d"], extra["g"], extra["h"]

        def u(k):
            return (ctx.num((g * k + c) * (h * k + h + d))
                    * ctx.num((g * k + g + c) * (h * k + d),
                              s=(g * k - g + c) * (h * k + d)))

        def v(k):
            return (ctx.num((g * k - g + c) * (h * k + d))
                    * ctx.num((g * k + c) * (h * k - h + d),
                              s=(g * k + c) * (h * k + h + d))
                    * ctx.wt(2 * g * h * k + c * h + d * g,
                             s=(g * k - g + c) * (h * k + d)))

        def t(k):
            return (ctx.num(2 * (g * k + c) * (h * k + d))
                    * ctx.num(2 * g * h * k + c * h + d * g,
                              s=(g * k - g + c) * (h * k + d)))

        return TelescopePair(u, v, "bigid", t, ctx)

    raise UnknownTheorem(f"no telescoping builder named {theorem_id!r}")
