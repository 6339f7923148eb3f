"""Euler's telescoping lemma as a generic summation engine.

Given sequences u_k, v_k and t_k = u_k - v_k with t_0 != 0,

    sum_{k=0}^{n} (t_k / t_0) (u_0 u_1 ... u_{k-1}) / (v_1 v_2 ... v_k)
        = (u_0 / t_0) (u_1 u_2 ... u_n / (v_1 v_2 ... v_n) - v_0 / u_0),

provided no denominator vanishes.  The engine evaluates both sides literally
(running partial products, never per-k recomputation) over any value type
with field operators: complex, ScaledComplex, Fraction, or RationalFn.

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
from fractions import Fraction
from typing import Callable, Optional

from ._scaled import ONE, ScaledComplex
from .errors import DegenerateDenominator, UnknownTheorem
from .qexact import RationalFn


@dataclass
class TelescopePair:
    """Sequences u, v (callables k -> value) with an optional claimed t_k."""

    u: Callable
    v: Callable
    label: str
    t_claim: Optional[Callable] = None


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, RationalFn))


def _mag(x) -> float:
    if isinstance(x, ScaledComplex):
        return abs(x)
    return abs(complex(x))


def _zero(x, scale: float, exact: bool, tol: float) -> bool:
    if exact:
        if isinstance(x, RationalFn):
            return x.is_zero()
        return x == 0
    return _mag(x) <= tol * scale


def telescope_both_sides(pair: TelescopePair, n: int, zero_tol: float = 1e-12):
    """Evaluate both sides of the telescoping identity for 0 <= k <= n.

    Returns (lhs, rhs) in the value type produced by the pair.  Raises
    DegenerateDenominator if t_0, any of v_1..v_n, or any of u_0..u_{n-1}
    vanishes (exactly in exact mode, below zero_tol * scale numerically).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    us = [pair.u(k) for k in range(n + 1)]
    vs = [pair.v(k) for k in range(n + 1)]
    t0 = us[0] - vs[0]
    exact = _is_exact(us[0])

    if exact:
        scale = 1.0
    else:
        scale = max((_mag(x) for x in us + vs), default=1.0)
        if scale == 0 or math.isinf(scale):
            scale = 1.0
    if _zero(t0, scale, exact, zero_tol):
        raise DegenerateDenominator(f"{pair.label}: t_0 = u_0 - v_0 vanishes")
    for k in range(1, n + 1):
        if _zero(vs[k], scale, exact, zero_tol):
            raise DegenerateDenominator(f"{pair.label}: v_{k} vanishes")
    for k in range(0, n):
        if _zero(us[k], scale, exact, zero_tol):
            raise DegenerateDenominator(f"{pair.label}: u_{k} vanishes")

    # lhs: running product of u_0..u_{k-1} / v_1..v_k, term (t_k/t_0) * ratio
    lhs = (us[0] - vs[0]) / t0  # k = 0 term, equals 1
    ratio = _one_like(us[0])
    for k in range(1, n + 1):
        ratio = ratio * us[k - 1] / vs[k]
        lhs = lhs + ((us[k] - vs[k]) / t0) * ratio

    prod = _one_like(us[0])
    for k in range(1, n + 1):
        prod = prod * us[k] / vs[k]
    rhs = (us[0] / t0) * (prod - vs[0] / us[0])
    return lhs, rhs


def _one_like(x):
    if isinstance(x, ScaledComplex):
        return ONE
    if isinstance(x, RationalFn):
        return RationalFn.one()
    if isinstance(x, Fraction):
        return Fraction(1)
    return 1.0 + 0j if isinstance(x, complex) else 1


def builder(theorem_id: str, ctx, extra: dict | None = None) -> TelescopePair:
    """The u/v (and claimed t) sequences from the named summation proof.

    ctx is an elliptic context (any class of `elliptic`, e.g. the one a
    catalog identity's `env` builds) whose num/wt the sequences use.  extra
    carries per-theorem data: m for "tel-a"/"tel-b", the four complex
    parameters c, d, g, h for "bigid".
    """
    extra = extra or {}

    if theorem_id == "tel-c":
        def u(k):
            return ctx.num(k + 1) * ctx.num(k + 1, s=1)

        def v(k):
            return ctx.num(k) * ctx.num(k, s=1)

        def t(k):
            return ctx.wt(k - 1, s=1) * (ctx.num(k + 1) * ctx.num(2, s=k) - 1)

        return TelescopePair(u, v, "tel-c", t)

    if theorem_id == "tel-a":
        m = int(extra["m"])

        def u(k):
            out = ONE
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

        return TelescopePair(u, v, f"tel-a(m={m})", t)

    if theorem_id == "tel-b":
        m = int(extra["m"])
        if m < 1:
            raise ValueError("tel-b needs m >= 1 (t_0 vanishes at m = 0)")

        def u(k):
            out = ONE
            for i in range(2, m + 2):
                out = out * ctx.num(k + i)
            return ONE / out

        def v(k):
            return u(k - 1)

        def t(k):
            out = ctx.wt(k + 1) * ctx.num(m, s=k + 1)
            den = ONE
            for i in range(1, m + 2):
                den = den * ctx.num(k + i)
            return -(out / den)

        return TelescopePair(u, v, f"tel-b(m={m})", t)

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

        return TelescopePair(u, v, "bigid", t)

    raise UnknownTheorem(f"no telescoping builder named {theorem_id!r}")
