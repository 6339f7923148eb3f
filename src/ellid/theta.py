"""Modified Jacobi theta function and shifted factorials.

The modified theta function of a nonzero complex argument a with nome p,
|p| < 1, is the convergent product

    theta(a; p) = prod_{j>=0} (1 - a p^j) (1 - p^{j+1} / a),

which reduces to 1 - a at p = 0.  Shifted factorials iterate theta along a
geometric progression of arguments:

    (a; b, p)_k = prod_{j=0}^{k-1} theta(a b^j; p),     k >= 0,
    (a; b, p)_k = 1 / prod_{j=1}^{-k} theta(a b^{-j}; p),  k < 0,

with base b and, at p = 0, reduce to the ordinary b-shifted factorials with
1 - x factors.

Evaluation truncates the product at the first J for which the geometric tail
bound (|a| + 1/|a| + 2) |p|^J / (1 - |p|) drops below the configured
tolerance.  Arguments whose magnitude falls outside the annulus |p| < |a| <= 1
are first brought into it with the exact quasi-periodicity relation

    theta(a; p) = (-1)^m a^m p^(m(m-1)/2) theta(a p^m; p),

so the truncation rule always applies to a well-conditioned argument; this is
what keeps the astronomically large or small arguments produced by the
identity evaluators exact-to-tolerance without extending the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._scaled import ONE, ScaledComplex, sc
from .errors import DivisionByZeroFactor, TruncationNotConverged, ZeroArgument

#: a theta factor of smaller magnitude counts as a pole hit
POLE_TOL = 1e-6


@dataclass(frozen=True)
class ThetaConfig:
    """Truncation order and tail tolerance for theta products."""

    max_terms: int = 64
    tail_tol: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


DEFAULT_CONFIG = ThetaConfig()


def truncation_terms(aa: float, pa: float, tail_tol: float) -> int:
    """Smallest J >= 1 with (aa + 1/aa + 2) pa^J / (1 - pa) < tail_tol.

    aa is the reduced argument's modulus |a| in (|p|, 1] and pa = |p| > 0.
    """
    bound = (aa + 1.0 / aa + 2.0) / (1.0 - pa)
    if bound <= tail_tol:
        return 1
    return max(1, math.ceil(math.log(bound / tail_tol) / -math.log(pa)))


def theta_scaled(a, p: complex, cfg: ThetaConfig = DEFAULT_CONFIG) -> tuple[ScaledComplex, float]:
    """theta(a; p) in scaled form, plus the smallest |factor| encountered.

    Accepts a as complex or ScaledComplex of any magnitude.  The minimum
    factor magnitude lets callers detect proximity to a theta zero; it is
    reported as +inf for the p = 0 shortcut path when |1 - a| overflows.
    A nome with |p| >= 1 raises ValueError: the product does not converge.
    """
    a = sc(a)
    if p == 0:
        # 1 - a extends continuously to a = 0; the infinite product itself
        # needs a != 0, which the p != 0 branch enforces
        val = ONE - a
        return val, abs(val)
    pa = abs(p)
    if not pa < 1.0:
        raise ValueError(f"nome must satisfy |p| < 1, got |p| = {pa}")
    if a.is_zero():
        raise ZeroArgument("theta argument must be nonzero")

    lp2 = math.log2(pa)
    m = math.ceil(a.log2_abs() / -lp2)
    if m != 0:
        pref = a.ipow(m) * sc(p).ipow(m * (m - 1) // 2)
        if m % 2:
            pref = -pref
        an = (a * sc(p).ipow(m)).to_complex()
    else:
        pref = None
        an = a.to_complex()

    terms = truncation_terms(abs(an), pa, cfg.tail_tol)
    if terms > cfg.max_terms:
        raise TruncationNotConverged(
            f"theta at |a| = {abs(an):.3g}, |p| = {pa:.3g} needs J = {terms} "
            f"> max_terms = {cfg.max_terms}")

    inv = p / an
    prod = 1.0 + 0j
    pj = 1.0 + 0j
    minfac = math.inf
    for _ in range(terms):
        f1 = 1.0 - an * pj
        f2 = 1.0 - inv * pj
        m1 = abs(f1)
        if m1 < minfac:
            minfac = m1
        m2 = abs(f2)
        if m2 < minfac:
            minfac = m2
        prod *= f1 * f2
        pj *= p

    out = ScaledComplex(prod)
    if pref is not None:
        out = out * pref
    return out, minfac


def theta(a: complex, p: complex, cfg: ThetaConfig = DEFAULT_CONFIG) -> complex:
    """The modified Jacobi theta function theta(a; p)."""
    if a == 0:
        raise ZeroArgument("theta argument must be nonzero")
    val, _ = theta_scaled(a, p, cfg)
    return val.to_complex()


def theta_prod(args, p: complex, cfg: ThetaConfig = DEFAULT_CONFIG) -> complex:
    """theta(a1, ..., ar; p) = theta(a1; p) * ... * theta(ar; p); empty -> 1."""
    out = ONE
    for a in args:
        val, _ = theta_scaled(a, p, cfg)
        out = out * val
    return out.to_complex()


def factorial_scaled(a, base: complex, p: complex, k: int,
                     cfg: ThetaConfig = DEFAULT_CONFIG) -> tuple[ScaledComplex, float]:
    """Scaled theta shifted factorial (a; base, p)_k with min-factor tracking.

    For k < 0 the standard reciprocal convention applies; a reciprocal factor
    within POLE_TOL of zero (or exactly zero) raises DivisionByZeroFactor.
    """
    minfac = math.inf
    out = ONE
    arg = sc(a)
    if k >= 0:
        for _ in range(k):
            val, mf = theta_scaled(arg, p, cfg)
            if mf < minfac:
                minfac = mf
            out = out * val
            arg = arg * base
    else:
        for _ in range(-k):
            arg = arg / base
            val, mf = theta_scaled(arg, p, cfg)
            if mf < minfac:
                minfac = mf
            out = out * val
        if minfac < POLE_TOL or out.is_zero():
            raise DivisionByZeroFactor(
                f"reciprocal factorial factor within {POLE_TOL:g} of zero "
                f"(min |factor| = {minfac:.3g})")
        out = ONE / out
    return out, minfac


def shifted_factorial(a: complex, base: complex, p: complex, k: int,
                      cfg: ThetaConfig = DEFAULT_CONFIG) -> complex:
    """Theta shifted factorial (a; base, p)_k along a, a*base, a*base^2, ..."""
    if base == 0:
        raise ValueError("factorial base must be nonzero")
    val, _ = factorial_scaled(a, base, p, k, cfg)
    return val.to_complex()
