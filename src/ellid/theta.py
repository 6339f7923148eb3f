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
bound (|a| + 1/|a| + 2) |p|^J / (1 - |p|) drops below TAIL_TOL = 1e-14; a J
above MAX_TERMS = 512 raises TruncationNotConverged.  Arguments whose
magnitude falls outside the annulus |p| < |a| <= 1 are first brought into it
with the exact quasi-periodicity relation

    theta(a; p) = (-1)^m a^m p^(m(m-1)/2) theta(a p^m; p),

so the truncation rule always applies to a well-conditioned argument; this is
what keeps the astronomically large or small arguments produced by the
identity evaluators exact-to-tolerance without extending the product.

What depends on the nome alone is a _Nome record: |p|, log2|p|, the
powers sc(p).ipow(k) of the reduction and the list 1, p, p^2, ... that the
product multiplies in.  ThetaEnv, the double theta environment, keeps one
record per nome, keyed by _scaled.exact_key(p) (signed zeros included: the
logarithm inside ipow puts complex(-0.3, 0.0) and complex(-0.3, -0.0) on
either side of its branch cut); a plain nome gets a fresh record.  Running
shifted factorials step a _Slot over such an environment.
"""

from __future__ import annotations

import cmath
import math

from ._scaled import ONE, ScaledArith, ScaledComplex, _mk, exact_key, guard_factor, sc
from .errors import TruncationNotConverged, ZeroArgument

#: the tail bound a truncated theta product must meet
TAIL_TOL = 1e-14
#: most terms a theta product may take; the sampled nome box (|p| <= 0.5)
#: needs at most 50 and a pinned |p| = 0.9 at most 341, while |p| = 0.95
#: needs 714 and raises
MAX_TERMS = 512


def truncation_terms(aa: float, pa: float) -> int:
    """Smallest J >= 1 with (aa + 1/aa + 2) pa^J / (1 - pa) < TAIL_TOL.

    aa is the reduced argument's modulus |a| in (|p|, 1] and pa = |p| > 0.
    """
    bound = (aa + 1.0 / aa + 2.0) / (1.0 - pa)
    if bound <= TAIL_TOL:
        return 1
    return max(1, math.ceil(math.log(bound / TAIL_TOL) / -math.log(pa)))


class _Nome:
    """What theta_scaled needs of a nonzero nome p alone.

    pa = |p| and lp2 = log2|p|; ipow(k) is sc(p).ipow(k) and powers(J) the
    list 1, p, p^2, ... of at least J entries, each the one before times p;
    both grow on demand and keep what they computed.
    """

    __slots__ = ("p", "pa", "lp2", "sp", "ipows", "pjs")

    def __init__(self, p, pa: float):
        self.p = p
        self.pa = pa
        self.lp2 = math.log2(pa)
        self.sp = sc(p)
        self.ipows = {}
        self.pjs = [1.0 + 0j]

    def ipow(self, k: int) -> ScaledComplex:
        out = self.ipows.get(k)
        if out is None:
            out = self.ipows[k] = self.sp.ipow(k)
        return out

    def powers(self, terms: int) -> list:
        pjs = self.pjs
        while len(pjs) < terms:
            pjs.append(pjs[-1] * self.p)
        return pjs


def _nome(p) -> _Nome:
    """A fresh record of a nome 0 < |p| < 1; ValueError for |p| >= 1."""
    pa = abs(p)
    if not pa < 1.0:
        raise ValueError(f"nome must satisfy |p| < 1, got |p| = {pa}")
    return _Nome(p, pa)


def theta_scaled(a, p) -> tuple[ScaledComplex, float]:
    """theta(a; p) in scaled form, plus a bound on its nearness to a zero.

    Accepts a as complex or ScaledComplex of any magnitude, and p as a
    nome or a nonzero nome's _Nome record; a non-finite a raises
    ValueError, and so does a nome with |p| >= 1 (the product does not
    converge).  The second value, minfac, is the smaller modulus of
    the two j = 0 factors 1 - a' and 1 - p/a' of the reduced argument a'.
    Since |p| < |a'| <= 1, every other factor has modulus at least
    1 - |p|, which exceeds 0.06 for any nome that MAX_TERMS admits (it
    rejects |p| above about 0.935).  So minfac falls below POLE_TOL exactly
    when the smallest factor does, and then equals it.  At p = 0 it is
    |1 - a|, reported as +inf when that overflows.
    """
    a = sc(a)
    if not cmath.isfinite(a.m):
        raise ValueError(f"theta argument a must be finite, got a = {a.m}")
    if p == 0:
        # 1 - a extends continuously to a = 0; the infinite product itself
        # needs a != 0, which the p != 0 branch enforces
        val = ONE - a
        return val, abs(val)
    nome = p if type(p) is _Nome else _nome(p)
    if a.is_zero():
        raise ZeroArgument("theta argument must be nonzero")

    m = math.ceil(a.log2_abs() / -nome.lp2)
    if m != 0:
        pref = a.ipow(m) * nome.ipow(m * (m - 1) // 2)
        if m % 2:
            pref = -pref
        an = (a * nome.ipow(m)).to_complex()
    else:
        pref = None
        an = a.to_complex()

    pa = nome.pa
    terms = truncation_terms(abs(an), pa)
    if terms > MAX_TERMS:
        raise TruncationNotConverged(
            f"theta at |a| = {abs(an):.3g}, |p| = {pa:.3g} needs J = {terms} "
            f"> MAX_TERMS = {MAX_TERMS}")

    pjs = nome.powers(terms)
    inv = nome.p / an
    f1 = 1.0 - an * pjs[0]
    f2 = 1.0 - inv * pjs[0]
    minfac = min(abs(f1), abs(f2))
    prod = 1.0 + 0j
    prod *= f1 * f2
    for pj in pjs[1:terms]:
        prod *= (1.0 - an * pj) * (1.0 - inv * pj)

    out = _mk(prod, 0)
    if pref is not None:
        out = out * pref
    return out, minfac


def theta(a: complex, p: complex) -> complex:
    """The modified Jacobi theta function theta(a; p)."""
    if a == 0:
        raise ZeroArgument("theta argument must be nonzero")
    val, _ = theta_scaled(a, p)
    return val.to_complex()


def theta_prod(args, p: complex) -> complex:
    """theta(a1, ..., ar; p) = theta(a1; p) * ... * theta(ar; p); empty -> 1."""
    out = ONE
    for a in args:
        val, _ = theta_scaled(a, p)
        out = out * val
    return out.to_complex()


class ThetaEnv(ScaledArith):
    """ScaledArith plus theta and theta_den, memoised for the environment's lifetime.

    The memo and the _Nome records are keyed by exact_key of the argument
    and the nome (asked at p, p^2 and 0), so a hit is what a fresh call
    gives.  theta_scaled is looked up at call time, so a wrapper installed
    on that module global sees every call.
    """

    def __init__(self):
        self._theta = {}
        self._records = {}

    def _record(self, p, key):
        """What theta_scaled is passed for p: its record, built once; p itself at p = 0."""
        rec = self._records.get(key)
        if rec is None and p != 0:
            rec = self._records[key] = _nome(p)
        return rec or p

    def _theta_of(self, x, p):
        x = self.lift(x)
        kp = exact_key(p)
        key = (exact_key(x), kp)
        hit = self._theta.get(key)
        if hit is None:
            hit = self._theta[key] = theta_scaled(x, self._record(p, kp))
        return hit

    def theta(self, x, p):
        """theta(x; p)."""
        return self._theta_of(x, p)[0]

    def theta_den(self, x, p):
        """theta(x; p) for a denominator: DomainRejected near one of its zeros."""
        val, minfac = self._theta_of(x, p)
        guard_factor(minfac)
        return val


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


def factorial_scaled(a, base: complex, p: complex, k: int) -> ScaledComplex:
    """(a; base, p)_k over a fresh ThetaEnv; for k < 0, 1 / (a/base; 1/base, p)_{-k},
    whose factors are guarded (DomainRejected within _scaled.POLE_TOL of zero)."""
    if k >= 0:
        return _fact(ThetaEnv(), a, base, p, k)
    return ONE / _fact(ThetaEnv(), a / base, 1 / base, p, -k, guard=True)


def shifted_factorial(a: complex, base: complex, p: complex, k: int) -> complex:
    """Theta shifted factorial (a; base, p)_k along a, a*base, a*base^2, ..."""
    if base == 0:
        raise ValueError("factorial base must be nonzero")
    return factorial_scaled(a, base, p, k).to_complex()
