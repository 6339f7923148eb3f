"""Overflow-safe complex arithmetic: values of the form m * 2**e.

The balanced theta quotients evaluated in this package are O(1), but their
building blocks are not: a power q**((gk+c)(hk+d)) with box-sampled complex
parameters can have magnitude far beyond 1e308, and a single theta value of
such an argument further exceeds the double range.  ScaledComplex keeps a
complex mantissa together with an unbounded integer base-2 exponent so that
arbitrarily long products of such factors remain representable; the final
quotients convert back to ordinary complex.

ScaledArith is the double-precision arithmetic every identity evaluator
reaches through its environment: one, zero, lift (a number into the field),
a power, a cancellation-guarded sum and a pole-guarded denominator.  The
q-provider, the elliptic contexts and the theta environment inherit it.  The pole rule lives here: den and
guard_factor (for a theta's min |factor|) raise DomainRejected.

The band rule: the constructor keeps a nonzero mantissa whose larger
component has binary exponent k in [-256, 256] (frexp's k) and otherwise
moves k into e.  A result whose |m| lies in [2**-256, 2**256) is in band:
its larger component lies in [2**-256.5, 2**256), so the constructor
would keep it unchanged.  The arithmetic (products, quotients and sums by
a ScaledComplex, complex or float), sc, from_exp, ipow and theta_scaled
build such a result with _mk, which skips the constructor; any other
result (zero, inf, nan, out of band, a non-complex mantissa) goes through
it, so the constructor stays the only code that renormalises.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainRejected

# ln(2) split hi/lo so that e*LN2_HI is exact for |e| < 2**20 (e integral).
_LN2 = 0.6931471805599453
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

#: a value or theta factor of smaller magnitude counts as a pole hit
POLE_TOL = 1e-6
# cancellation guard: a draw whose largest summand exceeds the final value by
# more than this factor cannot be verified to 1e-8 in double precision (the
# terms carry ~1e-14 relative error, so 1e5 of cancellation leaves ~1e-9),
# and the sum rejects it; same policy as the 1e-6 pole tolerance, applied to
# cross-term cancellation
COND_LIMIT = 1e5
_COND_LOG2 = math.log2(COND_LIMIT)

_BAND = 256  # renormalize when the mantissa exponent leaves [-_BAND, _BAND]
# |m| in [_IN_BAND_LO, _IN_BAND_HI) needs no renormalisation (module docstring)
_IN_BAND_LO = 2.0 ** -_BAND
_IN_BAND_HI = 2.0 ** _BAND


def _ldexp_sat(x: float, e: int) -> float:
    """ldexp that saturates to signed infinity instead of raising."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


class ScaledComplex:
    """A complex number m * 2**e with integer e of unlimited range."""

    __slots__ = ("m", "e")

    def __init__(self, m: complex, e: int = 0):
        m = complex(m)
        if m == 0:
            self.m = 0j
            self.e = 0
            return
        s = max(abs(m.real), abs(m.imag))
        k = math.frexp(s)[1]
        if k > _BAND or k < -_BAND:
            m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
            e += k
        self.m = m
        self.e = e

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def from_exp(w: complex) -> "ScaledComplex":
        """exp(w) for w with arbitrarily large real part."""
        e2 = math.floor(w.real / _LN2)
        frac = (w.real - e2 * _LN2_HI) - e2 * _LN2_LO
        return _mk(cmath.exp(complex(frac, w.imag)), e2)

    def ipow(self, k: int) -> "ScaledComplex":
        """Integer power with exact handling of the base-2 exponent."""
        if k == 0:
            return ONE
        if self.m == 0:
            if k < 0:
                raise ZeroDivisionError("0 ** negative")
            return ZERO
        # tighten mantissa to |max component| in [1, 2) so k*log stays accurate
        s = max(abs(self.m.real), abs(self.m.imag))
        j = math.frexp(s)[1] - 1
        mt = complex(math.ldexp(self.m.real, -j), math.ldexp(self.m.imag, -j))
        w = cmath.log(mt)
        out = ScaledComplex.from_exp(complex(k * w.real, k * w.imag))
        return _mk(out.m, out.e + k * (self.e + j))

    # ---- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        t = type(other)
        if t is ScaledComplex:
            return _mk(self.m * other.m, self.e + other.e)
        if t is complex or t is float:
            return _mk(self.m * other, self.e)
        return ScaledComplex(self.m * other, self.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = type(other)
        if t is ScaledComplex:
            return _mk(self.m / other.m, self.e - other.e)
        if t is complex or t is float:
            return _mk(self.m / other, self.e)
        return ScaledComplex(self.m / other, self.e)

    def __rtruediv__(self, other):
        return ScaledComplex(other / self.m, -self.e)

    def __neg__(self):
        out = ScaledComplex.__new__(ScaledComplex)
        out.m = -self.m
        out.e = self.e
        return out

    def __add__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex(other)
        if other.m == 0:
            return self
        if self.m == 0:
            return other
        d = self.e - other.e
        if d == 0:
            # the d > 0 branch below at d = 0, since ldexp(x, 0) is x
            return _mk(self.m + other.m, self.e)
        if d >= 1100:
            return self
        if d <= -1100:
            return other
        if d > 0:
            return _mk(
                self.m + complex(math.ldexp(other.m.real, -d), math.ldexp(other.m.imag, -d)),
                self.e,
            )
        return _mk(
            other.m + complex(math.ldexp(self.m.real, d), math.ldexp(self.m.imag, d)),
            other.e,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex(other)
        return self + (-other)

    def __rsub__(self, other):
        return ScaledComplex(other) + (-self)

    # ---- conversions and magnitude --------------------------------------

    def is_zero(self) -> bool:
        return self.m == 0

    def __abs__(self) -> float:
        if self.m == 0:
            return 0.0
        return _ldexp_sat(abs(self.m), self.e)

    def log2_abs(self) -> float:
        """log2 of the magnitude; -inf for zero.  Never overflows."""
        if self.m == 0:
            return -math.inf
        return math.log2(abs(self.m)) + self.e

    def to_complex(self) -> complex:
        """Convert back to complex, saturating to +-inf on overflow."""
        return complex(_ldexp_sat(self.m.real, self.e), _ldexp_sat(self.m.imag, self.e))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __repr__(self):
        return f"ScaledComplex({self.m!r}, {self.e})"


ZERO = ScaledComplex(0j)
ONE = ScaledComplex(1.0 + 0j)
_new = object.__new__


def _mk(m, e: int) -> ScaledComplex:
    """ScaledComplex(m, e), without the constructor when m is in band."""
    if type(m) is complex:
        try:
            r = abs(m)
        except OverflowError:
            return ScaledComplex(m, e)
        if _IN_BAND_LO <= r < _IN_BAND_HI:
            out = _new(ScaledComplex)
            out.m = m
            out.e = e
            return out
    return ScaledComplex(m, e)


def sc(z) -> ScaledComplex:
    """Coerce a number to ScaledComplex."""
    if isinstance(z, ScaledComplex):
        return z
    return _mk(complex(z), 0)


def exact_key(z) -> tuple:
    """A dict key for z under which equal keys mean bit-identical inputs.

    The memos of the environments key their arguments by it, so a hit is
    what a fresh computation returns.  A float or complex is keyed by its
    type, its parts and the sign of each: complex(-0.3, 0.0) and
    complex(-0.3, -0.0) compare equal yet lie on either side of the branch
    cut of the logarithm.  A ScaledComplex is keyed likewise by its mantissa
    and exponent.  Any other value (an int, an mpmath or GF(P) number) is
    keyed by its type and itself, never rounded to a double; the type keeps
    2 and 2.0 apart, since cpow expands small ints by multiplication.
    """
    t = type(z)
    if t is ScaledComplex:
        m = z.m
        return (z.e, m.real, m.imag, math.copysign(1.0, m.real), math.copysign(1.0, m.imag))
    if t is float or t is complex:
        return (t, z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
    return (t, z)


def cpow(base: complex, z) -> ScaledComplex:
    """base**z via exp(z * Log base), principal branch.

    This is the single power convention used throughout the package, so
    exponent addition matches symbolic exponent arithmetic up to rounding.
    Small integer exponents are expanded by repeated multiplication, which
    agrees with the principal branch and is exact for exact inputs.
    """
    if isinstance(z, int) and -8 <= z <= 8:
        if z == 0:
            return ONE
        out = ScaledComplex(complex(base))
        for _ in range(abs(z) - 1):
            out = out * base
        return out if z > 0 else ONE / out
    w = cmath.log(base)
    z = complex(z)
    return ScaledComplex.from_exp(complex(z.real * w.real - z.imag * w.imag,
                                          z.real * w.imag + z.imag * w.real))


class ScaledArith:
    """The environment arithmetic of the double-precision evaluators.

    sum(terms) is a left fold from the first term (zero when empty) that
    rejects a draw whose largest term exceeds the total by more than
    COND_LIMIT; den(x) returns x unless it lies within POLE_TOL of zero.
    """

    one = ONE
    zero = ZERO
    lift = staticmethod(sc)
    pow = staticmethod(cpow)

    def sum(self, terms) -> ScaledComplex:
        total = None
        peak = -math.inf
        for t in terms:
            t = sc(t)
            lg = t.log2_abs()
            if lg > peak:
                peak = lg
            total = t if total is None else total + t
        if total is None:
            return self.zero
        if peak - max(total.log2_abs(), 0.0) > _COND_LOG2:
            raise DomainRejected(
                "cross-term cancellation exceeds the verification headroom")
        return total

    @staticmethod
    def den(x):
        if abs(x) < POLE_TOL:
            raise DomainRejected("denominator within pole tolerance of zero")
        return x


def guard_factor(minfac: float) -> None:
    """Reject a denominator theta whose smallest |factor| lies within POLE_TOL of zero."""
    if minfac < POLE_TOL:
        raise DomainRejected(f"denominator theta factor within {POLE_TOL:g} of zero "
                             f"(min |factor| = {minfac:.3g})")
