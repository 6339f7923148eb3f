"""Exact Laurent-polynomial arithmetic in q over arbitrary-precision rationals.

This is the arithmetic of the exact oracle (`identities.eval_exact`) for
every identity whose terms reduce to integer powers of q.  LaurentPoly stores a sparse map exponent -> Fraction (no zero
coefficients; the zero polynomial is the empty map).  RationalFn is an
unreduced quotient of two Laurent polynomials compared by cross
multiplication, which keeps equality exact without polynomial gcd.

q-numbers come unexpanded as (1 - q^n) / (1 - q), so a q-identity with a
26-term sum stays a few hundred sparse monomials instead of a dense
polynomial of quadratic degree.

LaurentPoly.__mul__ picks one of three products, all exact:

- monomial: when one operand has a single term, the other's map is shifted
  and scaled (a third of the exact oracle's products, mostly by q^k or 1);
- Kronecker substitution: when both operands have int coefficients, many
  term products and a dense length well below their number, each operand
  is evaluated at a power of two and the product is one big-int multiply
  whose bytes are the coefficients (`_kronecker_mul`);
- sparse: the dict loop over term pairs, for everything else, Fraction
  coefficients included.

There is no numpy path: importing numpy alone doubles a bare interpreter's
peak RSS, and the products' coefficients outgrow int64 (95 bits in the
exact_q benchmark workload).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .errors import DomainRejected, NonIntegerExponent, OutOfRange


def _coeff(c):
    """Coefficient normal form: int when integral, Fraction otherwise.

    Integer coefficients keep the hot polynomial loops in fast int
    arithmetic; equal values hash and compare equal either way.
    """
    if isinstance(c, int):
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


# Kronecker substitution runs on an all-int product with at least this many
# term products whose dense length (span_a + span_b + 1) is at most
# 1/_KRONECKER_SPAN_RATIO of them; elsewhere the sparse loop is as fast or
# faster.  Both were measured on the products of the exact_q benchmark
# workload (BENCH_exact_products.json).
_KRONECKER_MIN_TERMS = 256
_KRONECKER_SPAN_RATIO = 4


def _kronecker_mul(a: dict, b: dict) -> dict | None:
    """The product of two int-coefficient Laurent polynomials by one big-int
    multiply, or None when it belongs to the sparse loop instead.

    Each polynomial is evaluated at X = 2^(8w) (Kronecker substitution), with
    w bytes per slot chosen so that 8w - 1 exceeds the bit length of
    min(len a, len b) * max|a| * max|b|, a bound on every coefficient of
    either operand and of the product.  Every slot is packed and unpacked
    with 2^(8w - 1) added, which makes it a nonnegative base-X digit, so no
    borrow crosses a slot and the bytes convert slot by slot.
    """
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    slots = hi_a - lo_a + hi_b - lo_b + 1
    if slots * _KRONECKER_SPAN_RATIO > len(a) * len(b):
        return None
    for c in (*a.values(), *b.values()):
        if type(c) is not int:
            return None
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    w = (bound.bit_length() + 9) // 8
    half = 1 << (8 * w - 1)
    digit = half.to_bytes(w, "little")

    def evaluate(p: dict, lo: int, hi: int) -> int:
        get = p.get
        biased = b"".join([(get(e, 0) + half).to_bytes(w, "little")
                           for e in range(lo, hi + 1)])
        return (int.from_bytes(biased, "little")
                - int.from_bytes(digit * (hi - lo + 1), "little"))

    prod = evaluate(a, lo_a, hi_a) * evaluate(b, lo_b, hi_b)
    raw = (prod + int.from_bytes(digit * slots, "little")).to_bytes(slots * w, "little")
    frm = int.from_bytes
    lo = lo_a + lo_b
    vals = [frm(raw[i:i + w], "little") - half for i in range(0, slots * w, w)]
    return {lo + k: c for k, c in enumerate(vals) if c}


class LaurentPoly:
    """Sparse Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {} if coeffs is None else coeffs

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        c = _coeff(coeff)
        return LaurentPoly({exp: c} if c else {})

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        out = {}
        for e, c in d.items():
            c = _coeff(c)
            if c:
                out[int(e)] = c
        return LaurentPoly(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a nonzero times a nonzero is nonzero: no zero can appear
            ((e1, c1),) = a.items()
            return LaurentPoly({e1 + e2: c1 * c2 for e2, c2 in b.items()})
        if len(a) * len(b) >= _KRONECKER_MIN_TERMS:
            out = _kronecker_mul(a, b)
            if out is not None:
                return LaurentPoly(out)
        out: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return LaurentPoly(out)

    def __call__(self, x):
        """Evaluate at a numeric (or Fraction) point x != 0."""
        out = 0 * x  # matches the result type of x
        for e, c in self.coeffs.items():
            if isinstance(x, Fraction):
                out += c * x**e
            else:
                out += complex(c) * x**e
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*q^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


class RationalFn:
    """Quotient of Laurent polynomials, kept unreduced.

    Equality is cross-multiplied: f == g iff f.num * g.den == g.num * f.den.
    Addition uses a same-denominator fast path so that sums of identity terms
    sharing a printed denominator do not blow up the representation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RationalFn")
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn(LaurentPoly.one())

    @staticmethod
    def monomial(exp: int, coeff=1) -> "RationalFn":
        return RationalFn(LaurentPoly.monomial(exp, coeff))

    @staticmethod
    def from_scalar(c) -> "RationalFn":
        return RationalFn(LaurentPoly.monomial(0, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalFn(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFn is not hashable (unreduced representation)")

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RationalFn")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def q_number(n: int) -> RationalFn:
    """[n]_q = (1 - q^n) / (1 - q); for n >= 0 this is 1 + q + ... + q^(n-1)."""
    num = LaurentPoly({0: 1}) - LaurentPoly.monomial(n)
    den = LaurentPoly({0: 1, 1: -1})
    return RationalFn(num, den)


def q_binomial(n: int, k: int) -> RationalFn:
    """Gaussian binomial [n choose k]_q as a ratio of q-shifted factorials."""
    if k < 0 or k > n:
        raise OutOfRange(f"q_binomial requires 0 <= k <= n, got n={n}, k={k}")
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for i in range(1, k + 1):
        num = num * (LaurentPoly({0: 1}) - LaurentPoly.monomial(n - k + i))
        den = den * (LaurentPoly({0: 1}) - LaurentPoly.monomial(i))
    return RationalFn(num, den)


class ExactArith:
    """Environment arithmetic over Fractions, the exact-rational mode's.

    sum(terms) is a plain left fold from the first term (zero when empty),
    with no cancellation guard, and den(x) rejects only an exact zero.
    """

    one = Fraction(1)
    zero = Fraction(0)

    def sum(self, terms):
        terms = iter(terms)
        return reduce(add, terms, next(terms, self.zero))

    def pow(self, base, z):
        return base ** z

    def den(self, x):
        if x == self.zero:
            raise DomainRejected("vanishing denominator")
        return x


class ExactQ(ExactArith):
    """Exact q-arithmetic provider for identity evaluators.

    Exposes the same small interface as the numeric provider: q-numbers,
    powers of q and the environment arithmetic, over RationalFn values.
    Exponents are ints or integral Fractions; anything else, a float
    included, raises NonIntegerExponent, since only integer powers of q
    live in the Laurent ring.
    """

    one = RationalFn.one()
    zero = RationalFn.zero()

    @staticmethod
    def _as_int(e) -> int:
        if isinstance(e, int):
            return e
        if isinstance(e, Fraction) and e.denominator == 1:
            return int(e)
        raise NonIntegerExponent(f"exact q-mode needs integer exponents, got {e!r}")

    def qn(self, z) -> RationalFn:
        return q_number(self._as_int(z))

    def qn_den(self, z) -> RationalFn:
        """A q-number used as a denominator; rejects the exact zero [0]_q."""
        n = self._as_int(z)
        if n == 0:
            raise DomainRejected("[0]_q denominator")
        return q_number(n)

    def qpow(self, e) -> RationalFn:
        return RationalFn.monomial(self._as_int(e))

    def pow(self, base, z) -> RationalFn:
        k = self._as_int(z)
        out = reduce(mul, [base] * abs(k), self.one)
        return out if k >= 0 else self.one / out

