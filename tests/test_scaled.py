"""ScaledComplex's in-band shortcut gives exactly the constructor's results.

The operators, sc, from_exp, ipow and theta_scaled build an in-band result
without calling the constructor (`_scaled._mk`).  Each is compared here with
a reference that always calls the constructor, written as the operators
were before the shortcut.  Two outcomes agree when both raise the same
exception type, or both return a ScaledComplex with the same exact_key and
exponent, where each float of the key is compared by its bits (exact_key
alone cannot compare a NaN equal to itself).
"""

import cmath
import importlib
import math
import struct
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellid import _scaled
from ellid._scaled import _LN2, _LN2_HI, _LN2_LO, ScaledComplex as SC, exact_key, sc

theta = importlib.import_module("ellid.theta")  # the package re-exports a function theta

TOP = 2.0 ** 256
ULP_BELOW_TOP = math.nextafter(TOP, 0.0)
BELOW_BOTTOM = math.nextafter(2.0 ** -257, 0.0)  # k = -257, yet |m| > 2**-257


# ---- references: the constructor on every result ----------------------------

def _ref_mul(a, o):
    if isinstance(o, SC):
        return SC(a.m * o.m, a.e + o.e)
    return SC(a.m * o, a.e)


def _ref_div(a, o):
    if isinstance(o, SC):
        return SC(a.m / o.m, a.e - o.e)
    return SC(a.m / o, a.e)


def _ref_add(a, o):
    if not isinstance(o, SC):
        o = SC(o)
    if o.m == 0:
        return a
    if a.m == 0:
        return o
    d = a.e - o.e
    if d >= 1100:
        return a
    if d <= -1100:
        return o
    if d >= 0:
        return SC(a.m + complex(math.ldexp(o.m.real, -d), math.ldexp(o.m.imag, -d)), a.e)
    return SC(o.m + complex(math.ldexp(a.m.real, d), math.ldexp(a.m.imag, d)), o.e)


def _ref_sub(a, o):
    if not isinstance(o, SC):
        o = SC(o)
    return _ref_add(a, -o)


def _ref_sc(z):
    return z if isinstance(z, SC) else SC(complex(z))


def _ref_from_exp(w):
    e2 = math.floor(w.real / _LN2)
    frac = (w.real - e2 * _LN2_HI) - e2 * _LN2_LO
    return SC(cmath.exp(complex(frac, w.imag)), e2)


def _ref_ipow(a, k):
    if k == 0:
        return _scaled.ONE
    if a.m == 0:
        if k < 0:
            raise ZeroDivisionError("0 ** negative")
        return _scaled.ZERO
    j = math.frexp(max(abs(a.m.real), abs(a.m.imag)))[1] - 1
    w = cmath.log(complex(math.ldexp(a.m.real, -j), math.ldexp(a.m.imag, -j)))
    out = _ref_from_exp(complex(k * w.real, k * w.imag))
    return SC(out.m, out.e + k * (a.e + j))


#: (name, operator, reference) for a ScaledComplex a and an operand o
BINARY = (
    ("a * o", lambda a, o: a * o, _ref_mul),
    ("o * a", lambda a, o: o * a,
     lambda a, o: _ref_mul(o, a) if isinstance(o, SC) else _ref_mul(a, o)),
    ("a / o", lambda a, o: a / o, _ref_div),
    ("a + o", lambda a, o: a + o, _ref_add),
    ("o + a", lambda a, o: o + a,
     lambda a, o: _ref_add(o, a) if isinstance(o, SC) else _ref_add(a, o)),
    ("a - o", lambda a, o: a - o, _ref_sub),
)


def _bits(x):
    return struct.pack("<d", x) if isinstance(x, float) else x


def _outcome(f, *args):
    try:
        r = f(*args)
    except Exception as exc:  # both sides must raise alike
        return ("raises", type(exc))
    assert type(r) is SC
    return (tuple(map(_bits, exact_key(r))), r.e, type(r.e))


def mismatch(name, f, ref, *args):
    """A description of where f and ref disagree on args, or None."""
    got, want = _outcome(f, *args), _outcome(ref, *args)
    if got != want:
        return f"{name} at {args!r}: {got} != {want}"
    return None


def mismatches(scaled, operands) -> list[str]:
    """Every disagreement of BINARY over scaled x operands, of sc and ipow."""
    out = []
    for a, o in product(scaled, operands):
        out += [mismatch(name, f, ref, a, o) for name, f, ref in BINARY]
    for a in scaled:
        out += [mismatch("ipow", SC.ipow, _ref_ipow, a, k) for k in (-3, -1, 1, 2, 7)]
    for o in operands:
        out.append(mismatch("sc", sc, _ref_sc, o))
    return [m for m in out if m is not None]


# ---- fixed edge cases ---------------------------------------------------------

def _edge_scaled():
    lo = 2.0 ** -256
    under = math.nextafter(lo / math.sqrt(2.0), 0.0)  # |m| just under 2**-256
    out = [SC(1.0), SC(-1.0), SC(0j), SC(0.5 + 0.5j, 40), SC(0.75, -1200),
           SC(complex(1.5 * 2.0 ** 255, 0.0)),  # k = 256, the top of the band
           SC(complex(2.0 ** -257, 2.0 ** -300)),  # k = -256, the bottom
           SC(complex(under, under), 3), SC(complex(lo, -lo)), SC(1.2e8 + 1.2e8j),
           SC(complex(1.0, 5e-324)), SC(complex(-0.0, 1.0)), SC(complex(1.0, -0.0))]
    raw = []  # mantissas that a constructor never leaves, as nan and inf results
    for m in (complex(math.inf, 1.0), complex(math.nan, 0.0), complex(0.0, math.nan)):
        z = object.__new__(SC)
        z.m, z.e = m, 2
        raw.append(z)
    return out + raw


def _edge_operands():
    return [2.0, 0.5, -0.0, 0.0, 0j, complex(0.0, -0.0), complex(-0.0, 1.0),
            complex(ULP_BELOW_TOP, 0.0), complex(TOP, 0.0), complex(2.0 ** -257, 0.0),
            complex(2.0 ** -256.5, 2.0 ** -256.5), complex(BELOW_BOTTOM, BELOW_BOTTOM), 5e-324, complex(5e-324, -5e-324),
            complex(1.0, 5e-324), math.inf, complex(1.0, math.inf), math.nan,
            complex(math.nan, 1.0), 1.2e300, complex(1e300, 1e300), -1.5e308, 3, 0, -7,
            Fraction(1, 3), Fraction(2 ** 300), mpmath.mpf("1.5"), mpmath.mpc(0.25, -2),
            SC(1.0), SC(complex(1.5 * 2.0 ** 255, 0.0)), SC(0.3 - 0.7j, 900),
            SC(0.9, -1099), SC(0.9, 1101), SC(complex(2.0 ** -257, 0.0), 5)]


def test_edge_cases_match_the_constructor():
    assert mismatches(_edge_scaled(), _edge_operands()) == []


def test_the_edge_cases_reach_both_paths():
    """The edges straddle the band, and one product overflows abs()."""
    m = (SC(1.0) * complex(ULP_BELOW_TOP, 0.0)).m
    assert m.real == ULP_BELOW_TOP  # kept: in band
    assert (SC(1.0) * complex(TOP, 0.0)).m == 0.5  # renormalised
    with pytest.raises(OverflowError):
        abs(SC(1.2e8 + 1.2e8j).m * 1.2e300)
    z = SC(1.2e8 + 1.2e8j) * 1.2e300
    assert math.isfinite(z.m.real) and z.e > 900


def test_a_wrong_band_bound_is_detected(monkeypatch):
    """Negative control: a band up to 2**257 keeps a mantissa the constructor
    would rescale, and the comparison above reports it."""
    monkeypatch.setattr(_scaled, "_IN_BAND_HI", 2.0 ** 257)
    found = mismatches(_edge_scaled(), _edge_operands())
    assert found
    assert any(s.startswith("a * o") for s in found)


def test_from_exp_edges():
    for w in (0j, complex(1e5, -3.0), complex(-1e5, 2.0), complex(1e300, 0.5),
              complex(-745.2, 0.0), complex(177.4, math.pi), complex(math.nan, 0.0),
              complex(math.inf, 0.0), complex(0.0, math.inf)):
        assert mismatch("from_exp", SC.from_exp, _ref_from_exp, w) is None


# ---- random operands --------------------------------------------------------

_part = st.one_of(
    st.floats(),  # full range: subnormals, +-0.0, inf and nan included
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-290, 290)),
)
_complex = st.builds(complex, _part, _part)
_scaled_values = st.builds(SC, _complex, st.integers(-1500, 1500))
_operands = st.one_of(
    _scaled_values, _complex, _part, st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9)),
)


@settings(max_examples=400, deadline=None)
@given(_scaled_values, _operands)
def test_operators_match_the_constructor(a, o):
    assert mismatches([a], [o]) == []


@settings(max_examples=200, deadline=None)
@given(st.builds(complex, st.floats(-2e4, 2e4), st.floats(-1e3, 1e3)),
       _scaled_values, st.integers(-400, 400))
def test_from_exp_and_ipow_match_the_constructor(w, a, k):
    assert mismatch("from_exp", SC.from_exp, _ref_from_exp, w) is None
    assert mismatch("ipow", SC.ipow, _ref_ipow, a, k) is None


def test_theta_matches_the_constructor(monkeypatch, draws):
    """theta_scaled's last step; the reference builds its product's
    ScaledComplex with the constructor."""
    cases = [(draws.box(), draws.p()) for _ in range(40)]
    cases += [(SC(draws.box(), 700), 0.3j), (SC(draws.box(), -700), -0.45), (2.0, 0.0)]
    got = [_outcome(lambda a, p: theta.theta_scaled(a, p)[0], a, p) for a, p in cases]
    monkeypatch.setattr(theta, "_mk", SC)
    want = [_outcome(lambda a, p: theta.theta_scaled(a, p)[0], a, p) for a, p in cases]
    assert got == want
