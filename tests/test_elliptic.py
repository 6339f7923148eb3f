import cmath

import pytest

from ellid._scaled import cpow, sc
from ellid.elliptic import (ABQ, AQ, BQ, FULL_ELLIPTIC, Q, EllipticParams,
                            FullEllipticCtx, Specialization, _quad_rel_terms,
                            elliptic_factorial, elliptic_number,
                            elliptic_weight, make_context, quad_rel_residual)
from ellid.errors import PoleProximity

P2 = EllipticParams(a=1, b=1, q=2, p=0)


def test_params_validate():
    with pytest.raises(ValueError):
        EllipticParams(1, 1, 2, 1.0)      # |p| >= 1
    with pytest.raises(ValueError):
        EllipticParams(1, 1, 0, 0.1)      # q = 0
    with pytest.raises(ValueError):
        EllipticParams(0, 1, 2, 0.1)      # a = 0 with p != 0
    EllipticParams(0, 1, 2, 0)            # fine at p = 0


def test_specialization_tags():
    assert Specialization("aq") == AQ
    with pytest.raises(ValueError):
        Specialization("nope")


def test_number_examples():
    assert elliptic_number(0, P2, Q) == 0
    assert elliptic_number(1, P2, Q) == 1
    assert elliptic_number(3, P2, Q) == pytest.approx(7)
    assert elliptic_number(2, P2, AQ) == pytest.approx(4.5)


def test_weight_examples():
    assert elliptic_weight(0, P2, Q) == pytest.approx(1)
    assert elliptic_weight(3, P2, Q) == pytest.approx(8)
    assert elliptic_weight(1, P2, AQ) == pytest.approx(3.5)


def test_factorial_examples():
    assert elliptic_factorial(0, P2, Q) == 1
    assert elliptic_factorial(1, P2, Q) == pytest.approx(1)
    assert elliptic_factorial(3, P2, Q) == pytest.approx(21)
    with pytest.raises(ValueError):
        elliptic_factorial(-1, P2, Q)


def test_number_zero_one_full(draws):
    for _ in range(25):
        pr = draws.params()
        assert abs(elliptic_number(0, pr)) <= 1e-12
        assert elliptic_number(1, pr) == pytest.approx(1, abs=1e-11)
        assert elliptic_weight(0, pr) == pytest.approx(1, abs=1e-11)


def test_pole_proximity():
    # a q = 1 puts a zero in the denominator theta of [z]
    pr = EllipticParams(2.0, 0.3, 0.5, 0.2)
    with pytest.raises(PoleProximity):
        elliptic_number(0.7, pr)


def test_recurrence(draws):
    # [x+y] = [x] + W(x) [y]_{shifted by x}
    worst = 0.0
    for _ in range(500):
        pr = draws.params()
        x, y = draws.box(0.1), draws.box(0.1)
        ctx = make_context(pr)
        lhs = ctx.num(x + y)
        rhs = ctx.num(x) + ctx.wt(x) * ctx.num(y, s=x)
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1.0))
    assert worst <= 1e-9


def test_weight_composition(draws):
    worst = 0.0
    for _ in range(500):
        ctx = make_context(draws.params())
        k, l = draws.box(0.1), draws.box(0.1)
        lhs = ctx.wt(k + l)
        rhs = ctx.wt(k) * ctx.wt(l, s=k)
        worst = max(worst, abs((lhs - rhs).to_complex()) / abs(lhs))
    assert worst <= 1e-10


def test_weight_inverse(draws):
    worst = 0.0
    for _ in range(500):
        ctx = make_context(draws.params())
        k = draws.box(0.1)
        lhs = ctx.wt(-k)
        rhs = 1.0 / ctx.wt(k, s=-k)
        worst = max(worst, abs((lhs - rhs).to_complex()) / abs(lhs))
    assert worst <= 1e-10


def test_negation(draws):
    worst = 0.0
    for _ in range(500):
        ctx = make_context(draws.params())
        x = draws.box(0.1)
        lhs = ctx.num(-x)
        rhs = -(ctx.wt(-x) * ctx.num(x, s=-x))
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_multiplicativity(draws):
    # [xy]_{a,b;q,p} = [x]_{a,b;q,p} [y]_{a, b q^(1-x); q^x, p};
    # the inner base q^x carries log x * Log q so exponents compose
    worst = 0.0
    for _ in range(500):
        pr = draws.params()
        x, y = draws.box(0.1), draws.box(0.1)
        ctx = make_context(pr)
        logq = cmath.log(pr.q)
        inner = FullEllipticCtx(pr.a, pr.b * cmath.exp((1 - x) * logq),
                                cmath.exp(x * logq), pr.p, logq=x * logq)
        lhs = ctx.num(x * y)
        rhs = ctx.num(x) * inner.num(y)
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-9


def test_quad_rel_examples(draws):
    pr = draws.params()
    assert abs(quad_rel_residual(0.7, 0.3, 0, pr)) <= 1e-13

    pr = EllipticParams(0.4 + 0.2j, 0.9, 0.8 + 0.1j, 0.3)
    t1, t2, t3 = _quad_rel_terms(0.7, 0.3, 0.2, pr)
    scale = max(abs(t1), abs(t2), abs(t3))
    assert abs((t1 - t2 - t3).to_complex()) <= 1e-9 * scale

    pr = draws.params()
    x = draws.box(0.1)
    t1, t2, t3 = _quad_rel_terms(x, x, 1, pr)
    scale = max(abs(t1), abs(t2), abs(t3))
    assert abs((t1 - t2 - t3).to_complex()) <= 1e-9 * scale


def test_quad_rel_random(draws):
    worst = 0.0
    for _ in range(500):
        pr = draws.params()
        x, y, r = draws.box(0.1), draws.box(0.1), draws.box(0.1)
        t1, t2, t3 = _quad_rel_terms(x, y, r, pr)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs((t1 - t2 - t3).to_complex()) / scale)
    assert worst <= 1e-9


def test_nome_shift_ellipticity(draws):
    # replacing q^z by p q^z in all four defining slots leaves [z] unchanged
    worst = 0.0
    trials = 0
    while trials < 200:
        pr = draws.params()
        if pr.p == 0:
            continue
        trials += 1
        ctx = make_context(pr)
        z = draws.box(0.1)
        v1 = ctx.num(z)
        v2 = ctx.num_from_power(sc(pr.p) * cpow(pr.q, z))
        worst = max(worst, abs((v1 - v2).to_complex()) / max(abs(v1), 1e-30))
    assert worst <= 1e-9


def test_specialization_coherence(draws):
    # full-elliptic at p = 0 equals the abq closed form
    for _ in range(200):
        a, b, q = draws.box(0.1), draws.box(0.1), draws.q()
        z = draws.box(0.1)
        pr = EllipticParams(a, b, q, 0)
        v1 = elliptic_number(z, pr, FULL_ELLIPTIC)
        v2 = elliptic_number(z, pr, ABQ)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        w1 = elliptic_weight(z, pr, FULL_ELLIPTIC)
        w2 = elliptic_weight(z, pr, ABQ)
        assert abs(w1 - w2) <= 1e-12 * max(abs(w1), 1.0)


def test_limit_coherence_loose(draws):
    # abq at b = 1e-8 approaches the aq closed form (limit check only)
    for _ in range(200):
        a, q, z = draws.box(0.1), draws.q(), draws.box(0.1)
        v1 = elliptic_number(z, EllipticParams(a, 1e-8, q, 0), ABQ)
        v2 = elliptic_number(z, EllipticParams(a, 1.0, q, 0), AQ)
        assert abs(v1 - v2) <= 1e-5 * max(abs(v2), 1.0)


def test_bq_specialization_form(draws):
    # (b;q)-number written out: (1-q^z)(1-bq^2) / ((1-q)(1-bq^(z+1)))
    for _ in range(50):
        b, q, z = draws.box(0.1), draws.q(), draws.box(0.1)
        got = elliptic_number(z, EllipticParams(1, b, q, 0), BQ)
        qz = cmath.exp(z * cmath.log(q))
        want = (1 - qz) * (1 - b * q * q) / ((1 - q) * (1 - b * qz * q))
        assert got == pytest.approx(want, rel=1e-12)


def test_weight_specialization_forms(draws):
    for _ in range(50):
        a, b, q, k = draws.box(0.1), draws.box(0.1), draws.q(), draws.box(0.1)
        qk = cmath.exp(k * cmath.log(q))
        got = elliptic_weight(k, EllipticParams(a, 1, q, 0), AQ)
        want = (1 - a * qk * qk * q) / (1 - a * q) / qk
        assert got == pytest.approx(want, rel=1e-12)
        got = elliptic_weight(k, EllipticParams(1, b, q, 0), BQ)
        want = ((1 - b * q) * (1 - b * q * q)
                / ((1 - b * qk * q) * (1 - b * qk * q * q)) * qk)
        assert got == pytest.approx(want, rel=1e-12)
