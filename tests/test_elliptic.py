import cmath

import pytest

from ellid._scaled import ScaledComplex, cpow, sc
from ellid.elliptic import (ABQCtx, AQCtx, BQCtx, FullEllipticCtx, QCtx,
                            ThetaEnv, _quad_rel_terms, quad_rel_residual)
from ellid.errors import DomainRejected
from ellid.theta import theta_scaled


def test_params_validate():
    with pytest.raises(ValueError):
        FullEllipticCtx(1, 1, 2, 1.0)     # |p| >= 1
    with pytest.raises(ValueError):
        FullEllipticCtx(1, 1, 0, 0.1)     # q = 0
    with pytest.raises(ValueError):
        FullEllipticCtx(0, 1, 2, 0.1)     # a = 0 with p != 0
    FullEllipticCtx(0, 1, 2, 0)           # fine at p = 0
    for make in (lambda: ABQCtx(1, 1, 0), lambda: AQCtx(1, 0),
                 lambda: BQCtx(1, 0), lambda: QCtx(0)):
        with pytest.raises(ValueError):
            make()                        # q = 0 in a closed form
    with pytest.raises(ValueError):
        ABQCtx(1, 0, 0.5)                 # b = 0: the closed form divides by b
    ABQCtx(0, 1, 0.5)                     # a = 0 is a legal point


def test_theta_memo_keeps_signed_zeros_apart():
    # complex(-3, 0.0) == complex(-3, -0.0), but theta_scaled puts them on
    # either side of the logarithm's branch cut; the memo must not mix them
    ctx = FullEllipticCtx(1, 1, 2, 0.3)
    pos = ctx.theta(sc(complex(-3, 0.0)), 0.3)
    val = ctx.theta(sc(complex(-3, -0.0)), 0.3)
    ref, _ = theta_scaled(complex(-3, -0.0), 0.3)
    assert (val.e, repr(val.m)) == (ref.e, repr(ref.m))
    assert repr(val.m) != repr(pos.m)


def test_theta_memo_keys_the_nome():
    # one theta-family environment is asked at p, p^2 and 0: each nome gets
    # its own value, whichever was asked first
    p = 0.3 + 0.2j
    x = sc(0.7 - 0.4j)
    env = ThetaEnv()
    got = [env.theta(x, nome) for nome in (p, p * p, 0, p)]
    want = [theta_scaled(x, nome)[0] for nome in (p, p * p, 0, p)]
    assert [(v.e, repr(v.m)) for v in got] == [(v.e, repr(v.m)) for v in want]
    assert len({repr(v.m) for v in got}) == 3


def test_number_examples():
    assert complex(QCtx(2).num(0)) == 0
    assert complex(QCtx(2).num(1)) == 1
    assert complex(QCtx(2).num(3)) == pytest.approx(7)
    assert complex(AQCtx(1, 2).num(2)) == pytest.approx(4.5)


def test_weight_examples():
    assert complex(QCtx(2).wt(0)) == pytest.approx(1)
    assert complex(QCtx(2).wt(3)) == pytest.approx(8)
    assert complex(AQCtx(1, 2).wt(1)) == pytest.approx(3.5)


def test_number_zero_one_full(draws):
    for _ in range(25):
        ctx = draws.params()
        assert abs(complex(ctx.num(0))) <= 1e-12
        assert complex(ctx.num(1)) == pytest.approx(1, abs=1e-11)
        assert complex(ctx.wt(0)) == pytest.approx(1, abs=1e-11)


def test_pole_proximity():
    # a q = 1 puts a zero in the denominator theta of [z]
    with pytest.raises(DomainRejected, match="denominator theta factor within 1e-06 of zero"):
        FullEllipticCtx(2.0, 0.3, 0.5, 0.2).num(0.7)


def test_recurrence(draws):
    # [x+y] = [x] + W(x) [y]_{shifted by x}
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        x, y = draws.box(0.1), draws.box(0.1)
        lhs = ctx.num(x + y)
        rhs = ctx.num(x) + ctx.wt(x) * ctx.num(y, s=x)
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1.0))
    assert worst <= 1e-9


def test_weight_composition(draws):
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        k, l = draws.box(0.1), draws.box(0.1)
        lhs = ctx.wt(k + l)
        rhs = ctx.wt(k) * ctx.wt(l, s=k)
        worst = max(worst, abs((lhs - rhs).to_complex()) / abs(lhs))
    assert worst <= 1e-10


def test_weight_inverse(draws):
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        k = draws.box(0.1)
        lhs = ctx.wt(-k)
        rhs = 1.0 / ctx.wt(k, s=-k)
        worst = max(worst, abs((lhs - rhs).to_complex()) / abs(lhs))
    assert worst <= 1e-10


def test_negation(draws):
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        x = draws.box(0.1)
        lhs = ctx.num(-x)
        rhs = -(ctx.wt(-x) * ctx.num(x, s=-x))
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_multiplicativity(draws):
    # [xy]_{a,b;q,p} = [x]_{a,b;q,p} [y]_{a, b q^(1-x); q^x, p};
    # the inner context takes (q^x)^z as exp(z x Log q), so exponents
    # compose instead of passing through the principal branch of q^x
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        x, y = draws.box(0.1), draws.box(0.1)
        logq = cmath.log(ctx.q)
        inner = FullEllipticCtx(ctx.a, ctx.b * cmath.exp((1 - x) * logq),
                                cmath.exp(x * logq), ctx.p)
        inner.qpow = lambda z, w=x * logq: ScaledComplex.from_exp(complex(z) * w)
        lhs = ctx.num(x * y)
        rhs = ctx.num(x) * inner.num(y)
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-9


def test_quad_rel_examples(draws):
    ctx = draws.params()
    assert abs(quad_rel_residual(0.7, 0.3, 0, ctx)) <= 1e-13

    ctx = FullEllipticCtx(0.4 + 0.2j, 0.9, 0.8 + 0.1j, 0.3)
    t1, t2, t3 = _quad_rel_terms(0.7, 0.3, 0.2, ctx)
    scale = max(abs(t1), abs(t2), abs(t3))
    assert abs((t1 - t2 - t3).to_complex()) <= 1e-9 * scale

    ctx = draws.params()
    x = draws.box(0.1)
    t1, t2, t3 = _quad_rel_terms(x, x, 1, ctx)
    scale = max(abs(t1), abs(t2), abs(t3))
    assert abs((t1 - t2 - t3).to_complex()) <= 1e-9 * scale


def test_quad_rel_random(draws):
    worst = 0.0
    for _ in range(500):
        ctx = draws.params()
        x, y, r = draws.box(0.1), draws.box(0.1), draws.box(0.1)
        t1, t2, t3 = _quad_rel_terms(x, y, r, ctx)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs((t1 - t2 - t3).to_complex()) / scale)
    assert worst <= 1e-9


def test_nome_shift_ellipticity(draws):
    # replacing q^z by p q^z in all four defining slots leaves [z] unchanged
    worst = 0.0
    trials = 0
    while trials < 200:
        ctx = draws.params()
        if ctx.p == 0:
            continue
        trials += 1
        z = draws.box(0.1)
        v1 = ctx.num(z)
        v2 = ctx.num_from_power(sc(ctx.p) * cpow(ctx.q, z))
        worst = max(worst, abs((v1 - v2).to_complex()) / max(abs(v1), 1e-30))
    assert worst <= 1e-9


def test_specialization_coherence(draws):
    # full-elliptic at p = 0 equals the abq closed form
    for _ in range(200):
        a, b, q = draws.box(0.1), draws.box(0.1), draws.q()
        z = draws.box(0.1)
        full, abq = FullEllipticCtx(a, b, q, 0), ABQCtx(a, b, q)
        v1 = complex(full.num(z))
        v2 = complex(abq.num(z))
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        w1 = complex(full.wt(z))
        w2 = complex(abq.wt(z))
        assert abs(w1 - w2) <= 1e-12 * max(abs(w1), 1.0)


def test_limit_coherence_loose(draws):
    # abq at b = 1e-8 approaches the aq closed form (limit check only)
    for _ in range(200):
        a, q, z = draws.box(0.1), draws.q(), draws.box(0.1)
        v1 = complex(ABQCtx(a, 1e-8, q).num(z))
        v2 = complex(AQCtx(a, q).num(z))
        assert abs(v1 - v2) <= 1e-5 * max(abs(v2), 1.0)


def test_bq_specialization_form(draws):
    # (b;q)-number written out: (1-q^z)(1-bq^2) / ((1-q)(1-bq^(z+1)))
    for _ in range(50):
        b, q, z = draws.box(0.1), draws.q(), draws.box(0.1)
        got = complex(BQCtx(b, q).num(z))
        qz = cmath.exp(z * cmath.log(q))
        want = (1 - qz) * (1 - b * q * q) / ((1 - q) * (1 - b * qz * q))
        assert got == pytest.approx(want, rel=1e-12)


def test_weight_specialization_forms(draws):
    for _ in range(50):
        a, b, q, k = draws.box(0.1), draws.box(0.1), draws.q(), draws.box(0.1)
        qk = cmath.exp(k * cmath.log(q))
        got = complex(AQCtx(a, q).wt(k))
        want = (1 - a * qk * qk * q) / (1 - a * q) / qk
        assert got == pytest.approx(want, rel=1e-12)
        got = complex(BQCtx(b, q).wt(k))
        want = ((1 - b * q) * (1 - b * q * q)
                / ((1 - b * qk * q) * (1 - b * qk * q * q)) * qk)
        assert got == pytest.approx(want, rel=1e-12)
