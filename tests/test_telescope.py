import pytest

from ellid.elliptic import QCtx
from ellid.errors import DegenerateDenominator, UnknownTheorem
from ellid.identities import NumericQ, _sumeven_lhs
from ellid.qexact import RationalFn, q_number
from ellid.telescope import TelescopePair, builder, telescope_both_sides


def test_engine_linear():
    pair = TelescopePair(lambda k: complex(k + 1), lambda k: complex(k), "linear")
    lhs, rhs = telescope_both_sides(pair, 4)
    assert lhs == pytest.approx(5)
    assert rhs == pytest.approx(5)


def test_engine_geometric():
    pair = TelescopePair(lambda k: complex(2 ** (k + 1)), lambda k: complex(2**k), "geom")
    lhs, rhs = telescope_both_sides(pair, 3)
    assert lhs == pytest.approx(15)
    assert rhs == pytest.approx(15)


def test_engine_exact_mode():
    # u_k = [k+1]_q, v_k = [k]_q over exact rational functions
    pair = TelescopePair(lambda k: q_number(k + 1), lambda k: q_number(k), "exact")
    lhs, rhs = telescope_both_sides(pair, 5)
    assert isinstance(lhs, RationalFn)
    assert lhs == rhs


def test_engine_degenerate():
    pair = TelescopePair(lambda k: complex(k), lambda k: complex(k), "t0=0")
    with pytest.raises(DegenerateDenominator):
        telescope_both_sides(pair, 3)
    pair = TelescopePair(lambda k: complex(k), lambda k: complex(k - 1), "u0=0")
    with pytest.raises(DegenerateDenominator):
        telescope_both_sides(pair, 3)


def test_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        builder("tel-z", QCtx(0.5))


def test_builder_telc_spec_example():
    # q-specialization with q = 0.5, n = 3: both sides equal [4]_q^2
    pair = builder("tel-c", QCtx(0.5))
    assert pair.u(0).to_complex() == pytest.approx(1)
    assert pair.v(0).to_complex() == pytest.approx(0)
    lhs, rhs = telescope_both_sides(pair, 3)
    assert lhs.to_complex() == pytest.approx(1.875**2)
    assert rhs.to_complex() == pytest.approx(1.875**2)


def test_builder_t_claims(draws):
    # u_k - v_k matches the claimed closed form of t_k
    cases = [("tel-c", lambda: {}),
             ("tel-a", lambda: {"m": draws.rng.randint(0, 3)}),
             ("tel-b", lambda: {"m": draws.rng.randint(1, 3)}),
             ("bigid", lambda: {"c": draws.box(0.1), "d": draws.box(0.1),
                                "g": draws.box(0.1), "h": draws.box(0.1)})]
    for tid, mk in cases:
        worst = 0.0
        for _ in range(200):
            pair = builder(tid, draws.params(), mk())
            k = draws.rng.randint(0, 5)
            u, v, t = pair.u(k), pair.v(k), pair.t_claim(k)
            scale = max(abs(u), abs(v), abs(t))
            worst = max(worst, abs((u - v - t).to_complex()) / scale)
        assert worst <= 1e-9, tid


def test_builder_sides_agree(draws):
    cases = [("tel-c", lambda: {}),
             ("tel-a", lambda: {"m": draws.rng.randint(0, 3)}),
             ("tel-b", lambda: {"m": draws.rng.randint(1, 3)}),
             ("bigid", lambda: {"c": draws.box(0.1), "d": draws.box(0.1),
                                "g": draws.box(0.1), "h": draws.box(0.1)})]
    for tid, mk in cases:
        for _ in range(8):
            pair = builder(tid, draws.params(), mk())
            lhs, rhs = telescope_both_sides(pair, 12)
            d = abs((lhs - rhs).to_complex())
            assert d <= 1e-9 * max(abs(lhs), abs(rhs), 1.0), tid


def test_tela_m1_t_matches_even_sum_term(draws):
    # t_k of the m = 1 builder is the even-sum summand at index k + 1
    for _ in range(40):
        ctx = draws.params()
        pair = builder("tel-a", ctx, {"m": 1})
        for k in range(4):
            t = pair.t_claim(k)
            term = ctx.wt(k) * ctx.num(2, s=k) * ctx.num(k + 1)
            assert abs((t - term).to_complex()) <= 1e-10 * max(abs(t), 1e-30)


def test_bigid_t_at_unit_parameters(draws):
    # with c = d = g = h = 1 in the q-specialization, t_k = [2(k+1)^2][2k+2]
    for _ in range(25):
        q = draws.q()
        pair = builder("bigid", QCtx(q), {"c": 1, "d": 1, "g": 1, "h": 1})
        P = NumericQ(q)
        for k in range(5):
            t = pair.t_claim(k)
            want = P.qn(2 * (k + 1) ** 2) * P.qn(2 * k + 2)
            assert abs((t - want).to_complex()) <= 1e-10 * abs(want)


def test_reindexing_consistency(draws):
    # the lemma's sum for m = 1 at n - 1 is literally the even-number sum at n
    for _ in range(25):
        ctx = draws.params()
        n = draws.rng.randint(1, 8)
        pair = builder("tel-a", ctx, {"m": 1})
        lemma_lhs, _ = telescope_both_sides(pair, n - 1)
        shifted = _sumeven_lhs(ctx, {}, n)
        # with v_k = u_{k-1} the partial products cancel, so the lemma sum is
        # sum_k t_k / t_0 and t_0 times it is the reindexed even-number sum
        t0 = pair.u(0) - pair.v(0)
        assert abs((lemma_lhs * t0 - shifted).to_complex()) <= 1e-9 * max(abs(shifted), 1.0)
