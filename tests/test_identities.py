import dataclasses
import importlib
import re
from fractions import Fraction

import pytest

import ellid.identities
from ellid._scaled import ZERO, ScaledArith, cpow
from ellid.elliptic import (ABQCtx, AQCtx, BQCtx, ClassicalCtx, FullEllipticCtx, QCtx,
                            QInvCtx)
from ellid.errors import (DomainRejected, ModeUnsupported, UnknownEdge,
                          UnknownIdentity)
from ellid.harness import result_record
from ellid.identities import (MODE_EXACT_Q, MODE_EXACT_RATIONAL, MODE_NUMERIC,
                              NumericQ, ThetaEnv, _over, catalog, edges, eval_exact,
                              evaluate, get_edge, get_identity, reduce_chain_check)
from ellid.qexact import ExactArith, ExactQ, LaurentPoly, RationalFn, q_number
from ellid.theta import factorial_scaled, theta_scaled

theta = importlib.import_module("ellid.theta")  # the package re-exports a function theta

REQUIRED_IDS = [
    "geo", "basic-g", "bigid", "bigid-hyper", "sum-cubes", "spc-4i", "spc-4ii",
    "tel-c", "tel-c-ab", "tel-c-a", "tel-c-b", "sp1", "sp2",
    "tel-c-a1", "tel-c-b1", "tel-c-aq", "tel-c-bq",
    "tel-a", "sum-even", "even-abq", "even-aq", "even-bq",
    "triangular", "warnaar-triangular", "warnaar-cubes",
    "even-b1", "even-aqq", "even-bqq",
    "m3rising", "m3rising-aq",
    "tel-b", "indef-1", "e-indef-1", "warnaar-cubes-elliptic", "qodds",
    "cubic-odds", "m00", "spc-1", "spc-2",
]


def test_catalog_contains_required_ids():
    have = {d.id for d in catalog()}
    missing = [i for i in REQUIRED_IDS if i not in have]
    assert not missing, missing


def test_catalog_signatures():
    bigid = get_identity("bigid")
    names = {n for n, _ in bigid.param_signature}
    assert names == {"a", "b", "q", "p", "c", "d", "g", "h"}
    m00 = get_identity("m00")
    names = {n for n, _ in m00.param_signature}
    assert {"q", "r", "s", "p"} <= names
    # all 45 identities are numerically evaluable, so mode "auto" is numeric
    assert len(catalog()) == 45
    assert all(MODE_NUMERIC in d.modes for d in catalog())


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        evaluate("no-such-id", {}, 1)


def test_mode_unsupported():
    with pytest.raises(ModeUnsupported):
        evaluate("bigid", {}, 1, mode=MODE_EXACT_Q)


def test_evaluate_examples():
    res = evaluate("sum-cubes", {}, 3)
    assert res.lhs == 36 and res.rhs == 36 and res.passed

    res = evaluate("bigid-hyper", {"c": 1, "d": 1, "g": 1, "h": 1}, 1)
    assert res.lhs == pytest.approx(9) and res.passed


def test_warnaar_triangular_exact_n3():
    lhs, rhs = eval_exact("warnaar-triangular", 3)
    poly = RationalFn(LaurentPoly.from_dict({0: 1, 1: 1, 2: 2, 3: 1, 4: 1}))
    want = q_number(3) * q_number(4) / q_number(2)
    assert lhs == poly and rhs == poly and lhs == want


def test_numeric_exact_agree_at_q(draws):
    # numeric evaluation at q = 0.37 matches the exact rational value there
    # (the exact side is evaluated in Fraction arithmetic: the unreduced
    # polynomials are too ill-conditioned for a float Horner pass)
    from fractions import Fraction
    q0 = Fraction(37, 100)
    for d in catalog():
        if MODE_EXACT_Q not in d.modes:
            continue
        prm = {"q": float(q0)}
        if d.id == "spc-2":
            prm.update({"c": 2, "d": 1, "g": 3, "h": 1})
        n = 6
        res = evaluate(d.id, prm, n, MODE_NUMERIC)
        lhs, rhs = eval_exact(d.id, n, {k: v for k, v in prm.items() if k != "q"})
        exact_val = float(lhs(q0))
        assert abs(res.lhs - exact_val) <= 1e-12 * max(abs(exact_val), 1.0), d.id
        assert res.passed


def test_every_identity_verifies(draws):
    from ellid.harness import SampleConfig, sample_params
    cfg = SampleConfig(seed=123, trials=1)
    for d in catalog():
        if MODE_NUMERIC not in d.modes:
            continue
        for n in range(d.min_n, d.min_n + 4):
            prm = sample_params(d.id, cfg, 0, n)
            res = evaluate(d.id, prm, n, MODE_NUMERIC)
            assert res.passed, (d.id, n, res.rel_err)


@pytest.mark.parametrize("ident", [d.id for d in catalog()])
def test_perturbation_flips_pass(ident):
    # corrupting one side's evaluator must flip pass to fail
    from ellid.harness import SampleConfig, sample_params
    cfg = SampleConfig(seed=9, trials=1)
    desc = get_identity(ident)
    prm = sample_params(ident, cfg, 0, 3)
    orig = desc.lhs
    bad = dataclasses.replace(
        desc, lhs=lambda env, p, n, _f=orig: _f(env, p, n) * 1.000001)
    assert evaluate(desc, prm, 3).passed
    assert not evaluate(bad, prm, 3).passed


def test_eindef_substitution_identity(draws):
    # (a/bcp; q, p^2)_k / (aq/cp; q, p^2)_k
    #   = b^-k q^-k (bcp/a; 1/q, p^2)_k / (cp/aq; 1/q, p^2)_k
    worst = 0.0
    done = 0
    while done < 60:
        a, b, c = draws.box(0.1), draws.box(0.1), draws.box(0.1)
        q = draws.q()
        p = draws.p(0.5)
        if p == 0:
            continue
        p2 = p * p
        k = draws.rng.randint(0, 8)
        try:
            lhs = (factorial_scaled(a / (b * c * p), q, p2, k)
                   / factorial_scaled(a * q / (c * p), q, p2, k))
            rhs = (cpow(b * q, -k)
                   * factorial_scaled(b * c * p / a, 1 / q, p2, k)
                   / factorial_scaled(c * p / (a * q), 1 / q, p2, k))
        except ZeroDivisionError:
            continue
        done += 1
        d = abs((lhs - rhs).to_complex())
        worst = max(worst, d / max(abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_reduce_chain_examples(draws):
    # p = 0 turns the elliptic indefinite sum literally into the q-form
    res = reduce_chain_check("e-indef-1", "indef-1",
                             {"a": 0.3, "b": 0.2, "q": 0.5}, 4)
    assert res.rel_err <= 1e-12 and res.passed

    res = reduce_chain_check("tel-c-a", "sp1", {"q": 0.5}, 3)
    assert res.rel_err <= 1e-12 and res.passed

    res = reduce_chain_check("spc-2", "spc-4ii", {"q": 0.0}, 2, mode=MODE_EXACT_Q)
    assert res.passed


def test_unknown_edge():
    with pytest.raises(UnknownEdge):
        reduce_chain_check("geo", "m00", {}, 1)


def test_edge_exact_mode_guard():
    with pytest.raises(ModeUnsupported):
        reduce_chain_check("tel-c-a", "sp1", {"q": 0.5}, 3, mode=MODE_EXACT_Q)


def test_all_edges_verify(draws):
    from ellid.harness import SampleConfig, sample_edge_params
    cfg = SampleConfig(seed=77, trials=1)
    for e in edges():
        n = max(e.min_n, 1) + 2
        prm = sample_edge_params(e.parent, e.child, cfg, 0, n)
        res = reduce_chain_check(e.parent, e.child, prm, n)
        assert res.passed, (e.parent, e.child, res.rel_err)


def _times_q(sides):
    """parent_sides with both sides multiplied by q, or by 2 without a q."""

    def mutant(prm, n, field):
        lhs, rhs = sides(prm, n, field)
        if field is ExactQ:
            f = ExactQ().qpow(1)
        elif "q" in prm and not isinstance(lhs, Fraction):
            f = prm["q"]
        else:
            f = 2
        return lhs * f, rhs * f

    return mutant


def test_edge_scale_mutants_fail(monkeypatch):
    # negative control: an edge whose normalization is off by a factor of q
    # must fail at the same draw where the registered edge passes
    from ellid.harness import SampleConfig, _sampled_edge_check
    cfg = SampleConfig(seed=42, trials=1)
    exact_checked = 0
    for e in edges():
        n = e.min_n + 2
        checks = [lambda: _sampled_edge_check(e.parent, e.child, cfg, 0, n)]
        if e.exact_ok:
            checks.append(lambda: reduce_chain_check(e.parent, e.child, {}, n,
                                                     mode=MODE_EXACT_Q))
            exact_checked += 1
        assert all(check().passed for check in checks), (e.parent, e.child)
        monkeypatch.setitem(ellid.identities._EDGES, (e.parent, e.child),
                            dataclasses.replace(e, parent_sides=_times_q(e.parent_sides)))
        assert not any(check().passed for check in checks), (e.parent, e.child)
    assert len(edges()) == 42 and exact_checked == 2


def test_double_field_creates_no_class():
    # every class a catalog or edge builder lists a field over already
    # computes in the double field, so the double path builds it unchanged
    own = (NumericQ, FullEllipticCtx, ABQCtx, AQCtx, BQCtx, QCtx, QInvCtx, ClassicalCtx,
           ThetaEnv)
    assert all(_over(ScaledArith, cls) is cls for cls in own)
    prm = {"a": 0.3, "b": 0.2, "q": 0.5, "p": 0.1}
    assert {type(d.env(prm, ScaledArith)) for d in catalog()} <= {*own, ScaledArith}


def test_edge_least_n_and_exact_support_are_derived():
    # min_n = max(child's, parent's + index shift); exact only where both
    # endpoints have an exact mode and the parent runs over its own evaluators
    assert {(e.parent, e.child) for e in edges() if e.min_n == 1} == {
        ("tel-a", "sum-even"), ("tel-a", "m3rising"), ("spc-2", "spc-4i"),
        ("spc-2", "spc-4ii"), ("e-indef-1", "warnaar-cubes-elliptic"),
        ("warnaar-cubes-elliptic", "warnaar-cubes"), ("indef-1", "qodds")}
    assert all(e.min_n in (0, 1) for e in edges())
    assert {(e.parent, e.child) for e in edges() if e.exact_ok} == {
        ("spc-2", "spc-4i"), ("spc-2", "spc-4ii")}


def test_domain_rejects_poles():
    # a = 1/q puts a zero in the denominator theta of every elliptic number
    with pytest.raises(DomainRejected):
        evaluate("tel-c", {"a": 2.0, "b": 0.3, "q": 0.5, "p": 0.2}, 3)


@pytest.mark.parametrize("ident, params, bad", [
    ("tel-c", {"a": complex("nan"), "b": 0.3, "q": 0.5, "p": 0.2}, r"a=\(nan\+0j\)"),
    ("qodds", {"q": float("nan")}, "q=nan"),
    ("tel-c", {"a": 0.4, "b": 0.3, "q": 0.5, "p": complex(0.1, float("inf"))}, "p=.*inf"),
])
def test_evaluate_rejects_non_finite_parameters(ident, params, bad):
    with pytest.raises(ValueError, match="parameters must be finite, got " + bad):
        evaluate(ident, params, 3)


_TELA = {"a": 0.4, "b": 0.3, "q": 0.5, "p": 0.2}


@pytest.mark.parametrize("check, message", [
    # a missing name, an extra name and a bad integer kind, in each entry
    # point that reads parameters
    (lambda: evaluate("tel-c", {"a": 0.4, "b": 0.3, "q": 0.5}, 3), "tel-c is missing p"),
    (lambda: evaluate("geo", {"q": 0.5, "zz": 1}, 3), "geo has no parameter zz"),
    (lambda: evaluate("tel-a", {**_TELA, "m": -1}, 3),
     "tel-a needs m of kind non-negative-integer, got m = -1"),
    (lambda: evaluate("tel-a", {**_TELA, "m": 2.5}, 3),
     "tel-a needs m of kind non-negative-integer, got m = 2.5"),
    (lambda: reduce_chain_check("tel-c-a", "sp1", {"q": float("nan")}, 3),
     "parameters must be finite, got q=nan"),
    (lambda: reduce_chain_check("tel-c-a", "sp1", {}, 3), "sp1 is missing q"),
    (lambda: eval_exact("spc-2", 3, {}), "spc-2 is missing c, d, g, h"),
])
def test_every_check_shares_one_parameter_rule(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()


def test_exact_modes_may_omit_q_alone():
    prm = {"c": 1, "d": 1, "g": 1, "h": 1}
    assert evaluate("spc-2", prm, 2, MODE_EXACT_Q).passed
    assert evaluate("spc-2", {**prm, "q": 0.5 + 0.1j}, 2).passed
    with pytest.raises(ValueError, match="spc-2 is missing q"):
        evaluate("spc-2", prm, 2)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1.0, -1.0, 2.0, float("inf")])
def test_checks_reject_tol_outside_unit_interval(tol):
    # run_suite's and `ellid verify`'s rule holds in the library too: at
    # tol = 2.0 this geo mutant (rel_err 1/3) would pass, and at nan any
    # check would fail
    geo = get_identity("geo")
    bad = dataclasses.replace(geo, rhs=lambda env, p, n: geo.rhs(env, p, n) * 1.5)
    assert not evaluate(bad, {"q": 0.5}, 3).passed
    checks = [lambda: evaluate(bad, {"q": 0.5}, 3, tol=tol),
              lambda: reduce_chain_check("basic-g", "geo", {"q": 0.5}, 3, tol=tol)]
    for check in checks:
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, 1), got {tol}")):
            check()


def test_n_below_range_is_a_value_error_with_the_samplers_message():
    # no redraw can fix n, so it is not DomainRejected; the library and the
    # sampler state the rule once
    from ellid.harness import SampleConfig, sample_edge_params, sample_params
    cfg = SampleConfig(seed=0, trials=1)
    prm = {"c": 0.5, "q": 0.6, "p": 0.2}
    cases = [(lambda: evaluate("warnaar-cubes-elliptic", prm, 0),
              lambda: sample_params("warnaar-cubes-elliptic", cfg, 0, 0),
              "warnaar-cubes-elliptic needs n >= 1, got 0"),
             (lambda: reduce_chain_check("e-indef-1", "warnaar-cubes-elliptic", prm, 0),
              lambda: sample_edge_params("e-indef-1", "warnaar-cubes-elliptic", cfg, 0, 0),
              "e-indef-1->warnaar-cubes-elliptic needs n >= 1, got 0"),
             (lambda: eval_exact("geo", -1), lambda: sample_params("geo", cfg, 0, -1),
              "geo needs n >= 0, got -1")]
    for library, sampler, message in cases:
        for check in (library, sampler):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == message


_THETA_POLE = "denominator theta factor within 1e-06 of zero"
_INDEF1_POLE = {"a": 2.0, "b": 0.5, "q": 0.5}


@pytest.mark.parametrize("reject, message", [
    # a q = 1 zeroes the denominator theta(a q) of W(k)
    (lambda: FullEllipticCtx(2.0, 0.3, 0.5, 0.2).wt(1), _THETA_POLE),
    # b q^(k+1) = 1 zeroes the closed form's 1 - b q^(k+1)
    (lambda: BQCtx(4.0, 0.5).wt(1), "denominator within pole tolerance of zero"),
    # (a; b)_{-1} = 1 / (1 - a / b)
    (lambda: factorial_scaled(0.5, 0.5, 0, -1), _THETA_POLE),
    (lambda: ExactQ().qn_den(0), r"\[0\]_q denominator"),
    # a d = 1 zeroes theta(a d; p) in the denominator of every m00 term
    (lambda: evaluate("m00", {"a": 2.0, "b": 0.7, "c": 0.6, "d": 0.5, "q": 0.5,
                              "r": 0.25, "s": 0.125, "p": 0.2}, 2), _THETA_POLE),
    # a q / b * q = 1 zeroes the second step of the running factorial
    # (a q / b; q)_k in the denominator of indef-1, in its sum and in its RHS
    (lambda: evaluate("indef-1", _INDEF1_POLE, 3), _THETA_POLE),
    (lambda: get_identity("indef-1").rhs(ThetaEnv(), _INDEF1_POLE, 3), _THETA_POLE),
])
def test_every_pole_test_raises_domain_rejected(reject, message):
    with pytest.raises(DomainRejected, match=message):
        reject()


def test_exact_q_result_sides_are_cross_products():
    res = evaluate("geo", {}, 2, MODE_EXACT_Q)
    lhs, rhs = eval_exact("geo", 2)
    assert isinstance(res.lhs, LaurentPoly) and isinstance(res.rhs, LaurentPoly)
    assert res.lhs == lhs.num * rhs.den and res.rhs == rhs.num * lhs.den
    rec = result_record(res)
    # (1 + q) * (1 - q) and (1 - q^2) * 1
    assert rec["lhs"] == rec["rhs"] == {"0": "1", "2": "-1"}
    assert rec["pass"] and rec["rel_err"] == 0.0


def test_edge_fails_on_parent_rhs_alone(monkeypatch):
    # the parent's LHS still equals the child's, so only the comparison of
    # the RHS pair can catch the perturbation
    edge = get_edge("spc-2", "spc-4i")

    def rhs_times_q(prm, n, field):
        lhs, rhs = edge.parent_sides(prm, n, field)
        return lhs, rhs * (ExactQ().qpow(1) if field is ExactQ else prm["q"])

    checks = [lambda: reduce_chain_check("spc-2", "spc-4i", {"q": 0.6 + 0.2j}, 4),
              lambda: reduce_chain_check("spc-2", "spc-4i", {}, 4, mode=MODE_EXACT_Q)]
    assert all(check().passed for check in checks)
    monkeypatch.setitem(ellid.identities._EDGES, ("spc-2", "spc-4i"),
                        dataclasses.replace(edge, parent_sides=rhs_times_q))
    numeric, exact = (check() for check in checks)
    assert not numeric.passed and numeric.lhs == pytest.approx(numeric.rhs)
    assert not exact.passed and exact.lhs == exact.rhs


def test_exact_domain_rejects_degenerate_integers():
    # the exact evaluation is the test: [2cd]_q and c h + d g = 0 are poles
    with pytest.raises(DomainRejected, match=r"\[0\]_q denominator"):
        evaluate("spc-2", {"c": 0, "d": 1, "g": 1, "h": 1}, 2, MODE_EXACT_Q)
    with pytest.raises(DomainRejected, match="vanishing denominator"):
        evaluate("bigid-hyper", {"c": 1, "d": 2, "g": 0, "h": 0}, 2,
                 MODE_EXACT_RATIONAL)


def test_indefinite_sums_test_only_the_factors_they_read(monkeypatch):
    # (a q / b; q)_2 vanishes at _INDEF1_POLE, but the n = 1 sum and its RHS
    # read (a q / b; q)_k for k <= 1 only
    assert evaluate("indef-1", _INDEF1_POLE, 1).passed
    calls = []

    def counted(x, p):
        calls.append(x)
        return theta_scaled(x, p)

    # n = 3: 8 running factorials step 3 times each (24 thetas), plus 4 top
    # thetas and den0, less 3 memo hits (theta(a) twice, theta(a q^2) once)
    monkeypatch.setattr(theta, "theta_scaled", counted)
    prm = {"a": 0.3 + 0.2j, "b": 0.7, "c": 0.6 - 0.1j, "q": 0.5 + 0.1j, "p": 0.2}
    get_identity("ft-indef").lhs(ThetaEnv(), prm, 3)
    assert len(calls) == 26


def test_sum_guards_cancellation_only_in_double():
    # 1e6 - 1e6 + 0.5 cancels by 2e6 > COND_LIMIT = 1e5: the double sum
    # rejects the draw, the exact sum keeps every digit
    with pytest.raises(DomainRejected, match="cancellation"):
        ScaledArith().sum((1e6, -1e6 + 0.5))
    exact = ExactArith()
    assert exact.sum((Fraction(10**6), Fraction(-10**6) + Fraction(1, 2))) == Fraction(1, 2)
    assert exact.sum(()) is exact.zero
    assert ScaledArith().sum(()) is ZERO


def test_exact_env_pow():
    P = ExactQ()
    assert P.pow(P.qpow(1), -2) == P.qpow(-2) and P.pow(P.qpow(3), 0) == P.one
    assert ExactArith().pow(Fraction(2, 3), -2) == Fraction(9, 4)


def test_full_elliptic_sides_memoise_theta(monkeypatch):
    # evaluate builds one environment per check, which both sides share, and
    # an edge check two (the parent's and the child's); within each, no
    # theta argument is computed twice
    from ellid.harness import SampleConfig, sample_edge_params, sample_params
    sample_cfg = SampleConfig(seed=42, trials=1)
    pinned = {"tel-a": {"m": 2}, "tel-b": {"m": 2}}
    ids = ["tel-c", "tel-a", "tel-b", "sum-even", "m3rising", "basic-g", "bigid"]
    draws = {i: sample_params(i, sample_cfg, 0, 4, fixed=pinned.get(i)) for i in ids}
    edge_prm = sample_edge_params("tel-a", "m3rising", sample_cfg, 0, 4)

    envs = []  # the theta arguments of each environment built, in order

    def record(x, p):
        envs[-1].append((x.e, repr(x.m), repr(p)))
        return theta_scaled(x, p)

    def counted_env(ident):
        desc = get_identity(ident)

        def env(prm, field):
            envs.append([])
            return desc.env(prm, field)

        monkeypatch.setitem(ellid.identities._CATALOG, ident,
                            dataclasses.replace(desc, env=env))

    monkeypatch.setattr(theta, "theta_scaled", record)
    for ident in ids:
        counted_env(ident)
        envs.clear()
        assert evaluate(ident, draws[ident], 4).passed, ident
        assert len(envs) == 1, ident
        keys = envs[0]
        assert keys and len(set(keys)) == len(keys), ident

    # the edge's parent sides take the (wrapped) parent's env
    edge = ellid.identities._build_edges()[("tel-a", "m3rising")]
    monkeypatch.setitem(ellid.identities._EDGES, ("tel-a", "m3rising"), edge)
    envs.clear()
    assert reduce_chain_check("tel-a", "m3rising", edge_prm, 4).passed
    assert len(envs) == 2  # the parent's and the child's
    for keys in envs:
        assert keys and len(set(keys)) == len(keys)
