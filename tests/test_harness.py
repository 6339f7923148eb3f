import json

import pytest

import ellid.harness
from ellid.errors import DomainRejected, ResamplingExhausted
from ellid.harness import (DEFAULT_TOL, EDGE_TOL, P_RADIUS, SampleConfig,
                           SuiteReport, _CounterRng, _draw_exact,
                           result_record, run_suite, sample_edge_params,
                           sample_params)
from ellid.identities import (MODE_EXACT_Q, MODE_NUMERIC, edges, evaluate,
                              get_identity, reduce_chain_check)
from ellid.theta import truncation_terms


def test_sample_determinism():
    cfg = SampleConfig(seed=42, trials=10)
    p1 = sample_params("bigid", cfg, 3, 5)
    p2 = sample_params("bigid", cfg, 3, 5)
    assert p1 == p2
    # a different trial index gives a different draw
    p3 = sample_params("bigid", cfg, 4, 5)
    assert p3 != p1


def test_sample_respects_domain():
    # an accepted draw evaluates without pole rejection at the same n
    cfg = SampleConfig(seed=0, trials=1)
    prm = sample_params("bigid", cfg, 0, 4)
    res = evaluate("bigid", prm, 4)   # would raise DomainRejected on a pole
    assert res.passed


def test_sample_q_annulus_and_box():
    cfg = SampleConfig(seed=5, trials=1)
    for trial in range(20):
        prm = sample_params("bigid", cfg, trial, 2)
        assert 0.3 <= abs(prm["q"]) <= 0.9
        assert abs(prm["p"]) <= 0.5
        for name in ("a", "b", "c", "d", "g", "h"):
            z = prm[name]
            assert abs(z) >= 0.05
            assert -1 <= z.real <= 1 and -1 <= z.imag <= 1


def test_sample_params_rejects_non_finite_fixed_values():
    cfg = SampleConfig(seed=5, trials=1)
    with pytest.raises(ValueError, match="parameters must be finite, got b=inf"):
        sample_params("tel-c", cfg, 0, 3, fixed={"b": float("inf")})


def test_m00_bases_distinct():
    cfg = SampleConfig(seed=2, trials=1)
    prm = sample_params("m00", cfg, 0, 3)
    q, r, s = prm["q"], prm["r"], prm["s"]
    assert r == q**2 and s == q**3
    assert q != r and r != s and q != s


def test_integer_kind_sets_least_m():
    # tel-a's m is a non-negative integer, tel-b's a positive one
    cfg = SampleConfig(seed=42, trials=1)
    ms = {ident: {sample_params(ident, cfg, trial, 2)["m"] for trial in range(20)}
          for ident in ("tel-a", "tel-b")}
    assert 0 in ms["tel-a"] and 0 not in ms["tel-b"]


def test_edge_draws_only_the_childs_parameters():
    # the parent is evaluated in the child's limit, at the child's parameters
    cfg = SampleConfig(seed=42, trials=1)
    for e in edges():
        prm = sample_edge_params(e.parent, e.child, cfg, 0, e.min_n)
        names = [name for name, _ in get_identity(e.child).param_signature]
        assert list(prm) == names, (e.parent, e.child)


def test_resampling_exhausted(monkeypatch):
    monkeypatch.setattr(ellid.harness, "MAX_RESAMPLES", 5)
    cfg = SampleConfig(seed=3, trials=1)
    # a = b makes the weight denominator vanish at k = 1 for every draw
    with pytest.raises(ResamplingExhausted):
        sample_params("tel-c", cfg, 0, 3,
                      fixed={"a": 1.0 + 0j, "b": 1.0 + 0j})


def test_run_suite_counts():
    rep = run_suite(["geo"], 5, SampleConfig(seed=7, trials=10))
    # 6 n-values x 10 numeric trials + 6 exact sidecars
    assert len(rep.results) == 66
    numeric = [r for r in rep.results if r["mode"] == "numeric-elliptic"]
    exact = [r for r in rep.results if r["mode"] == "exact-q"]
    assert len(numeric) == 60 and len(exact) == 6
    assert rep.all_passed
    assert rep.summary["geo"]["trials"] == 66
    assert rep.summary["geo"]["failures"] == 0


def test_report_round_trip():
    rep = run_suite(["qodds", "sum-cubes"], 3, SampleConfig(seed=11, trials=4))
    blob = rep.to_json()
    rep2 = SuiteReport.from_json(blob)
    assert rep2.to_json() == blob
    # schema shape
    rec = rep.results[0]
    assert set(rec) >= {"id", "mode", "n", "trial", "lhs", "rhs",
                        "abs_err", "rel_err", "pass", "params"}
    numeric = [r for r in rep.results if r["mode"] == "numeric-elliptic"][0]
    assert isinstance(numeric["lhs"], list) and len(numeric["lhs"]) == 2
    exact = [r for r in rep.results if r["mode"].startswith("exact")][0]
    assert isinstance(exact["lhs"], dict)
    # exact coefficient maps are equal exactly when the identity holds
    assert exact["lhs"] == exact["rhs"]


def test_report_determinism():
    cfg = SampleConfig(seed=42, trials=3)
    a = run_suite(["tel-c", "warnaar-cubes"], 3, cfg).to_dict()
    b = run_suite(["tel-c", "warnaar-cubes"], 3, cfg).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a) == json.dumps(b)


def test_edge_sampling_deterministic():
    cfg = SampleConfig(seed=4, trials=1)
    p1 = sample_edge_params("spc-1", "spc-2", cfg, 0, 4)
    p2 = sample_edge_params("spc-1", "spc-2", cfg, 0, 4)
    assert p1 == p2


def test_suite_with_edges():
    rep = run_suite(["geo"], 2, SampleConfig(seed=6, trials=2), include_edges=True)
    edge_records = [r for r in rep.results if "->" in r["id"]]
    assert edge_records
    assert all(r["pass"] for r in edge_records)


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=0, trials=0)


def test_run_suite_rejects_bad_config_before_any_draw(monkeypatch):
    def no_draws(*args, **kw):
        raise AssertionError("a check was drawn")

    monkeypatch.setattr(ellid.harness, "_first_admissible", no_draws)
    cfg = SampleConfig(seed=1, trials=3)
    for tol in (-1.0, 0.0, float("nan"), 1e300, float("inf")):
        with pytest.raises(ValueError, match="tol must lie in"):
            run_suite(["basic-g"], 3, cfg, tol=tol)


def test_run_suite_default_theta_terms_suffice():
    # the sampled nome box needs at most 50 theta terms, under theta.MAX_TERMS
    assert truncation_terms(P_RADIUS, P_RADIUS) == 50
    rep = run_suite(["basic-g"], 3, SampleConfig(seed=1, trials=3))
    assert rep.all_passed and len(rep.results) == 12
    assert rep.config["theta"] == {"max_terms": 512, "tail_tol": 1e-14}


def test_n_below_range_rejected_before_any_draw(monkeypatch):
    def no_draws(*args, **kw):
        raise AssertionError("a check was drawn")

    monkeypatch.setattr(ellid.harness, "_first_admissible", no_draws)
    cfg = SampleConfig(seed=0, trials=1)
    with pytest.raises(ValueError, match="geo needs n >= 0"):
        sample_params("geo", cfg, 0, -1)
    with pytest.raises(ValueError, match="needs n >= 1"):
        sample_edge_params("spc-2", "spc-4i", cfg, 0, 0)


def test_summary_is_derived_from_results():
    rep = run_suite(["geo"], 1, SampleConfig(seed=2, trials=2))
    rec = dict(rep.results[0], **{"pass": False, "rel_err": 0.5})
    rep.results.append(rec)
    assert rep.summary["geo"] == {"trials": 7, "failures": 1, "max_rel_err": 0.5}


def test_run_suite_exact_depth():
    # one exact check per n: 26 exact passes for n in [0, 25]
    rep = run_suite(["warnaar-cubes"], 25, SampleConfig(seed=8, trials=1))
    exact = [r for r in rep.results if r["mode"] == "exact-q"]
    assert len(exact) == 26
    assert all(r["pass"] for r in exact)


def test_suite_records_equal_two_step_checks():
    # each reported check is the sampler's accepted evaluation; it must equal
    # a fresh evaluation of the sampled parameters with the suite's tolerance
    cfg = SampleConfig(seed=31, trials=3)
    rep = run_suite(["tel-c", "bigid", "m00"], 2, cfg, include_edges=True)
    numeric = [r for r in rep.results if r["mode"] == MODE_NUMERIC]
    assert any("->" in r["id"] for r in numeric)
    for rec in numeric:
        n, trial = rec["n"], rec["trial"]
        if "->" in rec["id"]:
            parent, child = rec["id"].split("->")
            prm = sample_edge_params(parent, child, cfg, trial, n)
            ref = reduce_chain_check(parent, child, prm, n, tol=EDGE_TOL,
                                     trial=trial)
        else:
            prm = sample_params(rec["id"], cfg, trial, n)
            ref = evaluate(rec["id"], prm, n, MODE_NUMERIC, DEFAULT_TOL, trial)
        assert rec == result_record(ref)


def test_each_draw_evaluated_once(monkeypatch):
    # every third call rejects its draw as a pole would, forcing redraws
    calls = {"all": 0, "rejected": 0}

    def counted(fn):
        def wrapper(*args, **kw):
            calls["all"] += 1
            if calls["all"] % 3 == 0:
                calls["rejected"] += 1
                raise DomainRejected("forced")
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(ellid.harness, "evaluate",
                        counted(ellid.harness.evaluate))
    monkeypatch.setattr(ellid.harness, "reduce_chain_check",
                        counted(ellid.harness.reduce_chain_check))
    # numeric-only identities, so every call is a sampled draw
    rep = run_suite(["tel-c", "bigid"], 3, SampleConfig(seed=9, trials=4),
                    include_edges=True)
    assert rep.all_passed and all("error" not in r for r in rep.results)
    assert any("->" in r["id"] for r in rep.results)
    assert calls["rejected"] > 0
    assert calls["all"] == len(rep.results) + calls["rejected"]


def test_error_records_carry_the_check_mode(monkeypatch):
    # every draw is rejected, so every sampled and sidecar check is exhausted
    def reject(*args, **kw):
        raise DomainRejected("forced")

    monkeypatch.setattr(ellid.harness, "evaluate", reject)
    monkeypatch.setattr(ellid.harness, "reduce_chain_check", reject)
    monkeypatch.setattr(ellid.harness, "MAX_RESAMPLES", 2)
    cfg = SampleConfig(seed=1, trials=1)
    rep = run_suite(["spc-2"], 2, cfg, include_edges=True)
    assert rep.results and all("error" in r for r in rep.results)
    modes = {("->" in r["id"], r["trial"] is None, r["mode"]) for r in rep.results}
    assert modes == {(False, False, MODE_NUMERIC), (False, True, MODE_EXACT_Q),
                     (True, False, MODE_NUMERIC)}


def test_exact_sidecar_is_redrawn_by_its_own_evaluation(monkeypatch):
    # the sidecar's first exact evaluation rejects its draw as a pole would;
    # the record is the next draw of the same stream, and it passes
    exact_draws = []
    evaluate_ = ellid.harness.evaluate

    def reject_first_exact(ident, prm, n, mode, *args):
        if mode != MODE_NUMERIC:
            exact_draws.append(prm)
            if len(exact_draws) == 1:
                raise DomainRejected("forced")
        return evaluate_(ident, prm, n, mode, *args)

    monkeypatch.setattr(ellid.harness, "evaluate", reject_first_exact)
    rep = run_suite(["spc-2"], 0, SampleConfig(seed=1, trials=1))
    rng = _CounterRng(1, "spc-2", 0, "exact")
    signature = get_identity("spc-2").param_signature
    assert exact_draws == [_draw_exact(rng, signature) for _ in range(2)]
    [rec] = [r for r in rep.results if r["mode"] == MODE_EXACT_Q]
    assert rec["pass"] and "error" not in rec
    assert rec["params"] == {k: [float(v), 0.0] for k, v in exact_draws[1].items()}
