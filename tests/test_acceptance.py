"""Acceptance suite: one check per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import json
import time

from ellid.elliptic import FullEllipticCtx, _quad_rel_terms
from ellid._scaled import ScaledComplex, cpow, sc
from ellid.harness import SampleConfig, run_suite, sample_edge_params
from ellid.identities import catalog, edges, eval_exact, reduce_chain_check
from ellid.telescope import builder, telescope_both_sides
from ellid.theta import theta, theta_prod
from conftest import Draws


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


EXACT_SUITE_IDS = [
    "geo", "qodds", "sp1", "sp2", "warnaar-triangular", "warnaar-cubes",
    "spc-4i", "spc-4ii",
    "tel-c-a1", "tel-c-b1", "tel-c-aq", "tel-c-bq",       # assorted q-pairs
    "triangular", "even-b1", "even-aqq", "even-bqq",
    "m3rising-aq-a0", "m3rising-aq-a1", "m3rising-aq-aq",  # m3rising specials
    "m3rising-q2-aq", "m3rising-q2-a1q",
]


def test_criterion_1_exact_q_suite():
    t0 = time.time()
    checks = 0
    for ident in EXACT_SUITE_IDS:
        for n in range(0, 26):
            lhs, rhs = eval_exact(ident, n)
            assert lhs == rhs, (ident, n)
            checks += 1
    for c in range(0, 4):
        for d in range(0, 4):
            for g in range(0, 4):
                for h in range(0, 4):
                    if c * d == 0 or c * h + d * g == 0:
                        continue  # outside the identity's exact domain
                    for n in range(0, 26):
                        lhs, rhs = eval_exact(
                            "spc-2", n, {"c": c, "d": d, "g": g, "h": h})
                        assert lhs == rhs, ("spc-2", c, d, g, h, n)
                        checks += 1
    dt = time.time() - t0
    _report(1, dt < 10.0,
            f"exact q-suite: {checks} RationalFn equalities, n <= 25, {dt:.1f}s (< 10s)")


def test_criterion_2_bigid():
    t0 = time.time()
    rep = run_suite(["bigid"], 8, SampleConfig(seed=2025, trials=100), tol=1e-8)
    s = rep.summary["bigid"]
    dt = time.time() - t0
    ok = s["failures"] == 0 and s["trials"] == 900 and s["max_rel_err"] <= 1e-8 and dt < 60
    _report(2, ok, f"main identity: 900 draws over n in [0,8], "
                   f"max_rel_err {s['max_rel_err']:.2e} (<= 1e-8), {dt:.1f}s (< 60s)")


def test_criterion_3_degeneration_chain():
    cfg = SampleConfig(seed=7, trials=50)
    required = {("bigid", "spc-1"), ("spc-1", "spc-2"), ("spc-2", "spc-4i"),
                ("spc-2", "spc-4ii"), ("e-indef-1", "indef-1")}
    seen = set()
    worst = 0.0
    checks = 0
    for e in edges():
        seen.add((e.parent, e.child))
        lo = max(e.min_n, 1)
        for trial in range(50):
            n = lo + trial % 6
            prm = sample_edge_params(e.parent, e.child, cfg, trial, n)
            res = reduce_chain_check(e.parent, e.child, prm, n, tol=1e-10)
            assert res.passed, (e.parent, e.child, n, res.rel_err)
            worst = max(worst, res.rel_err)
            checks += 1
    ok = required <= seen and worst <= 1e-10
    _report(3, ok, f"degeneration chain: {len(seen)} edges x 50 draws "
                   f"({checks} checks), worst rel_err {worst:.2e} (<= 1e-10)")


def test_criterion_4_theta_laws():
    t0 = time.time()
    draws = Draws(404)
    worst_inv = 0.0
    for _ in range(1000):
        a, p = draws.box(0.1), draws.p(0.5)
        t1 = theta(a, p)
        t2 = theta(p / a, p) if p != 0 else t1
        t3 = -a * theta(1 / a, p)
        worst_inv = max(worst_inv, abs(t1 - t2) / abs(t1), abs(t1 - t3) / abs(t1))
    worst_add = 0.0
    for _ in range(1000):
        x, y, u, v = (draws.box(0.1) for _ in range(4))
        p = draws.p(0.5)
        t1 = theta_prod([x * y, x / y, u * v, u / v], p)
        t2 = theta_prod([x * v, x / v, u * y, u / y], p)
        t3 = theta_prod([y * v, y / v, x * u, x / u], p)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst_add = max(worst_add, abs(t1 - t2 - (u / y) * t3) / scale)
    dt = time.time() - t0
    ok = worst_inv <= 1e-10 and worst_add <= 1e-10 and dt < 5
    _report(4, ok, f"theta laws: inversion {worst_inv:.2e}, "
                   f"addition {worst_add:.2e} (<= 1e-10), 1000 draws each, {dt:.1f}s (< 5s)")


def test_criterion_5_elliptic_laws():
    draws = Draws(505)
    worst = {"recur1": 0.0, "5a": 0.0, "5b": 0.0, "5c": 0.0, "5d": 0.0,
             "quad-rel": 0.0}
    import cmath
    for _ in range(500):
        ctx = draws.params()
        x, y, r = draws.box(0.1), draws.box(0.1), draws.box(0.1)

        lhs = ctx.num(x + y)
        rhs = ctx.num(x) + ctx.wt(x) * ctx.num(y, s=x)
        worst["recur1"] = max(worst["recur1"], abs((lhs - rhs).to_complex())
                              / max(abs(lhs), abs(rhs), 1.0))

        lhs = ctx.wt(x + y)
        rhs = ctx.wt(x) * ctx.wt(y, s=x)
        worst["5a"] = max(worst["5a"], abs((lhs - rhs).to_complex()) / abs(lhs))

        lhs = ctx.wt(-x)
        rhs = 1.0 / ctx.wt(x, s=-x)
        worst["5b"] = max(worst["5b"], abs((lhs - rhs).to_complex()) / abs(lhs))

        lhs = ctx.num(-x)
        rhs = -(ctx.wt(-x) * ctx.num(x, s=-x))
        worst["5c"] = max(worst["5c"], abs((lhs - rhs).to_complex())
                          / max(abs(lhs), abs(rhs), 1.0))

        logq = cmath.log(ctx.q)
        inner = FullEllipticCtx(ctx.a, ctx.b * cmath.exp((1 - x) * logq),
                                cmath.exp(x * logq), ctx.p)
        inner.qpow = lambda z, w=x * logq: ScaledComplex.from_exp(complex(z) * w)
        lhs = ctx.num(x * y)
        rhs = ctx.num(x) * inner.num(y)
        worst["5d"] = max(worst["5d"], abs((lhs - rhs).to_complex())
                          / max(abs(lhs), abs(rhs), 1.0))

        t1, t2, t3 = _quad_rel_terms(x, y, r, ctx)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst["quad-rel"] = max(worst["quad-rel"],
                                abs((t1 - t2 - t3).to_complex()) / scale)

    worst_nome = 0.0
    done = 0
    while done < 200:
        ctx = draws.params()
        if ctx.p == 0:
            continue
        done += 1
        z = draws.box(0.1)
        v1 = ctx.num(z)
        v2 = ctx.num_from_power(sc(ctx.p) * cpow(ctx.q, z))
        worst_nome = max(worst_nome, abs((v1 - v2).to_complex())
                         / max(abs(v1), 1e-30))

    ok = all(v <= 1e-9 for v in worst.values()) and worst_nome <= 1e-9
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(5, ok, f"elliptic laws (500 draws each): {detail}; "
                   f"nome-shift {worst_nome:.1e} on 200 draws (<= 1e-9)")


def test_criterion_6_telescoping_structure():
    draws = Draws(606)
    worst_t = 0.0
    worst_sides = 0.0
    cases = [("tel-c", lambda: {}),
             ("tel-a", lambda: {"m": draws.rng.randint(0, 3)}),
             ("tel-b", lambda: {"m": draws.rng.randint(1, 3)}),
             ("bigid", lambda: {"c": draws.box(0.1), "d": draws.box(0.1),
                                "g": draws.box(0.1), "h": draws.box(0.1)})]
    for tid, mk in cases:
        for i in range(200):
            pair = builder(tid, draws.params(), mk())
            k = i % 6
            u, v, t = pair.u(k), pair.v(k), pair.t_claim(k)
            scale = max(abs(u), abs(v), abs(t))
            worst_t = max(worst_t, abs((u - v - t).to_complex()) / scale)
        for _ in range(5):
            pair = builder(tid, draws.params(), mk())
            lhs, rhs = telescope_both_sides(pair, 12)
            worst_sides = max(worst_sides, abs((lhs - rhs).to_complex())
                              / max(abs(lhs), abs(rhs), 1.0))
    ok = worst_t <= 1e-9 and worst_sides <= 1e-9
    _report(6, ok, f"telescoping: u_k - v_k vs t_k worst {worst_t:.2e} "
                   f"(200 draws x 4 builders), sides at n = 12 worst {worst_sides:.2e}")


def test_criterion_7_section3_suite():
    ids = ["indef-1", "e-indef-1", "warnaar-cubes-elliptic", "cubic-odds", "m00"]
    rep = run_suite(ids, 10, SampleConfig(seed=303, trials=100), tol=1e-8)
    failures = sum(s["failures"] for s in rep.summary.values())
    worst = max(s["max_rel_err"] for s in rep.summary.values())
    # multibasic draws use genuinely distinct bases
    m00_recs = [r for r in rep.results if r["id"] == "m00" and r["params"]]
    distinct = all(r["params"]["q"] != r["params"]["r"] != r["params"]["s"]
                   for r in m00_recs)
    ok = failures == 0 and worst <= 1e-8 and distinct and m00_recs
    _report(7, ok, f"indefinite-sum suite: {len(rep.results)} checks over "
                   f"n <= 10, worst rel_err {worst:.2e} (<= 1e-8), bases distinct")


#: sha256 of the seed-42 sweep report without its timings block, as
#: json.dumps writes it (2 vCPU, Python 3.11.7)
SWEEP_SEED_42_SHA256 = "6d5ade665c7d766a886d8d15663eff378cb9122244a5a18a215348df6dc9bff6"


def test_criterion_8_determinism(tmp_path):
    from ellid.cli import main
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["sweep", "--seed", "42", "--json", str(out1)])
    code2 = main(["sweep", "--seed", "42", "--json", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    ta = a.pop("timings")
    tb = b.pop("timings")
    ok = code1 == 0 and code2 == 0 and json.dumps(a) == json.dumps(b)
    _report(8, ok, f"sweep at seed 42 twice: exit codes ({code1}, {code2}), "
                   f"JSON identical modulo timings ({len(a['results'])} records)")
    digest = hashlib.sha256(json.dumps(a).encode()).hexdigest()
    assert digest == SWEEP_SEED_42_SHA256, (
        f"the seed-42 sweep report changed: sha256 {digest}. A new Python or "
        "libm (exp, log) changes it too. A change that alters the report on "
        "purpose updates SWEEP_SEED_42_SHA256 and says why in CHANGES.md.")


def test_catalog_end_to_end():
    # module invariant behind criteria 2 and 7: every catalog identity passes
    # 100 admissible draws for each n <= 10 (the flagship families run at
    # this scale inside their own criteria above and are skipped here)
    already = {"bigid", "indef-1", "e-indef-1", "warnaar-cubes-elliptic",
               "cubic-odds", "m00"}
    ids = [d.id for d in catalog()
           if d.id not in already and "numeric-elliptic" in d.modes]
    rep = run_suite(ids, 10, SampleConfig(seed=1717, trials=100), tol=1e-8)
    failures = sum(s["failures"] for s in rep.summary.values())
    worst = max(s["max_rel_err"] for s in rep.summary.values())
    print(f"catalog end-to-end: {len(rep.results)} checks, worst rel_err "
          f"{worst:.2e}, {failures} failures")
    assert failures == 0
