"""Every memo hit of an environment is what a fresh computation returns.

One environment serves both sides of a check, and it memoises theta
(ThetaEnv), q^z (QEnv.qpow) and a full-elliptic context's num and wt.  The
audit wraps each memoised method so that every call also computes its value
without that memo and compares the two bit for bit: exponent, mantissa and
the sign of every zero.  Two broken keys show that the audit can fail.
"""

import ellid.elliptic
from ellid._scaled import ScaledComplex, exact_key
from ellid.elliptic import FullEllipticCtx, QEnv, ThetaEnv
from ellid.harness import SampleConfig, sample_edge_params, sample_params
from ellid.identities import NumericQ, evaluate, reduce_chain_check

N = 4
FULL = ["bigid", "tel-a", "tel-b", "basic-g", "m3rising", "sum-even", "tel-c"]
OTHERS = ["tel-c-a", "spc-1", "indef-1", "e-indef-1"]
EDGES = [("tel-a", "m3rising"), ("bigid", "spc-1")]
PINNED = {"tel-a": {"m": 2}, "tel-b": {"m": 2}}


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(x) for x in v)
    if isinstance(v, ScaledComplex):
        return (v.e, v.m.real.hex(), v.m.imag.hex())
    return v.hex()


def _audit(monkeypatch):
    """Wrap the memoised methods; returns (mismatches, hits per memo)."""
    bad, hits = [], {"theta": 0, "qpow": 0, "num": 0, "wt": 0}

    def check(name, memo, before, got, fresh, args):
        hits[name] += len(memo) == before
        if _bits(got) != _bits(fresh):
            bad.append((name, args))

    theta_of = ThetaEnv._theta_of

    def audited_theta(self, x, p):
        before = len(self._theta)
        got = theta_of(self, x, p)
        check("theta", self._theta, before, got,
              ellid.elliptic.theta_scaled(self.lift(x), p), (x, p))
        return got

    qpow = QEnv.qpow

    def audited_qpow(self, z):
        before = len(self._qpow)
        got = qpow(self, z)
        check("qpow", self._qpow, before, got, self.pow(self.q, z), (z,))
        return got

    def audited(name):
        method = getattr(FullEllipticCtx, name)

        def wrapper(self, z, s=0):
            memo = getattr(self, f"_{name}")
            before = len(memo)
            got = method(self, z, s)
            fresh = method(type(self)(self.a, self.b, self.q, self.p), z, s)
            check(name, memo, before, got, fresh, (z, s))
            return got

        return wrapper

    monkeypatch.setattr(ThetaEnv, "_theta_of", audited_theta)
    monkeypatch.setattr(QEnv, "qpow", audited_qpow)
    for name in ("num", "wt"):
        monkeypatch.setattr(FullEllipticCtx, name, audited(name))
    return bad, hits


def _run_checks():
    cfg = SampleConfig(seed=42, trials=1)
    for ident in FULL + OTHERS:
        evaluate(ident, sample_params(ident, cfg, 0, N, fixed=PINNED.get(ident)), N)
    for parent, child in EDGES:
        reduce_chain_check(parent, child, sample_edge_params(parent, child, cfg, 0, N), N)


def test_memo_hits_equal_fresh_values(monkeypatch):
    bad, hits = _audit(monkeypatch)
    _run_checks()
    assert bad == []
    assert all(hits.values()), hits


def test_audit_fails_a_theta_key_without_the_nome(monkeypatch):
    def theta_of(self, x, p):
        x = self.lift(x)
        key = exact_key(x)
        hit = self._theta.get(key)
        if hit is None:
            hit = self._theta[key] = ellid.elliptic.theta_scaled(x, p)
        return hit

    # a theta-family environment is asked at p and at p^2
    monkeypatch.setattr(ThetaEnv, "_theta_of", theta_of)
    bad, _ = _audit(monkeypatch)
    env, x, p = ThetaEnv(), 0.7 - 0.4j, 0.3 + 0.2j
    env.theta(x, p)
    env.theta(x, p * p)
    assert bad == [("theta", (x, p * p))]


def test_audit_fails_a_qpow_key_without_sign_bits(monkeypatch):
    # at a positive real q, q^z carries the sign of z's zero imaginary part
    def qpow(self, z):
        key = (z.real, z.imag)
        out = self._qpow.get(key)
        if out is None:
            out = self._qpow[key] = self.pow(self.q, z)
        return out

    monkeypatch.setattr(QEnv, "qpow", qpow)
    bad, _ = _audit(monkeypatch)
    env = NumericQ(0.5 + 0j)
    env.qpow(complex(-0.3, 0.0))
    env.qpow(complex(-0.3, -0.0))
    assert bad == [("qpow", (complex(-0.3, -0.0),))]


def test_exact_key_tells_apart_what_a_computation_could():
    assert exact_key(2) != exact_key(2.0) != exact_key(2 + 0j)
    assert exact_key(complex(-0.3, 0.0)) != exact_key(complex(-0.3, -0.0))
    assert exact_key(ScaledComplex(complex(-3, 0.0))) != exact_key(ScaledComplex(complex(-3, -0.0)))
    assert exact_key(ScaledComplex(0.5, 3)) != exact_key(ScaledComplex(0.5, 4))

