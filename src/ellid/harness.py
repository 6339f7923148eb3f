"""Randomized verification harness: sampling, suite execution, reporting.

Parameter draws are derived counter-style from a SHA-256 stream keyed by
(seed, identity, n, trial), so a draw depends only on its coordinates, never
on execution order.  Draws that hit a pole of the identity
(any denominator theta factor within the pole tolerance) are rejected and
redrawn from the same stream.  The pole test is the check itself: the first
evaluation that does not reject its draw is the reported result, so each
accepted draw is evaluated exactly once.

Reports serialize to a stable JSON schema:

    { "config": {...},
      "results": [ { "id", "mode", "n", "trial", "lhs": [re, im],
                     "rhs": [re, im], "abs_err", "rel_err", "pass",
                     "params": { name: [re, im] } } ],
      "summary": { id: { "trials", "failures", "max_rel_err" } },
      "timings": {...} }

Complex numbers are two-element real arrays; exact-mode entries replace
lhs/rhs by canonical coefficient maps { exponent: "rational-string" } of the
cross-normalized Laurent polynomials (lhs.num * rhs.den and rhs.num * lhs.den,
which are equal exactly when the identity holds).  Two runs with the same
configuration produce byte-identical JSON except for the timings block.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainRejected, ModeUnsupported, ResamplingExhausted
from .identities import (MODE_EXACT_Q, MODE_EXACT_RATIONAL, MODE_NUMERIC,
                         VerificationResult, _exact_mode, edges, evaluate,
                         get_edge, get_identity, reduce_chain_check)
from .qexact import RationalFn
from .theta import POLE_TOL, ThetaConfig, truncation_terms

DEFAULT_TOL = 1e-8
EDGE_TOL = 1e-10


@dataclass(frozen=True)
class SampleConfig:
    """Sampling boxes and determinism controls for the harness."""

    seed: int = 0
    trials: int = 100
    p_radius: float = 0.5
    q_annulus: tuple = (0.3, 0.9)
    box: tuple = (-1.0, 1.0)
    box_exclusion: float = 0.05
    max_resamples: int = 1000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0.0 <= self.p_radius <= 0.9:
            raise ValueError("p_radius must lie in [0, 0.9]")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be positive")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials,
                "p_radius": self.p_radius, "q_annulus": list(self.q_annulus),
                "box": list(self.box), "box_exclusion": self.box_exclusion,
                "pole_tol": POLE_TOL, "max_resamples": self.max_resamples}


class _CounterRng:
    """Uniform deviates from a SHA-256 counter stream keyed by coordinates."""

    __slots__ = ("_prefix", "_i")

    def __init__(self, seed: int, *key):
        self._prefix = str(seed) + "|" + "|".join(str(k) for k in key)
        self._i = 0

    def _u64(self) -> int:
        h = hashlib.sha256(f"{self._prefix}|{self._i}".encode()).digest()
        self._i += 1
        return int.from_bytes(h[:8], "big")

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self._u64() / 2.0**64)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self._u64() % (hi - lo + 1)


def _draw_box(rng: _CounterRng, cfg: SampleConfig) -> complex:
    lo, hi = cfg.box
    while True:
        z = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
        if abs(z) >= cfg.box_exclusion:
            return z


def _draw_q(rng: _CounterRng, cfg: SampleConfig) -> complex:
    rmin, rmax = cfg.q_annulus
    mod = rng.uniform(rmin, rmax)
    ang = rng.uniform(-math.pi, math.pi)
    return mod * cmath.exp(1j * ang)


def _draw_p(rng: _CounterRng, cfg: SampleConfig) -> complex:
    r = cfg.p_radius
    if r == 0.0:
        return 0j
    while True:
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z) <= r:
            return z


def _draw_params(rng: _CounterRng, signature, cfg: SampleConfig, ident_id: str,
                 fixed: dict | None = None) -> dict:
    prm: dict = {}
    fixed = fixed or {}
    for name, kind in signature:
        if name in fixed:
            prm[name] = fixed[name]
        elif name == "q":
            prm[name] = _draw_q(rng, cfg)
        elif name == "p":
            prm[name] = _draw_p(rng, cfg)
        elif name == "r":
            prm[name] = prm["q"] ** 2
        elif name == "s":
            prm[name] = prm["q"] ** 3
        elif name == "m":
            prm[name] = rng.randint(0 if ident_id == "tel-a" else 1, 3)
        else:
            prm[name] = _draw_box(rng, cfg)
    return prm


def _first_admissible(rng: _CounterRng, signature, cfg: SampleConfig,
                      draw_id: str, fixed: dict | None, check,
                      what: str) -> VerificationResult:
    """Draw until check(params) does not reject the draw; return its result.

    check is the reported evaluation itself, so an accepted draw is evaluated
    once.  Rejected draws advance the same stream, so acceptance history
    cannot shift later trials.
    """
    for _ in range(cfg.max_resamples):
        prm = _draw_params(rng, signature, cfg, draw_id, fixed)
        try:
            return check(prm)
        except DomainRejected:
            continue
    raise ResamplingExhausted(
        f"no admissible draw for {what} within {cfg.max_resamples} resamples")


def _sampled_check(ident, cfg: SampleConfig, trial_index: int, n: int,
                   theta_cfg: ThetaConfig, tol: float,
                   fixed: dict | None = None) -> VerificationResult:
    """Numeric check of an identity at its first admissible draw."""
    desc = get_identity(ident)
    if n < desc.min_n:
        raise ValueError(f"{desc.id} needs n >= {desc.min_n}, got {n}")
    rng = _CounterRng(cfg.seed, desc.id, n, trial_index)
    return _first_admissible(
        rng, desc.param_signature, cfg, desc.id, fixed,
        lambda prm: evaluate(desc, prm, n, MODE_NUMERIC, theta_cfg, tol, trial_index),
        f"{desc.id} (n={n}, trial={trial_index})")


def sample_params(ident, cfg: SampleConfig, trial_index: int, n: int = 4,
                  theta_cfg: ThetaConfig = ThetaConfig(),
                  fixed: dict | None = None) -> dict:
    """First admissible parameter draw for (identity, n, trial_index).

    The draw stream is keyed by (seed, id, n, trial_index).  The domain
    predicate is realized by attempting both evaluators: a draw is admissible
    exactly when no sub-evaluation hits the pole tolerance.  The suite runner
    and `ellid verify` report the evaluation that accepted the draw instead
    of evaluating these parameters again.
    """
    return _sampled_check(ident, cfg, trial_index, n, theta_cfg, DEFAULT_TOL,
                          fixed).params


def _edge_signature(edge) -> tuple:
    """Child signature extended by any parent-only parameter names."""
    child = get_identity(edge.child)
    parent = get_identity(edge.parent)
    names = {name for name, _ in child.param_signature}
    sig = list(child.param_signature)
    for name, kind in parent.param_signature:
        if name not in names:
            sig.append((name, kind))
            names.add(name)
    return tuple(sig)


def _sampled_edge_check(parent_id: str, child_id: str, cfg: SampleConfig,
                        trial_index: int, n: int,
                        theta_cfg: ThetaConfig) -> VerificationResult:
    """Degeneration-edge check at its first admissible draw."""
    edge = get_edge(parent_id, child_id)
    lo = max(edge.min_n, get_identity(child_id).min_n)
    if n < lo:
        raise ValueError(f"edge {parent_id}->{child_id} needs n >= {lo}, got {n}")
    rng = _CounterRng(cfg.seed, f"{parent_id}->{child_id}", n, trial_index)
    return _first_admissible(
        rng, _edge_signature(edge), cfg, child_id, None,
        lambda prm: reduce_chain_check(parent_id, child_id, prm, n, cfg=theta_cfg,
                                       tol=EDGE_TOL, trial=trial_index),
        f"edge {parent_id}->{child_id} (n={n}, trial={trial_index})")


def sample_edge_params(parent_id: str, child_id: str, cfg: SampleConfig,
                       trial_index: int, n: int,
                       theta_cfg: ThetaConfig = ThetaConfig()) -> dict:
    """Admissible draw for a degeneration edge (both endpoints evaluable)."""
    return _sampled_edge_check(parent_id, child_id, cfg, trial_index, n,
                               theta_cfg).params


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _coeff_map(poly) -> dict:
    return {str(e): str(c) for e, c in sorted(poly.coeffs.items())}


def _cross_coeff_maps(lhs: RationalFn, rhs: RationalFn) -> tuple[dict, dict]:
    return (_coeff_map(lhs.num * rhs.den), _coeff_map(rhs.num * lhs.den))


def result_record(res: VerificationResult) -> dict:
    """One VerificationResult in the JSON schema."""
    if isinstance(res.lhs, RationalFn) and isinstance(res.rhs, RationalFn):
        lhs, rhs = _cross_coeff_maps(res.lhs, res.rhs)
    else:
        lhs, rhs = _cnum(res.lhs), _cnum(res.rhs)
    params = {}
    for k in sorted(res.params):
        v = res.params[k]
        params[k] = _cnum(v) if not isinstance(v, (int, Fraction)) else [float(v), 0.0]
    return {"id": res.identity, "mode": res.mode, "n": res.n, "trial": res.trial,
            "lhs": lhs, "rhs": rhs, "abs_err": res.abs_err, "rel_err": res.rel_err,
            "pass": res.passed, "params": params}


@dataclass
class SuiteReport:
    """Aggregated suite outcome; serializes losslessly to the JSON schema."""

    config: dict
    results: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.results)

    @property
    def summary(self) -> dict:
        """Per-identity trials, failures and max_rel_err, sorted by id."""
        summary: dict = {}
        for r in self.results:
            s = summary.setdefault(r["id"], {"trials": 0, "failures": 0,
                                             "max_rel_err": 0.0})
            s["trials"] += 1
            if not r["pass"]:
                s["failures"] += 1
            if isinstance(r["rel_err"], (int, float)) and r["rel_err"] > s["max_rel_err"]:
                s["max_rel_err"] = r["rel_err"]
        return dict(sorted(summary.items()))

    def to_dict(self) -> dict:
        return {"config": self.config, "results": self.results,
                "summary": self.summary, "timings": self.timings}

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "SuiteReport":
        d = json.loads(text)
        return SuiteReport(d["config"], d["results"], d["timings"])


def _exact_sidecar_params(desc, cfg: SampleConfig, n: int) -> dict | None:
    """Deterministic small-integer parameters for the per-n exact run."""
    if not desc.param_signature or desc.param_signature == (("q", "complex"),):
        return {}
    rng = _CounterRng(cfg.seed, desc.id, n, "exact")
    for _ in range(cfg.max_resamples):
        prm = {}
        for name, kind in desc.param_signature:
            if name == "q":
                continue
            prm[name] = rng.randint(1, 3) if name in ("c", "d") else rng.randint(0, 3)
        if desc.exact_domain is None or desc.exact_domain(prm):
            return prm
    return None


def _check_tol(tol: float) -> None:
    """A numeric tolerance is a number in (0, 1); nan and inf are not."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _check_theta_terms(cfg: SampleConfig, theta_cfg: ThetaConfig) -> None:
    """Reject a theta truncation too short for some draw of the nome box.

    The worst draw has |p| = p_radius and, after the quasi-periodicity
    reduction, |a| = |p|; every other draw needs at most as many terms.
    """
    if cfg.p_radius == 0.0:
        return
    need = truncation_terms(cfg.p_radius, cfg.p_radius, theta_cfg.tail_tol)
    if need > theta_cfg.max_terms:
        raise ValueError(f"p_radius = {cfg.p_radius} needs theta max_terms >= {need}, "
                         f"got {theta_cfg.max_terms}")


def run_suite(ids, n_max: int, cfg: SampleConfig, tol: float = DEFAULT_TOL,
              theta_cfg: ThetaConfig = ThetaConfig(),
              include_edges: bool = False) -> SuiteReport:
    """Verify each identity for n in [0, n_max] over cfg.trials random draws.

    Each numeric record is the evaluation that accepted its draw, so every
    draw is evaluated once.  Identities with an exact mode additionally run
    one exact check per n with deterministic small-integer parameters.
    Per-trial failures (including resampling exhaustion) are recorded in the
    report with the mode the check would have run in, never raised; a
    configuration that could only fail part-way (n_max < 0, tol outside
    (0, 1), too few theta terms for the nome box) raises ValueError first.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    _check_tol(tol)
    _check_theta_terms(cfg, theta_cfg)
    t0 = time.monotonic()
    descs = [get_identity(i) for i in ids]
    tasks = []
    for desc in descs:
        for n in range(desc.min_n, n_max + 1):
            if MODE_NUMERIC in desc.modes:
                for trial in range(cfg.trials):
                    tasks.append(("id", desc.id, n, trial))
            if MODE_EXACT_Q in desc.modes or MODE_EXACT_RATIONAL in desc.modes:
                tasks.append(("exact", desc.id, n, None))
    if include_edges:
        for edge in edges():
            child = get_identity(edge.child)
            lo = max(edge.min_n, child.min_n)
            for n in range(lo, n_max + 1):
                for trial in range(cfg.trials):
                    tasks.append(("edge", f"{edge.parent}->{edge.child}", n, trial))

    def run_one(task) -> dict:
        kind, ident, n, trial = task
        mode = MODE_NUMERIC
        try:
            if kind == "id":
                res = _sampled_check(ident, cfg, trial, n, theta_cfg, tol)
            elif kind == "exact":
                desc = get_identity(ident)
                mode = _exact_mode(desc)
                prm = _exact_sidecar_params(desc, cfg, n)
                if prm is None:
                    raise ResamplingExhausted(f"no admissible exact parameters for {ident}")
                res = evaluate(ident, prm, n, mode, theta_cfg, tol)
            else:
                parent, child = ident.split("->")
                res = _sampled_edge_check(parent, child, cfg, trial, n, theta_cfg)
            return result_record(res)
        except (DomainRejected, ResamplingExhausted, ModeUnsupported) as exc:
            return {"id": ident, "mode": mode, "n": n, "trial": trial,
                    "lhs": None, "rhs": None, "abs_err": math.inf,
                    "rel_err": math.inf, "pass": False,
                    "params": {}, "error": str(exc)}

    records = [run_one(t) for t in tasks]
    return SuiteReport(config={"sample": cfg.to_dict(),
                               "theta": {"max_terms": theta_cfg.max_terms,
                                         "tail_tol": theta_cfg.tail_tol},
                               "tol": tol, "n_max": n_max,
                               "ids": [d.id for d in descs],
                               "edges": include_edges},
                       results=records,
                       timings={"total_seconds": time.monotonic() - t0})
