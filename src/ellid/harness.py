"""Randomized verification harness: sampling, suite execution, reporting.

Parameter draws are derived counter-style from a SHA-256 stream keyed by
(seed, identity, n, trial), or (seed, identity, n, "exact") for the small
integers of an exact check, so a draw depends only on its coordinates, never
on execution order.  A draw whose evaluation raises DomainRejected (near a
pole, or cancelling) is redrawn from the same stream.  The pole test is the
check itself, numeric or exact, and there is no other: the first evaluation
that does not reject its draw is the reported result, so each accepted draw
is evaluated exactly once.

Reports serialize to a stable JSON schema:

    { "config": {...},
      "results": [ { "id", "mode", "n", "trial", "lhs": [re, im],
                     "rhs": [re, im], "abs_err", "rel_err", "pass",
                     "params": { name: [re, im] } } ],
      "summary": { id: { "trials", "failures", "max_rel_err" } },
      "timings": {...} }

Complex numbers are two-element real arrays; exact-q entries replace lhs/rhs
by canonical coefficient maps { exponent: "rational-string" } of the result's
Laurent-polynomial sides, the cross-normalized lhs.num * rhs.den and
rhs.num * lhs.den that the check compared.  Two runs with the same
configuration produce byte-identical JSON except for the timings block.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial

from .errors import DomainRejected, ModeUnsupported, ResamplingExhausted
from .identities import (DEFAULT_TOL, EDGE_TOL, INT_MIN, MODE_NUMERIC,
                         VerificationResult, _check_n, _check_tol, _exact_mode,
                         edges, evaluate, get_edge, get_identity,
                         reduce_chain_check)
from ._scaled import POLE_TOL
from .qexact import LaurentPoly
from .theta import MAX_TERMS, TAIL_TOL

#: the theta truncation every report records
THETA_CONFIG = {"max_terms": MAX_TERMS, "tail_tol": TAIL_TOL}
#: sampling boxes: |q| of a base; |p| of a nome; re, im and least |z| of a
#: free parameter
Q_ANNULUS = (0.3, 0.9)
P_RADIUS = 0.5
BOX = (-1.0, 1.0)
BOX_EXCLUSION = 0.05
#: draws a check may reject before it is reported as exhausted
MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class SampleConfig:
    """Determinism controls; to_dict adds the fixed boxes."""

    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials,
                "p_radius": P_RADIUS, "q_annulus": list(Q_ANNULUS),
                "box": list(BOX), "box_exclusion": BOX_EXCLUSION,
                "pole_tol": POLE_TOL, "max_resamples": MAX_RESAMPLES}


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


def _draw_box(rng: _CounterRng) -> complex:
    lo, hi = BOX
    while True:
        z = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
        if abs(z) >= BOX_EXCLUSION:
            return z


def _draw_q(rng: _CounterRng) -> complex:
    rmin, rmax = Q_ANNULUS
    mod = rng.uniform(rmin, rmax)
    ang = rng.uniform(-math.pi, math.pi)
    return mod * cmath.exp(1j * ang)


def _draw_p(rng: _CounterRng) -> complex:
    r = P_RADIUS
    while True:
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z) <= r:
            return z


def _draw_params(rng: _CounterRng, signature, fixed: dict | None = None) -> dict:
    prm: dict = {}
    fixed = fixed or {}
    for name, kind in signature:
        if name in fixed:
            prm[name] = fixed[name]
        elif name == "q":
            prm[name] = _draw_q(rng)
        elif name == "p":
            prm[name] = _draw_p(rng)
        elif name == "r":
            prm[name] = prm["q"] ** 2
        elif name == "s":
            prm[name] = prm["q"] ** 3
        elif name == "m":
            prm[name] = rng.randint(INT_MIN[kind], 3)
        else:
            prm[name] = _draw_box(rng)
    return prm


def _draw_exact(rng: _CounterRng, signature) -> dict:
    """Exact-check integers: c and d in 1..3, the rest but q in 0..3."""
    return {name: rng.randint(1, 3) if name in ("c", "d") else rng.randint(0, 3)
            for name, _ in signature if name != "q"}


def _first_admissible(draw, check, what: str) -> VerificationResult:
    """Draw until check(draw()) does not reject the draw; return its result.

    check is the reported evaluate or reduce_chain_check call, and the one
    admissibility test: only its DomainRejected rejects a draw, so an accepted
    draw is evaluated once, and any other error (a bad tol) propagates at once.
    draw() advances the check's own stream, so acceptance cannot shift trials.
    """
    for _ in range(MAX_RESAMPLES):
        try:
            return check(draw())
        except DomainRejected:
            continue
    raise ResamplingExhausted(
        f"no admissible draw for {what} within {MAX_RESAMPLES} resamples")


def _sampled_check(ident, cfg: SampleConfig, trial_index: int, n: int, tol: float,
                   fixed: dict | None = None) -> VerificationResult:
    """Numeric check of an identity at its first admissible draw."""
    desc = get_identity(ident)
    _check_n(desc.id, n, desc.min_n)
    rng = _CounterRng(cfg.seed, desc.id, n, trial_index)
    return _first_admissible(
        lambda: _draw_params(rng, desc.param_signature, fixed),
        lambda prm: evaluate(desc, prm, n, MODE_NUMERIC, tol, trial_index),
        f"{desc.id} (n={n}, trial={trial_index})")


def sample_params(ident, cfg: SampleConfig, trial_index: int, n: int = 4,
                  fixed: dict | None = None) -> dict:
    """First admissible parameter draw for (identity, n, trial_index).

    The draw stream is keyed by (seed, id, n, trial_index).  A draw is
    admissible when the numeric check at DEFAULT_TOL does not reject it
    (raise DomainRejected).  The suite runner and `ellid verify` report the
    evaluation that accepted the draw instead of evaluating these parameters
    again.  A non-finite fixed value raises ValueError naming it.
    """
    return _sampled_check(ident, cfg, trial_index, n, DEFAULT_TOL, fixed).params


def _sampled_edge_check(parent_id: str, child_id: str, cfg: SampleConfig,
                        trial_index: int, n: int) -> VerificationResult:
    """Degeneration-edge check at its first admissible draw."""
    ident = f"{parent_id}->{child_id}"
    _check_n(ident, n, get_edge(parent_id, child_id).min_n)
    signature = get_identity(child_id).param_signature
    rng = _CounterRng(cfg.seed, ident, n, trial_index)
    return _first_admissible(
        lambda: _draw_params(rng, signature),
        lambda prm: reduce_chain_check(parent_id, child_id, prm, n,
                                       tol=EDGE_TOL, trial=trial_index),
        f"edge {ident} (n={n}, trial={trial_index})")


def _exact_check(desc, cfg: SampleConfig, n: int, tol: float) -> VerificationResult:
    """Exact check of an identity at the first small-integer draw it accepts."""
    mode = _exact_mode(desc)
    rng = _CounterRng(cfg.seed, desc.id, n, "exact")
    return _first_admissible(
        lambda: _draw_exact(rng, desc.param_signature),
        lambda prm: evaluate(desc.id, prm, n, mode, tol),
        f"{desc.id} (n={n}, {mode})")


def sample_edge_params(parent_id: str, child_id: str, cfg: SampleConfig,
                       trial_index: int, n: int) -> dict:
    """Admissible draw for a degeneration edge (both endpoints evaluable).

    The draw has the child's parameters alone: the parent is evaluated in
    the child's limit, at the child's parameters, and reads no others.
    """
    return _sampled_edge_check(parent_id, child_id, cfg, trial_index, n).params


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _coeff_map(poly) -> dict:
    return {str(e): str(c) for e, c in sorted(poly.coeffs.items())}


def result_record(res: VerificationResult) -> dict:
    """One VerificationResult in the JSON schema."""
    if isinstance(res.lhs, LaurentPoly):
        lhs, rhs = _coeff_map(res.lhs), _coeff_map(res.rhs)
    else:
        lhs, rhs = _cnum(res.lhs), _cnum(res.rhs)
    params = {k: _cnum(res.params[k]) for k in sorted(res.params)}
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


def run_suite(ids, n_max: int, cfg: SampleConfig, tol: float = DEFAULT_TOL,
              include_edges: bool = False) -> SuiteReport:
    """Verify each identity for n in [0, n_max] over cfg.trials random draws.

    A task is a record's (id, mode, n, trial) and its check, whose result is
    the evaluation that accepted its draw.  Identities with an exact mode add
    one exact check per n at the first small-integer draw it accepts; edges
    (include_edges) are checked at EDGE_TOL.  Per-trial failures (resampling
    exhaustion included) are recorded with the check's mode, never raised; a
    configuration that could only fail part-way (n_max < 0, tol outside
    (0, 1)) raises ValueError first.  Every sampled nome (|p| <= P_RADIUS)
    meets the 1e-14 theta tail rule within theta.MAX_TERMS terms.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    _check_tol(tol)
    t0 = time.monotonic()
    descs = [get_identity(i) for i in ids]
    tasks = []
    for desc in descs:
        for n in range(desc.min_n, n_max + 1):
            if MODE_NUMERIC in desc.modes:
                for trial in range(cfg.trials):
                    tasks.append((desc.id, MODE_NUMERIC, n, trial,
                                  partial(_sampled_check, desc, cfg, trial, n, tol)))
            if desc.modes - {MODE_NUMERIC}:
                tasks.append((desc.id, _exact_mode(desc), n, None,
                              partial(_exact_check, desc, cfg, n, tol)))
    if include_edges:
        for edge in edges():
            ident = f"{edge.parent}->{edge.child}"
            for n in range(edge.min_n, n_max + 1):
                for trial in range(cfg.trials):
                    tasks.append((ident, MODE_NUMERIC, n, trial,
                                  partial(_sampled_edge_check, edge.parent,
                                          edge.child, cfg, trial, n)))

    def run_one(ident, mode, n, trial, check) -> dict:
        try:
            return result_record(check())
        except (DomainRejected, ResamplingExhausted, ModeUnsupported) as exc:
            return {"id": ident, "mode": mode, "n": n, "trial": trial,
                    "lhs": None, "rhs": None, "abs_err": math.inf,
                    "rel_err": math.inf, "pass": False,
                    "params": {}, "error": str(exc)}

    records = [run_one(*t) for t in tasks]
    return SuiteReport(config={"sample": cfg.to_dict(),
                               "theta": dict(THETA_CONFIG),
                               "tol": tol, "n_max": n_max,
                               "ids": [d.id for d in descs],
                               "edges": include_edges},
                       results=records,
                       timings={"total_seconds": time.monotonic() - t0})
